#ifndef QPLEX_QUBO_QUBO_MODEL_H_
#define QPLEX_QUBO_QUBO_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace qplex {

/// An assignment of the binary variables (one byte per variable, 0 or 1).
using QuboSample = std::vector<std::uint8_t>;

/// A quadratic unconstrained binary optimization problem
///   E(x) = offset + sum_i a_i x_i + sum_{i<j} b_ij x_i x_j,  x_i in {0,1},
/// to be minimized. Quadratic terms are stored symmetrically folded onto
/// i < j; duplicate Add calls accumulate. Per-variable adjacency is kept so
/// annealers can compute single-flip energy deltas in O(degree).
class QuboModel {
 public:
  explicit QuboModel(int num_variables);

  int num_variables() const { return num_variables_; }
  double offset() const { return offset_; }

  void AddOffset(double value) { offset_ += value; }
  /// Accumulates a_i += weight.
  void AddLinear(int i, double weight);
  /// Accumulates b_ij += weight (i != j; stored on the i<j key).
  void AddQuadratic(int i, int j, double weight);

  double linear(int i) const;
  /// Quadratic coefficient (0 when absent).
  double quadratic(int i, int j) const;
  /// All quadratic terms with nonzero accumulated weight, keyed (i, j), i<j.
  const std::map<std::pair<int, int>, double>& quadratic_terms() const {
    return quadratic_;
  }
  std::int64_t num_quadratic_terms() const {
    return static_cast<std::int64_t>(quadratic_.size());
  }

  /// Full energy of a sample. O(n + #terms).
  double Evaluate(const QuboSample& sample) const;

  /// Energy change caused by flipping variable `i` in `sample`. O(deg(i)).
  double FlipDelta(const QuboSample& sample, int i) const;

  /// The interaction graph: vertices = variables, edges = quadratic terms.
  /// This is what gets minor-embedded onto annealer hardware.
  Graph InteractionGraph() const;

  /// One-line summary for logs.
  std::string ToString() const;

 private:
  int num_variables_;
  double offset_ = 0;
  std::vector<double> linear_;
  std::map<std::pair<int, int>, double> quadratic_;
  std::vector<std::vector<std::pair<int, double>>> neighbors_;
};

}  // namespace qplex

#endif  // QPLEX_QUBO_QUBO_MODEL_H_

#include "qubo/qubo_model.h"

#include <algorithm>
#include <sstream>

namespace qplex {

QuboModel::QuboModel(int num_variables)
    : num_variables_(num_variables),
      linear_(num_variables, 0.0),
      neighbors_(num_variables) {
  QPLEX_CHECK(num_variables >= 0) << "negative variable count";
}

void QuboModel::AddLinear(int i, double weight) {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i << " of "
                                            << num_variables_;
  linear_[i] += weight;
}

void QuboModel::AddQuadratic(int i, int j, double weight) {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i;
  QPLEX_CHECK(j >= 0 && j < num_variables_) << "variable " << j;
  QPLEX_CHECK(i != j) << "diagonal terms belong in AddLinear (x^2 == x)";
  const auto key = std::minmax(i, j);
  const auto [it, inserted] = quadratic_.try_emplace(key, weight);
  if (inserted) {
    neighbors_[i].emplace_back(j, weight);
    neighbors_[j].emplace_back(i, weight);
  } else {
    it->second += weight;
    for (auto& [other, w] : neighbors_[i]) {
      if (other == j) {
        w += weight;
      }
    }
    for (auto& [other, w] : neighbors_[j]) {
      if (other == i) {
        w += weight;
      }
    }
  }
}

double QuboModel::linear(int i) const {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i;
  return linear_[i];
}

double QuboModel::quadratic(int i, int j) const {
  const auto it = quadratic_.find(std::minmax(i, j));
  return it == quadratic_.end() ? 0.0 : it->second;
}

double QuboModel::Evaluate(const QuboSample& sample) const {
  QPLEX_CHECK(static_cast<int>(sample.size()) == num_variables_)
      << "sample arity mismatch";
  double energy = offset_;
  for (int i = 0; i < num_variables_; ++i) {
    if (sample[i]) {
      energy += linear_[i];
    }
  }
  for (const auto& [key, weight] : quadratic_) {
    if (sample[key.first] && sample[key.second]) {
      energy += weight;
    }
  }
  return energy;
}

double QuboModel::FlipDelta(const QuboSample& sample, int i) const {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i;
  // Contribution of x_i given the rest of the sample. Multiplying by the
  // 0/1 bit instead of branching on it keeps the annealers' hot loop free of
  // data-dependent branches; weight * 0 adds an exact zero.
  double slope = linear_[i];
  for (const auto& [j, weight] : neighbors_[i]) {
    slope += weight * sample[j];
  }
  return sample[i] ? -slope : slope;
}

Graph QuboModel::InteractionGraph() const {
  Graph graph(num_variables_);
  for (const auto& [key, weight] : quadratic_) {
    if (weight != 0.0) {
      graph.AddEdge(key.first, key.second);
    }
  }
  return graph;
}

std::string QuboModel::ToString() const {
  std::ostringstream out;
  out << "QuboModel(vars=" << num_variables_
      << ", quadratic_terms=" << quadratic_.size() << ", offset=" << offset_
      << ")";
  return out.str();
}

}  // namespace qplex

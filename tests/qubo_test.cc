#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "classical/exact.h"
#include "graph/generators.h"
#include "graph/instances.h"
#include "graph/kplex.h"
#include "qubo/mkp_qubo.h"
#include "qubo/qubo_model.h"

namespace qplex {
namespace {

TEST(QuboModelTest, EvaluateLinearAndQuadratic) {
  QuboModel model(3);
  model.AddOffset(1.5);
  model.AddLinear(0, 2.0);
  model.AddLinear(2, -1.0);
  model.AddQuadratic(0, 1, 4.0);
  model.AddQuadratic(1, 2, -3.0);

  EXPECT_DOUBLE_EQ(model.Evaluate({0, 0, 0}), 1.5);
  EXPECT_DOUBLE_EQ(model.Evaluate({1, 0, 0}), 3.5);
  EXPECT_DOUBLE_EQ(model.Evaluate({1, 1, 0}), 7.5);
  EXPECT_DOUBLE_EQ(model.Evaluate({1, 1, 1}), 3.5);
}

TEST(QuboModelTest, QuadraticAccumulates) {
  QuboModel model(2);
  model.AddQuadratic(0, 1, 1.0);
  model.AddQuadratic(1, 0, 2.5);  // folded onto the same key
  EXPECT_DOUBLE_EQ(model.quadratic(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(model.quadratic(1, 0), 3.5);
  EXPECT_EQ(model.num_quadratic_terms(), 1);
}

TEST(QuboModelTest, FlipDeltaMatchesFullEvaluation) {
  Rng rng(5);
  QuboModel model(8);
  for (int i = 0; i < 8; ++i) {
    model.AddLinear(i, rng.UniformDouble() * 4 - 2);
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      if (rng.Bernoulli(0.5)) {
        model.AddQuadratic(i, j, rng.UniformDouble() * 4 - 2);
      }
    }
  }
  QuboSample sample(8);
  for (int trial = 0; trial < 64; ++trial) {
    for (int i = 0; i < 8; ++i) {
      sample[i] = static_cast<std::uint8_t>(rng.Next() & 1);
    }
    for (int i = 0; i < 8; ++i) {
      const double before = model.Evaluate(sample);
      const double delta = model.FlipDelta(sample, i);
      sample[i] ^= 1;
      EXPECT_NEAR(model.Evaluate(sample), before + delta, 1e-9);
      sample[i] ^= 1;
    }
  }
}

TEST(QuboModelTest, InteractionGraph) {
  QuboModel model(4);
  model.AddQuadratic(0, 1, 1.0);
  model.AddQuadratic(2, 3, -1.0);
  const Graph graph = model.InteractionGraph();
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(2, 3));
  EXPECT_FALSE(graph.HasEdge(0, 2));
}

// -- MkpQubo ------------------------------------------------------------------

TEST(MkpQuboTest, BuildValidation) {
  EXPECT_FALSE(BuildMkpQubo(PaperExampleGraph(), 0).ok());
  MkpQuboOptions bad;
  bad.penalty = 1.0;
  EXPECT_FALSE(BuildMkpQubo(PaperExampleGraph(), 2, bad).ok());
  EXPECT_TRUE(BuildMkpQubo(PaperExampleGraph(), 2).ok());
}

TEST(MkpQuboTest, VariableCountIsNPlusSlacks) {
  const MkpQubo qubo = BuildMkpQubo(PaperExampleGraph(), 2).value();
  EXPECT_EQ(qubo.num_vertices(), 6);
  int slack_total = 0;
  for (int bits : qubo.slack_bits) {
    slack_total += bits;
  }
  EXPECT_EQ(qubo.num_variables(), 6 + slack_total);
  EXPECT_EQ(qubo.num_slack_variables(), slack_total);
}

/// The central correctness property (paper Section IV-B): the global QUBO
/// minimum, restricted to the vertex bits, is a maximum k-plex, and its
/// energy equals -opt_size.
class MkpQuboExhaustiveTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MkpQuboExhaustiveTest, GlobalMinimumIsMaximumKPlex) {
  const auto [k, seed] = GetParam();
  const Graph graph = RandomGnm(6, 8, seed).value();
  const MkpQubo qubo = BuildMkpQubo(graph, k).value();
  const int total_vars = qubo.num_variables();
  ASSERT_LE(total_vars, 22) << "exhaustive sweep too wide";

  double min_energy = 1e300;
  QuboSample best;
  QuboSample sample(total_vars);
  for (std::uint64_t assignment = 0;
       assignment < (std::uint64_t{1} << total_vars); ++assignment) {
    for (int i = 0; i < total_vars; ++i) {
      sample[i] = (assignment >> i) & 1;
    }
    const double energy = qubo.Cost(sample);
    if (energy < min_energy) {
      min_energy = energy;
      best = sample;
    }
  }

  const MkpSolution expected = SolveMkpByEnumeration(graph, k).value();
  EXPECT_NEAR(min_energy, MkpQubo::CostOfPlexSize(expected.size), 1e-9);
  const VertexList decoded = qubo.DecodeVertices(best);
  EXPECT_EQ(static_cast<int>(decoded.size()), expected.size);
  EXPECT_TRUE(qubo.IsFeasible(best));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MkpQuboExhaustiveTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(21, 42)));

TEST(MkpQuboTest, FeasibleAssignmentsReachZeroPenalty) {
  // For every k-plex, x = plex with optimally configured slacks must have
  // energy exactly -|plex| (penalty zero).
  const Graph graph = PaperExampleGraph();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  const auto adjacency = AdjacencyMasks(graph);
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    if (!IsKPlexMask(adjacency, mask, 2)) {
      continue;
    }
    QuboSample sample(qubo.num_variables(), 0);
    for (int v = 0; v < 6; ++v) {
      sample[v] = (mask >> v) & 1;
    }
    qubo.OptimizeSlacks(&sample);
    EXPECT_NEAR(qubo.Cost(sample),
                MkpQubo::CostOfPlexSize(__builtin_popcountll(mask)), 1e-9)
        << "mask " << mask;
  }
}

TEST(MkpQuboTest, InfeasibleAssignmentsPayPenalty) {
  // For every non-k-plex, even with optimal slacks the energy must exceed
  // -|set| (some vertex violates its constraint).
  const Graph graph = PaperExampleGraph();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  const auto adjacency = AdjacencyMasks(graph);
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    if (IsKPlexMask(adjacency, mask, 2)) {
      continue;
    }
    QuboSample sample(qubo.num_variables(), 0);
    for (int v = 0; v < 6; ++v) {
      sample[v] = (mask >> v) & 1;
    }
    qubo.OptimizeSlacks(&sample);
    EXPECT_GT(qubo.Cost(sample),
              MkpQubo::CostOfPlexSize(__builtin_popcountll(mask)) + 0.5)
        << "mask " << mask;
  }
}

TEST(MkpQuboTest, RepairProducesPlex) {
  const Graph graph = RandomGnm(10, 25, 3).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    QuboSample sample(qubo.num_variables());
    for (auto& bit : sample) {
      bit = static_cast<std::uint8_t>(rng.Next() & 1);
    }
    const VertexList repaired = qubo.RepairToPlex(sample);
    EXPECT_TRUE(IsKPlex(graph, VertexBitset::FromList(10, repaired), 2));
  }
}

TEST(MkpQuboTest, SlackCountIsNLogN) {
  // The paper's headline resource claim: n + sum L_i = O(n log n) variables.
  const Graph graph = RandomGnm(20, 95, 1).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 3).value();
  const double bound = 20 * (1 + std::ceil(std::log2(20)));
  EXPECT_LE(qubo.num_variables(), bound);
}

TEST(MkpQuboTest, DecodeVertices) {
  const MkpQubo qubo = BuildMkpQubo(PaperExampleGraph(), 2).value();
  QuboSample sample(qubo.num_variables(), 0);
  sample[0] = sample[3] = 1;
  EXPECT_EQ(qubo.DecodeVertices(sample), (VertexList{0, 3}));
}

}  // namespace
}  // namespace qplex

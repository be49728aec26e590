/// Tests for the pseudo-cost branching rule: the table's per-direction
/// averaging and its two fallbacks (running average, cold start), and the
/// rule's effect on the k = 2 eager EPN instance the exploration benchmark
/// solves (deterministic, certified, and inside a node bound).
#include "milp/pseudocost.hpp"

#include <gtest/gtest.h>

#include "arch/problem.hpp"
#include "domains/epn.hpp"
#include "milp/branch_bound.hpp"

namespace archex::milp {
namespace {

using Dir = PseudoCosts::Dir;

TEST(PseudoCostTest, AveragesBoundChangePerUnitPerDirection) {
  PseudoCosts pc(3);
  pc.record(0, Dir::Down, 0.5, 2.0);   // 4 per unit
  pc.record(0, Dir::Down, 0.25, 2.0);  // 8 per unit
  pc.record(0, Dir::Up, 0.5, 1.0);     // 2 per unit
  pc.record(0, Dir::Up, 0.5, -3.0);    // a bound cannot fall: clamped to 0
  EXPECT_DOUBLE_EQ(pc.estimate(0, Dir::Down), 6.0);
  EXPECT_DOUBLE_EQ(pc.estimate(0, Dir::Up), 1.0);
  EXPECT_EQ(pc.updates(), 4);
  pc.record(0, Dir::Up, 0.0, 5.0);  // no distance, no observation
  EXPECT_EQ(pc.updates(), 4);
}

TEST(PseudoCostTest, ColumnWithoutHistoryUsesTheDirectionsRunningAverage) {
  PseudoCosts pc(3);
  pc.record(0, Dir::Down, 1.0, 2.0);
  pc.record(1, Dir::Down, 1.0, 6.0);
  pc.record(1, Dir::Up, 0.5, 5.0);
  // Column 2 has no history: the mean of every observation per direction.
  EXPECT_DOUBLE_EQ(pc.estimate(2, Dir::Down), 4.0);
  EXPECT_DOUBLE_EQ(pc.estimate(2, Dir::Up), 10.0);
  // Column 0 has down history only; its up side borrows the average.
  EXPECT_DOUBLE_EQ(pc.estimate(0, Dir::Down), 2.0);
  EXPECT_DOUBLE_EQ(pc.estimate(0, Dir::Up), 10.0);
}

TEST(PseudoCostTest, OneSidedHistoryBorrowsTheOtherDirection) {
  PseudoCosts pc(2);
  pc.record(0, Dir::Down, 0.5, 1.5);
  EXPECT_DOUBLE_EQ(pc.estimate(1, Dir::Up), 3.0);
}

TEST(PseudoCostTest, ColdStartChoosesTheCostWeightedColumn) {
  // Column 1 is the most fractional, column 2 the most expensive: the
  // cost-weighted rule picks 2 (0.3 · 101 > 0.5 · 1).
  const std::vector<double> x = {1.0, 0.5, 0.3};
  const std::vector<std::int32_t> ints = {0, 1, 2};
  const std::vector<double> cost = {0.0, 0.0, 100.0};
  PseudoCosts pc(3);
  EXPECT_EQ(cost_weighted_branch_var(x, ints, cost, 1e-6), 2);
  EXPECT_EQ(pc.select(x, ints, cost, 1e-6), 2);
  EXPECT_EQ(pc.fallbacks(), 1);
  EXPECT_EQ(pc.select({1.0, 0.0, 2.0}, ints, cost, 1e-6), -1);
  EXPECT_EQ(pc.fallbacks(), 1);  // no branching, nothing counted
}

TEST(PseudoCostTest, ProductRuleRanksLearnedColumns) {
  const std::vector<std::int32_t> ints = {0, 1, 2};
  const std::vector<double> cost = {0.0, 0.0, 100.0};
  PseudoCosts pc(3);
  // Column 0 moves the bound far in both directions; column 1 only down.
  pc.record(0, Dir::Down, 1.0, 10.0);
  pc.record(0, Dir::Up, 1.0, 10.0);
  pc.record(1, Dir::Down, 1.0, 40.0);
  pc.record(1, Dir::Up, 1.0, 0.0);
  // At f = 0.5: column 0 scores 5 · 5 = 25; column 1 scores 20 · ε; column 2
  // (no history) borrows the averages, 12.5 · 2.5. The cost weight no longer
  // matters once history exists.
  EXPECT_EQ(pc.select({0.5, 0.5, 0.5}, ints, cost, 1e-6), 2);
  EXPECT_EQ(pc.fallbacks(), 1);  // column 2 has no history of its own
  // Column 2 integral: column 0 wins on its own history, no fallback.
  EXPECT_EQ(pc.select({0.5, 0.5, 1.0}, ints, cost, 1e-6), 0);
  EXPECT_EQ(pc.fallbacks(), 1);
}

// --- the rule on the k = 2 eager EPN instance ------------------------------

/// The k = 2 EPN instance of the exploration benchmark's eager workload.
domains::epn::EpnConfig eager_epn_config() {
  domains::epn::EpnConfig cfg = domains::epn::small_config();
  cfg.rectifiers_per_side = 3;
  cfg.critical_threshold = 1e-5;
  cfg.sheddable_threshold = 1e-2;
  cfg.reliability_eager = true;
  return cfg;
}

double metric(const Solution& s, const std::string& name) {
  const auto it = s.metrics.find(name);
  return it == s.metrics.end() ? -1.0 : it->second;
}

TEST(PseudoCostEpnTest, EagerInstanceIsDeterministicCertifiedAndSmall) {
  const auto p = domains::epn::make_problem(eager_epn_config());
  MilpOptions o;
  o.num_threads = 1;
  o.certify = true;
  const Solution a = p->solve(o).solution;
  const Solution b = p->solve(o).solution;
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_NEAR(a.objective, 40512.0, 1e-6 * 40512.0);
  EXPECT_EQ(metric(a, "check.certify.ok"), 1.0);
  // Two 1-thread solves repeat the same search exactly.
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
  EXPECT_EQ(a.x, b.x);
  // The cost-weighted rule alone took 1,180 nodes.
  EXPECT_LE(a.nodes_explored, 800);
  // The table learnt from the node LPs, and the fallback shaped only part
  // of the tree.
  EXPECT_GT(metric(a, "milp.pseudocost.updates"), 0.0);
  EXPECT_GE(metric(a, "milp.branch.fallback"), 1.0);
  EXPECT_LT(metric(a, "milp.branch.fallback"), static_cast<double>(a.nodes_explored));
}

}  // namespace
}  // namespace archex::milp

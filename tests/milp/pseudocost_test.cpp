/// Tests for the pseudo-cost branching rule: the table's per-direction
/// averaging and its two fallbacks (running average, cold start), its
/// seeding and export through a presolve column map, the rule's effect on
/// the k = 2 eager EPN instance the exploration benchmark solves
/// (deterministic, certified, and inside a node bound), and the one table
/// the lazy loop carries across its re-solves of the same instance.
#include "milp/pseudocost.hpp"

#include <gtest/gtest.h>

#include "arch/algorithm.hpp"
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

PseudoCostTable::Entry entry(double down_sum, std::int32_t down_n, double up_sum,
                             std::int32_t up_n) {
  PseudoCostTable::Entry e;
  e.sum[0] = down_sum;
  e.count[0] = down_n;
  e.sum[1] = up_sum;
  e.count[1] = up_n;
  return e;
}

TEST(PseudoCostTest, SeedReadsTheCallersColumnsThroughThePresolveMap) {
  // Caller space: 5 columns. Presolve kept 3 (reduced 0, 1, 2 = original 4,
  // 1, 3), removed 0 and 2; reduced column 3 is original 6, appended past
  // the end of the seed table.
  PseudoCostTable seed;
  seed.cols = {entry(9.0, 1, 9.0, 1), entry(4.0, 2, 0.0, 0), entry(7.0, 1, 7.0, 1),
               entry(0.0, 0, 6.0, 3), entry(3.0, 1, 5.0, 1)};
  const std::vector<std::int32_t> orig_of = {4, 1, 3, 6};
  PseudoCosts pc(4);
  EXPECT_EQ(pc.seed(seed, orig_of), 7);  // columns 4, 1, 3: 2 + 2 + 3
  EXPECT_EQ(pc.updates(), 0);  // inherited observations are not this solve's
  EXPECT_DOUBLE_EQ(pc.estimate(0, Dir::Down), 3.0);
  EXPECT_DOUBLE_EQ(pc.estimate(0, Dir::Up), 5.0);
  EXPECT_DOUBLE_EQ(pc.estimate(1, Dir::Down), 2.0);
  EXPECT_DOUBLE_EQ(pc.estimate(2, Dir::Up), 2.0);
  // The running averages come from the seeded entries only: the removed
  // columns 0 and 2 are not in them. Down: (3 + 4) / 3; up: (5 + 6) / 4.
  EXPECT_DOUBLE_EQ(pc.estimate(3, Dir::Down), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(pc.estimate(3, Dir::Up), 11.0 / 4.0);
  // Seeded history is history: before this solve has observed anything the
  // product rule ranks columns 0, 1, 2 at 1.5 · 2.5, 1 · 1.375 and
  // 1.17 · 1, and column 0 has history of its own, so no fallback.
  const std::vector<std::int32_t> ints = {0, 1, 2, 3};
  const std::vector<double> cost(4, 0.0);
  EXPECT_EQ(pc.select({0.5, 0.5, 0.5, 1.0}, ints, cost, 1e-6), 0);
  EXPECT_EQ(pc.fallbacks(), 0);
  pc.record(3, Dir::Down, 0.5, 1.0);
  EXPECT_EQ(pc.updates(), 1);
}

TEST(PseudoCostTest, ExportWritesBackThroughTheMapAndKeepsRemovedColumns) {
  PseudoCostTable seed;
  seed.cols = {entry(9.0, 1, 9.0, 1), entry(4.0, 2, 0.0, 0), entry(7.0, 1, 7.0, 1),
               entry(0.0, 0, 6.0, 3), entry(3.0, 1, 5.0, 1)};
  const std::vector<std::int32_t> orig_of = {4, 1, 3, 6};
  PseudoCosts pc(4);
  (void)pc.seed(seed, orig_of);
  pc.record(0, Dir::Down, 1.0, 5.0);   // original 4
  pc.record(3, Dir::Up, 0.5, 2.0);     // original 6, appended
  const PseudoCostTable out = pc.export_table(&seed, orig_of, 7);
  ASSERT_EQ(out.cols.size(), 7U);
  // Removed by presolve: the seeded entries, untouched.
  EXPECT_DOUBLE_EQ(out.cols[0].sum[0], 9.0);
  EXPECT_EQ(out.cols[0].count[1], 1);
  EXPECT_DOUBLE_EQ(out.cols[2].sum[1], 7.0);
  // Kept: seed plus what this solve learnt.
  EXPECT_DOUBLE_EQ(out.cols[4].sum[0], 8.0);
  EXPECT_EQ(out.cols[4].count[0], 2);
  EXPECT_EQ(out.cols[1].count[0], 2);
  EXPECT_EQ(out.cols[3].count[1], 3);
  // Never seen: column 5 has no history; the appended column 6 has this
  // solve's observation alone.
  EXPECT_EQ(out.cols[5].count[0] + out.cols[5].count[1], 0);
  EXPECT_DOUBLE_EQ(out.cols[6].sum[1], 4.0);
  EXPECT_EQ(out.cols[6].count[1], 1);
  EXPECT_EQ(out.cols[6].count[0], 0);

  // Without a seed the export starts empty and sized to the caller's model.
  PseudoCosts fresh(2);
  fresh.record(1, Dir::Up, 1.0, 3.0);
  const PseudoCostTable alone = fresh.export_table(nullptr, {2, 0}, 3);
  ASSERT_EQ(alone.cols.size(), 3U);
  EXPECT_EQ(alone.cols[0].count[1], 1);
  EXPECT_EQ(alone.cols[2].count[0] + alone.cols[2].count[1], 0);
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

// --- one table across the k = 2 lazy EPN loop ------------------------------

/// The same instance without the eager reliability encoding: the lazy
/// workload of the exploration benchmark (30,506 -> 40,512 in 2 iterations).
domains::epn::EpnConfig lazy_epn_config() {
  domains::epn::EpnConfig cfg = eager_epn_config();
  cfg.reliability_eager = false;
  return cfg;
}

struct LazyRun {
  IterativeResult result;
  double seeded = 0.0;  ///< milp.pseudocost.seeded over the loop
};

LazyRun lazy_epn(int max_iterations) {
  const domains::epn::EpnConfig cfg = lazy_epn_config();
  const auto p = domains::epn::make_problem(cfg);
  MilpOptions o;
  o.num_threads = 1;
  o.certify = true;
  LazyRun run;
  run.result = domains::epn::solve_lazy_epn(*p, cfg, o, max_iterations);
  run.seeded = metric(run.result.final_result.solution, "milp.pseudocost.seeded");
  return run;
}

TEST(PseudoCostEpnTest, LazyLoopCarriesOneTableAcrossItsResolves) {
  // Iteration 1 starts from nothing.
  const LazyRun first = lazy_epn(1);
  ASSERT_EQ(first.result.iterations.size(), 1U);
  EXPECT_EQ(first.seeded, 0.0);
  ASSERT_NE(first.result.final_result.solution.pseudocosts, nullptr);

  const LazyRun a = lazy_epn(10);
  const LazyRun b = lazy_epn(10);
  ASSERT_TRUE(a.result.converged);
  ASSERT_EQ(a.result.iterations.size(), 2U);
  EXPECT_NEAR(a.result.iterations[0].cost, 30506.0, 1e-6 * 30506.0);
  EXPECT_NEAR(a.result.iterations[1].cost, 40512.0, 1e-6 * 40512.0);
  EXPECT_EQ(metric(a.result.final_result.solution, "check.certify.ok"), 1.0);
  // The re-solve inherited iteration 1's observations.
  EXPECT_GT(a.seeded, 0.0);
  // Iteration 1 searches exactly like a loop stopped after it.
  EXPECT_EQ(a.result.iterations[0].nodes, first.result.iterations[0].nodes);
  EXPECT_EQ(a.result.iterations[0].simplex_iterations,
            first.result.iterations[0].simplex_iterations);
  // The final solve's work is its own, and the carried table keeps it small:
  // re-solving from an empty table took 738 nodes (344 with the table).
  const IterativeStep& last = a.result.iterations.back();
  EXPECT_EQ(last.nodes, a.result.final_result.solution.nodes_explored);
  EXPECT_LE(last.nodes, 500);
  // Two back-to-back loops repeat every iteration's search exactly.
  ASSERT_EQ(b.result.iterations.size(), a.result.iterations.size());
  for (std::size_t i = 0; i < a.result.iterations.size(); ++i) {
    EXPECT_EQ(a.result.iterations[i].nodes, b.result.iterations[i].nodes) << i;
    EXPECT_EQ(a.result.iterations[i].simplex_iterations,
              b.result.iterations[i].simplex_iterations)
        << i;
  }
  EXPECT_EQ(a.seeded, b.seeded);
}

TEST(PseudoCostEpnTest, EagerSolveAfterALazyLoopMatchesAFreshOne) {
  const auto p = domains::epn::make_problem(eager_epn_config());
  MilpOptions o;
  o.num_threads = 1;
  o.certify = true;
  const Solution fresh = p->solve(o).solution;
  (void)lazy_epn(10);
  const auto q = domains::epn::make_problem(eager_epn_config());
  const Solution after = q->solve(o).solution;
  ASSERT_TRUE(after.optimal());
  EXPECT_EQ(after.nodes_explored, fresh.nodes_explored);
  EXPECT_EQ(after.simplex_iterations, fresh.simplex_iterations);
  EXPECT_EQ(after.x, fresh.x);
  EXPECT_EQ(metric(after, "milp.pseudocost.seeded"), 0.0);
}

}  // namespace
}  // namespace archex::milp

/// Tests for the parallel branch & bound (work-stealing node pool) and the
/// simplex APIs underneath it: basis export/install warm starts, the
/// reoptimize_dual repair and cold-restart paths, and determinism of the
/// optimum across thread counts on the EPN and knapsack fixtures.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "domains/epn.hpp"
#include "milp/branch_bound.hpp"
#include "milp/simplex.hpp"

namespace archex::milp {
namespace {

/// Deterministic binary knapsack used by the determinism suite.
Model knapsack_fixture(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(1, 9);
  Model m;
  std::vector<VarId> v;
  LinExpr tw, tv;
  for (int j = 0; j < n; ++j) {
    v.push_back(m.add_binary());
    tw += static_cast<double>(w(rng)) * v.back();
    tv += static_cast<double>(w(rng)) * v.back();
  }
  m.add_constraint(tw <= LinExpr(2.5 * n));
  m.set_objective(tv, ObjectiveSense::Maximize);
  return m;
}

// ---------------------------------------------------------------------------
// Basis export / install
// ---------------------------------------------------------------------------

TEST(SimplexBasisTest, ExportLoadRoundTripReproducesOptimum) {
  // min -x - 2y s.t. x + y <= 10, x in [0,7], y in [0,6].
  Model m;
  VarId x = m.add_continuous(0, 7);
  VarId y = m.add_continuous(0, 6);
  m.add_constraint(LinExpr(x) + LinExpr(y) <= LinExpr(10.0));
  m.set_objective(-1.0 * x - 2.0 * y);
  SimplexSolver donor(m);
  ASSERT_EQ(donor.solve_primal(), SolveStatus::Optimal);
  const SimplexSolver::Basis basis = donor.export_basis();

  // A never-solved solver adopts the basis and confirms optimality with a
  // warm dual solve (no cold two-phase start).
  SimplexSolver fresh(m);
  ASSERT_TRUE(fresh.load_basis(basis));
  ASSERT_EQ(fresh.reoptimize_dual(), SolveStatus::Optimal);
  EXPECT_NEAR(fresh.objective_value(), donor.objective_value(), 1e-9);
  EXPECT_EQ(fresh.reopt_stats().cold, 0);
}

TEST(SimplexBasisTest, LoadedBasisWarmStartsUnderTightenedBounds) {
  // The parallel-worker kernel: install a parent basis, then branch (tighten
  // bounds) and reoptimize with the dual simplex.
  Model m;
  VarId x = m.add_continuous(0, 7);
  VarId y = m.add_continuous(0, 6);
  m.add_constraint(LinExpr(x) + LinExpr(y) <= LinExpr(10.0));
  m.set_objective(-1.0 * x - 2.0 * y);
  SimplexSolver donor(m);
  ASSERT_EQ(donor.solve_primal(), SolveStatus::Optimal);
  const SimplexSolver::Basis basis = donor.export_basis();

  SimplexSolver thief(m);
  thief.set_bounds(0, 0.0, 2.0);  // the "stolen node" tightens x <= 2
  ASSERT_TRUE(thief.load_basis(basis));
  ASSERT_EQ(thief.reoptimize_dual(), SolveStatus::Optimal);
  EXPECT_NEAR(thief.objective_value(), -14.0, 1e-7);  // x=2, y=6
}

TEST(SimplexBasisTest, RejectsForeignBasisShape) {
  Model a;
  a.add_continuous(0, 1);
  Model b;
  VarId bx = b.add_continuous(0, 1);
  VarId by = b.add_continuous(0, 1);
  b.add_constraint(LinExpr(bx) + LinExpr(by) <= LinExpr(1.0));
  SimplexSolver sa(a);
  ASSERT_EQ(sa.solve_primal(), SolveStatus::Optimal);
  SimplexSolver sb(b);
  EXPECT_FALSE(sb.load_basis(sa.export_basis()));
  // A failed install leaves the solver cold but usable.
  EXPECT_EQ(sb.solve_primal(), SolveStatus::Optimal);
}

// ---------------------------------------------------------------------------
// reoptimize_dual repair paths
// ---------------------------------------------------------------------------

TEST(WarmStartRepairTest, BoundRelaxationTakesRepairBranch) {
  // Bound changes break dual feasibility when they flip a nonbasic resting
  // status: at the optimum below, y rests AtUpper with reduced cost -1
  // (correct for a minimize upper bound). Dropping y's upper bound to +inf
  // moves it to AtLower, where d = -1 has the wrong sign — the held basis is
  // dual infeasible and reoptimize_dual must take the repair path (dual loop
  // as primal repair + warm primal cleanup) rather than the fast dual.
  Model m;
  VarId x = m.add_continuous(0, 7);
  VarId y = m.add_continuous(0, 6);
  m.add_constraint(LinExpr(x) + LinExpr(y) <= LinExpr(10.0));
  m.set_objective(-1.0 * x - 2.0 * y);
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), -16.0, 1e-7);  // x=4, y=6

  lp.set_bounds(1, 0.0, kInf);  // y now only capped by the row
  ASSERT_EQ(lp.reoptimize_dual(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), -20.0, 1e-7);  // x=0, y=10
  EXPECT_GE(lp.reopt_stats().repaired, 1)
      << "status-flipping relaxation should have taken the repair path";
  EXPECT_EQ(lp.reopt_stats().cold, 0);
}

TEST(WarmStartRepairTest, RepairConfirmsInfeasibilityWithColdRestart) {
  // From a deliberately untrusted (dual-infeasible) basis, an "infeasible"
  // verdict of the repair dual loop must be confirmed by a cold restart
  // (reopt_stats().cold) — and the verdict must still be correct.
  Model m;
  VarId x = m.add_continuous(0, 7);
  VarId y = m.add_continuous(0, 6);
  m.add_constraint(LinExpr(x) + LinExpr(y) <= LinExpr(10.0));
  m.set_objective(-1.0 * x - 2.0 * y);
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), -16.0, 1e-7);  // x=4, y=6

  // In one batch: flip y's resting status (AtUpper -> AtLower via the
  // infinite upper bound) so the held basis goes dual infeasible, and raise
  // both lower bounds so x + y >= 11 contradicts the row x + y <= 10.
  lp.set_bounds(1, 5.0, kInf);
  lp.set_bounds(0, 6.0, 7.0);
  EXPECT_EQ(lp.reoptimize_dual(), SolveStatus::Infeasible);
  EXPECT_GE(lp.reopt_stats().repaired, 1);
  EXPECT_GE(lp.reopt_stats().cold, 1)
      << "infeasibility from an untrusted basis must be confirmed cold";

  // The solver remains usable after the cold confirmation.
  lp.set_bounds(0, 0.0, 7.0);
  lp.set_bounds(1, 0.0, 6.0);
  ASSERT_EQ(lp.reoptimize_dual(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), -16.0, 1e-7);
}

// ---------------------------------------------------------------------------
// Parallel search: determinism of the optimum across thread counts
// ---------------------------------------------------------------------------

TEST(ParallelBBTest, KnapsackSameOptimumAcrossThreadCounts) {
  for (unsigned seed : {3u, 17u, 99u}) {
    const Model m = knapsack_fixture(22, seed);
    MilpOptions seq;
    seq.num_threads = 1;
    const Solution s1 = solve_milp(m, seq);
    ASSERT_TRUE(s1.optimal()) << "seed " << seed;
    for (int threads : {2, 4}) {
      MilpOptions par;
      par.num_threads = threads;
      const Solution sp = solve_milp(m, par);
      ASSERT_TRUE(sp.optimal()) << "seed " << seed << " threads " << threads;
      EXPECT_NEAR(sp.objective, s1.objective, 1e-6)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(m.feasible(sp.x, 1e-5));
      EXPECT_EQ(sp.threads_used, threads);
      ASSERT_EQ(sp.nodes_per_worker.size(), static_cast<std::size_t>(threads));
      std::int64_t pool_nodes = 0;
      for (const std::int64_t n : sp.nodes_per_worker) pool_nodes += n;
      EXPECT_LE(pool_nodes, sp.nodes_explored);
    }
  }
}

TEST(ParallelBBTest, EpnSameOptimumAcrossThreadCounts) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "60 s solve budget is calibrated for an uninstrumented "
                  "build; KnapsackSameOptimumAcrossThreadCounts covers the "
                  "determinism property under sanitizers";
#endif
  using namespace archex::domains::epn;
  EpnConfig cfg = small_config();
  cfg.loads_per_side = 2;
  cfg.critical_threshold = 1e-3;
  cfg.sheddable_threshold = 1e-2;

  double obj1 = 0.0;
  {
    auto p = make_problem(cfg);
    milp::MilpOptions o;
    o.num_threads = 1;
    o.budget = Budget::of_seconds(60);
    const ExplorationResult r = p->solve(o);
    ASSERT_TRUE(r.solution.optimal());
    obj1 = r.solution.objective;
  }
  {
    auto p = make_problem(cfg);
    milp::MilpOptions o;
    o.num_threads = 4;
    o.budget = Budget::of_seconds(60);
    const ExplorationResult r = p->solve(o);
    ASSERT_TRUE(r.solution.optimal());
    EXPECT_NEAR(r.solution.objective, obj1, 1e-6);
    EXPECT_EQ(r.solution.threads_used, 4);
  }
}

TEST(ParallelBBTest, SequentialPathReportsSingleWorkerStats) {
  const Model m = knapsack_fixture(16, 5);
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(m, o);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.threads_used, 1);
  EXPECT_EQ(s.steals, 0);
  ASSERT_EQ(s.nodes_per_worker.size(), 1u);
  EXPECT_EQ(s.nodes_per_worker[0], s.nodes_explored);
  EXPECT_NEAR(s.cpu_seconds, s.solve_seconds, 1e-9);
}

TEST(ParallelBBTest, PropertySweepMatchesSequential) {
  // Random small integer programs: the 4-thread pool must agree with the
  // sequential solver's optimum (which the seed suite cross-checks against
  // exhaustive enumeration).
  for (int seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed) * 7919u + 13u);
    std::uniform_real_distribution<double> coef(-4.0, 4.0);
    std::uniform_real_distribution<double> rhs_d(-2.0, 10.0);
    Model m;
    std::vector<VarId> v;
    for (int j = 0; j < 5; ++j) v.push_back(m.add_integer(0, 2));
    for (int i = 0; i < 4; ++i) {
      LinExpr e;
      for (int j = 0; j < 5; ++j) e += std::round(coef(rng)) * v[static_cast<std::size_t>(j)];
      m.add_constraint(std::move(e), Sense::LE, std::round(rhs_d(rng)));
    }
    LinExpr obj;
    for (int j = 0; j < 5; ++j) obj += std::round(coef(rng)) * v[static_cast<std::size_t>(j)];
    m.set_objective(obj);

    MilpOptions seq;
    seq.num_threads = 1;
    MilpOptions par;
    par.num_threads = 4;
    const Solution s1 = solve_milp(m, seq);
    const Solution s4 = solve_milp(m, par);
    EXPECT_EQ(s1.status, s4.status) << "seed " << seed;
    if (s1.optimal() && s4.optimal()) {
      EXPECT_NEAR(s1.objective, s4.objective, 1e-6) << "seed " << seed;
      EXPECT_TRUE(m.feasible(s4.x, 1e-5)) << "seed " << seed;
    }
  }
}

/// Strongly correlated knapsack with fractional values: granularity pruning
/// never fires and the tree grows into the hundreds of thousands of nodes —
/// the workload that actually exercises steals and incumbent races.
Model hard_knapsack_fixture(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(10, 30);
  Model m;
  LinExpr tw, tv;
  double cap = 0.0;
  for (int j = 0; j < n; ++j) {
    VarId v = m.add_binary();
    const int wj = w(rng);
    tw += static_cast<double>(wj) * v;
    tv += (static_cast<double>(wj) + 5.0 + 0.1 * (j % 7)) * v;
    cap += wj;
  }
  m.add_constraint(tw <= LinExpr(0.5 * cap));
  m.set_objective(tv, ObjectiveSense::Maximize);
  return m;
}

TEST(ParallelBBTest, PoolStressHardKnapsack) {
  const Model m = hard_knapsack_fixture(50, 42);
  MilpOptions seq;
  seq.num_threads = 1;
  seq.budget = Budget::of_seconds(300);
  const Solution s1 = solve_milp(m, seq);
  ASSERT_TRUE(s1.optimal());
  EXPECT_GT(s1.nodes_explored, 10000);  // genuinely large tree

  MilpOptions par;
  par.num_threads = 4;
  par.budget = Budget::of_seconds(300);
  const Solution s4 = solve_milp(m, par);
  ASSERT_TRUE(s4.optimal());
  EXPECT_NEAR(s4.objective, s1.objective, 1e-6);
  EXPECT_TRUE(m.feasible(s4.x, 1e-5));
  EXPECT_GE(s4.steals, 1);  // the pool actually redistributed work
}

TEST(ParallelBBTest, DefaultSolveIsBitExactRunToRun) {
  // Default options must give a deterministic search on any host: the
  // default is one worker, not one per hardware thread.
  const Model m = hard_knapsack_fixture(30, 7);
  const Solution a = solve_milp(m);
  const Solution b = solve_milp(m);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_GT(a.nodes_explored, 1000);  // a tree large enough to race on
  EXPECT_EQ(a.threads_used, 1);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
}

TEST(ParallelBBTest, WorkersShareOnePseudoCostTable) {
  // Every worker learns into and branches from the solve's one pseudo-cost
  // table; the ThreadSanitizer leg runs this suite, so an unguarded access
  // to the table fails there.
  const Model m = hard_knapsack_fixture(30, 7);
  MilpOptions par;
  par.num_threads = 4;
  const Solution s4 = solve_milp(m, par);
  const Solution s1 = solve_milp(m);
  ASSERT_TRUE(s4.optimal());
  ASSERT_TRUE(s1.optimal());
  EXPECT_NEAR(s4.objective, s1.objective, 1e-6);
  for (const Solution* s : {&s1, &s4}) {
    // At most one observation per solved child LP.
    const double updates = s->metrics.at("milp.pseudocost.updates");
    EXPECT_GT(updates, 0.0);
    EXPECT_LE(updates, static_cast<double>(s->nodes_explored));
  }
}

TEST(ParallelBBTest, NodeLimitIsHonored) {
  const Model m = knapsack_fixture(25, 11);
  MilpOptions o;
  o.num_threads = 4;
  o.max_nodes = 5;
  const Solution s = solve_milp(m, o);
  if (s.has_incumbent) {
    EXPECT_TRUE(m.feasible(s.x, 1e-5));
  }
  EXPECT_TRUE(s.status == SolveStatus::Optimal || s.status == SolveStatus::NodeLimit ||
              s.status == SolveStatus::Infeasible)
      << to_string(s.status);
  // The budget may be overshot only by the racing increment of each worker.
  EXPECT_LE(s.nodes_explored, o.max_nodes + 4);
}

}  // namespace
}  // namespace archex::milp

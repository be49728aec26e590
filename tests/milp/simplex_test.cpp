#include "milp/simplex.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "domains/epn.hpp"
#include "milp/model.hpp"

namespace archex::milp {
namespace {

TEST(SimplexTest, TrivialBoundedMinimum) {
  Model m;
  VarId x = m.add_continuous(1.0, 5.0, "x");
  m.set_objective(LinExpr(x));
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-8);
  EXPECT_NEAR(s.value(x), 1.0, 1e-8);
}

TEST(SimplexTest, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Hillier-Lieberman)
  // Optimum: x = 2, y = 6, obj = 36.
  Model m;
  VarId x = m.add_continuous(0, kInf, "x");
  VarId y = m.add_continuous(0, kInf, "y");
  m.add_constraint(LinExpr(x) <= LinExpr(4.0));
  m.add_constraint(2.0 * y <= LinExpr(12.0));
  m.add_constraint(3.0 * x + 2.0 * y <= LinExpr(18.0));
  m.set_objective(3.0 * x + 5.0 * y, ObjectiveSense::Maximize);
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.value(x), 2.0, 1e-7);
  EXPECT_NEAR(s.value(y), 6.0, 1e-7);
}

TEST(SimplexTest, EqualityConstraints) {
  // min x + 2y s.t. x + y == 10, x - y == 2  =>  x=6, y=4, obj=14.
  Model m;
  VarId x = m.add_continuous(0, kInf);
  VarId y = m.add_continuous(0, kInf);
  m.add_constraint(LinExpr(x) + LinExpr(y) == LinExpr(10.0));
  m.add_constraint(LinExpr(x) - LinExpr(y) == LinExpr(2.0));
  m.set_objective(LinExpr(x) + 2.0 * y);
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 14.0, 1e-7);
  EXPECT_NEAR(s.value(x), 6.0, 1e-7);
  EXPECT_NEAR(s.value(y), 4.0, 1e-7);
}

TEST(SimplexTest, GreaterEqualNeedsPhaseOne) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6, x,y >= 0.
  // Vertices: (4,0) obj 8; (3,1) obj 9; (0,4)... check: optimum (4,0)? x+3y>=6:
  // 4+0=4 < 6 infeasible. Candidates: intersection (3,1): obj 9; (6,0): obj 12;
  // (0,4): obj 12; (0,2): x+y=2<4 infeasible. Optimum (3,1) obj 9.
  Model m;
  VarId x = m.add_continuous(0, kInf);
  VarId y = m.add_continuous(0, kInf);
  m.add_constraint(LinExpr(x) + LinExpr(y) >= LinExpr(4.0));
  m.add_constraint(LinExpr(x) + 3.0 * y >= LinExpr(6.0));
  m.set_objective(2.0 * x + 3.0 * y);
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-7);
}

TEST(SimplexTest, DetectsInfeasible) {
  Model m;
  VarId x = m.add_continuous(0, 1);
  m.add_constraint(LinExpr(x) >= LinExpr(2.0));
  m.set_objective(LinExpr(x));
  Solution s = solve_lp_relaxation(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

TEST(SimplexTest, DetectsInfeasibleSystem) {
  Model m;
  VarId x = m.add_continuous(0, kInf);
  VarId y = m.add_continuous(0, kInf);
  m.add_constraint(LinExpr(x) + LinExpr(y) <= LinExpr(1.0));
  m.add_constraint(LinExpr(x) + LinExpr(y) >= LinExpr(3.0));
  m.set_objective(LinExpr(x));
  Solution s = solve_lp_relaxation(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model m;
  VarId x = m.add_continuous(0, kInf);
  VarId y = m.add_continuous(0, kInf);
  m.add_constraint(LinExpr(x) - LinExpr(y) <= LinExpr(1.0));
  m.set_objective(-1.0 * x);
  Solution s = solve_lp_relaxation(m);
  EXPECT_EQ(s.status, SolveStatus::Unbounded);
}

TEST(SimplexTest, FreeVariables) {
  // min x + y with free x, y s.t. x + y >= -3, x - y == 1.
  // x + y = -3 at optimum; with x - y = 1: x = -1, y = -2; obj = -3.
  Model m;
  VarId x = m.add_continuous(-kInf, kInf);
  VarId y = m.add_continuous(-kInf, kInf);
  m.add_constraint(LinExpr(x) + LinExpr(y) >= LinExpr(-3.0));
  m.add_constraint(LinExpr(x) - LinExpr(y) == LinExpr(1.0));
  m.set_objective(LinExpr(x) + LinExpr(y));
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x s.t. x >= -5 (bound), x + y == 0, y in [-2, 2]  =>  x = -2.
  Model m;
  VarId x = m.add_continuous(-5, kInf);
  VarId y = m.add_continuous(-2, 2);
  m.add_constraint(LinExpr(x) + LinExpr(y) == LinExpr(0.0));
  m.set_objective(LinExpr(x));
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-7);
}

TEST(SimplexTest, ObjectiveConstantIncluded) {
  Model m;
  VarId x = m.add_continuous(0, 1);
  m.set_objective(LinExpr(x) + LinExpr(10.0));
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-8);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Klee-Minty-ish degenerate structure: many redundant constraints at a vertex.
  Model m;
  VarId x = m.add_continuous(0, kInf);
  VarId y = m.add_continuous(0, kInf);
  for (int i = 0; i < 20; ++i) {
    m.add_constraint(LinExpr(x) + (1.0 + i * 1e-9) * y <= LinExpr(1.0));
  }
  m.set_objective(-1.0 * x - 1.0 * y);
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-6);
}

TEST(SimplexTest, ExpiredDeadlineStopsTheRelaxation) {
  // The same LP the classic test solves to 36, given no time at all.
  Model m;
  VarId x = m.add_continuous(0, kInf, "x");
  VarId y = m.add_continuous(0, kInf, "y");
  m.add_constraint(LinExpr(x) <= LinExpr(4.0));
  m.add_constraint(2.0 * y <= LinExpr(12.0));
  m.add_constraint(3.0 * x + 2.0 * y <= LinExpr(18.0));
  m.set_objective(3.0 * x + 5.0 * y, ObjectiveSense::Maximize);
  SimplexOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const Solution s = solve_lp_relaxation(m, opts);
  EXPECT_EQ(s.status, SolveStatus::TimeLimit);
  EXPECT_STREQ(to_string(s.status), "time-limit");
  EXPECT_FALSE(s.has_incumbent);
}

TEST(SimplexTest, DualReoptimizeAfterBoundChangeMatchesColdSolve) {
  // min -x - 2y s.t. x + y <= 10, x <= 7, y <= 6.
  Model m;
  VarId x = m.add_continuous(0, 7);
  VarId y = m.add_continuous(0, 6);
  m.add_constraint(LinExpr(x) + LinExpr(y) <= LinExpr(10.0));
  m.set_objective(-1.0 * x - 2.0 * y);
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), -16.0, 1e-7);  // x=4, y=6

  // Tighten x <= 2 and warm-start the dual simplex.
  lp.set_bounds(0, 0.0, 2.0);
  ASSERT_EQ(lp.reoptimize_dual(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), -14.0, 1e-7);  // x=2, y=6

  // Restore and reoptimize back to the original optimum.
  lp.set_bounds(0, 0.0, 7.0);
  ASSERT_EQ(lp.reoptimize_dual(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), -16.0, 1e-7);
}

TEST(SimplexTest, TinyEpnDiveAndBacktrackPinTheWork) {
  // A branch & bound path in miniature on the tiny EPN relaxation: dive by
  // fixing four fractional binaries to 1, reoptimizing with the dual simplex
  // after each; backtrack to the first fix's sibling (0, the rest relaxed);
  // then relax that one too. The last relaxation leaves the basis
  // dual-infeasible, so it takes the dual repair path. Each objective must
  // equal a cold solve under the same bounds, and the pivot work is pinned:
  // a change to the pivot steps that alters a pivot sequence fails here.
  const auto problem = domains::epn::make_problem(domains::epn::tiny_config());
  Model m = problem->model();
  m.set_objective(problem->cost_expression(), ObjectiveSense::Minimize);
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  const std::vector<double> x0 = lp.primal_solution();
  std::vector<std::int32_t> dive;
  for (std::size_t j = 0; j < m.num_vars() && dive.size() < 4; ++j) {
    if (m.vars()[j].type == VarType::Binary && x0[j] > 1e-6 && x0[j] < 1.0 - 1e-6) {
      dive.push_back(static_cast<std::int32_t>(j));
    }
  }
  ASSERT_EQ(dive.size(), 4U);

  auto reoptimize_matches_cold = [&](const char* what) {
    const SolveStatus st = lp.reoptimize_dual();
    SimplexSolver cold(m);
    for (std::size_t j = 0; j < m.num_vars(); ++j) {
      const auto col = static_cast<std::int32_t>(j);
      cold.set_bounds(col, lp.lower_bound(col), lp.upper_bound(col));
    }
    ASSERT_EQ(st, SolveStatus::Optimal) << what;
    ASSERT_EQ(cold.solve_primal(), SolveStatus::Optimal) << what;
    EXPECT_NEAR(lp.objective_value(), cold.objective_value(),
                1e-6 * (1.0 + std::abs(cold.objective_value())))
        << what;
  };
  for (const std::int32_t col : dive) {
    lp.set_bounds(col, 1.0, 1.0);
    reoptimize_matches_cold("dive");
  }
  for (const std::int32_t col : dive) lp.set_bounds(col, 0.0, 1.0);
  lp.set_bounds(dive[0], 0.0, 0.0);
  reoptimize_matches_cold("sibling");
  EXPECT_EQ(lp.reopt_stats().repaired, 0);
  lp.set_bounds(dive[0], 0.0, 1.0);
  reoptimize_matches_cold("root");

  const SimplexSolver::ReoptStats& st = lp.reopt_stats();
  EXPECT_EQ(lp.iterations(), 786);
  EXPECT_EQ(st.dual_fast, 5);
  EXPECT_EQ(st.repaired, 1);
  EXPECT_EQ(st.cold, 0);
  EXPECT_EQ(st.degen_pivots, 409);
  EXPECT_EQ(st.dual_degenerate, 250);
  EXPECT_EQ(st.total_pivots, 786);
  EXPECT_EQ(st.refactors, 7);
  EXPECT_EQ(st.transplants, 0);
  EXPECT_EQ(st.cutoffs, 0);
}

TEST(SimplexTest, DualReoptimizeDetectsInfeasibleBounds) {
  Model m;
  VarId x = m.add_continuous(0, 5);
  VarId y = m.add_continuous(0, 5);
  m.add_constraint(LinExpr(x) + LinExpr(y) >= LinExpr(8.0));
  m.set_objective(LinExpr(x) + LinExpr(y));
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  lp.set_bounds(0, 0.0, 1.0);
  lp.set_bounds(1, 0.0, 1.0);
  EXPECT_EQ(lp.reoptimize_dual(), SolveStatus::Infeasible);
}

TEST(SimplexTest, NoConstraintsRestsAtCostOptimalBounds) {
  Model m;
  VarId x = m.add_continuous(-1, 3);
  VarId y = m.add_continuous(2, 9);
  m.set_objective(LinExpr(x) - LinExpr(y));
  Solution s = solve_lp_relaxation(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -1.0 - 9.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Objective cutoff of the dual reoptimization (a branch & bound node stops
// once its dual bound proves it prunable).
// ---------------------------------------------------------------------------

/// min c·x over [0,1]^n subject to random covering rows A x >= b: a 0/1
/// relaxation whose reoptimization after a branching takes several dual
/// pivots.
Model covering_lp(int n, int rows, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> a(0, 3);
  std::uniform_int_distribution<int> c(1, 20);
  Model m;
  std::vector<VarId> x;
  LinExpr obj;
  for (int j = 0; j < n; ++j) {
    x.push_back(m.add_continuous(0, 1));
    obj += static_cast<double>(c(rng)) * x.back();
  }
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      const int v = a(rng);
      if (v == 0) continue;
      e += static_cast<double>(v) * x[static_cast<std::size_t>(j)];
      total += v;
    }
    m.add_constraint(std::move(e), Sense::GE, 0.5 * total);
  }
  m.set_objective(obj);
  return m;
}

struct Branching {
  double root;         ///< objective of the cold solve
  std::int32_t col;    ///< column branched down to 0
};

/// Solves `lp` cold, then branches down on the basic column whose value is
/// closest to 1/2 (every node reoptimization starts like this).
Branching solve_and_branch(SimplexSolver& lp) {
  EXPECT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  const std::vector<double> x = lp.primal_solution();
  std::int32_t col = -1;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const auto jc = static_cast<std::int32_t>(j);
    if (lp.column_status(jc) != SimplexSolver::BoundStatus::Basic) continue;
    if (col < 0 || std::abs(x[j] - 0.5) < std::abs(x[static_cast<std::size_t>(col)] - 0.5)) {
      col = jc;
    }
  }
  EXPECT_GE(col, 0);
  const double root = lp.objective_value();
  lp.set_bounds(col, 0.0, 0.0);
  return {root, col};
}

TEST(SimplexCutoffTest, CutoffBelowOptimumStopsEarlyWithItsBound) {
  const Model m = covering_lp(30, 20, 1);
  SimplexSolver uncut(m);
  const double root = solve_and_branch(uncut).root;
  const std::int64_t it0 = uncut.iterations();
  ASSERT_EQ(uncut.reoptimize_dual(), SolveStatus::Optimal);
  const double optimum = uncut.objective_value();
  const std::int64_t uncut_iters = uncut.iterations() - it0;
  ASSERT_GT(optimum, root + 1.0);  // the branching moved the bound
  ASSERT_GE(uncut_iters, 3);

  SimplexSolver cut(m);
  solve_and_branch(cut);
  const std::int64_t it1 = cut.iterations();
  const double cutoff = root + 0.25 * (optimum - root);
  ASSERT_EQ(cut.reoptimize_dual(cutoff), SolveStatus::Cutoff);
  EXPECT_GT(cut.objective_value(), cutoff);
  EXPECT_LE(cut.objective_value(), optimum + 1e-9);
  EXPECT_LT(cut.iterations() - it1, uncut_iters);
  EXPECT_EQ(cut.reopt_stats().cutoffs, 1);
  EXPECT_EQ(uncut.reopt_stats().cutoffs, 0);
}

TEST(SimplexCutoffTest, CutoffAtOrAboveOptimumIsBitIdentical) {
  const Model m = covering_lp(30, 20, 1);
  SimplexSolver uncut(m);
  solve_and_branch(uncut);
  ASSERT_EQ(uncut.reoptimize_dual(), SolveStatus::Optimal);
  const double optimum = uncut.objective_value();

  for (const double cutoff : {optimum, optimum + 1.0}) {
    SimplexSolver cut(m);
    solve_and_branch(cut);
    ASSERT_EQ(cut.reoptimize_dual(cutoff), SolveStatus::Optimal) << cutoff;
    EXPECT_EQ(cut.objective_value(), optimum);
    EXPECT_EQ(cut.primal_solution(), uncut.primal_solution());
    EXPECT_EQ(cut.iterations(), uncut.iterations());
    EXPECT_EQ(cut.reopt_stats().cutoffs, 0);
  }
}

TEST(SimplexCutoffTest, BasisStaysValidAfterACutoffStop) {
  const Model m = covering_lp(30, 20, 1);
  SimplexSolver fresh(m);
  const double root = solve_and_branch(fresh).root;
  ASSERT_EQ(fresh.reoptimize_dual(), SolveStatus::Optimal);

  SimplexSolver lp(m);
  solve_and_branch(lp);
  const double cutoff = root + 0.25 * (fresh.objective_value() - root);
  ASSERT_EQ(lp.reoptimize_dual(cutoff), SolveStatus::Cutoff);
  // The stopped basis is still dual feasible: a plain reoptimization
  // continues the dual simplex from it, without repair or a cold start.
  const SimplexSolver::ReoptStats before = lp.reopt_stats();
  ASSERT_EQ(lp.reoptimize_dual(), SolveStatus::Optimal);
  EXPECT_NEAR(lp.objective_value(), fresh.objective_value(), 1e-9);
  EXPECT_EQ(lp.reopt_stats().dual_fast, before.dual_fast + 1);
  EXPECT_EQ(lp.reopt_stats().repaired, before.repaired);
  EXPECT_EQ(lp.reopt_stats().cold, before.cold);
}

TEST(SimplexCutoffTest, DualRepairNeverStopsAtTheCutoff) {
  // Solve with every fourth column fixed at 0 and branch, then relax the
  // fixed columns: those the covering rows now want carry wrong-sign reduced
  // costs at their lower bound, so the reoptimization runs the dual repair
  // (the branched column makes it pivot), where c·x is no bound and a
  // cutoff stop would be unsound.
  const Model m = covering_lp(30, 20, 1);
  SimplexSolver lp(m);
  for (std::int32_t j = 0; j < 30; j += 4) lp.set_bounds(j, 0.0, 0.0);
  const std::int32_t col = solve_and_branch(lp).col;
  ASSERT_NE(col % 4, 0);
  for (std::int32_t j = 0; j < 30; j += 4) lp.set_bounds(j, 0.0, 1.0);

  SimplexSolver fresh(m);
  fresh.set_bounds(col, 0.0, 0.0);
  ASSERT_EQ(fresh.solve_primal(), SolveStatus::Optimal);

  ASSERT_EQ(lp.reoptimize_dual(-1e18), SolveStatus::Optimal);
  EXPECT_EQ(lp.reopt_stats().repaired, 1);
  EXPECT_EQ(lp.reopt_stats().cutoffs, 0);
  EXPECT_NEAR(lp.objective_value(), fresh.objective_value(), 1e-7);
}

// ---------------------------------------------------------------------------
// Property sweep: random transportation-style LPs have a known optimum
// computable greedily when costs are chosen to make the greedy optimal
// (single supply). We instead cross-check primal solutions for feasibility
// and complementary objective consistency on random dense LPs.
// ---------------------------------------------------------------------------

class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, SolutionIsFeasibleAndBoundedByVertexEnumeration) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::uniform_real_distribution<double> rhs_d(1.0, 8.0);

  // 3 variables in [0, 4], 4 <= rows, minimize random cost.
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < 3; ++j) v.push_back(m.add_continuous(0, 4));
  for (int i = 0; i < 4; ++i) {
    LinExpr e;
    for (int j = 0; j < 3; ++j) e += coef(rng) * v[j];
    m.add_constraint(std::move(e), Sense::LE, rhs_d(rng));
  }
  LinExpr obj;
  std::vector<double> c(3);
  for (int j = 0; j < 3; ++j) {
    c[j] = coef(rng);
    obj += c[j] * v[j];
  }
  m.set_objective(obj);

  Solution s = solve_lp_relaxation(m);
  ASSERT_NE(s.status, SolveStatus::NumericalError);
  if (s.status != SolveStatus::Optimal) return;  // infeasible/unbounded cases pass

  // The reported point must be feasible and match its objective.
  EXPECT_TRUE(m.feasible(s.x, 1e-6));
  double val = 0;
  for (int j = 0; j < 3; ++j) val += c[j] * s.x[static_cast<std::size_t>(j)];
  EXPECT_NEAR(val, s.objective, 1e-6);

  // Grid search lower-bounds the quality: no grid point may beat the optimum.
  const int grid = 8;
  for (int a = 0; a <= grid; ++a) {
    for (int b = 0; b <= grid; ++b) {
      for (int d = 0; d <= grid; ++d) {
        std::vector<double> x = {4.0 * a / grid, 4.0 * b / grid, 4.0 * d / grid};
        if (!m.feasible(x, 1e-9)) continue;
        double gv = 0;
        for (int j = 0; j < 3; ++j) gv += c[j] * x[static_cast<std::size_t>(j)];
        EXPECT_GE(gv, s.objective - 1e-6)
            << "grid point beats reported LP optimum (seed " << GetParam() << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace archex::milp

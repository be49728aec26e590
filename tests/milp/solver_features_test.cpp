/// Tests for solver features added for architecture-exploration workloads:
/// wall-clock deadlines inside the simplex, objective-granularity pruning,
/// root reduced-cost fixing, and the reduced-cost/statuses introspection API.
#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "milp/branch_bound.hpp"
#include "milp/simplex.hpp"

namespace archex::milp {
namespace {

TEST(SolverFeatureTest, SimplexHonorsDeadline) {
  // A large LP with an already-expired deadline must return TimeLimit fast.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> coef(0.1, 2.0);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < 300; ++j) v.push_back(m.add_continuous(0, 10));
  for (int i = 0; i < 300; ++i) {
    LinExpr e;
    for (int j = 0; j < 300; j += 3) e += coef(rng) * v[static_cast<std::size_t>(j)];
    m.add_constraint(std::move(e), Sense::LE, 50.0);
  }
  LinExpr obj;
  for (const VarId x : v) obj += -1.0 * x;
  m.set_objective(obj);

  SimplexOptions so;
  so.deadline = std::chrono::steady_clock::now();
  SimplexSolver lp(m, so);
  const auto t0 = std::chrono::steady_clock::now();
  const SolveStatus st = lp.solve_primal();
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(st, SolveStatus::TimeLimit);
  EXPECT_LT(secs, 2.0);
}

TEST(SolverFeatureTest, MilpTimeLimitWithoutIncumbentIsTruthful) {
  // Zero time budget: the solver must not claim optimality or feasibility.
  std::mt19937 rng(9);
  std::uniform_int_distribution<int> w(1, 9);
  Model m;
  LinExpr tw, tv;
  for (int i = 0; i < 30; ++i) {
    VarId v = m.add_binary();
    tw += static_cast<double>(w(rng)) * v;
    tv += static_cast<double>(w(rng)) * v;
  }
  m.add_constraint(tw <= LinExpr(40.0));
  m.set_objective(tv, ObjectiveSense::Maximize);
  MilpOptions o;
  o.budget = Budget::of_seconds(0.0);
  const Solution s = solve_milp(m, o);
  EXPECT_NE(s.status, SolveStatus::Optimal);
}

TEST(SolverFeatureTest, GranularityPruningStillFindsOptimum) {
  // All-cost-2000 selection problem: granularity pruning must not cut off
  // the true optimum, only equal-cost plateaus.
  Model m;
  std::vector<VarId> v;
  LinExpr cover;
  LinExpr obj;
  for (int j = 0; j < 8; ++j) {
    v.push_back(m.add_binary());
    cover += LinExpr(v.back());
    obj += 2000.0 * v.back();
  }
  m.add_constraint(std::move(cover), Sense::GE, 3.0);
  m.set_objective(obj);
  const Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 6000.0, 1e-6);
}

TEST(SolverFeatureTest, MixedGranularityDisabledByContinuousCost) {
  // A continuous variable in the objective disables granularity pruning;
  // the optimum has a fractional objective and must be found exactly.
  Model m;
  VarId b = m.add_binary();
  VarId x = m.add_continuous(0, 1.0);
  m.add_constraint(LinExpr(b) + LinExpr(x) >= LinExpr(1.3));
  m.set_objective(10.0 * b + 1.0 * x);
  const Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 10.3, 1e-6);
}

TEST(SolverFeatureTest, ReducedCostsAtOptimum) {
  // min -x - 2y s.t. x + y <= 10, x <= 7, y <= 6: optimum x=4, y=6.
  Model m;
  VarId x = m.add_continuous(0, 7);
  VarId y = m.add_continuous(0, 6);
  m.add_constraint(LinExpr(x) + LinExpr(y) <= LinExpr(10.0));
  m.set_objective(-1.0 * x - 2.0 * y);
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  const std::vector<double> d = lp.reduced_costs();
  ASSERT_EQ(d.size(), 2u);
  // y at its upper bound: reduced cost must be <= 0 (improving direction
  // blocked by the bound); x is basic: reduced cost 0.
  const auto sx = lp.column_status(0);
  const auto sy = lp.column_status(1);
  if (sx == SimplexSolver::BoundStatus::Basic) {
    EXPECT_NEAR(d[0], 0.0, 1e-7);
  }
  if (sy == SimplexSolver::BoundStatus::AtUpper) {
    EXPECT_LE(d[1], 1e-7);
  }
}

TEST(SolverFeatureTest, DualValuesAtOptimum) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Hillier-Lieberman).
  // Known shadow prices (max sense): y1 = 0, y2 = 3/2, y3 = 1.
  Model m;
  VarId x = m.add_continuous(0, kInf, "x");
  VarId y = m.add_continuous(0, kInf, "y");
  m.add_constraint(LinExpr(x) <= LinExpr(4.0));
  m.add_constraint(2.0 * y <= LinExpr(12.0));
  m.add_constraint(3.0 * x + 2.0 * y <= LinExpr(18.0));
  m.set_objective(3.0 * x + 5.0 * y, ObjectiveSense::Maximize);
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  // Duals are reported in the model's own sense: these are the textbook
  // maximization shadow prices (the engine's internal minimize-sense values
  // are flipped back on the way out).
  const std::vector<double> duals = lp.dual_values();
  ASSERT_EQ(duals.size(), 3u);
  EXPECT_NEAR(duals[0], 0.0, 1e-7);
  EXPECT_NEAR(duals[1], 1.5, 1e-7);
  EXPECT_NEAR(duals[2], 1.0, 1e-7);
  // Strong duality: b^T y == optimal objective (model sense).
  const double by = 4 * duals[0] + 12 * duals[1] + 18 * duals[2];
  EXPECT_NEAR(by, 36.0, 1e-6);
}

TEST(SolverFeatureTest, ReducedCostsReportedInModelSenseForMaximize) {
  // max 5x s.t. x <= 4 (bound), y <= 3 with zero profit: at the optimum
  // x sits at its upper bound with a *positive* profit-sense reduced cost
  // (raising the bound raises the objective), and a maximize-sense dual of
  // +5 on the binding constraint.
  Model m;
  VarId x = m.add_continuous(0, kInf, "x");
  VarId y = m.add_continuous(0, 3, "y");
  m.add_constraint(LinExpr(x) <= LinExpr(4.0));
  m.set_objective(5.0 * x + 0.0 * y, ObjectiveSense::Maximize);
  SimplexSolver lp(m);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal);
  EXPECT_NEAR(-lp.objective_value(), 20.0, 1e-7);  // engine is minimize sense
  const std::vector<double> duals = lp.dual_values();
  ASSERT_EQ(duals.size(), 1u);
  EXPECT_NEAR(duals[0], 5.0, 1e-7);
  // The same model posed as an equivalent minimization must report identical
  // sensitivity numbers now that both are in model sense.
  Model mm;
  VarId mx = mm.add_continuous(0, kInf, "x");
  VarId my = mm.add_continuous(0, 3, "y");
  mm.add_constraint(LinExpr(mx) <= LinExpr(4.0));
  mm.set_objective(-5.0 * mx + 0.0 * my);
  SimplexSolver mlp(mm);
  ASSERT_EQ(mlp.solve_primal(), SolveStatus::Optimal);
  const std::vector<double> dmax = lp.reduced_costs();
  const std::vector<double> dmin = mlp.reduced_costs();
  ASSERT_EQ(dmax.size(), 2u);
  ASSERT_EQ(dmin.size(), 2u);
  // min sense: d = c - y A; model sense for the max model must be -that.
  EXPECT_NEAR(dmax[0], -dmin[0], 1e-9);
  EXPECT_NEAR(dmax[1], -dmin[1], 1e-9);
  EXPECT_NEAR(mlp.dual_values()[0], -duals[0], 1e-9);
}

TEST(SolverFeatureTest, SymmetricSelectionSolvesQuickly) {
  // 12 identical options, pick 4: granularity pruning + probe dive keep the
  // node count tiny despite the combinatorial plateau.
  Model m;
  LinExpr pick;
  LinExpr obj;
  for (int j = 0; j < 12; ++j) {
    VarId v = m.add_binary();
    pick += LinExpr(v);
    obj += 5.0 * v;
  }
  m.add_constraint(std::move(pick), Sense::EQ, 4.0);
  m.set_objective(obj);
  const Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, 1e-7);
  EXPECT_LT(s.nodes_explored, 50);
}

// Property: presolve+granularity+fixing stack agrees with plain enumeration
// on mixed binary/continuous models.
class MixedMilpProperty : public ::testing::TestWithParam<int> {};

TEST_P(MixedMilpProperty, AgreesWithSemiExhaustiveReference) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31337u + 1u);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);

  // 4 binaries + 1 continuous in [0, 4].
  Model m;
  std::vector<VarId> b;
  for (int j = 0; j < 4; ++j) b.push_back(m.add_binary());
  VarId x = m.add_continuous(0, 4);

  std::vector<std::array<double, 5>> rows;
  std::vector<double> rhs;
  for (int i = 0; i < 3; ++i) {
    std::array<double, 5> r{};
    LinExpr e;
    for (int j = 0; j < 4; ++j) {
      r[static_cast<std::size_t>(j)] = std::round(coef(rng));
      e += r[static_cast<std::size_t>(j)] * b[static_cast<std::size_t>(j)];
    }
    r[4] = std::round(coef(rng));
    e += r[4] * x;
    rows.push_back(r);
    rhs.push_back(std::round(coef(rng)) + 3.0);
    m.add_constraint(std::move(e), Sense::LE, rhs.back());
  }
  std::array<double, 5> c{};
  LinExpr obj;
  for (int j = 0; j < 4; ++j) {
    c[static_cast<std::size_t>(j)] = std::round(coef(rng));
    obj += c[static_cast<std::size_t>(j)] * b[static_cast<std::size_t>(j)];
  }
  c[4] = std::round(coef(rng));
  obj += c[4] * x;
  m.set_objective(obj);

  // Reference: enumerate the 16 binary points; for each, the continuous var
  // optimum is at a bound of its feasible interval (single variable).
  double best = kInf;
  for (int mask = 0; mask < 16; ++mask) {
    double lo = 0.0;
    double hi = 4.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      double fixed = 0.0;
      for (int j = 0; j < 4; ++j) {
        if ((mask >> j) & 1) fixed += rows[i][static_cast<std::size_t>(j)];
      }
      const double room = rhs[i] - fixed;
      const double a = rows[i][4];
      if (std::abs(a) < 1e-12) {
        if (room < -1e-9) lo = 1.0, hi = 0.0;  // infeasible
      } else if (a > 0) {
        hi = std::min(hi, room / a);
      } else {
        lo = std::max(lo, room / a);
      }
    }
    if (lo > hi + 1e-9) continue;
    double fixed_cost = 0.0;
    for (int j = 0; j < 4; ++j) {
      if ((mask >> j) & 1) fixed_cost += c[static_cast<std::size_t>(j)];
    }
    best = std::min(best, fixed_cost + c[4] * (c[4] >= 0 ? lo : hi));
  }

  const Solution s = solve_milp(m);
  if (best >= kInf) {
    EXPECT_EQ(s.status, SolveStatus::Infeasible) << "seed " << GetParam();
  } else {
    ASSERT_TRUE(s.optimal()) << "seed " << GetParam();
    EXPECT_NEAR(s.objective, best, 1e-6) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedMilpProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace archex::milp

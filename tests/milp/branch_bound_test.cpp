#include "milp/branch_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace archex::milp {
namespace {

TEST(BranchBoundTest, PureLpPassThrough) {
  Model m;
  VarId x = m.add_continuous(0, 4);
  m.add_constraint(LinExpr(x) <= LinExpr(2.5));
  m.set_objective(-1.0 * x);
  Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -2.5, 1e-7);
}

TEST(BranchBoundTest, SimpleKnapsack) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, binaries.
  // Best: a=1, c=1 (w=3) obj 8; a=1,b=1 (w=5) obj 9. Optimum 9... check
  // a+b: 2+3=5 <= 5 obj 9; a+b+c: w=6 infeasible. So 9.
  Model m;
  VarId a = m.add_binary("a");
  VarId b = m.add_binary("b");
  VarId c = m.add_binary("c");
  m.add_constraint(2.0 * a + 3.0 * b + 1.0 * c <= LinExpr(5.0));
  m.set_objective(5.0 * a + 4.0 * b + 3.0 * c, ObjectiveSense::Maximize);
  Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 9.0, 1e-7);
  EXPECT_NEAR(s.value(a), 1.0, 1e-6);
}

TEST(BranchBoundTest, IntegerRoundingMatters) {
  // max x + y s.t. 2x + 2y <= 7 integers: LP gives 3.5, IP gives 3.
  Model m;
  VarId x = m.add_integer(0, 10);
  VarId y = m.add_integer(0, 10);
  m.add_constraint(2.0 * x + 2.0 * y <= LinExpr(7.0));
  m.set_objective(LinExpr(x) + LinExpr(y), ObjectiveSense::Maximize);
  Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(BranchBoundTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 has no integer point.
  Model m;
  VarId x = m.add_integer(0, 1);
  m.add_constraint(LinExpr(x) >= LinExpr(0.4));
  m.add_constraint(LinExpr(x) <= LinExpr(0.6));
  m.set_objective(LinExpr(x));
  Solution s = solve_milp(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
}

TEST(BranchBoundTest, MixedIntegerWithContinuousPart) {
  // min 10*y + z s.t. z >= 3 - 2y, z >= 0, y binary.
  // y=0: z=3 obj 3. y=1: z=1 obj 11. Optimum 3.
  Model m;
  VarId y = m.add_binary("y");
  VarId z = m.add_continuous(0, kInf, "z");
  m.add_constraint(LinExpr(z) + 2.0 * y >= LinExpr(3.0));
  m.set_objective(10.0 * y + 1.0 * z);
  Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
  EXPECT_NEAR(s.value(y), 0.0, 1e-6);
  EXPECT_NEAR(s.value(z), 3.0, 1e-6);
}

TEST(BranchBoundTest, EqualityWithBinaries) {
  // a + b + c == 2, minimize 3a + 2b + c -> b=c=1, obj=3.
  Model m;
  VarId a = m.add_binary();
  VarId b = m.add_binary();
  VarId c = m.add_binary();
  m.add_constraint(LinExpr(a) + LinExpr(b) + LinExpr(c) == LinExpr(2.0));
  m.set_objective(3.0 * a + 2.0 * b + 1.0 * c);
  Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(BranchBoundTest, KnapsackMatchesExhaustiveEnumeration) {
  Model m;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> wd(1, 9);
  LinExpr tw, tv;
  for (int i = 0; i < 12; ++i) {
    VarId v = m.add_binary();
    tw += static_cast<double>(wd(rng)) * v;
    tv += static_cast<double>(wd(rng)) * v;
  }
  m.add_constraint(tw <= LinExpr(25.0));
  m.set_objective(tv, ObjectiveSense::Maximize);
  // All 4,096 points of the 12 binaries: the best feasible one is the optimum.
  double best = -1.0;
  std::vector<double> x(12);
  for (unsigned bits = 0; bits < (1u << 12); ++bits) {
    for (std::size_t j = 0; j < x.size(); ++j) x[j] = (bits >> j) & 1u ? 1.0 : 0.0;
    if (m.feasible(x, 1e-9)) best = std::max(best, tv.evaluate(x));
  }
  const Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, best, 1e-6);
  EXPECT_TRUE(m.feasible(s.x, 1e-6));
}

TEST(BranchBoundTest, NodeLimitReportsIncumbent) {
  Model m;
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> wd(3, 19);
  LinExpr tw, tv;
  for (int i = 0; i < 25; ++i) {
    VarId v = m.add_binary();
    tw += static_cast<double>(wd(rng)) * v;
    tv += static_cast<double>(wd(rng)) * v;
  }
  m.add_constraint(tw <= LinExpr(60.0));
  m.set_objective(tv, ObjectiveSense::Maximize);
  MilpOptions o;
  o.max_nodes = 3;
  Solution s = solve_milp(m, o);
  // With a tiny node budget we may or may not finish, but the status must be
  // truthful and any reported incumbent must be feasible.
  if (s.has_incumbent) {
    EXPECT_TRUE(m.feasible(s.x, 1e-5));
  }
  EXPECT_TRUE(s.status == SolveStatus::Optimal || s.status == SolveStatus::NodeLimit ||
              s.status == SolveStatus::Infeasible);
}

TEST(BranchBoundTest, MaximizeSenseRoundTrip) {
  Model m;
  VarId x = m.add_integer(0, 100);
  m.add_constraint(3.0 * x <= LinExpr(17.0));  // x <= 5.67 -> 5
  m.set_objective(LinExpr(x) + LinExpr(1.0), ObjectiveSense::Maximize);
  Solution s = solve_milp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 6.0, 1e-7);  // x=5 plus constant 1
}

// ---------------------------------------------------------------------------
// Property suite: random small MILPs cross-checked against exhaustive
// enumeration of the integer grid (continuous part absent by construction).
// ---------------------------------------------------------------------------

class RandomMilpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomMilpProperty, MatchesExhaustiveEnumeration) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  std::uniform_real_distribution<double> coef(-4.0, 4.0);
  std::uniform_real_distribution<double> rhs_d(-2.0, 10.0);
  std::uniform_int_distribution<int> rows_d(2, 5);

  const int n = 5;  // 5 integer vars in {0,1,2}
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < n; ++j) v.push_back(m.add_integer(0, 2));
  const int rows = rows_d(rng);
  std::vector<std::vector<double>> A(static_cast<std::size_t>(rows), std::vector<double>(n));
  std::vector<double> b(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    for (int j = 0; j < n; ++j) {
      A[i][j] = std::round(coef(rng));
      e += A[i][j] * v[j];
    }
    b[i] = std::round(rhs_d(rng));
    m.add_constraint(std::move(e), Sense::LE, b[i]);
  }
  std::vector<double> c(n);
  LinExpr obj;
  for (int j = 0; j < n; ++j) {
    c[j] = std::round(coef(rng));
    obj += c[j] * v[j];
  }
  m.set_objective(obj);

  // Exhaustive enumeration over 3^5 = 243 points.
  double best = kInf;
  std::vector<double> x(n);
  for (int code = 0; code < 243; ++code) {
    int t = code;
    for (int j = 0; j < n; ++j) {
      x[j] = t % 3;
      t /= 3;
    }
    bool ok = true;
    for (int i = 0; i < rows && ok; ++i) {
      double act = 0;
      for (int j = 0; j < n; ++j) act += A[i][j] * x[j];
      ok = act <= b[i] + 1e-9;
    }
    if (!ok) continue;
    double val = 0;
    for (int j = 0; j < n; ++j) val += c[j] * x[j];
    best = std::min(best, val);
  }

  Solution s = solve_milp(m);
  if (best == kInf) {
    EXPECT_EQ(s.status, SolveStatus::Infeasible) << "seed " << GetParam();
  } else {
    ASSERT_TRUE(s.optimal()) << "seed " << GetParam() << " status " << to_string(s.status);
    EXPECT_NEAR(s.objective, best, 1e-6) << "seed " << GetParam();
    EXPECT_TRUE(m.feasible(s.x, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMilpProperty, ::testing::Range(0, 60));

}  // namespace
}  // namespace archex::milp

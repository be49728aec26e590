#include "check/analyze.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "arch/patterns/connection.hpp"
#include "arch/problem.hpp"
#include "domains/epn.hpp"
#include "milp/presolve.hpp"

namespace archex::check {
namespace {

using patterns::CountSide;
using patterns::NConnections;

/// The small EPN exploration plus one contradictory requirement: "no DC->Load
/// connections" against the spec's "each load connects to exactly one DC
/// bus". Same seeding as data/analyze/infeasible_epn.lp.
std::unique_ptr<Problem> infeasible_epn() {
  auto p = domains::epn::make_problem(domains::epn::small_config());
  p->apply(NConnections({"DCBus"}, {"Load"}, 0, milp::Sense::LE,
                        /*only_if_used=*/false, CountSide::kTo));
  p->model().set_objective(p->cost_expression(), milp::ObjectiveSense::Minimize);
  return p;
}

std::unique_ptr<Problem> feasible_epn() {
  auto p = domains::epn::make_problem(domains::epn::small_config());
  p->model().set_objective(p->cost_expression(), milp::ObjectiveSense::Minimize);
  return p;
}

/// The k = 1 regime from epn_test.cpp: closes in well under a second.
domains::epn::EpnConfig tiny_config() {
  domains::epn::EpnConfig cfg = domains::epn::small_config();
  cfg.loads_per_side = 2;
  cfg.critical_threshold = 5e-3;
  cfg.sheddable_threshold = 5e-2;
  return cfg;
}

TEST(ArchAnalyzeTest, IisIsFullyAttributedToPatterns) {
  const auto p = infeasible_epn();
  const ArchAnalysisReport r = analyze(*p);
  ASSERT_TRUE(r.base.proved_infeasible());
  ASSERT_TRUE(r.base.iis.infeasible);
  ASSERT_FALSE(r.base.iis.rows.empty());
  ASSERT_EQ(r.iis_origins.size(), r.base.iis.rows.size());
  EXPECT_DOUBLE_EQ(r.iis_attribution, 1.0);
  for (const std::string& origin : r.iis_origins) {
    EXPECT_NE(origin, "unattributed");
  }
  // The seeded conflict is the two count constraints on the same load.
  EXPECT_LE(r.base.iis.rows.size(), 2u);
  bool saw_exactly = false, saw_at_most = false;
  for (const std::string& origin : r.iis_origins) {
    if (origin.find("exactly_n_connections") != std::string::npos) saw_exactly = true;
    if (origin.find("at_most_n_connections") != std::string::npos) saw_at_most = true;
  }
  EXPECT_TRUE(saw_exactly);
  EXPECT_TRUE(saw_at_most);
}

TEST(ArchAnalyzeTest, BlocksRecoverPatternStructure) {
  const auto p = feasible_epn();
  const ArchAnalysisReport r = analyze(*p);
  ASSERT_GT(r.blocks.size(), 1u);
  std::size_t total_rows = 0;
  for (const OriginBlock& b : r.blocks) {
    EXPECT_FALSE(b.origin.empty());
    EXPECT_GT(b.rows, 0u);
    total_rows += b.rows;
  }
  // Every row belongs to exactly one origin block.
  EXPECT_EQ(total_rows, p->model().num_constraints());
  // Blocks are rows-descending and coupled through shared columns.
  for (std::size_t i = 1; i < r.blocks.size(); ++i) {
    EXPECT_GE(r.blocks[i - 1].rows, r.blocks[i].rows);
  }
  EXPECT_GT(r.coupling_cols, 0u);
}

TEST(ArchAnalyzeTest, ExplainInfeasibilityNamesTheConflict) {
  const auto p = infeasible_epn();
  const ArchAnalysisReport r = analyze(*p);
  const std::string text = r.explain_infeasibility();
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("at_most_n_connections"), std::string::npos);
  EXPECT_NE(text.find("exactly_n_connections"), std::string::npos);
}

TEST(ArchAnalyzeTest, ExplainIsEmptyWhenFeasible) {
  const auto p = feasible_epn();
  const ArchAnalysisReport r = analyze(*p);
  EXPECT_FALSE(r.base.proved_infeasible());
  EXPECT_TRUE(r.explain_infeasibility().empty());
}

TEST(ArchAnalyzeTest, DiagnoserFillsExplorationResult) {
  const auto p = infeasible_epn();
  EXPECT_FALSE(p->has_infeasibility_diagnoser());
  enable_infeasibility_diagnosis(*p);
  ASSERT_TRUE(p->has_infeasibility_diagnoser());
  const ExplorationResult res = p->solve();
  ASSERT_EQ(res.solution.status, milp::SolveStatus::Infeasible);
  ASSERT_FALSE(res.infeasibility_explanation.empty());
  EXPECT_NE(res.infeasibility_explanation.find("at_most_n_connections"),
            std::string::npos);
}

TEST(ArchAnalyzeTest, DiagnoserStaysQuietOnFeasibleSolve) {
  // The tiny instance solves to optimality in well under the limit; the
  // diagnoser must not fire on the feasible path.
  auto p = domains::epn::make_problem(tiny_config());
  enable_infeasibility_diagnosis(*p);
  milp::MilpOptions o;
  o.budget = milp::Budget::of_seconds(30);
  const ExplorationResult res = p->solve(o);
  ASSERT_TRUE(res.feasible()) << milp::to_string(res.solution.status);
  EXPECT_TRUE(res.infeasibility_explanation.empty());
}

TEST(ArchAnalyzeTest, EpnModelHasStrengthenableBounds) {
  // Acceptance: the presolve strengthen step (on by default) proves >0
  // tightened bounds on a real EPN exploration model.
  const auto p = feasible_epn();
  const milp::PresolveResult pre = milp::presolve(p->model());
  ASSERT_FALSE(pre.infeasible);
  EXPECT_GT(pre.strengthen_tightened, 0u);
}

TEST(ArchAnalyzeTest, ArchReportPrintsOriginsAndBlocks) {
  const auto p = infeasible_epn();
  const ArchAnalysisReport r = analyze(*p);
  std::ostringstream os;
  r.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("attribution"), std::string::npos);
  EXPECT_NE(text.find("at_most_n_connections"), std::string::npos);
}

}  // namespace
}  // namespace archex::check

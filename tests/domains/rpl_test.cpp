#include "domains/rpl.hpp"

#include <gtest/gtest.h>

#include "graph/digraph.hpp"

namespace archex::domains::rpl {
namespace {

/// Shrunk instance that closes quickly: one conveyor per stage, two machine
/// slots on line A, one on line B, smaller rates.
RplConfig tiny_config() {
  RplConfig cfg;
  cfg.machines_per_stage_a = 2;
  cfg.machines_per_stage_b = 1;
  cfg.conveyors_per_stage_a = 1;
  cfg.conveyors_per_stage_b = 1;
  cfg.rate_a = 6.0;
  cfg.rate_b = 5.0;
  return cfg;
}

TEST(RplLibraryTest, Table3Contents) {
  Library lib = make_library();
  EXPECT_EQ(lib.of_type("Machine").size(), 7u);
  EXPECT_EQ(lib.of_type("Machine", "AB").size(), 1u);
  const Component& ab = lib.at(*lib.find("MachAB10"));
  EXPECT_EQ(ab.attr_or(attr::kThroughput), 10.0);
  EXPECT_EQ(lib.at(*lib.find("SrcA")).attr_or(attr::kFlowRate), 12.0);
  EXPECT_EQ(lib.at(*lib.find("SrcB")).attr_or(attr::kFlowRate), 10.0);
}

TEST(RplTemplateTest, LinesAndJunctions) {
  RplConfig cfg;
  ArchTemplate t = make_template(cfg);
  // Line-local chain.
  EXPECT_TRUE(t.edge_allowed(t.find("SrcA"), t.find("C1A1")));
  EXPECT_FALSE(t.edge_allowed(t.find("SrcA"), t.find("C1B1")));
  EXPECT_TRUE(t.edge_allowed(t.find("C1A1"), t.find("M1A1")));
  EXPECT_FALSE(t.edge_allowed(t.find("C1A1"), t.find("M1B1")));
  // Junction conveyors: same-stage cross-line, both directions.
  EXPECT_TRUE(t.edge_allowed(t.find("C1A1"), t.find("C1B1")));
  EXPECT_TRUE(t.edge_allowed(t.find("C1B1"), t.find("C1A1")));
  EXPECT_FALSE(t.edge_allowed(t.find("C1A1"), t.find("C2B1")));
  // Machine slots restricted by line: line B machines take B or AB impls.
  Library lib = make_library(cfg);
  Problem p(lib, t);
  for (const auto& c : p.mapping().candidates(t.find("M1B1"))) {
    const std::string& sub = lib.at(c.lib).subtype;
    EXPECT_TRUE(sub == "B" || sub == "AB") << sub;
  }
}

TEST(RplProblemTest, BothModesSatisfied) {
  const RplConfig cfg = tiny_config();
  auto p = make_problem(cfg);
  milp::MilpOptions o;
  o.budget = milp::Budget::of_seconds(60);
  ExplorationResult res = p->solve(o);
  ASSERT_TRUE(res.feasible());
  const Architecture& a = res.architecture;

  // Mode rates arrive at the right sinks.
  EXPECT_NEAR(a.in_flow("O1:A", p->arch_template().find("SnkA")), cfg.rate_a, 1e-5);
  EXPECT_NEAR(a.in_flow("O1:B", p->arch_template().find("SnkB")), cfg.rate_b, 1e-5);
  EXPECT_NEAR(a.in_flow("O2:A", p->arch_template().find("SnkA")), 2 * cfg.rate_a, 1e-5);
  EXPECT_NEAR(a.in_flow("O2:B", p->arch_template().find("SnkB")), 0.0, 1e-5);

  // No machine exceeds its throughput in either mode.
  for (NodeId m : a.used_nodes(NodeFilter::of_type("Machine"))) {
    const auto& n = a.nodes[static_cast<std::size_t>(m)];
    const double mu = p->library().at(n.impl).attr_or(attr::kThroughput);
    EXPECT_LE(a.in_flow("O1:A", m) + a.in_flow("O1:B", m), mu + 1e-5);
    EXPECT_LE(a.in_flow("O2:A", m) + a.in_flow("O2:B", m), mu + 1e-5);
  }

  // Omega1 is line-pure: no product-A flow on line B and vice versa.
  const auto& flows = a.flows;
  if (flows.count("O1:A")) {
    for (const FlowEdge& e : flows.at("O1:A")) {
      EXPECT_FALSE(a.nodes[static_cast<std::size_t>(e.from)].name.find("B") ==
                   2);  // heuristic: stage names are C1B1 etc.
    }
  }
  // Machine capability: any machine carrying product x is implemented by a
  // subtype-x or AB component.
  for (const char* mode : {"O1", "O2"}) {
    for (const char* prod : {"A", "B"}) {
      const std::string commodity = std::string(mode) + ":" + prod;
      for (NodeId m : a.used_nodes(NodeFilter::of_type("Machine"))) {
        if (a.in_flow(commodity, m) < 1e-6) continue;
        const std::string& sub =
            p->library().at(a.nodes[static_cast<std::size_t>(m)].impl).subtype;
        EXPECT_TRUE(sub == prod || sub == "AB")
            << commodity << " through " << a.nodes[static_cast<std::size_t>(m)].name;
      }
    }
  }
}

TEST(RplProblemTest, IdleBoundHolds) {
  RplConfig cfg = tiny_config();
  cfg.max_total_idle = 20.0;
  auto p = make_problem(cfg);
  milp::MilpOptions o;
  o.budget = milp::Budget::of_seconds(60);
  ExplorationResult res = p->solve(o);
  ASSERT_TRUE(res.feasible());
  EXPECT_LE(total_idle_rate(*p, res.architecture), cfg.max_total_idle + 1e-5);
}

TEST(RplProblemTest, IdleBoundReducesIdleRate) {
  RplConfig loose = tiny_config();
  RplConfig tight = tiny_config();
  tight.max_total_idle = 20.0;
  milp::MilpOptions o;
  o.budget = milp::Budget::of_seconds(60);
  auto p1 = make_problem(loose);
  auto p2 = make_problem(tight);
  ExplorationResult r1 = p1->solve(o);
  ExplorationResult r2 = p2->solve(o);
  ASSERT_TRUE(r1.feasible());
  ASSERT_TRUE(r2.feasible());
  EXPECT_LE(total_idle_rate(*p2, r2.architecture),
            total_idle_rate(*p1, r1.architecture) + 1e-6);
  // The tighter design cannot be cheaper.
  EXPECT_GE(r2.architecture.cost, r1.architecture.cost - 1e-6);
}

TEST(RplPatternRegistrationTest, HasOperationModeInRegistry) {
  register_rpl_patterns();
  EXPECT_TRUE(PatternRegistry::instance().contains("has_operation_mode"));
  auto pat = PatternRegistry::instance().create(
      "has_operation_mode",
      {std::string("O1"), std::string("A"), 12.0, std::string("B"), 10.0,
       std::string("no_borrowing")});
  EXPECT_EQ(pat->name(), "has_operation_mode");
  EXPECT_NE(pat->describe().find("no_borrowing"), std::string::npos);
}

}  // namespace
}  // namespace archex::domains::rpl

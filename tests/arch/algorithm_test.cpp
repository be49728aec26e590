#include "arch/algorithm.hpp"

#include <gtest/gtest.h>

#include "arch/patterns/connection.hpp"
#include "arch/patterns/general.hpp"
#include "reliability/reliability.hpp"

namespace archex {
namespace {

using patterns::CountSide;
using patterns::NConnections;
using patterns::SinksConnectedToSources;

/// Source/mid/sink net with failure-prone components for the lazy loop.
struct RelNet {
  Library lib;
  ArchTemplate tmpl;

  RelNet() {
    lib.set_edge_cost(1.0);
    lib.add({"SrcX", "Src", "", {}, {{attr::kCost, 10}, {attr::kFailProb, 0.05}}});
    lib.add({"MidX", "Mid", "", {}, {{attr::kCost, 4}, {attr::kFailProb, 0.05}}});
    lib.add({"SnkX", "Snk", "", {}, {{attr::kCost, 0}}});
    tmpl.add_nodes(3, "S", "Src");
    tmpl.add_nodes(3, "M", "Mid");
    tmpl.add_node({"T", "Snk", "", {}, {}});
    tmpl.allow_connection(NodeFilter::of_type("Src"), NodeFilter::of_type("Mid"));
    tmpl.allow_connection(NodeFilter::of_type("Mid"), NodeFilter::of_type("Snk"));
  }

  [[nodiscard]] Problem make() const {
    Problem p(lib, tmpl);
    p.set_functional_flow({"Src", "Mid", "Snk"});
    return p;
  }
};

TEST(AnalyzeReliabilityTest, MatchesDirectComputation) {
  RelNet net;
  Problem p = net.make();
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));
  ExplorationResult res = p.solve();
  ASSERT_TRUE(res.feasible());

  ReliabilityRequirement req{NodeFilter::of_type("Src"), NodeFilter::of_type("Snk"), 0.5};
  const auto probs = analyze_reliability(p, res.architecture, req);
  ASSERT_EQ(probs.size(), 1u);
  const double direct = reliability::link_failure_probability(
      res.architecture.to_digraph(), net.tmpl.select(NodeFilter::of_type("Src")),
      net.tmpl.find("T"), res.architecture.node_fail_probs(p.library()));
  EXPECT_NEAR(probs.at("T"), direct, 1e-12);
}

TEST(SolveLazyTest, NoRequirementsConvergesImmediately) {
  RelNet net;
  Problem p = net.make();
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));
  IterativeResult res = solve_lazy(p, {});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations.size(), 1u);
  EXPECT_TRUE(res.final_result.feasible());
}

TEST(SolveLazyTest, LearnsRedundancyUntilThresholdMet) {
  RelNet net;
  Problem p = net.make();
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));
  // One chain: failure prob ~ 1 - 0.95^2 ~ 0.0975. Demand <= 0.02: needs two
  // disjoint chains (~0.0095).
  ReliabilityRequirement req{NodeFilter::of_type("Src"), NodeFilter::of_type("Snk"), 0.02};
  IterativeResult res = solve_lazy(p, {req});
  ASSERT_TRUE(res.converged);
  EXPECT_GE(res.iterations.size(), 2u);
  // Exact analysis of the final architecture meets the requirement.
  const auto probs = analyze_reliability(p, res.final_result.architecture, req);
  EXPECT_LE(probs.at("T"), req.threshold);
  // Earlier iterations recorded the violation.
  EXPECT_GT(res.iterations.front().metrics.at("fail_prob[T]"), req.threshold);
  // Learned requirements were recorded.
  EXPECT_GE(res.iterations.back().metrics.at("required_paths[T]"), 2);
}

TEST(SolveLazyTest, ReportsFailureWhenRedundancyCeilingHit) {
  RelNet net;
  Problem p = net.make();
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));
  // Unattainable threshold: even 3 disjoint chains give ~9e-4.
  ReliabilityRequirement req{NodeFilter::of_type("Src"), NodeFilter::of_type("Snk"), 1e-12};
  LazyOptions opts;
  opts.max_path_requirement = 3;
  IterativeResult res = solve_lazy(p, {req}, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_FALSE(res.iterations.empty());
}

TEST(SolveLazyTest, CostNeverDecreasesAcrossIterations) {
  RelNet net;
  Problem p = net.make();
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));
  ReliabilityRequirement req{NodeFilter::of_type("Src"), NodeFilter::of_type("Snk"), 0.02};
  IterativeResult res = solve_lazy(p, {req});
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 1; i < res.iterations.size(); ++i) {
    EXPECT_GE(res.iterations[i].cost, res.iterations[i - 1].cost - 1e-9);
  }
}

}  // namespace
}  // namespace archex

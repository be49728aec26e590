/// Randomized end-to-end property suite: random libraries, random templates,
/// random pattern sets — every feasible result is checked *semantically*
/// against each applied pattern by independent (non-MILP) oracles on the
/// concrete architecture. This is the repo's strongest guard that the
/// pattern-to-MILP translation means what the pattern says.
#include <gtest/gtest.h>

#include <random>

#include "arch/patterns/connection.hpp"
#include "arch/patterns/flow.hpp"
#include "arch/patterns/general.hpp"
#include "arch/problem.hpp"
#include "graph/digraph.hpp"

namespace archex {
namespace {

using namespace patterns;

struct RandomWorld {
  Library lib;
  ArchTemplate tmpl;
  int num_src, num_mid, num_snk;

  explicit RandomWorld(std::mt19937& rng) {
    std::uniform_int_distribution<int> count(1, 3);
    std::uniform_real_distribution<double> cost(1.0, 20.0);
    std::uniform_int_distribution<int> impls(1, 3);

    lib.set_edge_cost(cost(rng) * 0.2);
    for (int i = 0, n = impls(rng); i < n; ++i) {
      lib.add({"SrcImpl" + std::to_string(i), "Src", "", {},
               {{attr::kCost, cost(rng)}, {attr::kDelay, 1.0}}});
    }
    for (int i = 0, n = impls(rng); i < n; ++i) {
      lib.add({"MidImpl" + std::to_string(i), "Mid", i % 2 ? "fast" : "slow", {},
               {{attr::kCost, cost(rng)}, {attr::kThroughput, 2.0 + 3 * i},
                {attr::kDelay, 1.0 + i}}});
    }
    lib.add({"SnkImpl", "Snk", "", {}, {{attr::kCost, 0.0}}});

    num_src = count(rng);
    num_mid = count(rng) + 1;
    num_snk = count(rng);
    tmpl.add_nodes(num_src, "S", "Src");
    tmpl.add_nodes(num_mid, "M", "Mid");
    tmpl.add_nodes(num_snk, "T", "Snk");
    tmpl.allow_connection(NodeFilter::of_type("Src"), NodeFilter::of_type("Mid"));
    tmpl.allow_connection(NodeFilter::of_type("Mid"), NodeFilter::of_type("Mid"));
    tmpl.allow_connection(NodeFilter::of_type("Mid"), NodeFilter::of_type("Snk"));
  }
};

/// Semantic oracle for one pattern on a concrete architecture.
struct Oracle {
  std::shared_ptr<Pattern> pattern;
  std::function<bool(const Problem&, const Architecture&)> holds;
};

class RandomExploration : public ::testing::TestWithParam<int> {};

TEST_P(RandomExploration, FeasibleResultsSatisfyEveryAppliedPattern) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7717u + 19u);
  RandomWorld world(rng);
  Problem p(world.lib, world.tmpl);
  p.set_functional_flow({"Src", "Mid", "Snk"});

  const auto src = NodeFilter::of_type("Src");
  const auto mid = NodeFilter::of_type("Mid");
  const auto snk = NodeFilter::of_type("Snk");

  std::vector<Oracle> pool;
  pool.push_back(
      {std::make_shared<AtLeastNComponents>(mid, 1),
       [&](const Problem&, const Architecture& a) { return a.used_nodes(mid).size() >= 1; }});
  pool.push_back({std::make_shared<NConnections>(mid, snk, 1, milp::Sense::EQ, false,
                                                 CountSide::kTo),
                  [&](const Problem& prob, const Architecture& a) {
                    const graph::Digraph g = a.to_digraph();
                    for (NodeId t : prob.arch_template().select(snk)) {
                      std::size_t in = 0;
                      for (std::int32_t u : g.predecessors(t)) {
                        if (mid.matches(prob.arch_template().node(u))) ++in;
                      }
                      if (in != 1) return false;
                    }
                    return true;
                  }});
  pool.push_back({std::make_shared<NConnections>(src, mid, 2, milp::Sense::LE, false,
                                                 CountSide::kFrom),
                  [&](const Problem& prob, const Architecture& a) {
                    const graph::Digraph g = a.to_digraph();
                    for (NodeId s : prob.arch_template().select(src)) {
                      std::size_t out = 0;
                      for (std::int32_t v : g.successors(s)) {
                        if (mid.matches(prob.arch_template().node(v))) ++out;
                      }
                      if (out > 2) return false;
                    }
                    return true;
                  }});
  pool.push_back({std::make_shared<NConnections>(src, mid, 1, milp::Sense::GE, true,
                                                 CountSide::kTo),
                  [&](const Problem& prob, const Architecture& a) {
                    const graph::Digraph g = a.to_digraph();
                    for (NodeId m : a.used_nodes(mid)) {
                      bool fed = false;
                      for (std::int32_t u : g.predecessors(m)) {
                        if (src.matches(prob.arch_template().node(u))) fed = true;
                      }
                      if (!fed) return false;
                    }
                    return true;
                  }});
  pool.push_back({std::make_shared<CannotConnect>(NodeFilter{"Mid", "slow", ""},
                                                  NodeFilter{"Mid", "fast", ""}),
                  [&](const Problem& prob, const Architecture& a) {
                    for (const auto& [u, v] : a.edges) {
                      const auto& nu = a.nodes[static_cast<std::size_t>(u)];
                      const auto& nv = a.nodes[static_cast<std::size_t>(v)];
                      if (nu.impl < 0 || nv.impl < 0) continue;
                      if (prob.library().at(nu.impl).subtype == "slow" &&
                          prob.library().at(nv.impl).subtype == "fast" &&
                          nu.type == "Mid" && nv.type == "Mid") {
                        return false;
                      }
                    }
                    return true;
                  }});
  pool.push_back({std::make_shared<SinksConnectedToSources>(src, snk),
                  [&](const Problem& prob, const Architecture& a) {
                    const graph::Digraph g = a.to_digraph();
                    const auto sources = prob.arch_template().select(src);
                    for (NodeId t : prob.arch_template().select(snk)) {
                      if (!graph::reaches(g, sources, t)) return false;
                    }
                    return true;
                  }});

  // Apply a random subset (always include the sink-connection pattern so
  // the instance is not trivially empty).
  std::vector<Oracle> applied;
  applied.push_back(pool[1]);
  std::uniform_int_distribution<int> coin(0, 1);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i != 1 && coin(rng)) applied.push_back(pool[i]);
  }
  for (const Oracle& o : applied) p.apply(*o.pattern);
  p.add_symmetry_breaking();

  milp::MilpOptions opts;
  opts.budget = milp::Budget::of_seconds(20);
  ExplorationResult res = p.solve(opts);
  if (!res.feasible()) return;  // infeasible random combos are fine

  for (const Oracle& o : applied) {
    EXPECT_TRUE(o.holds(p, res.architecture))
        << "seed " << GetParam() << " violates " << o.pattern->describe();
  }
  // Global sanity: model-level feasibility of the chosen assignment.
  EXPECT_TRUE(p.model().feasible(res.solution.x, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExploration, ::testing::Range(0, 30));

}  // namespace
}  // namespace archex

/// Tests of the generic iterative-scheme infrastructure (solve -> analyze ->
/// learn). The domain here is deliberately *not* reliability: the analysis
/// callback enforces a longest-path latency requirement exactly, showing the
/// Sec. 3 claim that the analysis/learning interfaces are domain-pluggable.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "arch/algorithm.hpp"
#include "arch/patterns/connection.hpp"
#include "arch/patterns/general.hpp"
#include "graph/digraph.hpp"

namespace archex {
namespace {

using patterns::CountSide;
using patterns::NConnections;
using patterns::SinksConnectedToSources;

struct LatencyNet {
  Library lib;
  ArchTemplate tmpl;

  LatencyNet() {
    lib.set_edge_cost(1.0);
    lib.add({"SrcX", "Src", "", {}, {{attr::kCost, 5}, {attr::kDelay, 1}}});
    lib.add({"MidSlow", "Mid", "slow", {}, {{attr::kCost, 2}, {attr::kDelay, 6}}});
    lib.add({"MidQuick", "Mid", "fast", {}, {{attr::kCost, 9}, {attr::kDelay, 1}}});
    lib.add({"SnkX", "Snk", "", {}, {{attr::kCost, 0}, {attr::kDelay, 0}}});
    tmpl.add_node({"S", "Src", "", {}, {}});
    tmpl.add_nodes(2, "M", "Mid");
    tmpl.add_node({"T", "Snk", "", {}, {}});
    tmpl.allow_connection(NodeFilter::of_type("Src"), NodeFilter::of_type("Mid"));
    tmpl.allow_connection(NodeFilter::of_type("Mid"), NodeFilter::of_type("Snk"));
  }
};

/// Exact longest source->sink delay of a concrete architecture.
double measured_latency(const Problem& p, const Architecture& arch) {
  const graph::Digraph g = arch.to_digraph();
  std::vector<double> tau(g.num_nodes(), 0.0);
  for (std::size_t j = 0; j < g.num_nodes(); ++j) {
    if (arch.nodes[j].used && arch.nodes[j].impl >= 0) {
      tau[j] = p.library().at(arch.nodes[j].impl).attr_or(attr::kDelay);
    }
  }
  return graph::longest_path_weight(g, p.arch_template().select(NodeFilter::of_type("Src")),
                                    p.arch_template().find("T"), tau);
}

TEST(IterativeSchemeTest, LatencyLazyLoopConverges) {
  LatencyNet net;
  Problem p(net.lib, net.tmpl);
  p.set_functional_flow({"Src", "Mid", "Snk"});
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));

  const double bound = 2.5;  // cheapest chain uses the slow mid: 1+6 = 7 > 2.5
  int learn_calls = 0;

  const AnalysisFn analyze = [&](Problem& prob, const Architecture& arch) {
    AnalysisVerdict v;
    const double latency = measured_latency(prob, arch);
    v.accepted = latency <= bound;
    v.metrics["latency"] = latency;
    return v;
  };
  // Learning: forbid mapping any *used* mid to the slow implementation by
  // upper-bounding the slow mapping binaries (a crude but valid conflict).
  const LearnFn learn = [&](Problem& prob, const Architecture& arch) {
    ++learn_calls;
    bool acted = false;
    for (NodeId m : arch.used_nodes(NodeFilter::of_type("Mid"))) {
      for (const LibraryMapping::Candidate& c : prob.mapping().candidates(m)) {
        if (prob.library().at(c.lib).subtype == "slow") {
          prob.model().tighten_bounds(c.var, 0.0, 0.0);
          acted = true;
        }
      }
    }
    return acted;
  };

  IterativeResult res = solve_iteratively(p, analyze, learn);
  ASSERT_TRUE(res.converged);
  EXPECT_GE(res.iterations.size(), 2u);
  EXPECT_GE(learn_calls, 1);
  EXPECT_LE(measured_latency(p, res.final_result.architecture), bound);
  // The trace recorded the violated metric of the first candidate.
  EXPECT_GT(res.iterations.front().metrics.at("latency"), bound);
}

TEST(IterativeSchemeTest, StopsWhenLearningExhausted) {
  LatencyNet net;
  Problem p(net.lib, net.tmpl);
  p.set_functional_flow({"Src", "Mid", "Snk"});
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));

  const AnalysisFn never = [](Problem&, const Architecture&) { return AnalysisVerdict{}; };
  const LearnFn cannot = [](Problem&, const Architecture&) { return false; };
  IterativeResult res = solve_iteratively(p, never, cannot);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations.size(), 1u);
  EXPECT_TRUE(res.final_result.feasible());  // last candidate still reported
}

TEST(IterativeSchemeTest, RespectsIterationBudget) {
  LatencyNet net;
  Problem p(net.lib, net.tmpl);
  p.set_functional_flow({"Src", "Mid", "Snk"});
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));

  const AnalysisFn never = [](Problem&, const Architecture&) { return AnalysisVerdict{}; };
  // Learning that always "succeeds" but adds only redundant constraints.
  const LearnFn noop_learn = [](Problem& prob, const Architecture&) {
    prob.model().add_constraint(milp::LinExpr(prob.instantiated(0)), milp::Sense::LE, 1.0);
    return true;
  };
  IterativeResult res = solve_iteratively(p, never, noop_learn, {}, 4);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations.size(), 4u);
  // Running out of iterations reports the last iteration's real result,
  // not a default-constructed one.
  ASSERT_TRUE(res.final_result.feasible());
  EXPECT_EQ(res.final_result.solution.status, milp::SolveStatus::Optimal);
  EXPECT_EQ(res.final_result.solution.objective, res.iterations.back().cost);
}

TEST(IterativeSchemeTest, StepTimesCoverTheLoop) {
  // Each step reports its own solve/analyze/learn split. The closures sleep
  // a known time, so each analyzed step's fields must cover the sleeps, and
  // the split of all steps must fit inside the call's wall time.
  LatencyNet net;
  Problem p(net.lib, net.tmpl);
  p.set_functional_flow({"Src", "Mid", "Snk"});
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));

  int analyzed = 0;
  const AnalysisFn third_time_lucky = [&](Problem&, const Architecture&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    AnalysisVerdict v;
    v.accepted = ++analyzed == 3;
    return v;
  };
  const LearnFn slow_learn = [](Problem& prob, const Architecture&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    prob.model().add_constraint(milp::LinExpr(prob.instantiated(0)), milp::Sense::LE, 1.0);
    return true;
  };

  const auto t0 = std::chrono::steady_clock::now();
  IterativeResult res = solve_iteratively(p, third_time_lucky, slow_learn);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.iterations.size(), 3u);
  double split = 0.0;
  for (const IterativeStep& step : res.iterations) {
    EXPECT_GT(step.solve_seconds, 0.0);
    EXPECT_GE(step.analyze_seconds, 0.020) << "step " << step.index;
    // Learning runs only after a rejected candidate: not on the last step.
    if (step.index < 3) {
      EXPECT_GE(step.learn_seconds, 0.030) << "step " << step.index;
    } else {
      EXPECT_EQ(step.learn_seconds, 0.0);
    }
    split += step.solve_seconds + step.analyze_seconds + step.learn_seconds;
  }
  EXPECT_LE(split, wall);
}

TEST(IterativeSchemeTest, TimeLimitIsOneBudgetAcrossIterations) {
  // Regression: the budget used to restart at every re-solve, so a
  // learning loop with a 0.2 s budget could legally run all ten iterations
  // (each individually fast) and never time out. The budget is now
  // converted to one absolute end at entry; a learn step that burns the
  // whole budget must make the *next* solve come back TimeLimit and end the
  // loop.
  LatencyNet net;
  Problem p(net.lib, net.tmpl);
  p.set_functional_flow({"Src", "Mid", "Snk"});
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));

  const AnalysisFn never = [](Problem&, const Architecture&) { return AnalysisVerdict{}; };
  const LearnFn slow_learn = [](Problem& prob, const Architecture&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(350));
    prob.model().add_constraint(milp::LinExpr(prob.instantiated(0)), milp::Sense::LE, 1.0);
    return true;
  };
  milp::MilpOptions opts;
  opts.budget = milp::Budget::of_seconds(0.2);  // spans solve + analyze + learn

  const auto t0 = std::chrono::steady_clock::now();
  IterativeResult res = solve_iteratively(p, never, slow_learn, opts, 10);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  EXPECT_FALSE(res.converged);
  // Iteration 1 solves (budget intact), learn overruns the deadline,
  // iteration 2's solve times out immediately — never ten fresh budgets.
  EXPECT_EQ(res.iterations.size(), 2u);
  EXPECT_EQ(res.final_result.solution.status, milp::SolveStatus::TimeLimit);
  EXPECT_EQ(res.iterations.back().status, milp::SolveStatus::TimeLimit);
  EXPECT_LT(secs, 2.0);
  // Anytime fallback: the budget-stopped re-solve had no incumbent of its
  // own, so the loop surfaces iteration 1's architecture (flagged degraded
  // by the TimeLimit status) instead of an empty result.
  ASSERT_TRUE(res.final_result.feasible());
  EXPECT_TRUE(res.final_result.degraded());
  EXPECT_EQ(res.final_result.solution.objective, res.iterations.front().cost);
  EXPECT_EQ(res.final_result.architecture.cost, res.iterations.front().architecture.cost);
  // Learning only restricts the feasible set, so iteration 1's optimum is
  // still a valid bound; the stopped re-solve proved none of its own.
  EXPECT_GE(res.final_result.bound(), res.iterations.front().cost);
}

TEST(IterativeSchemeTest, CallerDeadlineWinsOverRelativeLimit) {
  // A serve request's absolute end spans the whole request; when it is
  // tighter than the relative allowance it must win — here it is already
  // expired, so even iteration 1 returns TimeLimit without exploring.
  LatencyNet net;
  Problem p(net.lib, net.tmpl);
  p.set_functional_flow({"Src", "Mid", "Snk"});
  p.apply(SinksConnectedToSources(NodeFilter::of_type("Src"), NodeFilter::of_type("Snk")));

  const AnalysisFn never = [](Problem&, const Architecture&) { return AnalysisVerdict{}; };
  const LearnFn noop = [](Problem&, const Architecture&) { return false; };
  milp::MilpOptions opts;
  opts.budget = milp::Budget::tighter(
      milp::Budget::of_seconds(3600.0),                         // generous allowance loses to...
      milp::Budget::until(std::chrono::steady_clock::now()));  // ...an expired end

  IterativeResult res = solve_iteratively(p, never, noop, opts, 5);
  EXPECT_FALSE(res.converged);
  ASSERT_EQ(res.iterations.size(), 1u);
  EXPECT_EQ(res.final_result.solution.status, milp::SolveStatus::TimeLimit);
  EXPECT_FALSE(res.final_result.feasible());
}

}  // namespace
}  // namespace archex

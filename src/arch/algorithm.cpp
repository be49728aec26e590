#include "arch/algorithm.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "arch/patterns/general.hpp"
#include "graph/digraph.hpp"
#include "milp/warm_start.hpp"
#include "reliability/reliability.hpp"

namespace archex {

std::map<std::string, double> analyze_reliability(const Problem& p, const Architecture& arch,
                                                  const ReliabilityRequirement& req) {
  const graph::Digraph g = arch.to_digraph();
  const std::vector<double> fail = arch.node_fail_probs(p.library());
  const std::vector<NodeId> sources = p.arch_template().select(req.sources);

  std::map<std::string, double> out;
  for (NodeId sink : p.arch_template().select(req.sinks)) {
    out[p.arch_template().node(sink).name] =
        reliability::link_failure_probability(g, sources, sink, fail);
  }
  return out;
}

int measured_disjoint_paths(const graph::Digraph& g, const std::vector<NodeId>& sources,
                            NodeId sink) {
  std::vector<int> cap(g.num_nodes(), 1);
  cap[static_cast<std::size_t>(sink)] = 1'000'000;
  return graph::max_flow_unit_nodes(g, sources, sink, cap);
}

IterativeResult solve_lazy(Problem& p, const std::vector<ReliabilityRequirement>& requirements,
                           const LazyOptions& options) {
  // Built on the generic iterative scheme below, like the EPN loop: the
  // analysis closure runs the exact reliability analysis of every
  // requirement and reports each sink in the step's metrics, the learning
  // closure raises the disjoint-path requirement of every violated sink.
  struct Violation {
    std::size_t req;
    NodeId sink;
  };
  using Key = std::pair<std::size_t, NodeId>;  // (requirement, sink)
  std::map<Key, int> learned;  // disjoint-path level in force
  std::set<Key> exhausted;     // next level would pass the redundancy ceiling
  std::vector<Violation> violated;  // filled by analysis, consumed by learning

  const AnalysisFn analyze = [&](Problem& prob, const Architecture& arch) {
    AnalysisVerdict verdict;
    violated.clear();
    for (std::size_t r = 0; r < requirements.size(); ++r) {
      const ReliabilityRequirement& req = requirements[r];
      for (const auto& [sink_name, prob_fail] : analyze_reliability(prob, arch, req)) {
        double& worst = verdict.metrics["fail_prob[" + sink_name + "]"];
        worst = std::max(worst, prob_fail);
        const NodeId sink = prob.arch_template().find(sink_name);
        if (auto it = learned.find({r, sink}); it != learned.end()) {
          double& level = verdict.metrics["required_paths[" + sink_name + "]"];
          level = std::max(level, static_cast<double>(it->second));
        }
        if (prob_fail > req.threshold) violated.push_back({r, sink});
      }
    }
    verdict.accepted = violated.empty();
    return verdict;
  };

  const LearnFn learn = [&](Problem& prob, const Architecture& arch) {
    const graph::Digraph g = arch.to_digraph();
    bool strengthened = false;
    for (const Violation& v : violated) {
      const Key key{v.req, v.sink};
      if (exhausted.count(key) != 0) continue;
      // Conflict-driven learning: the current configuration provides d
      // disjoint source paths; require d+1 from now on (strictly more than
      // both the measured redundancy and anything learned before).
      const std::vector<NodeId> sources =
          prob.arch_template().select(requirements[v.req].sources);
      const auto it = learned.find(key);
      const int k = std::max(it == learned.end() ? 1 : it->second + 1,
                             measured_disjoint_paths(g, sources, v.sink) + 1);
      if (k > options.max_path_requirement) {  // redundancy ceiling
        exhausted.insert(key);
        continue;
      }
      learned[key] = k;
      patterns::emit_disjoint_paths(prob, sources, v.sink, k, /*disjoint_sources=*/true,
                                    "lazy" + std::to_string(v.req) + "i" + std::to_string(k));
      strengthened = true;
    }
    return strengthened;
  };

  return solve_iteratively(p, analyze, learn, options.milp, options.max_iterations);
}

IterativeResult solve_iteratively(Problem& p, const AnalysisFn& analyze, const LearnFn& learn,
                                  const milp::MilpOptions& milp_options, int max_iterations) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::duration d) { return std::chrono::duration<double>(d).count(); };
  IterativeResult result;

  // One end for the whole scheme, not a fresh allowance per re-solve: the
  // budget is converted once, here, so solve + analyze + learn of every
  // iteration spend the same allowance (an `end` the caller already set —
  // a serve request's admission deadline — wins if earlier).
  const Clock::time_point end = milp_options.budget.deadline_from(Clock::now());
  milp::MilpOptions opts = milp_options;
  opts.budget = milp::Budget::until(end);
  // The best bound proven so far. Learning only restricts the feasible set
  // (the LearnFn contract), so an earlier iteration's bound stays valid for
  // every later model; "best" is the tighter one in the model's sense.
  const bool maximize = p.model().objective_sense() == milp::ObjectiveSense::Maximize;
  auto tighter = [maximize](double a, double b) {
    return maximize ? std::min(a, b) : std::max(a, b);
  };
  double earlier_bound = maximize ? milp::kInf : -milp::kInf;
  // One pseudo-cost table for the whole loop: learning keeps every column
  // at its index (the LearnFn contract), so each re-solve starts branching
  // from what the solves before it measured instead of from nothing.
  // Appended columns start without history; iteration 1 solves with the
  // caller's own options.
  milp::WarmStartHint carry;

  for (int iter = 1; iter <= max_iterations; ++iter) {
    const auto t0 = Clock::now();
    // Re-solves (iteration >= 2) are sliced to a quarter of the remaining
    // budget: a learned model that cannot be closed would otherwise run to
    // the overall end and starve every iteration after it. The solver
    // keeps its best incumbent at the slice boundary, which is all the
    // analysis and learning steps consume, and a stalled re-solve therefore
    // costs at most 25% of what is left. Iteration 1 is exempt — a scheme
    // that converges immediately keeps single-solve semantics — and the
    // overall end still bounds everything.
    if (iter > 1 && end != Clock::time_point::max() && t0 < end) {
      opts.budget = milp::Budget::until(t0 + (end - t0) / 4);
    }
    ExplorationResult er = p.solve(opts);
    carry.pseudocosts = er.solution.pseudocosts;
    opts.warm_hint = &carry;

    IterativeStep step;
    step.index = iter;
    step.status = er.solution.status;
    step.stats = er.stats;
    step.nodes = er.solution.nodes_explored;
    step.simplex_iterations = er.solution.simplex_iterations;
    step.phases = er.solution.phases;
    step.best_bound = er.solution.best_bound;
    step.solve_seconds = seconds(Clock::now() - t0);

    if (!er.feasible()) {
      // Either the learned constraints made the problem infeasible or the
      // solve budget ran out without an incumbent — stop, reporting honestly.
      // Anytime fallback: when the stop was a budget (not infeasibility) and
      // an earlier iteration produced an architecture, surface that
      // architecture with its own cost instead of an empty result. The
      // status stays TimeLimit/NodeLimit, so callers (and the serve layer's
      // degraded-response mapping) still see that the budget ran out before
      // the learned requirements were met.
      const bool budget_stop =
          er.solution.status == milp::SolveStatus::TimeLimit ||
          er.solution.status == milp::SolveStatus::NodeLimit ||
          er.solution.status == milp::SolveStatus::IterationLimit;
      if (budget_stop && !result.iterations.empty()) {
        const IterativeStep& last = result.iterations.back();
        er.architecture = last.architecture;
        er.solution.has_incumbent = true;
        er.solution.objective = last.cost;
        // The stopped solve's own bound may be weaker (or its default 0).
        er.solution.best_bound = tighter(er.solution.best_bound, earlier_bound);
      }
      result.final_result = std::move(er);
      result.iterations.push_back(std::move(step));
      return result;
    }
    step.cost = er.architecture.cost;
    step.architecture = er.architecture;
    earlier_bound = tighter(earlier_bound, er.solution.best_bound);

    const auto t_analyze = Clock::now();
    AnalysisVerdict verdict = analyze(p, er.architecture);
    const auto t_learn = Clock::now();
    step.analyze_seconds = seconds(t_learn - t_analyze);
    step.metrics = std::move(verdict.metrics);
    const bool strengthened = !verdict.accepted && learn(p, er.architecture);
    if (!verdict.accepted) step.learn_seconds = seconds(Clock::now() - t_learn);
    result.iterations.push_back(std::move(step));
    // The last candidate is the result, whether the loop converged, cannot
    // learn more, or runs out of iterations after this one.
    result.final_result = std::move(er);
    if (verdict.accepted) {
      result.converged = true;
      return result;
    }
    if (!strengthened) return result;
  }
  return result;
}

}  // namespace archex

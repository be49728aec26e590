#include "arch/algorithm.hpp"

#include <algorithm>
#include <chrono>

#include "arch/patterns/general.hpp"
#include "graph/digraph.hpp"
#include "reliability/reliability.hpp"

namespace archex {

namespace {

/// Vertex-disjoint source->sink paths in a concrete architecture, counting
/// sources as capacity-1 (a shared generator is a shared failure point).
int measured_disjoint_paths(const Architecture& arch, const std::vector<NodeId>& sources,
                            NodeId sink) {
  const graph::Digraph g = arch.to_digraph();
  std::vector<int> cap(g.num_nodes(), 1);
  cap[static_cast<std::size_t>(sink)] = 1'000'000;
  return graph::max_flow_unit_nodes(g, sources, sink, cap);
}

}  // namespace

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

LazyResult solve_lazy(Problem& p, const std::vector<ReliabilityRequirement>& requirements,
                      const LazyOptions& options) {
  // Built on the generic iterative scheme below, like the EPN loop: the
  // analysis closure runs the exact reliability analysis of every
  // requirement, the learning closure raises the disjoint-path requirement
  // of every violated sink. The per-sink report of each analyzed candidate
  // is collected beside the loop and merged into its step afterwards.
  struct Violation {
    std::size_t req;
    NodeId sink;
  };
  std::map<std::pair<std::size_t, NodeId>, int> learned;  // (requirement, sink) -> k
  std::vector<Violation> violated;  // filled by analysis, consumed by learning
  std::vector<LazyIteration> reports;  // one per analyzed candidate

  const AnalysisFn analyze = [&](Problem& prob, const Architecture& arch) {
    LazyIteration& report = reports.emplace_back();
    violated.clear();
    for (std::size_t r = 0; r < requirements.size(); ++r) {
      const ReliabilityRequirement& req = requirements[r];
      for (const auto& [sink_name, prob_fail] : analyze_reliability(prob, arch, req)) {
        double& worst = report.sink_fail_prob[sink_name];
        worst = std::max(worst, prob_fail);
        const NodeId sink = prob.arch_template().find(sink_name);
        if (auto it = learned.find({r, sink}); it != learned.end()) {
          int& shown = report.required_paths[sink_name];
          shown = std::max(shown, it->second);
        }
        if (prob_fail > req.threshold) violated.push_back({r, sink});
      }
    }
    AnalysisVerdict verdict;
    verdict.accepted = violated.empty();
    return verdict;
  };

  const LearnFn learn = [&](Problem& prob, const Architecture& arch) {
    bool strengthened = false;
    for (const Violation& v : violated) {
      // Conflict-driven learning: the current configuration provides d
      // disjoint source paths; require d+1 from now on (strictly more than
      // both the measured redundancy and anything learned before).
      const std::vector<NodeId> sources =
          prob.arch_template().select(requirements[v.req].sources);
      const int measured = measured_disjoint_paths(arch, sources, v.sink);
      int& k = learned[{v.req, v.sink}];
      k = std::max({k + 1, measured + 1, 1});
      if (k > options.max_path_requirement) continue;  // redundancy ceiling
      patterns::emit_disjoint_paths(prob, sources, v.sink, k, /*disjoint_sources=*/true,
                                    "lazy" + std::to_string(v.req) + "i" + std::to_string(k));
      int& shown = reports.back().required_paths[prob.arch_template().node(v.sink).name];
      shown = std::max(shown, k);
      strengthened = true;
    }
    return strengthened;
  };

  IterativeResult generic =
      solve_iteratively(p, analyze, learn, options.milp, options.max_iterations);

  LazyResult result;
  result.converged = generic.converged;
  result.final_result = std::move(generic.final_result);
  result.iterations.reserve(generic.steps.size());
  for (std::size_t i = 0; i < generic.steps.size(); ++i) {
    IterativeStep& step = generic.steps[i];
    // Only a solve that failed (always the last step) went unanalyzed.
    LazyIteration it = i < reports.size() ? std::move(reports[i]) : LazyIteration{};
    it.index = step.index;
    it.status = step.status;
    it.cost = step.cost;
    it.stats = step.stats;
    it.architecture = std::move(step.architecture);
    it.solve_seconds = step.solve_seconds;
    result.iterations.push_back(std::move(it));
  }
  return result;
}

IterativeResult solve_iteratively(Problem& p, const AnalysisFn& analyze, const LearnFn& learn,
                                  const milp::MilpOptions& milp_options, int max_iterations) {
  using Clock = std::chrono::steady_clock;
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

    IterativeStep step;
    step.index = iter;
    step.status = er.solution.status;
    step.stats = er.stats;
    step.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

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
      if (budget_stop && !result.steps.empty()) {
        const IterativeStep& last = result.steps.back();
        er.architecture = last.architecture;
        er.solution.has_incumbent = true;
        er.solution.objective = last.cost;
        // The stopped solve's own bound may be weaker (or its default 0).
        er.solution.best_bound = tighter(er.solution.best_bound, earlier_bound);
      }
      result.final_result = std::move(er);
      result.steps.push_back(std::move(step));
      return result;
    }
    step.cost = er.architecture.cost;
    step.architecture = er.architecture;
    earlier_bound = tighter(earlier_bound, er.solution.best_bound);

    const AnalysisVerdict verdict = analyze(p, er.architecture);
    step.metrics = verdict.metrics;
    const bool strengthened = !verdict.accepted && learn(p, er.architecture);
    result.steps.push_back(std::move(step));
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

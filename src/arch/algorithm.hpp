/// \file algorithm.hpp
/// Exploration algorithms (Sec. 2 "Algorithms"):
///
///   * **Eager (monolithic)**: all constraints — including the approximate
///     reliability encoding — go into one MILP; `Problem::solve` does this
///     directly once the reliability patterns are applied.
///
///   * **Lazy (MILP modulo reliability)**: the MILP is solved *without*
///     reliability constraints; each candidate architecture is checked by
///     the exact factoring analysis; violated functional links trigger a
///     conflict-driven learning step that adds stronger disjoint-path
///     constraints, and the solver iterates. Fewer, simpler MILP instances;
///     global optimality is no longer guaranteed (the paper's EPN run: cost
///     108,000 lazily vs 106,000 monolithically).
///
/// Every lazy loop (`solve_lazy` here, `domains::epn::solve_lazy_epn`) is a
/// pair of hooks over `solve_iteratively` and reports through its one
/// record, `IterativeStep`: the solve's status, cost, model size, work and
/// architecture, the analysis metrics, and the solve/analyze/learn split.
/// The loop carries one pseudo-cost table across its re-solves.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "arch/problem.hpp"
#include "graph/digraph.hpp"

namespace archex {

/// A reliability requirement handled lazily (not encoded up front).
struct ReliabilityRequirement {
  NodeFilter sources;
  NodeFilter sinks;
  double threshold;  ///< max acceptable link failure probability
};

/// Exact per-sink failure probabilities of `arch` for one requirement
/// (exposed for tests and benches; keys are sink node names).
std::map<std::string, double> analyze_reliability(const Problem& p, const Architecture& arch,
                                                  const ReliabilityRequirement& req);

/// Vertex-disjoint source->sink paths in a concrete architecture's digraph,
/// counting sources as capacity-1 (a shared generator is a shared failure
/// point): the redundancy both lazy loops measure before learning more.
int measured_disjoint_paths(const graph::Digraph& g, const std::vector<NodeId>& sources,
                            NodeId sink);

// ---------------------------------------------------------------------------
// Generic iterative scheme (Sec. 3: "we also provide an infrastructure to
// design generic iterative schemes, including interfaces to analysis and
// conflict-driven learning routines that can be domain-specific").
// ---------------------------------------------------------------------------

/// Outcome of one analysis pass over a candidate architecture.
struct AnalysisVerdict {
  bool accepted = false;
  /// Free-form metrics recorded into the iteration trace (e.g. worst link
  /// failure probability per class).
  std::map<std::string, double> metrics;
};

/// Domain-specific analysis routine: checks a candidate architecture against
/// the requirements that were *not* encoded in the MILP.
using AnalysisFn = std::function<AnalysisVerdict(Problem&, const Architecture&)>;

/// Domain-specific conflict-driven learning routine: adds constraints to the
/// problem based on the rejected candidate. Returns false when nothing more
/// can be learned (the scheme then stops without convergence).
///
/// Contract: learning only restricts the feasible set. It may add rows and
/// tighten bounds; a column it adds must appear only in new rows and carry
/// no cost that could improve the objective (the flow commodities of
/// `solve_lazy` and `solve_lazy_epn` are zero-cost). An earlier iteration's
/// best bound then stays valid for every later model, which is what lets a
/// budget-stopped re-solve report it.
using LearnFn = std::function<bool(Problem&, const Architecture&)>;

/// One iteration of a lazy loop (what Fig. 3a-c shows per step). A step
/// whose solve failed (a budget-killed re-solve reports TimeLimit; learning
/// may make the model infeasible) is never analyzed: it has no
/// architecture, cost 0 and no metrics.
struct IterativeStep {
  int index = 0;
  milp::SolveStatus status = milp::SolveStatus::NumericalError;  ///< of this step's solve
  double cost = 0.0;
  /// The analysis verdict's metrics (domain keys: see each loop).
  std::map<std::string, double> metrics;
  milp::ModelStats stats;
  Architecture architecture;
  /// The work of this step's solve alone (Solution::nodes_explored and
  /// Solution::simplex_iterations; the problem's metrics registry sums them
  /// over the loop).
  std::int64_t nodes = 0;
  std::int64_t simplex_iterations = 0;
  /// The step's solve/analyze/learn split. Learning runs only after a
  /// rejected candidate, so an accepted or unanalyzed step has 0 there.
  double solve_seconds = 0.0;
  double analyze_seconds = 0.0;
  double learn_seconds = 0.0;
};

struct IterativeResult {
  bool converged = false;
  ExplorationResult final_result;
  std::vector<IterativeStep> iterations;
};

/// Runs the generic lazy scheme: solve -> analyze -> learn -> repeat.
/// Terminates when the analysis accepts a candidate, when learning cannot
/// strengthen the formulation further, when an iteration produces no
/// architecture, or after `max_iterations`; `final_result` is the last
/// iteration's result (or, when a budget stopped a re-solve without an
/// incumbent, the previous architecture under the TimeLimit status).
/// `milp_options.budget` bounds the whole loop: it is converted to one
/// absolute end at entry, and re-solves get a quarter of what is left.
/// Each re-solve's `warm_hint` carries the pseudo-cost table the solve
/// before it exported (Solution::pseudocosts), so branching history
/// accumulates over the loop; nothing else crosses iterations, and nothing
/// outlives the call.
IterativeResult solve_iteratively(Problem& p, const AnalysisFn& analyze, const LearnFn& learn,
                                  const milp::MilpOptions& milp_options = {},
                                  int max_iterations = 12);

struct LazyOptions {
  int max_iterations = 12;
  /// Upper bound on the learned disjoint-path requirement; if a sink still
  /// violates its threshold at this redundancy, the loop reports failure.
  int max_path_requirement = 8;
  milp::MilpOptions milp;
};

/// Runs the lazy iterative scheme on `p`: `solve_iteratively` with the
/// exact reliability analysis and disjoint-path learning as its hooks. The
/// problem must have been constructed with all *non-reliability* patterns
/// applied; `requirements` are checked by exact analysis between
/// iterations. The learning step raises the vertex-disjoint-path
/// requirement of each violated sink to one more than the current
/// architecture provides. An analyzed step's metrics hold, per sink name,
/// `fail_prob[<sink>]` (the worst exact link failure probability over the
/// requirements) and, once one was learned, `required_paths[<sink>]` (the
/// disjoint-path level in force when that candidate was solved).
IterativeResult solve_lazy(Problem& p, const std::vector<ReliabilityRequirement>& requirements,
                           const LazyOptions& options = {});

}  // namespace archex

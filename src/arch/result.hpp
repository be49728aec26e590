/// \file result.hpp
/// Concrete architectures extracted from a solved exploration problem.
#pragma once

#include <cmath>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "arch/arch_template.hpp"
#include "arch/library.hpp"
#include "graph/digraph.hpp"
#include "milp/model.hpp"

namespace archex {

/// A concrete flow value on a concrete edge.
struct FlowEdge {
  NodeId from;
  NodeId to;
  double rate;
};

/// The optimal architecture: topology E*, mapping M*, cost, and any flow
/// assignments. This is the (E, M) output of Figure 1.
struct Architecture {
  struct Node {
    std::string name;
    std::string type;
    std::string subtype;
    std::vector<std::string> tags;
    bool used = false;
    LibIndex impl = -1;        ///< library component chosen by M*, -1 if unused
    std::string impl_name;     ///< empty if unused
  };

  std::vector<Node> nodes;
  std::vector<std::pair<NodeId, NodeId>> edges;  ///< active edges (e_ij = 1)
  double cost = 0.0;
  /// Flow commodity name -> active edge flows (only rates above tolerance).
  std::map<std::string, std::vector<FlowEdge>> flows;

  [[nodiscard]] std::size_t num_used_nodes() const;
  [[nodiscard]] std::vector<NodeId> used_nodes(const NodeFilter& f = {}) const;
  [[nodiscard]] bool has_edge(NodeId from, NodeId to) const;

  /// The active topology as a digraph over all template node ids.
  [[nodiscard]] graph::Digraph to_digraph() const;

  /// Per-node failure probabilities induced by the mapping (0 for unused
  /// nodes or components without the attribute).
  [[nodiscard]] std::vector<double> node_fail_probs(const Library& lib) const;

  /// Sum of incoming flow of a commodity at a node.
  [[nodiscard]] double in_flow(const std::string& commodity, NodeId v) const;

  /// Graphviz DOT rendering (types as shapes, subtypes as colors).
  [[nodiscard]] std::string to_dot() const;
  /// Machine-readable JSON rendering (nodes, mapping, edges, flows, cost),
  /// written through obs/json.hpp: names escaped, numbers exact (%.17g),
  /// a non-finite cost as null.
  [[nodiscard]] std::string to_json() const;
  /// Layered ASCII summary (used by the examples and benches).
  void print(std::ostream& os) const;
};

/// Outcome of one exploration solve, with the statistics the paper reports
/// (encoding size, solver time, formulation time).
struct ExplorationResult {
  milp::Solution solution;
  Architecture architecture;  ///< valid when solution.has_incumbent
  milp::ModelStats stats;
  /// End-to-end wall-clock breakdown: structural encode (Problem ctor),
  /// objective assembly (formulation), MILP solve, architecture extraction.
  double encode_seconds = 0.0;
  double formulation_seconds = 0.0;
  double solver_seconds = 0.0;
  double extract_seconds = 0.0;
  /// Pattern-level diagnosis of an infeasible solve, filled when the Problem
  /// has an infeasibility diagnoser installed (see
  /// check::enable_infeasibility_diagnosis). Empty otherwise.
  std::string infeasibility_explanation;

  [[nodiscard]] bool feasible() const { return solution.has_incumbent; }

  // --- serve-schema-aligned reporting ---------------------------------------
  // These accessors use the exact names (and meanings) of the serve response
  // fields `has_objective` / `objective` / `bound` / `gap` / `degraded`
  // (serve/request.hpp), so library-level results and archex_batch/serve
  // output describe a solve in one vocabulary and can be diffed directly.
  [[nodiscard]] bool has_objective() const { return solution.has_incumbent; }
  /// Best incumbent objective in the model's own sense.
  [[nodiscard]] double objective() const { return solution.objective; }
  /// Best proven bound in the model's own sense.
  [[nodiscard]] double bound() const { return solution.best_bound; }
  /// |objective - bound|; 0 when proven optimal.
  [[nodiscard]] double gap() const {
    return std::abs(solution.objective - solution.best_bound);
  }

  /// One JSON object with the serve response's degradation fields —
  /// `objective`, `bound`, `gap`, `degraded`, `degraded_nodes` — dumped by
  /// the serve wire format's own writer, obs::Json (sorted keys, %.17g,
  /// non-finite as null, objective/bound/gap omitted without an incumbent,
  /// degraded_nodes omitted at 0). `archex_batch` lines and this string
  /// agree byte-for-byte on the overlapping fields.
  [[nodiscard]] std::string degradation_json() const;

  /// True when the architecture is feasible but optimality was not proven:
  /// either the solver abandoned subtrees after exhausted numerical
  /// recovery (`Solution::degraded`), or a time/node budget stopped the
  /// search with an incumbent (the anytime case). Such a result is sound —
  /// `solution.best_bound` still brackets the true optimum — but reporting
  /// it as a clean architecture would overclaim.
  [[nodiscard]] bool degraded() const {
    return solution.degraded ||
           (solution.has_incumbent &&
            solution.status != milp::SolveStatus::Optimal);
  }
  /// Subtrees abandoned by the numerical-recovery ladder (0 for a purely
  /// budget-limited degraded result).
  [[nodiscard]] std::int64_t degraded_nodes() const {
    return solution.degraded_nodes;
  }

  /// One warning line (cause, bound, gap, abandoned-subtree count) when
  /// `degraded()`; prints nothing for a clean optimum. The explorer examples
  /// call this right after the status line so a degraded architecture is
  /// never silently presented as optimal.
  void print_degradation(std::ostream& os) const;

  /// Prints the encode/solve/decode breakdown plus the solver's own phase
  /// split (presolve, root LP, heuristic, tree, extraction) — the timing
  /// block the explorer examples show after each run.
  void print_timing(std::ostream& os) const;
};

}  // namespace archex

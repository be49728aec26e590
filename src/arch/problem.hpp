/// \file problem.hpp
/// The exploration problem: template + library + requirements -> MILP.
///
/// This is the `Problem` class of Figure 1. Constructing a Problem creates
/// the decision variables (edge binaries E, mapping binaries M, instantiation
/// binaries delta) and the structural constraints that are always present:
///
///   * mapping constraints (3a)/(3b) in the *new* encoding of Sec. 2 — the
///     selection variables delta are separate from the mapping variables, so
///     the number of decision variables is linear in the library size;
///   * instantiation linking: delta_j = OR of incident edges, encoded as
///     sum(incident e) <= deg_j * delta_j  and  delta_j <= sum(incident e).
///
/// Requirements are then imposed by applying patterns (see patterns/), which
/// emit further MILP constraints through this class's accessors. The cost
/// function (1) is assembled at solve time:  sum_ij m_ij c_i  +  sum e c~
/// plus any weighted extra cost terms.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch_template.hpp"
#include "arch/decision_vars.hpp"
#include "arch/library.hpp"
#include "arch/result.hpp"
#include "milp/branch_bound.hpp"
#include "milp/model.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace archex {

class Pattern;

/// A named flow commodity: one rate variable per candidate edge, coupled to
/// the edge binary by lambda_e <= cap * e (the linearized form of (4)'s
/// products). The EPN uses a single commodity; the RPL uses one per
/// (operation mode, product type) pair — the matrices Lambda^{k,x}.
struct FlowCommodity {
  std::string name;
  double capacity = 0.0;                ///< upper bound per edge
  std::vector<milp::VarId> edge_vars;   ///< aligned with AdjacencyMatrix::edges()
};

/// CPS architecture exploration problem.
class Problem {
 public:
  /// Builds decision variables and structural constraints. The template and
  /// library are copied: a Problem is self-contained once constructed.
  /// `profiler` (optional, non-owning, must outlive the Problem) records
  /// hierarchical spans for the whole pipeline — structural encode, each
  /// pattern application, and (passed through to the MILP engine by solve())
  /// the solver phases and simplex kernels. Null disables span profiling.
  explicit Problem(Library lib, ArchTemplate tmpl,
                   obs::SpanProfiler* profiler = nullptr);

  // --- accessors used by patterns -----------------------------------------
  [[nodiscard]] const Library& library() const { return lib_; }
  [[nodiscard]] const ArchTemplate& arch_template() const { return tmpl_; }
  [[nodiscard]] milp::Model& model() { return model_; }
  [[nodiscard]] const milp::Model& model() const { return model_; }
  [[nodiscard]] const AdjacencyMatrix& edges() const { return adj_; }
  [[nodiscard]] const LibraryMapping& mapping() const { return map_; }

  /// Instantiation binary delta_j.
  [[nodiscard]] milp::VarId instantiated(NodeId j) const {
    return delta_[static_cast<std::size_t>(j)];
  }

  /// Mapped attribute of node j: sum_i m_ij * attr_i.
  [[nodiscard]] milp::LinExpr node_attr(NodeId j, const std::string& key) const {
    return map_.attr_expr(j, key, lib_);
  }

  /// Indicator (as a 0/1-valued expression) that node j is implemented with
  /// the given subtype: sum of m_ij over candidates of that subtype. Patterns
  /// use this when a subtype restriction applies to the *mapped* component
  /// rather than to a statically declared template subtype (EPN buses pick
  /// HV or LV through the mapping).
  [[nodiscard]] milp::LinExpr subtype_indicator(NodeId j, const std::string& subtype) const;

  /// Sum of edge binaries into `v` from nodes matching `from` (empty filter
  /// = all candidate predecessors).
  [[nodiscard]] milp::LinExpr in_degree(NodeId v, const NodeFilter& from = {}) const;
  /// Sum of edge binaries out of `v` to nodes matching `to`.
  [[nodiscard]] milp::LinExpr out_degree(NodeId v, const NodeFilter& to = {}) const;

  /// Gets or creates the flow commodity `name` with per-edge capacity `cap`
  /// (capacity is fixed at creation; later calls ignore `cap`).
  FlowCommodity& flow(const std::string& name, double cap);
  [[nodiscard]] const FlowCommodity* find_flow(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, FlowCommodity>& flows() const { return flows_; }

  /// Sum of a commodity's flow into / out of a node.
  [[nodiscard]] milp::LinExpr flow_in(const FlowCommodity& f, NodeId v) const;
  [[nodiscard]] milp::LinExpr flow_out(const FlowCommodity& f, NodeId v) const;

  // --- requirement specification -------------------------------------------
  /// Applies a pattern: translates it into MILP constraints immediately.
  /// Each application is recorded once, in pattern_costs() (the paper counts
  /// "46 patterns" for the EPN spec).
  void apply(const Pattern& pattern);
  void apply(const std::shared_ptr<Pattern>& pattern);
  /// The applications so far: pattern_costs() past its "structural" entry.
  [[nodiscard]] std::size_t num_patterns_applied() const {
    return pattern_costs_.size() - 1;
  }
  [[nodiscard]] std::vector<std::string> applied_patterns() const;

  /// Functional flow F: the ordered sequence of component types realizing a
  /// source->sink link (e.g. (G, A, R, D, L)). Used by timing and
  /// reliability patterns to identify sources and estimate path failure
  /// probabilities.
  void set_functional_flow(std::vector<std::string> types) { func_flow_ = std::move(types); }
  [[nodiscard]] const std::vector<std::string>& functional_flow() const { return func_flow_; }
  /// Nodes of the first / last type of the functional flow.
  [[nodiscard]] std::vector<NodeId> source_nodes() const;
  [[nodiscard]] std::vector<NodeId> sink_nodes() const;

  /// Estimated failure probability of one source->sink path: the sum over
  /// functional-flow types of the maximum component failure probability of
  /// that type (an upper bound on a path's failure probability for small p).
  [[nodiscard]] double path_fail_prob_estimate() const;

  /// Adds symmetry-breaking constraints: template nodes that are provably
  /// interchangeable (same type, subtype restriction, tags, and a candidate
  /// edge structure invariant under swapping them) are ordered by their
  /// instantiation binaries, delta_i >= delta_{i+1}. This prunes permuted
  /// duplicates of the same architecture from the search tree without
  /// excluding any distinct design. Returns the number of ordered pairs.
  std::size_t add_symmetry_breaking();

  // --- row provenance (check::lint, check::analyze, the perf report) --------
  /// The one owner of row provenance (a CompiledModel keeps none).
  /// Origin label of a model row: "structural" for the constraints the
  /// constructor emits, the pattern description for rows a pattern emitted,
  /// "flow(name)" for commodity coupling rows, "symmetry-breaking" for the
  /// ordering rows. Lets diagnostics report "pattern X produced an
  /// always-inactive constraint" instead of a bare row index.
  [[nodiscard]] const std::string& origin_of_row(std::size_t row) const;

  /// Extra weighted cost term added to the objective (the "weighted sum of
  /// different concerns" of Sec. 2).
  void add_cost_term(milp::LinExpr term, double weight = 1.0);

  /// Overrides the cost of a specific candidate edge (default: the library's
  /// uniform edge cost).
  void set_edge_cost(NodeId from, NodeId to, double cost);

  /// Effective cost of candidate edge `edge_idx` (index into
  /// edges().edges()): the per-edge override when one was set, the library's
  /// uniform edge cost otherwise. This is the per-edge coefficient
  /// cost_expression() uses; compile() freezes it into the edge slots.
  [[nodiscard]] double edge_base_cost(std::int32_t edge_idx) const {
    const auto it = edge_cost_override_.find(edge_idx);
    return it == edge_cost_override_.end() ? lib_.edge_cost() : it->second;
  }

  /// Installs a diagnoser that solve() calls on the infeasible path to fill
  /// ExplorationResult::infeasibility_explanation. The hook keeps the
  /// layering one-way: check::enable_infeasibility_diagnosis installs the
  /// structural analyzer here without arch/ depending on check/. Null (the
  /// default) leaves the explanation empty.
  void set_infeasibility_diagnoser(std::function<std::string(const Problem&)> fn) {
    diagnoser_ = std::move(fn);
  }
  [[nodiscard]] bool has_infeasibility_diagnoser() const {
    return static_cast<bool>(diagnoser_);
  }

  // --- solving --------------------------------------------------------------
  /// Assembles the cost function and solves the monolithic MILP (the eager
  /// method). Use algorithm.hpp for the lazy iterative scheme. The options'
  /// `budget`/`cancel` fields are honored end-to-end: a `Budget::until` end
  /// armed before encoding charges encode time against the same budget the
  /// solver sees (a spent budget returns TimeLimit without running
  /// presolve), and a set cancel flag preempts the solve at the next poll.
  ExplorationResult solve(const milp::MilpOptions& options = {});

  /// The assembled cost expression (for inspection and tests).
  [[nodiscard]] milp::LinExpr cost_expression() const;

  /// The problem's metrics registry: encode timing lands here at
  /// construction, and solve() passes it to the MILP engine (unless the
  /// caller supplies their own via MilpOptions::metrics), so one registry
  /// spans encode + solve + extract. Held by pointer to keep Problem movable.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return *metrics_; }

  /// The span profiler this Problem was built with (null when profiling is
  /// off). solve() passes it to the MILP engine unless the caller set
  /// MilpOptions::profiler themselves.
  [[nodiscard]] obs::SpanProfiler* profiler() const { return profiler_; }

  /// One encode-time charge: wall seconds spent emitting under an origin
  /// label ("structural" for the constructor, a pattern's describe() per
  /// apply()). Always recorded — the steady_clock reads are two per pattern
  /// application, negligible next to constraint emission — so the perf
  /// report (arch/perf_report.hpp) can attribute encode cost even when span
  /// profiling is off.
  struct PatternCost {
    std::string label;
    double seconds = 0.0;
  };
  /// Per-application encode charges, in application order (the constructor's
  /// "structural" entry first). Aggregate by label for reporting: a pattern
  /// applied twice appears twice.
  [[nodiscard]] const std::vector<PatternCost>& pattern_costs() const {
    return pattern_costs_;
  }

 private:
  /// Labels every model row added since the last call with `label`
  /// (provenance for lint diagnostics). Idempotent for already-labeled rows.
  void label_new_rows(const std::string& label);

  Library lib_;
  ArchTemplate tmpl_;
  milp::Model model_;
  AdjacencyMatrix adj_;
  LibraryMapping map_;
  std::vector<milp::VarId> delta_;
  std::map<std::string, FlowCommodity> flows_;
  std::vector<std::string> func_flow_;
  std::vector<std::pair<milp::LinExpr, double>> extra_cost_;
  std::map<std::int32_t, double> edge_cost_override_;  ///< by edge index
  std::vector<std::string> row_labels_;        ///< distinct origin labels
  std::vector<std::int32_t> row_origin_;       ///< per row: index into row_labels_
  std::function<std::string(const Problem&)> diagnoser_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::SpanProfiler* profiler_ = nullptr;  ///< non-owning; null = spans off
  std::vector<PatternCost> pattern_costs_;
  double encode_seconds_ = 0.0;  ///< structural-constraint build time (ctor)
};

}  // namespace archex

/// \file model.hpp
/// Mixed-integer linear program container.
///
/// A Model owns variables (with bounds, integrality and names), linear
/// constraints, and a linear objective. It is the hand-off point between the
/// ArchEx pattern encoder (which emits constraints) and the solver stack
/// (presolve, simplex, branch & bound).
#pragma once

#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "milp/expr.hpp"
#include "obs/trace.hpp"

namespace archex::milp {

struct Basis;  // milp/warm_start.hpp; Solution carries one opaquely
struct PseudoCostTable;  // milp/warm_start.hpp; likewise

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class VarType : std::uint8_t { Continuous, Binary, Integer };

[[nodiscard]] const char* to_string(VarType t);

/// Variable metadata stored by the model.
struct Variable {
  double lb = 0.0;
  double ub = kInf;
  VarType type = VarType::Continuous;
  std::string name;

  [[nodiscard]] bool is_integral() const { return type != VarType::Continuous; }
};

enum class ObjectiveSense : std::uint8_t { Minimize, Maximize };

/// Size statistics of a model, used by the benchmarks that reproduce the
/// paper's encoding-size claims (e.g. ">100,000 lines and 20,000 variables"
/// for the monolithic EPN formulation).
struct ModelStats {
  std::size_t num_vars = 0;
  std::size_t num_binary = 0;
  std::size_t num_integer = 0;
  std::size_t num_continuous = 0;
  std::size_t num_constraints = 0;
  std::size_t num_nonzeros = 0;
  /// Lines of the model rendered in LP standard form (one term per line,
  /// as a YALMIP/CPLEX textual export would produce). This is the metric
  /// the paper quotes as "lines" of the generated MILP.
  std::size_t standard_form_lines = 0;
};

/// A mixed integer linear program.
class Model {
 public:
  /// Adds a variable and returns its id. Bounds may be +/-infinity.
  VarId add_var(double lb, double ub, VarType type, std::string name = {});
  VarId add_continuous(double lb, double ub, std::string name = {}) {
    return add_var(lb, ub, VarType::Continuous, std::move(name));
  }
  VarId add_binary(std::string name = {}) {
    return add_var(0.0, 1.0, VarType::Binary, std::move(name));
  }
  VarId add_integer(double lb, double ub, std::string name = {}) {
    return add_var(lb, ub, VarType::Integer, std::move(name));
  }

  /// Adds a constraint and returns its row index.
  std::size_t add_constraint(LinConstraint c);
  std::size_t add_constraint(LinConstraint c, std::string name) {
    c.name = std::move(name);
    return add_constraint(std::move(c));
  }
  std::size_t add_constraint(LinExpr expr, Sense sense, double rhs, std::string name = {}) {
    return add_constraint(LinConstraint(std::move(expr), sense, rhs, std::move(name)));
  }

  void set_objective(LinExpr obj, ObjectiveSense sense = ObjectiveSense::Minimize);

  [[nodiscard]] std::size_t num_vars() const { return vars_.size(); }
  [[nodiscard]] std::size_t num_constraints() const { return constraints_.size(); }
  [[nodiscard]] const Variable& var(VarId v) const {
    return vars_[static_cast<std::size_t>(v.index)];
  }
  [[nodiscard]] Variable& var(VarId v) { return vars_[static_cast<std::size_t>(v.index)]; }
  [[nodiscard]] const std::vector<Variable>& vars() const { return vars_; }
  [[nodiscard]] const std::vector<LinConstraint>& constraints() const { return constraints_; }
  [[nodiscard]] const LinConstraint& constraint(std::size_t i) const { return constraints_[i]; }
  [[nodiscard]] const LinExpr& objective() const { return objective_; }
  [[nodiscard]] ObjectiveSense objective_sense() const { return obj_sense_; }

  /// Tightens the bounds of `v` to the intersection with [lb, ub].
  void tighten_bounds(VarId v, double lb, double ub);

  /// Replaces the right-hand side of row `i`. This is the RHS parameter slot
  /// of the compiled-model pipeline (arch/compiled_model.hpp): scenario
  /// deltas rewrite the RHS of named rows without re-encoding the matrix.
  void set_rhs(std::size_t i, double rhs) { constraints_[i].rhs = rhs; }

  [[nodiscard]] ModelStats stats() const;

  /// True if `x` satisfies all bounds, integrality and constraints.
  [[nodiscard]] bool feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Writes the model in CPLEX LP-like textual format (used by tests and by
  /// the spec-size benchmark).
  void write_lp(std::ostream& os) const;

 private:
  std::vector<Variable> vars_;
  std::vector<LinConstraint> constraints_;
  LinExpr objective_;
  ObjectiveSense obj_sense_ = ObjectiveSense::Minimize;
};

/// Result status of an LP/MILP solve.
enum class SolveStatus : std::uint8_t {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  NodeLimit,
  TimeLimit,
  NumericalError,
  /// LP engine only: a dual reoptimization stopped once its dual bound
  /// passed the caller's objective cutoff (SimplexSolver::reoptimize_dual).
  /// Never the status of a MILP `Solution`.
  Cutoff,
};

[[nodiscard]] const char* to_string(SolveStatus s);

/// Wall-clock breakdown of one MILP solve, in seconds. Phases are disjoint;
/// their sum is slightly below `solve_seconds` (glue code between phases).
struct SolvePhases {
  double presolve = 0.0;
  double root_lp = 0.0;
  double heuristic = 0.0;  ///< rounding heuristic + probe run of the pool
  double tree = 0.0;       ///< main run of the pool (the tree search)
  double extract = 0.0;    ///< postsolve + solution extraction
};

/// One point of the incumbent trajectory: when (seconds since solve start)
/// the search found an improved feasible solution, and its objective /
/// best-bound snapshot (all in model sense).
struct IncumbentPoint {
  double t = 0.0;
  double objective = 0.0;
  double best_bound = 0.0;
};

/// Solution of an LP/MILP solve.
struct Solution {
  SolveStatus status = SolveStatus::NumericalError;
  /// Objective value in the model's own sense (valid when status==Optimal,
  /// or best incumbent for limit statuses when `has_incumbent`).
  double objective = 0.0;
  std::vector<double> x;
  bool has_incumbent = false;
  /// Best proven bound on the objective (MILP only).
  double best_bound = 0.0;
  /// Search statistics.
  std::int64_t simplex_iterations = 0;
  std::int64_t nodes_explored = 0;
  double solve_seconds = 0.0;
  /// Warm-start path taken per node LP (MILP only): dual-feasible fast dual
  /// solves / dual-repair + primal cleanups / cold fallbacks.
  std::int64_t warm_dual_nodes = 0;
  std::int64_t warm_repair_nodes = 0;
  std::int64_t cold_nodes = 0;
  /// Parallel-search statistics (MILP only). Sequential solves report one
  /// worker and zero steals; `cpu_seconds` sums worker busy time, so
  /// cpu_seconds / solve_seconds approximates the parallel efficiency.
  int threads_used = 1;
  std::vector<std::int64_t> nodes_per_worker;  ///< pool nodes per worker
  std::int64_t steals = 0;  ///< nodes taken from another worker's dive
  double cpu_seconds = 0.0;
  /// Resilience accounting (MILP only). `degraded` is set when at least one
  /// node exhausted the numerical-recovery ladder and its subtree was
  /// abandoned: the abandoned subtree's parent bound was folded into
  /// `best_bound`, so the reported gap stays sound, but an "optimal" status
  /// then means "optimal modulo the abandoned subtrees" — treat the gap, not
  /// the status, as the claim. See docs/solver.md ("Resilience").
  bool degraded = false;
  std::int64_t degraded_nodes = 0;  ///< subtrees abandoned by the ladder
  /// Wall-clock phase breakdown (MILP only; zeros for plain LP solves).
  SolvePhases phases;
  /// Time-stamped incumbent improvements, oldest first (model sense), one
  /// per `milp.incumbents` count.
  std::vector<IncumbentPoint> incumbent_trajectory;
  /// This solve's search events, time-sorted; empty unless a recorder was
  /// attached (MilpOptions::profiler).
  obs::Trace trace;
  /// Snapshot of the solve's metrics registry (name -> value; timers expand
  /// to `.seconds` / `.count` / `.max`). Empty for plain LP solves.
  std::map<std::string, double> metrics;
  /// Original-model rows presolve eliminated (sorted ascending; empty when
  /// presolve was off or removed nothing). Indices are in the *caller's* row
  /// space, so arch::Problem can charge eliminations back to the emitting
  /// pattern via origin_of_row (arch/perf_report.hpp).
  std::vector<std::int32_t> presolve_removed_rows;
  /// Root/sequential solver's root-LP basis, exported when
  /// MilpOptions::export_basis was set and the root LP solved to optimality
  /// (null otherwise). The warm-start handle of the sweep pipeline: feed it
  /// back through MilpOptions::warm_hint on the next structurally identical
  /// solve. Immutable and safely shareable across solves.
  std::shared_ptr<const Basis> final_basis;
  /// True when the root LP was warm-started from the caller's
  /// MilpOptions::warm_hint basis (loaded + dual reoptimized) rather than
  /// solved cold — the sweep pipeline's per-scenario warm/cold signal.
  bool warm_started = false;
  /// The tree's pseudo-cost table at the end of the solve (MILP only), in
  /// the caller's column space: columns presolve removed keep what
  /// MilpOptions::warm_hint seeded them with. Null when the solve neither
  /// observed a branching nor was seeded. Feed it back through
  /// WarmStartHint::pseudocosts on a model with the same columns (more may
  /// be appended). Immutable and safely shareable across solves.
  std::shared_ptr<const PseudoCostTable> pseudocosts;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::Optimal; }
  [[nodiscard]] double value(VarId v) const { return x[static_cast<std::size_t>(v.index)]; }
};

std::ostream& operator<<(std::ostream& os, SolveStatus s);

}  // namespace archex::milp

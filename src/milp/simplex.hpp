/// \file simplex.hpp
/// Bounded-variable revised simplex over a pluggable basis kernel.
///
/// This is the LP engine underneath the branch-and-bound MILP solver (the
/// role CPLEX plays for the original ArchEx toolbox). It implements:
///   * two-phase primal simplex (phase 1 via artificial variables),
///   * dual simplex reoptimization after variable-bound changes, which is
///     what makes warm-started branch & bound cheap: branching only changes
///     bounds, and bound changes preserve dual feasibility of the basis,
///   * a basis representation behind `BasisRep` (milp/basis_lu.hpp): sparse
///     LU with Markowitz pivoting and eta-file updates by default, the
///     original dense explicit inverse as the cross-check kernel, both with
///     periodic refactorization governed by `refactor_interval` and fill-in,
///   * pluggable pricing (milp/pricing.hpp): Dantzig by default, devex as
///     the first registered alternative.
///
/// The engine works on the standard computational form: every row
/// `a_i x (<=|>=|==) b_i` becomes `a_i x + s_i = b_i` with a bounded slack
/// s_i, and all columns (structural, slack, artificial) are treated
/// uniformly as bounded variables.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "milp/basis_lu.hpp"
#include "milp/model.hpp"
#include "milp/pricing.hpp"
#include "milp/warm_start.hpp"
#include "obs/span.hpp"

namespace archex::milp {

class FaultPlan;

/// Simplex configuration knobs.
struct SimplexOptions {
  double pivot_tol = 1e-8;   ///< minimum acceptable pivot magnitude
  int refactor_interval = 400;  ///< pivots between basis refactorizations
  /// Basis kernel (see milp/basis_lu.hpp). SparseLu is the default; Dense is
  /// the original explicit inverse, kept as the cross-check oracle.
  BasisKernel kernel = BasisKernel::SparseLu;
  /// Markowitz threshold partial pivoting (sparse kernel only): within a
  /// candidate column, entries at least this fraction of the column max are
  /// acceptable pivots. Smaller favors sparsity, larger favors stability.
  double markowitz_tol = 0.1;
  /// Pricing rule by registry name (milp/pricing.hpp): "dantzig" (default)
  /// or "devex"; unknown names fall back to Dantzig.
  std::string pricing = "dantzig";
  // Run control. `solve_milp` owns the four fields below: it sets them on
  // its root and node solvers from MilpOptions::{budget, cancel, profiler,
  // fault}, overwriting what a caller put in MilpOptions::lp. Set them here
  // only for a solver driven directly (solve_lp_relaxation, SimplexSolver).

  /// Hard wall-clock deadline; simplex loops return TimeLimit when passed.
  /// Defaults to "never". Checked every few hundred iterations.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation flag, polled at the same stride as `deadline`.
  /// A set flag makes the iteration loops return TimeLimit — the caller
  /// (B&B, or `serve::ExplorationService` on drain) decides what the stop
  /// means. Null (the default) costs one pointer test per poll.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional recorder buffer (obs/span.hpp): kernel spans — ftran /
  /// btran_row / price_row per pivot, full pricing passes, refactorizations
  /// — and the dual-repair / cold-restart events. Must be written by this
  /// solver's thread only: the branch & bound hands each worker's solver its
  /// own buffer. Pivot-level spans are *sampled* — one pivot in
  /// kKernelSpanSample records them — so recording a million-pivot solve
  /// stays cheap; refactorizations and full pricing passes are rare and
  /// always recorded. Null (the default) costs one pointer test per site.
  obs::SpanBuffer* spans = nullptr;
  /// Deterministic fault injection (tests, `milp_solve --inject`). Null —
  /// the default — disables every site at the cost of one pointer test.
  /// Shared across solvers of one solve; see milp/fault.hpp.
  FaultPlan* fault = nullptr;
};

/// LP engine over a fixed constraint matrix with mutable variable bounds.
///
/// Usage:
///   SimplexSolver lp(model);
///   SolveStatus st = lp.solve_primal();        // cold start, two-phase
///   ...
///   lp.set_bounds(col, 1.0, 1.0);              // branch: fix a binary
///   st = lp.reoptimize_dual();                 // warm-started node solve
///   lp.set_bounds(col, 0.0, 1.0);              // backtrack
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model, SimplexOptions options = {});

  /// Solves from a fresh slack/artificial basis (two-phase primal).
  SolveStatus solve_primal();

  /// Reoptimizes with the dual simplex after bound changes. Requires a prior
  /// successful solve (which left a dual-feasible basis). Falls back to a
  /// cold primal solve if the basis has decayed numerically.
  ///
  /// `cutoff` (minimize sense) lets a branch & bound node stop early: from a
  /// dual-feasible basis the dual simplex's objective is a lower bound on the
  /// LP optimum that never decreases, so once it passes `cutoff` the loop
  /// returns SolveStatus::Cutoff with objective_value() set to that bound
  /// (cutoff < bound <= optimum). The basis stays valid for later
  /// reoptimizations. Dual repair and cold fallbacks never stop early; the
  /// default (+inf) reproduces the uncut solve.
  SolveStatus reoptimize_dual(double cutoff = kInf);

  /// First rung of the branch & bound's numerical-recovery ladder: rebuild
  /// the basis factorization from scratch and reoptimize under a temporarily
  /// tightened pivot-acceptance tolerance, so the marginal pivots that
  /// poisoned the factorization are refused on the retry. Returns
  /// NumericalError when the rebuilt basis is still singular or the
  /// reoptimization fails again; callers then escalate to a cold restart.
  /// `cutoff` is passed through to reoptimize_dual.
  SolveStatus recover_resolve(double cutoff = kInf);

  /// Changes the bounds of structural column `col` (0-based model index).
  void set_bounds(std::int32_t col, double lb, double ub);
  [[nodiscard]] double lower_bound(std::int32_t col) const { return lb_[col]; }
  [[nodiscard]] double upper_bound(std::int32_t col) const { return ub_[col]; }

  /// Objective value of the last solve, in *minimization* sense.
  [[nodiscard]] double objective_value() const { return obj_value_; }

  /// Values of the structural variables after the last solve, clipped into
  /// their bounds.
  [[nodiscard]] std::vector<double> primal_solution() const;

  /// Reduced costs of the structural columns w.r.t. the true objective and
  /// the current basis, reported in the *model's own sense* (the internal
  /// minimize-sense values are flipped back for Maximize models). Used for
  /// root reduced-cost fixing in the branch & bound.
  [[nodiscard]] std::vector<double> reduced_costs() const;

  /// Dual values (shadow prices) of the rows w.r.t. the true objective and
  /// the current basis: y = c_B^T B^-1, reported in the *model's own sense*
  /// (flipped back for Maximize models). The sensitivity interface
  /// architects use to see which requirement is driving cost.
  [[nodiscard]] std::vector<double> dual_values() const;
  /// Status of a structural column in the current basis.
  enum class BoundStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };
  [[nodiscard]] BoundStatus column_status(std::int32_t col) const;

  [[nodiscard]] std::int64_t iterations() const { return total_iterations_; }
  [[nodiscard]] std::size_t num_rows() const { return m_; }
  [[nodiscard]] std::size_t num_structural() const { return n_; }

  /// Exports the current basis. Only meaningful after a successful solve.
  [[nodiscard]] Basis export_basis() const;

  /// Installs a basis exported from a solver over the *same model*: adopts
  /// the shipped factorization state (eta replay) when present, otherwise
  /// refactorizes the basis matrix; recomputes basic values against the
  /// current bounds, and revalidates. Returns false (leaving the solver in
  /// a cold-start state) if the snapshot is inconsistent or the basis is
  /// numerically singular; callers then fall back to solve_primal().
  bool load_basis(const Basis& basis);

  /// Warm-start behaviour counters (reoptimize_dual path taken).
  struct ReoptStats {
    std::int64_t dual_fast = 0;   ///< dual-feasible warm dual solves
    std::int64_t repaired = 0;    ///< dual repair + primal cleanup
    std::int64_t cold = 0;        ///< fell back to a cold primal solve
    std::int64_t degen_pivots = 0;  ///< pivots with (near-)zero step
    std::int64_t total_pivots = 0;
    std::int64_t refactors = 0;   ///< basis refactorizations (all causes)
    std::int64_t transplants = 0; ///< basis loads served by eta replay
    std::int64_t cutoffs = 0;     ///< dual solves stopped at the objective cutoff
  };
  [[nodiscard]] const ReoptStats& reopt_stats() const { return reopt_stats_; }

 private:
  enum class ColStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };

  // --- setup ---
  void build_from_model(const Model& model);
  void initial_basis();

  // --- linear algebra (delegating to the basis kernel) ---
  // ftran, btran_row and price_row run once per pivot and record the
  // sampled kernel spans (sampled_spans()).
  /// w = Binv * A_col (dense result, sparse column input).
  void ftran(std::int32_t col, std::vector<double>& w) const;
  /// rho = row r of Binv (B^-T e_r), row-indexed.
  void btran_row(std::size_t r, std::vector<double>& rho) const;
  /// alpha_j = rho * A_j for every column with a nonzero, computed sparsely
  /// through the row-wise adjacency. `alpha_nz` lists the touched columns
  /// except basic structurals and slacks and fixed artificials, so outside
  /// phase 1 it holds no basic column; only its entries of `alpha` are
  /// current.
  void price_row(const std::vector<double>& rho, std::vector<double>& alpha,
                 std::vector<std::int32_t>& alpha_nz) const;
  /// Rebuilds the basis factorization (stats, span and fault site), then
  /// delegates to the kernel. Returns false on a (numerically) singular
  /// basis or an injected singular factorization.
  bool refactorize();
  /// Recomputes the values of basic variables from nonbasic values.
  void compute_basic_values();

  // --- entering-candidate bookkeeping ---
  /// Rebuilds `cand_` as the nonbasic, non-fixed columns. Called at the top
  /// of each primal loop; within the loop the list is maintained per pivot,
  /// so entering selection scans candidates instead of every column.
  void rebuild_candidates();
  void cand_remove(std::int32_t j) {
    const std::int32_t at = cand_idx_[static_cast<std::size_t>(j)];
    if (at < 0) return;
    const std::int32_t last = cand_.back();
    cand_[static_cast<std::size_t>(at)] = last;
    cand_idx_[static_cast<std::size_t>(last)] = at;
    cand_.pop_back();
    cand_idx_[static_cast<std::size_t>(j)] = -1;
  }
  void cand_add(std::int32_t j) {
    if (cand_idx_[static_cast<std::size_t>(j)] >= 0 || is_fixed(j)) return;
    cand_idx_[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(cand_.size());
    cand_.push_back(j);
  }

  // --- simplex cores ---
  SolveStatus primal_loop(const std::vector<double>& cost, bool phase_one);
  /// Dual simplex iterations. Expects `scratch_d_` to hold the reduced costs
  /// of `cost_` for the current basis — the dual_feasible() pass that
  /// reoptimize_dual runs first leaves exactly that. Returns Cutoff once the
  /// basis objective passes `cutoff`, which is only sound from a
  /// dual-feasible start (dual repair passes +inf).
  SolveStatus dual_loop(double cutoff = kInf);
  /// True if the current basis satisfies the reduced-cost sign conditions.
  bool dual_feasible();
  void price(const std::vector<double>& cost, std::vector<double>& d) const;
  double current_objective(const std::vector<double>& cost) const;

  [[nodiscard]] bool is_fixed(std::int32_t j) const { return lb_[j] == ub_[j]; }
  [[nodiscard]] double bound_violation(std::int32_t j) const;

  // --- pivot steps shared by primal_loop and dual_loop ---
  // A pivot reads the entering column's ftran result from scratch_w_ (its
  // nonzero rows in scratch_wnz_) and the pivot row from scratch_alpha_ /
  // scratch_alpha_nz_, both computed against the basis before the swap.
  /// The loops' stop poll: IterationLimit at the iteration cap and, every
  /// 256 iterations, TimeLimit on an injected Deadline fault, a passed
  /// deadline or a set cancel flag. Empty while the loop may go on.
  [[nodiscard]] std::optional<SolveStatus> poll_stop() const;
  /// Counts a pivot whose step length is `step` and tracks the loop's run of
  /// consecutive degenerate (step <= kDegenTol) pivots in `streak`.
  void count_pivot(double step, int& streak);
  /// Moves entering column q by `delta` and the basic values with it.
  void step(std::int32_t q, double delta);
  /// Pivot-row update of the reduced costs in scratch_d_,
  /// d' = d - (d_q / pivot) * alpha, for entering q and leaving k, then the
  /// pricer's weights. `pivot` is the pivot element (alpha_q = w_r).
  void update_reduced_costs(std::int32_t q, std::int32_t k, double pivot);
  /// Basis swap: q becomes basic in row r, the leaving column rests at its
  /// upper bound if `to_upper`, else its lower; then the kernel update.
  void swap_basis(std::size_t r, std::int32_t q, bool to_upper);
  /// Direction in which a nonbasic column of status `st` and reduced cost
  /// `dj` can enter and lower the objective: +1 up, -1 down, 0 when it is
  /// not eligible (basic, or d_j of the wrong sign or within kOptTol).
  [[nodiscard]] static double entering_dir(ColStatus st, double dj);
  /// Puts nonbasic column j at the resting point its status names under the
  /// current bounds; a status whose bound is infinite moves to the other
  /// bound, or to Free (value 0) when both are.
  void rest_nonbasic(std::size_t j);

  /// One pivot in this many records the pivot-level kernel spans.
  static constexpr std::int64_t kKernelSpanSample = 64;

  /// The span sink for the current pivot, or null when spans are off or this
  /// pivot falls outside the 1-in-kKernelSpanSample sample. One pointer test
  /// plus (when armed) a modulo on the spans path; null `opts_.spans` — the
  /// default — short-circuits before the modulo.
  [[nodiscard]] obs::SpanBuffer* sampled_spans() const {
    return (opts_.spans != nullptr && total_iterations_ % kKernelSpanSample == 0)
               ? opts_.spans
               : nullptr;
  }

  // --- compressed-storage accessors ---
  /// Entries of column j (CSC slice).
  [[nodiscard]] std::span<const ColEntry> col(std::size_t j) const {
    return {col_ent_.data() + col_start_[j], col_ent_.data() + col_start_[j + 1]};
  }
  /// Row-wise adjacency of row i over structural + slack columns; `row` in
  /// each entry is the column index.
  [[nodiscard]] std::span<const ColEntry> row_adj(std::size_t i) const {
    return {row_ent_.data() + row_start_[i], row_ent_.data() + row_start_[i + 1]};
  }
  /// The single matrix entry of row i's artificial column (sign mutates per
  /// cold start / basis load).
  [[nodiscard]] double& art_val(std::size_t i) {
    return col_ent_[static_cast<std::size_t>(col_start_[n_ + m_ + i])].val;
  }
  [[nodiscard]] double art_val(std::size_t i) const {
    return col_ent_[static_cast<std::size_t>(col_start_[n_ + m_ + i])].val;
  }

  // --- data ---
  SimplexOptions opts_;
  std::size_t m_ = 0;  ///< rows
  std::size_t n_ = 0;  ///< structural columns
  std::size_t total_cols_ = 0;  ///< n + m slacks + m artificials

  // Sparse columns of [A | I_slack | I_artificial] in compressed (CSC) form:
  // column j is col_ent_[col_start_[j] .. col_start_[j+1]). Flat storage
  // keeps the pricing/ftran scans on contiguous memory and spares the
  // per-column allocations of a vector-of-vectors.
  std::vector<std::int32_t> col_start_;  ///< size total_cols_ + 1
  std::vector<ColEntry> col_ent_;
  // Row-wise adjacency (CSR) over structural + slack columns; `row` in an
  // entry is the *column* index. Artificials are handled specially: their
  // single sign entry lives in col_ent_ and mutates per cold start.
  std::vector<std::int32_t> row_start_;  ///< size m_ + 1
  std::vector<ColEntry> row_ent_;
  std::vector<double> rhs_;
  std::vector<double> cost_;       ///< phase-2 cost (minimize), size total_cols_
  std::vector<double> lb_, ub_;    ///< column bounds, size total_cols_
  std::vector<ColStatus> status_;
  std::vector<double> xval_;       ///< current value per column
  std::vector<std::int32_t> basic_;    ///< column basic in row i
  std::vector<std::int32_t> basis_pos_;  ///< row of a basic column, -1 otherwise
  std::vector<std::int32_t> cand_;     ///< nonbasic non-fixed columns (loop-local)
  std::vector<std::int32_t> cand_idx_; ///< index in cand_, -1 when absent
  std::unique_ptr<BasisRep> rep_;  ///< basis kernel (sparse LU or dense)
  std::unique_ptr<Pricer> pricer_;
  bool dantzig_pricing_ = true;  ///< devirtualized |d_j| scoring fast path
  double obj_value_ = 0.0;
  double obj_constant_ = 0.0;      ///< constant of the (minimize-sense) objective
  bool maximize_ = false;          ///< model was a maximization (cost_ is negated)
  std::int64_t total_iterations_ = 0;
  int pivots_since_refactor_ = 0;
  bool basis_valid_ = false;       ///< a successful solve happened
  ReoptStats reopt_stats_;
  // scratch buffers
  mutable std::vector<double> scratch_w_;
  mutable std::vector<std::int32_t> scratch_wnz_;  ///< nonzero positions of scratch_w_
  mutable std::vector<double> scratch_y_;
  mutable std::vector<double> scratch_d_;
  mutable std::vector<double> scratch_alpha_;
  mutable std::vector<std::int32_t> scratch_alpha_nz_;
  mutable std::vector<double> scratch_rho_;
  mutable std::vector<std::int32_t> scratch_rho_nz_;  ///< nonzero rows of rho
  mutable std::vector<std::int32_t> scratch_in_nz_;   ///< ftran/btran input pattern
  std::vector<std::uint64_t> scratch_infeasible_;  ///< dual loop: rows out of bounds
  // price_row first-touch marks (per-call stamps; never reset, 64-bit).
  mutable std::vector<std::int64_t> scratch_mark_;
  mutable std::int64_t mark_stamp_ = 0;
};

/// Convenience: solves the LP relaxation of `model` (integrality dropped).
/// Returns objective in the model's own sense.
Solution solve_lp_relaxation(const Model& model, SimplexOptions options = {});

}  // namespace archex::milp

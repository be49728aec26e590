#include "milp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>
#include <utility>

#include "milp/fault.hpp"

namespace archex::milp {

namespace {
constexpr double kRatioTol = 1e-9;   // rows with |w| below this do not block
constexpr double kDegenTol = 1e-10;  // step sizes below this count as degenerate
// A dual bound must pass the objective cutoff by this much, relative to
// max(1, |cutoff|), before a node LP stops: the margin absorbs the drift of
// the incremental objective and reduced costs off by up to kOptTol.
constexpr double kCutoffMargin = 1e-6;
constexpr double kFeasTol = 1e-7;  // primal feasibility tolerance
constexpr double kOptTol = 1e-7;   // dual feasibility (reduced cost) tolerance
constexpr std::int64_t kMaxIterations = 50'000'000;
// Degenerate pivots in a row before the primal loop switches to Bland's
// rule; ten times as many stop the dual loop with NumericalError.
constexpr int kBlandThreshold = 300;
// Dual ratio-test steps at or below this count as dual-degenerate pivots.
constexpr double kDualDegenTol = 1e-12;
}  // namespace

SimplexSolver::SimplexSolver(const Model& model, SimplexOptions options)
    : opts_(std::move(options)) {
  build_from_model(model);
}

void SimplexSolver::build_from_model(const Model& model) {
  m_ = model.num_constraints();
  n_ = model.num_vars();
  total_cols_ = n_ + 2 * m_;  // structural | slacks | artificials

  rhs_.resize(m_);
  cost_.assign(total_cols_, 0.0);
  lb_.resize(total_cols_);
  ub_.resize(total_cols_);

  for (std::size_t j = 0; j < n_; ++j) {
    const Variable& v = model.vars()[j];
    lb_[j] = v.lb;
    ub_[j] = v.ub;
  }

  // Compressed column storage, two passes: count entries per column, prefix
  // sum, then fill through a cursor. Processing rows in ascending order keeps
  // each column's entries row-sorted, exactly as the per-column push_backs
  // used to.
  col_start_.assign(total_cols_ + 1, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    for (const Term& t : model.constraint(i).expr.terms()) {
      ++col_start_[static_cast<std::size_t>(t.var.index) + 1];
    }
    ++col_start_[n_ + i + 1];       // slack
    ++col_start_[n_ + m_ + i + 1];  // artificial
  }
  for (std::size_t j = 0; j < total_cols_; ++j) col_start_[j + 1] += col_start_[j];
  col_ent_.resize(static_cast<std::size_t>(col_start_[total_cols_]));
  std::vector<std::int32_t> cursor(col_start_.begin(), col_start_.end() - 1);

  for (std::size_t i = 0; i < m_; ++i) {
    const LinConstraint& c = model.constraint(i);
    rhs_[i] = c.rhs;
    for (const Term& t : c.expr.terms()) {
      col_ent_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(t.var.index)]++)] =
          {static_cast<std::int32_t>(i), t.coef};
    }
    // Slack: a_i x + s_i = b_i.
    const std::size_t s = n_ + i;
    col_ent_[static_cast<std::size_t>(cursor[s]++)] = {static_cast<std::int32_t>(i), 1.0};
    switch (c.sense) {
      case Sense::LE: lb_[s] = 0.0;   ub_[s] = kInf; break;
      case Sense::GE: lb_[s] = -kInf; ub_[s] = 0.0;  break;
      case Sense::EQ: lb_[s] = 0.0;   ub_[s] = 0.0;  break;
    }
    // Artificial: sign chosen per cold start in initial_basis().
    const std::size_t a = n_ + m_ + i;
    col_ent_[static_cast<std::size_t>(cursor[a]++)] = {static_cast<std::int32_t>(i), 1.0};
    lb_[a] = 0.0;
    ub_[a] = 0.0;  // enabled (un-fixed) only while basic in phase 1
  }

  // Row-wise adjacency over the immutable columns (structural + slack) for
  // sparse pivot-row pricing. Artificial columns are excluded: their matrix
  // sign mutates per cold start, so price_row handles them directly. Filling
  // by ascending column keeps each row's entries column-sorted, matching the
  // historical accumulation order.
  const std::size_t ns_end = static_cast<std::size_t>(col_start_[n_ + m_]);
  row_start_.assign(m_ + 1, 0);
  for (std::size_t t = 0; t < ns_end; ++t) {
    ++row_start_[static_cast<std::size_t>(col_ent_[t].row) + 1];
  }
  for (std::size_t i = 0; i < m_; ++i) row_start_[i + 1] += row_start_[i];
  row_ent_.resize(ns_end);
  std::vector<std::int32_t> rcur(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t j = 0; j < n_ + m_; ++j) {
    for (std::int32_t t = col_start_[j]; t < col_start_[j + 1]; ++t) {
      const ColEntry& e = col_ent_[static_cast<std::size_t>(t)];
      row_ent_[static_cast<std::size_t>(rcur[static_cast<std::size_t>(e.row)]++)] =
          {static_cast<std::int32_t>(j), e.val};
    }
  }

  maximize_ = model.objective_sense() == ObjectiveSense::Maximize;
  const double flip = maximize_ ? -1.0 : 1.0;
  for (const Term& t : model.objective().terms()) {
    cost_[static_cast<std::size_t>(t.var.index)] = flip * t.coef;
  }
  obj_constant_ = flip * model.objective().constant();

  status_.assign(total_cols_, ColStatus::AtLower);
  xval_.assign(total_cols_, 0.0);
  basic_.assign(m_, -1);
  basis_pos_.assign(total_cols_, -1);
  rep_ = make_basis_rep(opts_.kernel, m_, opts_.markowitz_tol);
  pricer_ = make_pricer(opts_.pricing);
  if (pricer_ == nullptr) pricer_ = make_pricer("dantzig");  // unknown name
  pricer_->reset(total_cols_);
  dantzig_pricing_ = std::string_view(pricer_->name()) == "dantzig";
  scratch_w_.resize(m_);
  scratch_wnz_.reserve(m_);
  scratch_y_.resize(m_);
  scratch_rho_.resize(m_);
  scratch_rho_nz_.reserve(m_);
  scratch_infeasible_.resize((m_ + 63) / 64);
  scratch_d_.resize(total_cols_);
  scratch_alpha_.resize(total_cols_);
  scratch_alpha_nz_.reserve(total_cols_);
  scratch_mark_.assign(total_cols_, 0);
}

void SimplexSolver::initial_basis() {
  std::fill(basis_pos_.begin(), basis_pos_.end(), -1);

  // Nonbasic columns rest at their nearest finite bound, the lower first.
  for (std::size_t j = 0; j < total_cols_; ++j) {
    status_[j] = ColStatus::AtLower;
    rest_nonbasic(j);
  }

  // Residual of each row given the nonbasic resting point.
  std::vector<double> r = rhs_;
  for (std::size_t j = 0; j < n_; ++j) {
    if (xval_[j] == 0.0) continue;
    for (const ColEntry& e : col(j)) r[static_cast<std::size_t>(e.row)] -= e.val * xval_[j];
  }

  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t s = n_ + i;
    const std::size_t a = n_ + m_ + i;
    lb_[a] = 0.0;
    ub_[a] = 0.0;
    if (r[i] >= lb_[s] - kFeasTol && r[i] <= ub_[s] + kFeasTol) {
      // The slack absorbs the residual: no artificial needed for this row.
      basic_[i] = static_cast<std::int32_t>(s);
      basis_pos_[s] = static_cast<std::int32_t>(i);
      status_[s] = ColStatus::Basic;
      xval_[s] = r[i];
    } else {
      art_val(i) = (r[i] >= 0.0) ? 1.0 : -1.0;
      ub_[a] = kInf;  // live artificial
      basic_[i] = static_cast<std::int32_t>(a);
      basis_pos_[a] = static_cast<std::int32_t>(i);
      status_[a] = ColStatus::Basic;
      xval_[a] = std::abs(r[i]);
    }
  }
  // The initial basis is diagonal (unit slacks, signed artificials), so this
  // factorization is trivial and cannot fail; it is not counted or traced as
  // a refactorization, matching the historical accounting.
  const bool ok = rep_->factorize(col_start_.data(), col_ent_.data(), basic_);
  assert(ok);
  (void)ok;
  pivots_since_refactor_ = 0;
  refactor_due_ = false;
}

void SimplexSolver::ftran(std::int32_t col) {
  obs::ScopedSpan span(sampled_spans(), obs::span_id(obs::SpanName::Ftran));
  std::vector<double>& w = scratch_w_;
  for (const std::int32_t i : scratch_wnz_) w[static_cast<std::size_t>(i)] = 0.0;
  std::vector<std::int32_t>& nz = scratch_in_nz_;
  nz.clear();
  for (const ColEntry& e : this->col(static_cast<std::size_t>(col))) {
    w[static_cast<std::size_t>(e.row)] += e.val;
    nz.push_back(e.row);
  }
  rep_->ftran_entering(w, nz, scratch_wnz_);
}

void SimplexSolver::btran_row(std::size_t r) const {
  obs::ScopedSpan span(sampled_spans(), obs::span_id(obs::SpanName::BtranRow));
  std::vector<double>& rho = scratch_rho_;
  for (const std::int32_t i : scratch_rho_nz_) rho[static_cast<std::size_t>(i)] = 0.0;
  rho[r] = 1.0;
  std::vector<std::int32_t>& nz = scratch_in_nz_;
  nz.assign(1, static_cast<std::int32_t>(r));
  rep_->btran(rho, &nz, &scratch_rho_nz_);
}

void SimplexSolver::price_row(std::vector<double>& alpha,
                              std::vector<std::int32_t>& alpha_nz) const {
  obs::ScopedSpan span(sampled_spans(), obs::span_id(obs::SpanName::PriceRow));
  // alpha entries outside alpha_nz are stale from earlier calls; consumers
  // must only read through the nonzero list.
  alpha_nz.clear();
  const std::int64_t stamp = ++mark_stamp_;
  for (const std::int32_t i32 : scratch_rho_nz_) {
    const std::size_t i = static_cast<std::size_t>(i32);
    const double r = scratch_rho_[i];
    for (const ColEntry& e : row_adj(i)) {
      const std::size_t j = static_cast<std::size_t>(e.row);  // a column index
      if (scratch_mark_[j] != stamp) {
        scratch_mark_[j] = stamp;
        alpha[j] = r * e.val;
        // Basic columns stay out of the nonzero list: every consumer skips
        // them (their reduced costs are maintained directly at pivots), so
        // listing them only pads the d-update and dual ratio-test scans.
        if (basis_pos_[j] < 0) alpha_nz.push_back(e.row);
      } else {
        alpha[j] += r * e.val;
      }
    }
    // Artificial of row i: a single entry whose sign is set per cold start.
    // Fixed artificials (all of them outside phase 1) can never re-enter, so
    // no consumer reads their reduced cost: skip the bookkeeping entirely
    // rather than dragging them through alpha_nz and the d-update loops.
    const std::size_t a = n_ + m_ + i;
    if (!is_fixed(static_cast<std::int32_t>(a))) {
      scratch_mark_[a] = stamp;
      alpha[a] = r * art_val(i);
      alpha_nz.push_back(static_cast<std::int32_t>(a));
    }
  }
}

bool SimplexSolver::refactorize() {
  // Refactorizations are rare (every ~refactor_interval pivots) and dominate
  // worst-case node latency, so they are spanned unconditionally; the span
  // is also the trace's `refactor` event.
  obs::ScopedSpan span(opts_.spans, obs::span_id(obs::SpanName::Refactor));
  ++reopt_stats_.refactors;
  refactor_due_ = false;
  if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::SingularFactor)) {
    return false;  // injected singular factorization
  }
  if (!rep_->factorize(col_start_.data(), col_ent_.data(), basic_)) {
    return false;  // singular basis
  }
  pivots_since_refactor_ = 0;
  return true;
}

void SimplexSolver::compute_basic_values() {
  std::vector<double> r = rhs_;
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic || xval_[j] == 0.0) continue;
    for (const ColEntry& e : col(j)) r[static_cast<std::size_t>(e.row)] -= e.val * xval_[j];
  }
  rep_->ftran(r, nullptr);  // r := B^-1 r, position-indexed
  for (std::size_t i = 0; i < m_; ++i) {
    xval_[static_cast<std::size_t>(basic_[i])] = r[i];
  }
}

void SimplexSolver::rebuild_candidates() {
  cand_.clear();
  cand_idx_.assign(total_cols_, -1);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic || is_fixed(static_cast<std::int32_t>(j))) {
      continue;
    }
    cand_idx_[j] = static_cast<std::int32_t>(cand_.size());
    cand_.push_back(static_cast<std::int32_t>(j));
  }
}

void SimplexSolver::price(const std::vector<double>& cost, std::vector<double>& d) const {
  // Full passes happen at loop entry and after refactorizations — rare
  // enough to span unconditionally.
  obs::ScopedSpan span(opts_.spans, obs::span_id(obs::SpanName::Price));
  // y = c_B^T * B^-1 via btran of the position-indexed basic costs.
  std::vector<double>& y = scratch_y_;
  for (std::size_t i = 0; i < m_; ++i) {
    y[i] = cost[static_cast<std::size_t>(basic_[i])];
  }
  rep_->btran(y, nullptr, nullptr);
  // d_j = c_j - y * A_j  for nonbasic columns.
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic) { d[j] = 0.0; continue; }
    double v = cost[j];
    for (const ColEntry& e : col(j)) v -= y[static_cast<std::size_t>(e.row)] * e.val;
    d[j] = v;
  }
}

double SimplexSolver::current_objective(const std::vector<double>& cost) const {
  double v = 0.0;
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (cost[j] != 0.0 && xval_[j] != 0.0) v += cost[j] * xval_[j];
  }
  return v;
}

double SimplexSolver::bound_violation(std::int32_t j) const {
  const double x = xval_[static_cast<std::size_t>(j)];
  if (x < lb_[j]) return lb_[j] - x;
  if (x > ub_[j]) return x - ub_[j];
  return 0.0;
}

std::optional<SolveStatus> SimplexSolver::poll_stop() const {
  if (total_iterations_ >= kMaxIterations) return SolveStatus::IterationLimit;
  if ((total_iterations_ & 0xFF) == 0) {
    if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::Deadline)) {
      return SolveStatus::TimeLimit;  // injected mid-solve deadline
    }
    if (std::chrono::steady_clock::now() >= opts_.deadline) {
      return SolveStatus::TimeLimit;
    }
    if (opts_.cancel != nullptr && opts_.cancel->load(std::memory_order_relaxed)) {
      return SolveStatus::TimeLimit;  // cooperative cancel (drain/preempt)
    }
  }
  return std::nullopt;
}

void SimplexSolver::count_pivot(double step, int& streak) {
  const bool degenerate = step <= kDegenTol;
  streak = degenerate ? streak + 1 : 0;
  ++reopt_stats_.total_pivots;
  if (degenerate) ++reopt_stats_.degen_pivots;
}

void SimplexSolver::step(std::int32_t q, double delta) {
  xval_[q] += delta;
  if (delta == 0.0) return;
  for (const std::int32_t i : scratch_wnz_) {
    xval_[static_cast<std::size_t>(basic_[i])] -=
        scratch_w_[static_cast<std::size_t>(i)] * delta;
  }
}

void SimplexSolver::update_reduced_costs(std::int32_t q, std::int32_t k, double pivot) {
  std::vector<double>& d = scratch_d_;
  const std::vector<double>& alpha = scratch_alpha_;
  const double dq = d[static_cast<std::size_t>(q)];
  if (dq != 0.0) {
    const double ratio = dq / pivot;
    // alpha_nz holds no basic column outside phase 1 (see price_row), and a
    // basic column's d is never read before it leaves, so the update runs
    // without a per-column status check.
    for (const std::int32_t j32 : scratch_alpha_nz_) {
      const std::size_t j = static_cast<std::size_t>(j32);
      if (alpha[j] == 0.0) continue;
      d[j] -= ratio * alpha[j];
    }
    d[static_cast<std::size_t>(k)] = -ratio;  // leaving column (alpha = 1)
  } else {
    d[static_cast<std::size_t>(k)] = 0.0;
  }
  d[static_cast<std::size_t>(q)] = 0.0;
  pricer_->on_pivot(q, k, pivot, alpha, scratch_alpha_nz_);
}

void SimplexSolver::swap_basis(std::size_t r, std::int32_t q, bool to_upper) {
  const std::int32_t k = basic_[r];
  status_[k] = to_upper ? ColStatus::AtUpper : ColStatus::AtLower;
  xval_[k] = to_upper ? ub_[k] : lb_[k];
  basis_pos_[k] = -1;
  basic_[r] = q;
  basis_pos_[q] = static_cast<std::int32_t>(r);
  status_[q] = ColStatus::Basic;
  if (rep_->update(scratch_w_, r, scratch_wnz_)) {
    ++pivots_since_refactor_;
  } else {
    refactor_due_ = true;  // declined: the kernel still holds the old basis
  }
}

double SimplexSolver::entering_dir(ColStatus st, double dj) {
  if (st == ColStatus::AtLower && dj < -kOptTol) return 1.0;
  if (st == ColStatus::AtUpper && dj > kOptTol) return -1.0;
  if (st == ColStatus::Free && std::abs(dj) > kOptTol) return dj < 0 ? 1.0 : -1.0;
  return 0.0;
}

void SimplexSolver::rest_nonbasic(std::size_t j) {
  ColStatus& st = status_[j];
  if (st == ColStatus::AtLower && lb_[j] <= -kInf) {
    st = (ub_[j] < kInf) ? ColStatus::AtUpper : ColStatus::Free;
  } else if (st == ColStatus::AtUpper && ub_[j] >= kInf) {
    st = (lb_[j] > -kInf) ? ColStatus::AtLower : ColStatus::Free;
  }
  switch (st) {
    case ColStatus::AtLower: xval_[j] = lb_[j]; break;
    case ColStatus::AtUpper: xval_[j] = ub_[j]; break;
    default: xval_[j] = 0.0; break;
  }
}

SolveStatus SimplexSolver::primal_loop(const std::vector<double>& cost, bool phase_one) {
  int degen_streak = 0;
  std::vector<double>& d = scratch_d_;
  std::vector<double>& w = scratch_w_;
  std::vector<std::int32_t>& wnz = scratch_wnz_;

  // Reduced costs are maintained incrementally across pivots via the pivot
  // row (d' = d - (d_q / alpha_q) * alpha); a full pricing pass happens only
  // at entry, after refactorization, and periodically to wash out drift.
  pricer_->reset(total_cols_);
  price(cost, d);
  int prices_stale = 0;
  // Entering selection scans this list (nonbasic, non-fixed columns) rather
  // than all columns; fixedness cannot change inside the loop, so only the
  // per-pivot basis swaps need maintenance. Bland's rule still does a full
  // index-ordered scan — its anti-cycling argument needs lowest-index.
  rebuild_candidates();

  for (;;) {
    // Refactorize first: every exit below then leaves a factorization of
    // the current basis, even right after a declined update.
    if (refactor_due()) {
      if (!refactorize()) return SolveStatus::NumericalError;
      compute_basic_values();
      // The reduced costs are *not* re-priced here: refactorization changes
      // the factors, never the basis, so d is mathematically unchanged. The
      // 200-pivot stale counter bounds drift, and the optimality exit below
      // always confirms against a fresh pricing pass.
    }
    if (const std::optional<SolveStatus> stop = poll_stop()) return *stop;
    if (++prices_stale > 200) {
      price(cost, d);
      prices_stale = 0;
    }

    const bool bland = degen_streak > kBlandThreshold;
    std::int32_t q = -1;
    double qdir = 0.0;
    auto select_entering = [&] {
      q = -1;
      qdir = 0.0;
      double best_score = 0.0;
      if (bland) {
        // Bland's rule: first eligible column in index order.
        for (std::size_t j = 0; j < total_cols_; ++j) {
          const double dir = entering_dir(status_[j], d[j]);
          if (dir == 0.0 || is_fixed(static_cast<std::int32_t>(j))) continue;
          q = static_cast<std::int32_t>(j);
          qdir = dir;
          return;
        }
        return;
      }
      for (const std::int32_t j32 : cand_) {
        const std::size_t j = static_cast<std::size_t>(j32);
        const double dj = d[j];
        const double dir = entering_dir(status_[j], dj);
        if (dir == 0.0) continue;
        // Devirtualized Dantzig fast path: |d_j|, no indirect call per column.
        const double score =
            dantzig_pricing_ ? std::abs(dj) : pricer_->score(j32, dj);
        if (q < 0 || score > best_score) {
          best_score = score;
          q = j32;
          qdir = dir;
        }
      }
    };
    select_entering();
    if (q < 0 && prices_stale > 0) {
      // Looks optimal on incrementally-maintained reduced costs: confirm
      // with a fresh pricing pass before declaring optimality.
      price(cost, d);
      prices_stale = 0;
      select_entering();
    }
    if (q < 0) {
      obj_value_ = phase_one ? current_objective(cost)
                             : current_objective(cost_) + obj_constant_;
      return SolveStatus::Optimal;
    }

    ftran(q);

    // Ratio test: how far can the entering variable move? It walks w's
    // nonzero positions, which the bookkeeping below and the kernel update
    // then iterate instead of all of w.
    double t_best = kInf;
    if (lb_[q] > -kInf && ub_[q] < kInf) t_best = ub_[q] - lb_[q];  // own bound flip
    std::int32_t leave_row = -1;
    bool leave_to_upper = false;
    for (const std::int32_t i32 : wnz) {
      const std::size_t i = static_cast<std::size_t>(i32);
      if (std::abs(w[i]) <= kRatioTol) continue;
      const double rho_i = -qdir * w[i];  // d x_B(i) / d t
      const std::int32_t k = basic_[i];
      double t;
      bool to_upper;
      if (rho_i > 0) {
        if (ub_[k] >= kInf) continue;
        t = (ub_[k] - xval_[k]) / rho_i;
        to_upper = true;
      } else {
        if (lb_[k] <= -kInf) continue;
        t = (xval_[k] - lb_[k]) / (-rho_i);
        to_upper = false;
      }
      if (t < 0) t = 0;  // tiny infeasibilities clamp to a degenerate step
      const bool better =
          t < t_best - 1e-12 ||
          (t <= t_best + 1e-12 && leave_row >= 0 &&
           std::abs(w[i]) > std::abs(w[static_cast<std::size_t>(leave_row)]));
      if (better) {
        t_best = t;
        leave_row = static_cast<std::int32_t>(i);
        leave_to_upper = to_upper;
      }
    }

    if (t_best >= kInf) return SolveStatus::Unbounded;

    if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::NanPivot)) {
      // The injected pivot would poison the basis with NaNs; report the
      // failure the update guards would raise.
      return SolveStatus::NumericalError;
    }

    count_pivot(t_best, degen_streak);
    step(q, qdir * t_best);

    if (leave_row < 0) {
      // Bound flip: entering moved to its opposite bound, basis unchanged.
      status_[q] = (status_[q] == ColStatus::AtLower) ? ColStatus::AtUpper : ColStatus::AtLower;
      xval_[q] = (status_[q] == ColStatus::AtLower) ? lb_[q] : ub_[q];
    } else {
      const std::size_t r = static_cast<std::size_t>(leave_row);
      if (std::abs(w[r]) < opts_.pivot_tol) {
        // Numerically unsafe pivot: rebuild and retry this iteration.
        if (!refactorize()) return SolveStatus::NumericalError;
        compute_basic_values();
        continue;
      }
      const std::int32_t k = basic_[r];
      btran_row(r);
      price_row(scratch_alpha_, scratch_alpha_nz_);
      update_reduced_costs(q, k, w[r]);
      swap_basis(r, q, leave_to_upper);
      cand_remove(q);
      cand_add(k);
    }
    ++total_iterations_;
  }
}

SolveStatus SimplexSolver::solve_primal() {
  basis_valid_ = false;
  if (m_ == 0) {
    // No constraints: every variable rests at its cost-optimal bound.
    obj_value_ = obj_constant_;
    for (std::size_t j = 0; j < n_; ++j) {
      if (cost_[j] > 0) {
        if (lb_[j] <= -kInf) return SolveStatus::Unbounded;
        xval_[j] = lb_[j];
      } else if (cost_[j] < 0) {
        if (ub_[j] >= kInf) return SolveStatus::Unbounded;
        xval_[j] = ub_[j];
      } else {
        xval_[j] = std::clamp(0.0, lb_[j], ub_[j]);
      }
      obj_value_ += cost_[j] * xval_[j];
    }
    basis_valid_ = true;
    return SolveStatus::Optimal;
  }

  initial_basis();

  // Phase 1: minimize the sum of the live artificials.
  bool any_artificial = false;
  std::vector<double> phase1_cost(total_cols_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t a = n_ + m_ + i;
    if (ub_[a] > 0.0) {
      phase1_cost[a] = 1.0;
      any_artificial = true;
    }
  }
  if (any_artificial) {
    const SolveStatus st = primal_loop(phase1_cost, /*phase_one=*/true);
    if (st != SolveStatus::Optimal) {
      // Re-freeze the artificials before surfacing the failure. Callers can
      // warm-reoptimize from this state (the recovery ladder does exactly
      // that), and a live zero-cost artificial would let the phase-2 LP
      // absorb constraint violations for free — "optimal" objectives below
      // the true bound, unsound prunes. Frozen at zero they are inert; the
      // dual repair drives any still-basic ones back into bounds.
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t a = n_ + m_ + i;
        ub_[a] = 0.0;
      }
      return st;
    }
    double infeas = 0.0;
    for (std::size_t i = 0; i < m_; ++i) infeas += xval_[n_ + m_ + i];
    if (infeas > 1e-6) return SolveStatus::Infeasible;
    // Freeze artificials at zero for phase 2 (basic ones stay, degenerate).
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t a = n_ + m_ + i;
      ub_[a] = 0.0;
      if (status_[a] != ColStatus::Basic) {
        status_[a] = ColStatus::AtLower;
        xval_[a] = 0.0;
      } else {
        xval_[a] = 0.0;  // clamp residual noise
      }
    }
  }

  const SolveStatus st = primal_loop(cost_, /*phase_one=*/false);
  basis_valid_ = (st == SolveStatus::Optimal);
  return st;
}

bool SimplexSolver::dual_feasible() {
  price(cost_, scratch_d_);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (is_fixed(static_cast<std::int32_t>(j))) continue;
    if (entering_dir(status_[j], scratch_d_[j]) != 0.0) return false;
  }
  return true;
}

SolveStatus SimplexSolver::reoptimize_dual(double cutoff) {
  if (!basis_valid_ || m_ == 0) return solve_primal();

  // Bound *tightenings* preserve dual feasibility of the last basis; bound
  // *relaxations* (branch backtracking) can break it, because a nonbasic
  // variable fixed at a bound may carry a wrong-sign reduced cost. The dual
  // simplex is only sound from a dual-feasible basis, so pick the repair
  // direction accordingly.
  SolveStatus st;
  if (dual_feasible()) {
    ++reopt_stats_.dual_fast;
    st = dual_loop(cutoff);
  } else {
    ++reopt_stats_.repaired;
    if (opts_.spans != nullptr) opts_.spans->emit(obs::EventType::DualRepair);
    // Dual-infeasible warm basis (we backtracked past the point where this
    // basis was optimal). The dual loop is still a valid *primal repair*
    // procedure — its pivots are algebraically sound, only its optimality
    // and infeasibility verdicts lose meaning — so run it to regain primal
    // feasibility, then let the primal simplex restore optimality. Spurious
    // "infeasible" verdicts are confirmed with a cold solve.
    st = dual_loop();
    if (st == SolveStatus::Optimal) {
      st = primal_loop(cost_, /*phase_one=*/false);
    } else if (st == SolveStatus::Infeasible) {
      ++reopt_stats_.cold;
      if (opts_.spans != nullptr) opts_.spans->emit(obs::EventType::ColdRestart);
      st = solve_primal();
    }
  }
  if (st == SolveStatus::NumericalError) {
    // Decayed basis: fall back to a cold start.
    if (opts_.spans != nullptr) opts_.spans->emit(obs::EventType::ColdRestart);
    return solve_primal();
  }
  // A cutoff stop leaves a dual-feasible basis: still a valid warm start.
  basis_valid_ = (st == SolveStatus::Optimal || st == SolveStatus::Cutoff);
  return st;
}

SolveStatus SimplexSolver::recover_resolve(double cutoff) {
  if (m_ == 0) return solve_primal();
  // Tightening pivot_tol makes the loops refuse the marginal pivots (and
  // refactorize instead) that plausibly corrupted the factorization the
  // first time; the rebuilt factors give the reoptimization a clean start.
  const double saved_pivot_tol = opts_.pivot_tol;
  opts_.pivot_tol = std::min(1e-6, saved_pivot_tol * 100.0);
  SolveStatus st = SolveStatus::NumericalError;
  if (refactorize()) {
    compute_basic_values();
    basis_valid_ = true;
    st = reoptimize_dual(cutoff);
  }
  opts_.pivot_tol = saved_pivot_tol;
  basis_valid_ = (st == SolveStatus::Optimal || st == SolveStatus::Cutoff);
  return st;
}

SolveStatus SimplexSolver::dual_loop(double cutoff) {
  if (m_ == 0) return solve_primal();

  std::vector<double>& d = scratch_d_;
  std::vector<double>& w = scratch_w_;
  std::vector<std::int32_t>& wnz = scratch_wnz_;
  std::vector<double>& alphas = scratch_alpha_;
  std::vector<std::int32_t>& alpha_nz = scratch_alpha_nz_;
  // Bitset of the rows whose basic variable violates a bound by more than
  // kFeasTol, kept in step with xval_: only those rows can leave, so the
  // leaving-row search visits them instead of all m.
  std::vector<std::uint64_t>& infeasible = scratch_infeasible_;
  auto mark_violation = [&](std::size_t i) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (bound_violation(basic_[i]) > kFeasTol) {
      infeasible[i >> 6] |= bit;
    } else {
      infeasible[i >> 6] &= ~bit;
    }
  };
  // Objective cutoff. In a dual-feasible basis, c·x with the nonbasics at
  // their bounds is the dual objective: a lower bound on the LP optimum that
  // no dual pivot decreases. Once it passes the cutoff the caller would
  // prune the node anyway, so the loop stops. `z` follows each pivot
  // (z += d_q·Δx_q), is recomputed exactly with the basic values, and an
  // exact recomputation confirms every stop.
  const bool watch_cutoff = cutoff < kInf;
  const double stop_above =
      cutoff + kCutoffMargin * std::max(1.0, std::abs(cutoff));
  double z = 0.0;
  auto exact_objective = [&] { return current_objective(cost_) + obj_constant_; };
  // Basic values from scratch, with everything that tracks them.
  auto refresh = [&] {
    compute_basic_values();
    for (std::size_t i = 0; i < m_; ++i) mark_violation(i);
    if (watch_cutoff) z = exact_objective();
  };
  refresh();
  int degen_streak = 0;

  // Reduced costs are maintained incrementally across pivots (same pivot-row
  // update as the primal loop); full pricing after refactorization and
  // periodically against drift. The entry pricing is the caller's
  // dual_feasible() pass, which left them in d.
  int prices_stale = 0;

  for (;;) {
    if (refactor_due()) {  // first, as in primal_loop
      if (!refactorize()) return SolveStatus::NumericalError;
      refresh();
      price(cost_, d);
      prices_stale = 0;
    }
    if (const std::optional<SolveStatus> stop = poll_stop()) return *stop;
    if (++prices_stale > 200) {
      price(cost_, d);
      prices_stale = 0;
    }

    // Leaving row: largest primal bound violation among basic variables
    // (the first such row, scanning rows in ascending order).
    std::int32_t leave_row = -1;
    double worst = kFeasTol;
    for (std::size_t wd = 0; wd < infeasible.size(); ++wd) {
      for (std::uint64_t bits = infeasible[wd]; bits != 0; bits &= bits - 1) {
        const std::size_t i = wd * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const double v = bound_violation(basic_[i]);
        if (v > worst) { worst = v; leave_row = static_cast<std::int32_t>(i); }
      }
    }
    if (leave_row < 0) {
      obj_value_ = exact_objective();
      return SolveStatus::Optimal;
    }
    if (watch_cutoff && z > stop_above) {
      z = exact_objective();
      if (z > stop_above) {
        obj_value_ = z;
        ++reopt_stats_.cutoffs;
        return SolveStatus::Cutoff;
      }
    }

    const std::size_t r = static_cast<std::size_t>(leave_row);
    const std::int32_t kleave = basic_[r];
    const bool above = xval_[kleave] > ub_[kleave];
    const double e = above ? 1.0 : -1.0;

    btran_row(r);
    price_row(alphas, alpha_nz);

    // Dual ratio test over the pivot row's nonzero columns (alphas stay
    // cached for the incremental reduced-cost update below).
    std::int32_t q = -1;
    double best_theta = kInf;
    double alpha_q = 0.0;
    for (const std::int32_t j32 : alpha_nz) {
      const std::size_t j = static_cast<std::size_t>(j32);
      if (is_fixed(j32)) continue;
      const double alpha = alphas[j];
      if (std::abs(alpha) <= opts_.pivot_tol) continue;
      const double abar = e * alpha;
      bool eligible = false;
      if (status_[j] == ColStatus::AtLower && abar > 0) eligible = true;
      else if (status_[j] == ColStatus::AtUpper && abar < 0) eligible = true;
      else if (status_[j] == ColStatus::Free) eligible = true;
      if (!eligible) continue;
      const double theta = std::abs(d[j]) / std::abs(abar);
      const bool better =
          theta < best_theta - 1e-12 ||
          (theta <= best_theta + 1e-12 && q >= 0 && std::abs(alpha) > std::abs(alpha_q));
      if (better) {
        best_theta = theta;
        q = j32;
        alpha_q = alpha;
      }
    }
    if (q < 0) return SolveStatus::Infeasible;  // dual unbounded

    ftran(q);
    if (std::abs(w[r]) < opts_.pivot_tol) {
      if (!refactorize()) return SolveStatus::NumericalError;
      refresh();
      continue;
    }
    if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::NanPivot)) {
      return SolveStatus::NumericalError;  // injected poisoned pivot
    }

    // Entering step: drive the leaving basic variable exactly to its violated
    // bound. x_B(r) changes by -w[r] * delta.
    const double target = above ? ub_[kleave] : lb_[kleave];
    const double delta = (xval_[kleave] - target) / w[r];
    // The streak guard below reads the primal step; the dual step is
    // counted apart.
    count_pivot(std::abs(delta), degen_streak);
    if (best_theta <= kDualDegenTol) ++reopt_stats_.dual_degenerate;
    if (degen_streak > 10 * kBlandThreshold) return SolveStatus::NumericalError;

    step(q, delta);
    if (watch_cutoff) z += d[static_cast<std::size_t>(q)] * delta;
    // The reduced-cost update reuses the pivot row of the ratio test.
    update_reduced_costs(q, kleave, alpha_q);
    swap_basis(r, q, above);
    // The pivot moved only the basic values of w's nonzero rows (r included,
    // which now holds q).
    for (const std::int32_t i : wnz) mark_violation(static_cast<std::size_t>(i));
    ++total_iterations_;
  }
}

void SimplexSolver::set_bounds(std::int32_t col, double lb, double ub) {
  assert(col >= 0 && static_cast<std::size_t>(col) < n_);
  lb_[col] = lb;
  ub_[col] = ub;
  if (status_[col] != ColStatus::Basic) rest_nonbasic(static_cast<std::size_t>(col));
}

std::vector<double> SimplexSolver::dual_values() const {
  std::vector<double> y(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    y[i] = cost_[static_cast<std::size_t>(basic_[i])];
  }
  rep_->btran(y, nullptr, nullptr);
  // cost_ is negated for Maximize models; flip back to the model's sense.
  if (maximize_) {
    for (double& v : y) v = -v;
  }
  return y;
}

std::vector<double> SimplexSolver::reduced_costs() const {
  price(cost_, scratch_d_);
  std::vector<double> d(scratch_d_.begin(),
                        scratch_d_.begin() + static_cast<std::ptrdiff_t>(n_));
  if (maximize_) {
    for (double& v : d) v = -v;
  }
  return d;
}

Basis SimplexSolver::export_basis() const {
  Basis b;
  b.status.resize(total_cols_);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    b.status[j] = static_cast<std::uint8_t>(status_[j]);
  }
  b.basic.assign(basic_.begin(), basic_.end());
  b.art_sign.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    b.art_sign[i] = art_val(i) < 0.0 ? std::int8_t{-1} : std::int8_t{1};
  }
  assert(!refactor_due_);
  b.factor = rep_->snapshot();
  return b;
}

bool SimplexSolver::load_basis(const Basis& basis) {
  if (basis.status.size() != total_cols_ || basis.basic.size() != m_ ||
      basis.art_sign.size() != m_) {
    basis_valid_ = false;
    return false;
  }
  if (m_ == 0) {
    basis_valid_ = true;
    return true;
  }

  // Artificials: reinstall the exporter's matrix signs, frozen at zero (the
  // post-phase-1 state every exported basis was taken in).
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t a = n_ + m_ + i;
    art_val(i) = basis.art_sign[i];
    lb_[a] = 0.0;
    ub_[a] = 0.0;
  }

  std::fill(basis_pos_.begin(), basis_pos_.end(), -1);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    status_[j] = static_cast<ColStatus>(basis.status[j]);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    const std::int32_t col = basis.basic[i];
    if (col < 0 || static_cast<std::size_t>(col) >= total_cols_ ||
        basis_pos_[col] >= 0) {
      basis_valid_ = false;
      return false;  // out of range or duplicated basic column
    }
    basic_[i] = col;
    basis_pos_[col] = static_cast<std::int32_t>(i);
    status_[col] = ColStatus::Basic;
  }

  // Nonbasic columns rest at a bound consistent with the *current* bounds
  // (which may differ from the exporter's: branching only changes bounds).
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] != ColStatus::Basic) rest_nonbasic(j);
  }

  // Transplant: adopt the exporter's factorization snapshot when the kernel
  // supports it — the load then costs an update-log replay instead of a full
  // refactorization. Fall back to refactorizing (checkpoint-resumed bases
  // and the dense kernel ship no snapshot).
  if (basis.factor != nullptr && rep_->adopt(basis.factor)) {
    ++reopt_stats_.transplants;
    pivots_since_refactor_ = basis.factor->update_count();
    refactor_due_ = false;
  } else if (!refactorize()) {
    basis_valid_ = false;
    return false;
  }
  compute_basic_values();
  basis_valid_ = true;
  return true;
}

SimplexSolver::BoundStatus SimplexSolver::column_status(std::int32_t col) const {
  switch (status_[static_cast<std::size_t>(col)]) {
    case ColStatus::Basic: return BoundStatus::Basic;
    case ColStatus::AtLower: return BoundStatus::AtLower;
    case ColStatus::AtUpper: return BoundStatus::AtUpper;
    case ColStatus::Free: return BoundStatus::Free;
  }
  return BoundStatus::Free;
}

std::vector<double> SimplexSolver::primal_solution() const {
  std::vector<double> x(xval_.begin(), xval_.begin() + static_cast<std::ptrdiff_t>(n_));
  // Clip basic values that sit within the feasibility tolerance outside a
  // bound back onto it.
  for (std::size_t j = 0; j < n_; ++j) {
    x[j] = std::clamp(x[j], lb_[j], ub_[j]);
  }
  return x;
}

Solution solve_lp_relaxation(const Model& model, SimplexOptions options) {
  SimplexSolver lp(model, options);
  Solution sol;
  sol.status = lp.solve_primal();
  sol.simplex_iterations = lp.iterations();
  if (sol.status == SolveStatus::Optimal) {
    sol.x = lp.primal_solution();
    const double flip = model.objective_sense() == ObjectiveSense::Maximize ? -1.0 : 1.0;
    sol.objective = flip * lp.objective_value();
    sol.has_incumbent = true;
    sol.best_bound = sol.objective;
  }
  return sol;
}

}  // namespace archex::milp

#include "milp/basis_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace archex::milp {

namespace {

constexpr double kSingularTol = 1e-11;  // same floor as the dense Gauss-Jordan
constexpr int kMarkowitzCandidates = 4;  // columns examined per pivot step

// ---------------------------------------------------------------------------
// Dense kernel: the original explicit inverse, moved behind BasisRep.
// ---------------------------------------------------------------------------

class DenseBasis final : public BasisRep {
 public:
  explicit DenseBasis(std::size_t m) : m_(m), binv_(m * m, 0.0), scratch_(m, 0.0) {}

  bool factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                 const std::vector<std::int32_t>& basic) override {
    // Gauss-Jordan inversion of the basis matrix with partial pivoting.
    std::vector<double> work(m_ * m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = static_cast<std::size_t>(basic[i]);
      for (std::int32_t t = col_start[j]; t < col_start[j + 1]; ++t) {
        const ColEntry& e = col_ent[t];
        work[static_cast<std::size_t>(e.row) * m_ + i] = e.val;
      }
    }
    std::vector<double>& inv = binv_;
    std::fill(inv.begin(), inv.end(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) inv[i * m_ + i] = 1.0;

    for (std::size_t k = 0; k < m_; ++k) {
      std::size_t piv = k;
      double best = std::abs(work[k * m_ + k]);
      for (std::size_t i = k + 1; i < m_; ++i) {
        const double v = std::abs(work[i * m_ + k]);
        if (v > best) { best = v; piv = i; }
      }
      if (best < kSingularTol) return false;  // singular basis
      if (piv != k) {
        // A row swap is just another elementary row operation: the
        // accumulated sequence R with R*B = I satisfies R = B^-1 exactly.
        for (std::size_t j = 0; j < m_; ++j) {
          std::swap(work[piv * m_ + j], work[k * m_ + j]);
          std::swap(inv[piv * m_ + j], inv[k * m_ + j]);
        }
      }
      const double d = 1.0 / work[k * m_ + k];
      for (std::size_t j = 0; j < m_; ++j) {
        work[k * m_ + j] *= d;
        inv[k * m_ + j] *= d;
      }
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == k) continue;
        const double f = work[i * m_ + k];
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < m_; ++j) {
          work[i * m_ + j] -= f * work[k * m_ + j];
          inv[i * m_ + j] -= f * inv[k * m_ + j];
        }
      }
    }
    return true;
  }

  void ftran(std::vector<double>& x,
             const std::vector<std::int32_t>* /*nz*/) const override {
    std::vector<double>& y = scratch_;
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t k = 0; k < m_; ++k) {
      const double xk = x[k];
      if (xk == 0.0) continue;
      const double* bk = binv_.data() + k;  // column k of row-major Binv
      for (std::size_t i = 0; i < m_; ++i) y[i] += bk[i * m_] * xk;
    }
    std::copy(y.begin(), y.end(), x.begin());
  }

  void btran(std::vector<double>& x, const std::vector<std::int32_t>* /*nz*/,
             std::vector<std::int32_t>* out_nz) const override {
    std::vector<double>& y = scratch_;
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double ci = x[i];
      if (ci == 0.0) continue;
      const double* row = binv_.data() + i * m_;
      for (std::size_t j = 0; j < m_; ++j) y[j] += ci * row[j];
    }
    std::copy(y.begin(), y.end(), x.begin());
    if (out_nz != nullptr) gather_nonzeros(x, *out_nz);
  }

  void ftran_entering(std::vector<double>& x, const std::vector<std::int32_t>& nz,
                      std::vector<std::int32_t>& out_nz) override {
    ftran(x, &nz);
    gather_nonzeros(x, out_nz);
  }

  bool update(const std::vector<double>& w, std::size_t r,
              const std::vector<std::int32_t>& wnz) override {
    // Binv <- E * Binv with E the elementary matrix mapping w to e_r.
    const double piv = w[r];
    double* rowr = binv_.data() + r * m_;
    const double inv_piv = 1.0 / piv;
    for (std::size_t j = 0; j < m_; ++j) rowr[j] *= inv_piv;
    for (const std::int32_t i32 : wnz) {
      const std::size_t i = static_cast<std::size_t>(i32);
      if (i == r) continue;
      const double f = w[i];
      double* rowi = binv_.data() + i * m_;
      for (std::size_t j = 0; j < m_; ++j) rowi[j] -= f * rowr[j];
    }
    return true;
  }

  [[nodiscard]] std::shared_ptr<const FactorState> snapshot() const override {
    return nullptr;
  }
  bool adopt(const std::shared_ptr<const FactorState>& /*state*/) override {
    return false;
  }
  [[nodiscard]] const char* name() const override { return "dense"; }

 private:
  std::size_t m_;
  std::vector<double> binv_;  ///< dense m x m, row-major
  mutable std::vector<double> scratch_;
};

// ---------------------------------------------------------------------------
// Sparse LU kernel.
// ---------------------------------------------------------------------------

// Forrest–Tomlin stability test: the updated U diagonal must match the one
// the pivot element predicts (old diagonal × w_r: det U scales by w_r and no
// other diagonal changes) to this relative tolerance, or the update is
// declined and the caller refactorizes.
constexpr double kFtStabilityTol = 1e-8;
// U growth bound: an update is declined once the working U plus its row
// etas would hold more than this multiple of the fresh factorization's U
// nonzeros (diagonal included). Both cost every later solve.
constexpr double kUGrowthFactor = 2.0;
// Spike and row-eta entries at or below this magnitude are rounding noise
// of cancelled sums; the update drops them.
constexpr double kDropTol = 1e-14;
// Spare room per working U row and column list at a (re)build: most rows
// gain an entry or two from spikes before the next refactorization.
constexpr std::int32_t kListSlack = 2;

void set_bit(std::uint64_t* bits, std::size_t k) {
  bits[k >> 6] |= std::uint64_t{1} << (k & 63);
}

/// Sets bit to_bit[i] in `todo` for every listed i with x[i] != 0.
void mark_nonzeros(const std::vector<double>& x, const std::vector<std::int32_t>& idx,
                   const std::vector<std::int32_t>& to_bit, std::uint64_t* todo) {
  for (const std::int32_t i : idx) {
    if (x[static_cast<std::size_t>(i)] != 0.0) {
      set_bit(todo, static_cast<std::size_t>(to_bit[static_cast<std::size_t>(i)]));
    }
  }
}

/// Lists of (index, value) entries in one growable pool: list i is the
/// entries [start[i], start[i] + len[i]) of the pooled arrays, with room up
/// to start[i] + cap[i]. A list that outgrows its room moves to the end of
/// the pool (its old room stays unused until the next reset).
struct ListPool {
  std::vector<std::int32_t> start, len, cap;
  std::vector<std::int32_t> idx;
  std::vector<double> val;

  /// Empty lists, list i with room for lens[i] + slack entries.
  void reset(const std::vector<std::int32_t>& lens, std::int32_t slack) {
    const std::size_t n = lens.size();
    start.resize(n);
    len.assign(n, 0);
    cap.resize(n);
    std::int32_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      start[i] = at;
      cap[i] = lens[i] + slack;
      at += cap[i];
    }
    idx.resize(static_cast<std::size_t>(at));
    val.resize(static_cast<std::size_t>(at));
  }
  [[nodiscard]] std::int32_t begin(std::size_t i) const { return start[i]; }
  [[nodiscard]] std::int32_t end(std::size_t i) const { return start[i] + len[i]; }

  void push(std::size_t i, std::int32_t id, double v) {
    if (len[i] == cap[i]) {
      const std::int32_t moved = static_cast<std::int32_t>(idx.size());
      const std::int32_t room = 2 * cap[i] + 4;
      idx.resize(idx.size() + static_cast<std::size_t>(room));
      val.resize(idx.size());
      std::copy_n(idx.begin() + start[i], len[i], idx.begin() + moved);
      std::copy_n(val.begin() + start[i], len[i], val.begin() + moved);
      start[i] = moved;
      cap[i] = room;
    }
    const auto at = static_cast<std::size_t>(start[i] + len[i]++);
    idx[at] = id;
    val[at] = v;
  }
  /// Removes the entry with index `id` (if any); the last entry takes its
  /// place.
  void erase(std::size_t i, std::int32_t id) {
    const auto last = static_cast<std::size_t>(end(i) - 1);
    for (auto t = static_cast<std::size_t>(start[i]); t <= last && len[i] > 0; ++t) {
      if (idx[t] != id) continue;
      idx[t] = idx[last];
      val[t] = val[last];
      --len[i];
      return;
    }
  }
};

/// Sparse LU with Forrest–Tomlin updates. The factorization (LuData) stays
/// immutable; the kernel solves with a private working copy of U that the
/// updates rewrite, and with the row etas of its update log.
///
/// Working U: row k of pivot k holds (position, value) entries off the
/// diagonal, `diag_inv_[k]` the inverse diagonal, and column p holds the
/// same entries as (original row of the pivot, value). The pivot order is a
/// rank per pivot: an update moves its pivot to a fresh rank past every
/// other, so ranks grow by one per update and the moved pivot's old rank
/// stays empty. Installing record k (see UpdateLog) for pivot t at position
/// r removes column r's entries from their rows and clears row t, sets t's
/// diagonal, adds each spike entry (r, s_j) to row j and column r, and gives
/// t the next rank. Refactorizing rebuilds the working copy from the new
/// LuData; adopting a snapshot rebuilds it from the snapshot's LuData and
/// installs its records, so an adopted kernel holds the same U as its
/// donor, entry order included. (Entry order never changes a sum: each
/// entry of a row or column writes a different target.)
class SparseLuBasis final : public BasisRep {
 public:
  SparseLuBasis(std::size_t m, double markowitz_tol)
      : m_(m),
        markowitz_tol_(markowitz_tol),
        lu_(std::make_shared<const LuData>()),
        solve_scratch_(m, 0.0),
        work_(m, 0.0),
        spike_dense_(m, 0.0) {}

  bool factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                 const std::vector<std::int32_t>& basic) override;
  void ftran(std::vector<double>& x, const std::vector<std::int32_t>* nz) const override {
    forward(x, nz, nullptr, nullptr);
  }
  void btran(std::vector<double>& x, const std::vector<std::int32_t>* nz,
             std::vector<std::int32_t>* out_nz) const override;
  void ftran_entering(std::vector<double>& x, const std::vector<std::int32_t>& nz,
                      std::vector<std::int32_t>& out_nz) override {
    spike_.clear();
    forward(x, &nz, &spike_, &out_nz);
    has_spike_ = true;
  }
  bool update(const std::vector<double>& w, std::size_t r,
              const std::vector<std::int32_t>& wnz) override;

  [[nodiscard]] std::shared_ptr<const FactorState> snapshot() const override {
    // Freeze the tail into a chunk: the snapshot and the live kernel then
    // share the same immutable prefix instead of holding two copies of it.
    if (log_.count() > 0) {
      auto c = std::make_shared<UpdateChunk>();
      c->log = log_;
      c->prev = head_;
      c->total = (head_ ? head_->total : 0) + log_.count();
      frozen_.push_back(c.get());
      head_ = std::move(c);
      log_.clear();
    }
    auto s = std::make_shared<FactorState>();
    s->lu = lu_;
    s->updates = head_;
    return s;
  }

  bool adopt(const std::shared_ptr<const FactorState>& state) override {
    if (state == nullptr || state->lu == nullptr || state->lu->m != m_) {
      return false;
    }
    lu_ = state->lu;
    head_ = state->updates;
    frozen_.clear();
    for (const UpdateChunk* c = head_.get(); c != nullptr; c = c->prev.get()) {
      frozen_.push_back(c);
    }
    std::reverse(frozen_.begin(), frozen_.end());
    log_.clear();
    has_spike_ = false;
    load_working();
    for (const UpdateChunk* c : frozen_) {
      for (int k = 0; k < c->log.count(); ++k) install(c->log, k);
    }
    return true;
  }

  [[nodiscard]] const char* name() const override { return "sparse-lu"; }

 private:
  /// ftran; with `spike` non-null it also collects the spike, the nonzero
  /// (pivot, value) inputs of the U pass, and with `out_nz` non-null the
  /// result's nonzero positions, ascending.
  void forward(std::vector<double>& x, const std::vector<std::int32_t>* nz,
               std::vector<ColEntry>* spike, std::vector<std::int32_t>* out_nz) const;
  /// Moves the marks of `out_bits_` to `out_nz`, ascending, keeping the
  /// indices whose entry of `v` is nonzero.
  void take_pattern(const std::vector<double>& v, std::vector<std::int32_t>& out_nz) const;
  /// Marks row i's pivot for the U pass of the current ftran.
  void mark_u(std::size_t i) const {
    set_bit(todo_.data(), static_cast<std::size_t>(row_rank_[i]));
  }
  /// The row-eta pass of ftran over the vector the L pass left, marking
  /// the rows it writes for the U pass.
  void row_etas_forward(std::vector<double>& x) const;
  /// Resets the working U to lu_'s U, in pivot order.
  void load_working();
  /// Applies record k of `log` to the working U.
  void install(const UpdateLog& log, int k);

  std::size_t m_;
  double markowitz_tol_;
  std::shared_ptr<const LuData> lu_;
  // The update log: the chunk chain ending at `head_` (shared with
  // snapshots; `frozen_` lists it oldest first), then the live tail.
  // snapshot() moves the tail into a chunk — the represented log does not
  // change, so it stays a const operation.
  mutable std::shared_ptr<const UpdateChunk> head_;
  mutable std::vector<const UpdateChunk*> frozen_;
  mutable UpdateLog log_;

  // Working U (see the class comment).
  ListPool rows_;   ///< per pivot: off-diagonal (position, value)
  ListPool cols_;   ///< per position: the same entries as (row, value)
  /// Bitset over result indices a solve wrote, when its caller asked for
  /// the pattern. Zero between solves.
  mutable std::vector<std::uint64_t> out_bits_;
  std::vector<double> diag_inv_;
  std::vector<std::int32_t> rank_;      ///< per pivot: its place in the order
  std::vector<std::int32_t> order_;     ///< per rank: its pivot, -1 once moved
  std::vector<std::int32_t> row_rank_;  ///< per original row: its pivot's rank
  std::vector<std::int32_t> pos_rank_;  ///< per position: its pivot's rank
  std::size_t u_nnz_ = 0;    ///< off-diagonal working U plus row-eta entries
  std::size_t u_limit_ = 0;  ///< u_nnz_ past which updates are declined
  // Row etas of the installed records, oldest first, by original row: eta g
  // writes row eta_row_[g] and reads rows eta_ent_row_[e] with values
  // eta_ent_val_[e] for e in [eta_start_[g], eta_start_[g+1]).
  std::vector<std::int32_t> eta_row_;
  std::vector<std::int32_t> eta_start_;
  std::vector<std::int32_t> eta_ent_row_;
  std::vector<double> eta_ent_val_;
  std::vector<std::int32_t> lens_;  ///< list lengths at a rebuild

  /// The spike of the last ftran_entering as (pivot, value), and whether
  /// update() may still use it.
  std::vector<ColEntry> spike_;
  bool has_spike_ = false;
  std::vector<ColEntry> eta_;  ///< update(): the row eta being built

  /// U-solve / L^T-solve output, all zero (+-0) between solves: each
  /// triangular pass zeroes the input entries it consumes, then the solve
  /// swaps this buffer with the caller's vector.
  mutable std::vector<double> solve_scratch_;
  /// Bitset over ranks: the triangular steps left to run in the current
  /// solve. All zero between solves (each pass clears a bit as it runs it).
  mutable std::vector<std::uint64_t> todo_;
  mutable std::vector<std::int32_t> dense_nz_;  ///< pattern of a solve's dense input
  std::vector<double> work_;         ///< update(): the row being eliminated, by position
  std::vector<double> spike_dense_;  ///< update(): the spike by pivot; zero outside

  // Factorization workspace (reused across refactorizations).
  std::vector<std::vector<ColEntry>> wcols_;      ///< working columns (active rows)
  std::vector<std::vector<std::int32_t>> rpat_;   ///< positions per row (may go stale)
  std::vector<std::int32_t> row_count_;           ///< approximate active row counts
  std::vector<double> wval_;                      ///< dense scatter values
  std::vector<std::int32_t> wstamp_;              ///< scatter marks
  std::int32_t stamp_ = 0;

  // Count-bucket lists over the active columns: bucket c chains the
  // positions whose working column currently holds c entries, so the
  // Markowitz search finds minimum-count candidates without scanning every
  // position per pivot step (the scan cost used to dominate factorize).
  std::vector<std::int32_t> bkt_head_;  ///< size m+1, head per count, -1 empty
  std::vector<std::int32_t> bkt_next_;
  std::vector<std::int32_t> bkt_prev_;
  std::vector<std::int32_t> bkt_cnt_;   ///< bucket a position is linked into

  void bkt_unlink(std::int32_t pos) {
    const std::int32_t nx = bkt_next_[static_cast<std::size_t>(pos)];
    const std::int32_t pv = bkt_prev_[static_cast<std::size_t>(pos)];
    if (pv >= 0) {
      bkt_next_[static_cast<std::size_t>(pv)] = nx;
    } else {
      bkt_head_[static_cast<std::size_t>(bkt_cnt_[static_cast<std::size_t>(pos)])] = nx;
    }
    if (nx >= 0) bkt_prev_[static_cast<std::size_t>(nx)] = pv;
  }
  void bkt_link(std::int32_t pos, std::int32_t c) {
    bkt_cnt_[static_cast<std::size_t>(pos)] = c;
    bkt_prev_[static_cast<std::size_t>(pos)] = -1;
    const std::int32_t h = bkt_head_[static_cast<std::size_t>(c)];
    bkt_next_[static_cast<std::size_t>(pos)] = h;
    if (h >= 0) bkt_prev_[static_cast<std::size_t>(h)] = pos;
    bkt_head_[static_cast<std::size_t>(c)] = pos;
  }
};


bool SparseLuBasis::factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                              const std::vector<std::int32_t>& basic) {
  head_.reset();
  frozen_.clear();
  log_.clear();
  has_spike_ = false;
  auto lu = std::make_shared<LuData>();
  lu->m = m_;
  if (m_ == 0) {
    lu_ = std::move(lu);
    load_working();
    return true;
  }
  // Size the fresh factor arrays off the previous factorization so the
  // push_back growth below rarely reallocates mid-elimination.
  lu->l_ent.reserve(lu_->l_ent.size() + 16);
  lu->u_pos.reserve(lu_->u_pos.size() + 16);
  lu->u_val.reserve(lu_->u_val.size() + 16);

  // Working copy of the basis matrix, column-wise by basis position, plus a
  // row-wise pattern of positions. Invariant: wcols_ holds exactly the
  // entries over still-active (unpivoted) rows; rpat_ may carry stale
  // positions (cancellations leave them behind), detected via the scatter.
  // clear() instead of assign() keeps each inner vector's capacity across
  // refactorizations — the fill pattern barely changes between them.
  if (wcols_.size() != m_) {
    wcols_.resize(m_);
    rpat_.resize(m_);
  }
  for (auto& wc : wcols_) wc.clear();
  for (auto& rp : rpat_) rp.clear();
  row_count_.assign(m_, 0);
  for (std::size_t pos = 0; pos < m_; ++pos) {
    const std::size_t j = static_cast<std::size_t>(basic[pos]);
    auto& wc = wcols_[pos];
    wc.reserve(static_cast<std::size_t>(col_start[j + 1] - col_start[j]));
    for (std::int32_t t = col_start[j]; t < col_start[j + 1]; ++t) {
      const ColEntry& e = col_ent[t];
      if (e.val == 0.0) continue;
      wc.push_back(e);
      rpat_[static_cast<std::size_t>(e.row)].push_back(static_cast<std::int32_t>(pos));
      ++row_count_[static_cast<std::size_t>(e.row)];
    }
  }
  if (wval_.size() != m_) {
    wval_.assign(m_, 0.0);
    wstamp_.assign(m_, 0);
    stamp_ = 0;
  }
  bkt_head_.assign(m_ + 1, -1);
  bkt_next_.assign(m_, -1);
  bkt_prev_.assign(m_, -1);
  bkt_cnt_.assign(m_, 0);
  for (std::size_t pos = 0; pos < m_; ++pos) {
    bkt_link(static_cast<std::int32_t>(pos),
             static_cast<std::int32_t>(wcols_[pos].size()));
  }

  std::vector<char> pos_done(m_, 0);
  lu->pivot_row.resize(m_);
  lu->pivot_pos.resize(m_);
  lu->u_diag_inv.resize(m_);
  lu->l_start.assign(1, 0);
  lu->u_start.assign(1, 0);

  std::vector<std::int32_t> lrows;
  std::vector<double> lvals;
  std::vector<std::int32_t> fills;

  for (std::size_t k = 0; k < m_; ++k) {
    // --- Markowitz pivot search with threshold partial pivoting ---
    // The count buckets hand over the minimum-count columns directly;
    // examine a few of them, and within a column only entries within
    // markowitz_tol of the column max are acceptable (stability), the
    // lowest (r-1)(c-1) fill bound among acceptable entries winning.
    std::size_t minc = 0;
    while (minc <= m_ && bkt_head_[minc] < 0) ++minc;
    if (minc == 0 || minc > m_) {
      return false;  // an active position has an empty column: singular
    }

    std::int32_t best_pos = -1;
    std::int32_t best_row = -1;
    double best_val = 0.0;
    long best_cost = std::numeric_limits<long>::max();
    auto consider = [&](std::int32_t pos) {
      const auto& wc = wcols_[static_cast<std::size_t>(pos)];
      double cmax = 0.0;
      for (const ColEntry& e : wc) cmax = std::max(cmax, std::abs(e.val));
      if (cmax < kSingularTol) return;  // unpivotable for now
      const double accept = markowitz_tol_ * cmax;
      for (const ColEntry& e : wc) {
        const double av = std::abs(e.val);
        if (av < accept) continue;
        const long cost =
            static_cast<long>(row_count_[static_cast<std::size_t>(e.row)] - 1) *
            static_cast<long>(wc.size() - 1);
        if (cost < best_cost ||
            (cost == best_cost && av > std::abs(best_val))) {
          best_cost = cost;
          best_pos = pos;
          best_row = e.row;
          best_val = e.val;
        }
      }
    };
    int examined = 0;
    for (std::int32_t p = bkt_head_[minc];
         p >= 0 && examined < kMarkowitzCandidates;
         p = bkt_next_[static_cast<std::size_t>(p)], ++examined) {
      consider(p);
    }
    if (best_pos < 0) {
      // None of the sampled min-count columns is acceptable: fall back to
      // every active column, in ascending count order.
      for (std::size_t c = 1; c <= m_ && best_pos < 0; ++c) {
        for (std::int32_t p = bkt_head_[c]; p >= 0;
             p = bkt_next_[static_cast<std::size_t>(p)]) {
          consider(p);
        }
      }
    }
    if (best_pos < 0) return false;  // no acceptable pivot anywhere: singular

    const std::size_t ppos = static_cast<std::size_t>(best_pos);
    const std::size_t prow = static_cast<std::size_t>(best_row);
    const double pval = best_val;

    // L column: the other entries of the pivot column, divided by the pivot.
    lrows.clear();
    lvals.clear();
    for (const ColEntry& e : wcols_[ppos]) {
      if (static_cast<std::size_t>(e.row) == prow) continue;
      lrows.push_back(e.row);
      lvals.push_back(e.val / pval);
      --row_count_[static_cast<std::size_t>(e.row)];  // loses its ppos entry
    }

    // Eliminate the pivot row from every other column that carries it.
    for (const std::int32_t q32 : rpat_[prow]) {
      const std::size_t q = static_cast<std::size_t>(q32);
      if (pos_done[q] || q == ppos) continue;
      auto& wc = wcols_[q];
      if (lrows.empty()) {
        // Singleton pivot column: the elimination only moves the pivot-row
        // entry into U (no fill, no cancellation), so skip the scatter and
        // gather; the rest of the column keeps its order.
        const auto it = std::find_if(wc.begin(), wc.end(), [&](const ColEntry& e) {
          return static_cast<std::size_t>(e.row) == prow;
        });
        if (it == wc.end()) continue;  // stale pattern entry: skip
        lu->u_pos.push_back(q32);
        lu->u_val.push_back(it->val);
        wc.erase(it);
        bkt_unlink(q32);
        bkt_link(q32, static_cast<std::int32_t>(wc.size()));
        continue;
      }
      ++stamp_;
      for (const ColEntry& e : wc) {
        wval_[static_cast<std::size_t>(e.row)] = e.val;
        wstamp_[static_cast<std::size_t>(e.row)] = stamp_;
      }
      if (wstamp_[prow] != stamp_) continue;  // stale pattern entry: skip
      const double uq = wval_[prow];
      lu->u_pos.push_back(q32);
      lu->u_val.push_back(uq);
      fills.clear();
      for (std::size_t t = 0; t < lrows.size(); ++t) {
        const std::size_t i = static_cast<std::size_t>(lrows[t]);
        const double delta = lvals[t] * uq;
        if (wstamp_[i] == stamp_) {
          wval_[i] -= delta;
        } else {
          wval_[i] = -delta;
          wstamp_[i] = stamp_;
          fills.push_back(lrows[t]);
        }
      }
      // Gather the updated column: surviving old entries (minus the pivot
      // row and exact cancellations) plus fill-in.
      std::size_t out = 0;
      for (std::size_t t = 0; t < wc.size(); ++t) {
        const std::size_t i = static_cast<std::size_t>(wc[t].row);
        if (i == prow) continue;
        const double v = wval_[i];
        if (v == 0.0) {
          --row_count_[i];  // cancelled; rpat_ keeps a stale entry
          continue;
        }
        wc[out++] = {wc[t].row, v};
      }
      wc.resize(out);
      for (const std::int32_t f : fills) {
        const std::size_t i = static_cast<std::size_t>(f);
        if (wval_[i] == 0.0) continue;
        wc.push_back({f, wval_[i]});
        rpat_[i].push_back(q32);
        ++row_count_[i];
      }
      bkt_unlink(q32);
      bkt_link(q32, static_cast<std::int32_t>(wc.size()));
    }

    // Retire the pivot.
    lu->pivot_row[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(prow);
    lu->pivot_pos[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(ppos);
    lu->u_diag_inv[static_cast<std::size_t>(k)] = 1.0 / pval;
    for (std::size_t t = 0; t < lrows.size(); ++t) {
      lu->l_ent.push_back({lrows[t], lvals[t]});
    }
    lu->l_start.push_back(static_cast<std::int32_t>(lu->l_ent.size()));
    lu->u_start.push_back(static_cast<std::int32_t>(lu->u_pos.size()));
    pos_done[ppos] = 1;
    bkt_unlink(best_pos);
    wcols_[ppos].clear();
    rpat_[prow].clear();
    if (!lrows.empty()) lu->l_steps.push_back(static_cast<std::int32_t>(k));
  }
  // Inverse permutations.
  lu->row_pivot.resize(m_);
  lu->pos_pivot.resize(m_);
  for (std::size_t k = 0; k < m_; ++k) {
    lu->row_pivot[static_cast<std::size_t>(lu->pivot_row[k])] = static_cast<std::int32_t>(k);
    lu->pos_pivot[static_cast<std::size_t>(lu->pivot_pos[k])] = static_cast<std::int32_t>(k);
  }
  lu_ = std::move(lu);
  load_working();
  return true;
}

void SparseLuBasis::load_working() {
  const LuData& lu = *lu_;
  lens_.resize(m_);
  for (std::size_t k = 0; k < m_; ++k) lens_[k] = lu.u_start[k + 1] - lu.u_start[k];
  rows_.reset(lens_, kListSlack);
  std::fill(lens_.begin(), lens_.end(), 0);
  for (const std::int32_t p : lu.u_pos) ++lens_[static_cast<std::size_t>(p)];
  cols_.reset(lens_, kListSlack);
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::int32_t t = lu.u_start[k]; t < lu.u_start[k + 1]; ++t) {
      const auto ut = static_cast<std::size_t>(t);
      rows_.push(k, lu.u_pos[ut], lu.u_val[ut]);
      cols_.push(static_cast<std::size_t>(lu.u_pos[ut]), lu.pivot_row[k], lu.u_val[ut]);
    }
  }
  diag_inv_ = lu.u_diag_inv;
  out_bits_.resize((m_ + 63) / 64);
  rank_.resize(m_);
  order_.resize(m_);
  for (std::size_t k = 0; k < m_; ++k) {
    rank_[k] = static_cast<std::int32_t>(k);
    order_[k] = static_cast<std::int32_t>(k);
  }
  row_rank_ = lu.row_pivot;
  pos_rank_ = lu.pos_pivot;
  u_nnz_ = lu.u_pos.size();
  u_limit_ = static_cast<std::size_t>(kUGrowthFactor * static_cast<double>(u_nnz_ + m_)) - m_;
  eta_row_.clear();
  eta_start_.assign(1, 0);
  eta_ent_row_.clear();
  eta_ent_val_.clear();
  todo_.resize((m_ + 63) / 64);  // zero between solves, so only the size changes
}

void SparseLuBasis::install(const UpdateLog& log, int k) {
  const LuData& lu = *lu_;
  const auto kk = static_cast<std::size_t>(k);
  const std::int32_t t32 = log.slot[kk];
  const auto t = static_cast<std::size_t>(t32);
  const std::int32_t r32 = lu.pivot_pos[t];
  const auto r = static_cast<std::size_t>(r32);
  const std::int32_t trow = lu.pivot_row[t];
  // The spike replaces column r, and the row eta eliminated row t.
  for (std::int32_t s = cols_.begin(r); s < cols_.end(r); ++s) {
    const auto row = static_cast<std::size_t>(cols_.idx[static_cast<std::size_t>(s)]);
    rows_.erase(static_cast<std::size_t>(lu.row_pivot[row]), r32);
  }
  for (std::int32_t s = rows_.begin(t); s < rows_.end(t); ++s) {
    const auto p = static_cast<std::size_t>(rows_.idx[static_cast<std::size_t>(s)]);
    cols_.erase(p, trow);
  }
  u_nnz_ -= static_cast<std::size_t>(cols_.len[r] + rows_.len[t]);
  cols_.len[r] = 0;
  rows_.len[t] = 0;
  diag_inv_[t] = 1.0 / log.diag[kk];
  for (std::int32_t s = log.spike_start[kk]; s < log.spike_start[kk + 1]; ++s) {
    const auto us = static_cast<std::size_t>(s);
    const std::int32_t j = log.spike_slot[us];
    rows_.push(static_cast<std::size_t>(j), r32, log.spike_val[us]);
    cols_.push(r, lu.pivot_row[static_cast<std::size_t>(j)], log.spike_val[us]);
  }
  u_nnz_ += static_cast<std::size_t>(log.spike_start[kk + 1] - log.spike_start[kk] +
                                     log.eta_start[kk + 1] - log.eta_start[kk]);
  eta_row_.push_back(trow);
  for (std::int32_t s = log.eta_start[kk]; s < log.eta_start[kk + 1]; ++s) {
    const auto us = static_cast<std::size_t>(s);
    const std::int32_t row = lu.pivot_row[static_cast<std::size_t>(log.eta_slot[us])];
    eta_ent_row_.push_back(row);
    eta_ent_val_.push_back(log.eta_val[us]);
  }
  eta_start_.push_back(static_cast<std::int32_t>(eta_ent_row_.size()));
  // Pivot t moves past every other.
  const auto rank = static_cast<std::int32_t>(order_.size());
  order_[static_cast<std::size_t>(rank_[t])] = -1;
  order_.push_back(t32);
  rank_[t] = rank;
  row_rank_[static_cast<std::size_t>(lu.pivot_row[t])] = rank;
  pos_rank_[r] = rank;
  todo_.resize((order_.size() + 63) / 64, 0);
}

bool SparseLuBasis::update(const std::vector<double>& w, std::size_t r,
                           const std::vector<std::int32_t>& /*wnz*/) {
  if (!has_spike_) return false;
  has_spike_ = false;
  const LuData& lu = *lu_;
  const auto t = static_cast<std::size_t>(lu.pos_pivot[r]);
  // Row eta: eliminate row t against the rows of the pivots after it — the
  // btran U^T pass, run on row t from its first entry — while the new
  // diagonal s_t collects -eta_j * s_j for each pivot j eliminated.
  for (const ColEntry& e : spike_) spike_dense_[static_cast<std::size_t>(e.row)] = e.val;
  double diag = spike_dense_[t];
  std::uint64_t* const todo = todo_.data();
  for (std::int32_t s = rows_.begin(t); s < rows_.end(t); ++s) {
    const auto us = static_cast<std::size_t>(s);
    const auto p = static_cast<std::size_t>(rows_.idx[us]);
    work_[p] = rows_.val[us];
    set_bit(todo, static_cast<std::size_t>(pos_rank_[p]));
  }
  eta_.clear();
  for (std::size_t wd = 0; wd < todo_.size(); ++wd) {
    while (todo[wd] != 0) {
      const int bit = std::countr_zero(todo[wd]);
      todo[wd] &= todo[wd] - 1;
      const auto j = static_cast<std::size_t>(order_[wd * 64 + static_cast<std::size_t>(bit)]);
      double& in = work_[static_cast<std::size_t>(lu.pivot_pos[j])];
      const double eta = in * diag_inv_[j];
      in = 0.0;
      if (std::abs(eta) <= kDropTol) continue;
      eta_.push_back({static_cast<std::int32_t>(j), eta});
      diag -= eta * spike_dense_[j];
      for (std::int32_t s = rows_.begin(j); s < rows_.end(j); ++s) {
        const auto us = static_cast<std::size_t>(s);
        const auto p = static_cast<std::size_t>(rows_.idx[us]);
        work_[p] -= rows_.val[us] * eta;
        set_bit(todo, static_cast<std::size_t>(pos_rank_[p]));
      }
    }
  }
  for (const ColEntry& e : spike_) spike_dense_[static_cast<std::size_t>(e.row)] = 0.0;

  // Decline an unstable update, or one that grows U too far; the caller
  // refactorizes instead.
  const double predicted = w[r] / diag_inv_[t];
  if (!(std::abs(diag - predicted) <= kFtStabilityTol * std::abs(predicted)) ||
      std::abs(diag) < kSingularTol) {
    return false;
  }
  if (u_nnz_ + spike_.size() + eta_.size() > u_limit_) return false;

  log_.slot.push_back(static_cast<std::int32_t>(t));
  log_.diag.push_back(diag);
  for (const ColEntry& e : eta_) {
    log_.eta_slot.push_back(e.row);
    log_.eta_val.push_back(e.val);
  }
  log_.eta_start.push_back(static_cast<std::int32_t>(log_.eta_slot.size()));
  for (const ColEntry& e : spike_) {
    if (static_cast<std::size_t>(e.row) == t || std::abs(e.val) <= kDropTol) continue;
    log_.spike_slot.push_back(e.row);
    log_.spike_val.push_back(e.val);
  }
  log_.spike_start.push_back(static_cast<std::int32_t>(log_.spike_slot.size()));
  install(log_, log_.count() - 1);
  return true;
}

void SparseLuBasis::take_pattern(const std::vector<double>& v,
                                 std::vector<std::int32_t>& out_nz) const {
  out_nz.resize(m_);
  std::size_t n = 0;
  for (std::size_t wd = 0; wd < out_bits_.size(); ++wd) {
    for (std::uint64_t bits = out_bits_[wd]; bits != 0; bits &= bits - 1) {
      const std::size_t i = wd * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      out_nz[n] = static_cast<std::int32_t>(i);
      n += v[i] != 0.0 ? 1 : 0;
    }
    out_bits_[wd] = 0;
  }
  out_nz.resize(n);
}

void SparseLuBasis::forward(std::vector<double>& x, const std::vector<std::int32_t>* nz,
                            std::vector<ColEntry>* spike, std::vector<std::int32_t>* out_nz) const {
  const LuData& lu = *lu_;
  std::uint64_t* const todo = todo_.data();
  // L pass, in pivot order, on the row-indexed input. Steps with an empty L
  // column change nothing, so only `l_steps` are walked. Rows the pass
  // writes are marked for the U pass: they are outside the caller's `nz`.
  for (const std::int32_t k32 : lu.l_steps) {
    const std::size_t k = static_cast<std::size_t>(k32);
    const double xk = x[static_cast<std::size_t>(lu.pivot_row[k])];
    if (xk == 0.0) continue;
    const std::int32_t e = lu.l_start[k + 1];
    for (std::int32_t t = lu.l_start[k]; t < e; ++t) {
      const ColEntry& en = lu.l_ent[static_cast<std::size_t>(t)];
      x[static_cast<std::size_t>(en.row)] -= en.val * xk;
      mark_u(static_cast<std::size_t>(en.row));
    }
  }
  row_etas_forward(x);
  // The U pass's input is the spike of an entering column.
  std::vector<double>& y = solve_scratch_;
  if (nz == nullptr) {
    gather_nonzeros(x, dense_nz_);
    nz = &dense_nz_;
  }
  for (const std::int32_t i : *nz) {
    if (x[static_cast<std::size_t>(i)] != 0.0) mark_u(static_cast<std::size_t>(i));
  }
  if (spike != nullptr) {
    for (std::size_t wd = todo_.size(); wd-- > 0;) {
      for (std::uint64_t bits = todo[wd]; bits != 0; bits &= bits - 1) {
        const auto k = order_[wd * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        const double v = x[static_cast<std::size_t>(lu.pivot_row[static_cast<std::size_t>(k)])];
        if (v != 0.0) spike->push_back({k, v});
      }
    }
  }
  // U back-substitution, column-oriented, in descending rank, producing the
  // position-indexed result. A pivot runs only when its input is nonzero
  // (an input the scatter touches is marked as it goes); the rest would
  // yield zeros and scatter nothing. Results at or below kDropTol are
  // rounding noise and become zeros.
  for (std::size_t wd = todo_.size(); wd-- > 0;) {
    while (todo[wd] != 0) {
      const int bit = 63 - std::countl_zero(todo[wd]);
      todo[wd] &= ~(std::uint64_t{1} << bit);
      const auto k = static_cast<std::size_t>(order_[wd * 64 + static_cast<std::size_t>(bit)]);
      double& in = x[static_cast<std::size_t>(lu.pivot_row[k])];
      double v = in * diag_inv_[k];
      in = 0.0;
      if (std::abs(v) <= kDropTol) v = 0.0;
      const auto p = static_cast<std::size_t>(lu.pivot_pos[k]);
      y[p] = v;
      if (v == 0.0) continue;
      if (out_nz != nullptr) set_bit(out_bits_.data(), p);
      // Column p's pivots come earlier in the order: lower bits, still ahead.
      const std::int32_t e = cols_.end(p);
      for (std::int32_t s = cols_.begin(p); s < e; ++s) {
        const auto us = static_cast<std::size_t>(s);
        const auto row = static_cast<std::size_t>(cols_.idx[us]);
        x[row] -= cols_.val[us] * v;
        mark_u(row);
      }
    }
  }
  x.swap(y);
  if (out_nz != nullptr) take_pattern(x, *out_nz);
}

void SparseLuBasis::row_etas_forward(std::vector<double>& x) const {
  // Row etas, oldest first: z_t -= sum_j eta_j z_j on the row-indexed
  // vector (the mirror of btran's transposed pass). A result at or below
  // kDropTol becomes zero, as in the U pass: update() stores no spike
  // entry that small, so the solve then agrees with the factor it builds.
  for (std::size_t g = 0; g < eta_row_.size(); ++g) {
    double acc = 0.0;
    for (std::int32_t s = eta_start_[g]; s < eta_start_[g + 1]; ++s) {
      const auto us = static_cast<std::size_t>(s);
      acc += eta_ent_val_[us] * x[static_cast<std::size_t>(eta_ent_row_[us])];
    }
    if (acc == 0.0) continue;
    const auto row = static_cast<std::size_t>(eta_row_[g]);
    double v = x[row] - acc;
    if (std::abs(v) <= kDropTol) v = 0.0;
    x[row] = v;
    mark_u(row);
  }
}

void SparseLuBasis::btran(std::vector<double>& x, const std::vector<std::int32_t>* nz,
                          std::vector<std::int32_t>* out_nz) const {
  const LuData& lu = *lu_;
  std::uint64_t* const todo = todo_.data();
  // U^T forward solve on the position-indexed input, column-oriented, in
  // ascending rank. A pivot runs only when its input is nonzero (an input
  // the scatter touches is marked as it goes); the rest would yield zeros
  // and scatter nothing. Each value goes straight to its row of the result.
  std::vector<double>& y = solve_scratch_;
  if (nz == nullptr) {
    gather_nonzeros(x, dense_nz_);
    nz = &dense_nz_;
  }
  mark_nonzeros(x, *nz, pos_rank_, todo);
  for (std::size_t wd = 0; wd < todo_.size(); ++wd) {
    while (todo[wd] != 0) {
      const int bit = std::countr_zero(todo[wd]);
      todo[wd] &= todo[wd] - 1;
      const auto k = static_cast<std::size_t>(order_[wd * 64 + static_cast<std::size_t>(bit)]);
      double& in = x[static_cast<std::size_t>(lu.pivot_pos[k])];
      double t = in * diag_inv_[k];
      in = 0.0;
      if (std::abs(t) <= kDropTol) t = 0.0;
      y[static_cast<std::size_t>(lu.pivot_row[k])] = t;
      if (t == 0.0) continue;
      if (out_nz != nullptr) set_bit(out_bits_.data(), static_cast<std::size_t>(lu.pivot_row[k]));
      const std::int32_t e = rows_.end(k);
      for (std::int32_t s = rows_.begin(k); s < e; ++s) {
        const auto us = static_cast<std::size_t>(s);
        const auto p = static_cast<std::size_t>(rows_.idx[us]);
        x[p] -= rows_.val[us] * t;
        // The position's pivot comes later in the order: a higher bit, still ahead.
        set_bit(todo, static_cast<std::size_t>(pos_rank_[p]));
      }
    }
  }
  // Row etas transposed, newest first: z_j -= eta_j z_t.
  for (std::size_t g = eta_row_.size(); g-- > 0;) {
    const double zt = y[static_cast<std::size_t>(eta_row_[g])];
    if (zt == 0.0) continue;
    for (std::int32_t s = eta_start_[g]; s < eta_start_[g + 1]; ++s) {
      const auto us = static_cast<std::size_t>(s);
      const auto row = static_cast<std::size_t>(eta_ent_row_[us]);
      y[row] -= eta_ent_val_[us] * zt;
      if (out_nz != nullptr) set_bit(out_bits_.data(), row);
    }
  }
  // L^T backward solve over the non-empty L columns, producing the
  // row-indexed result. Step kk reads only rows of later pivots, which are
  // final by then, so skipping the empty steps is exact.
  for (auto it = lu.l_steps.rbegin(); it != lu.l_steps.rend(); ++it) {
    const std::size_t kk = static_cast<std::size_t>(*it);
    double& out = y[static_cast<std::size_t>(lu.pivot_row[kk])];
    double v = out;
    const std::int32_t e = lu.l_start[kk + 1];
    for (std::int32_t s = lu.l_start[kk]; s < e; ++s) {
      const ColEntry& en = lu.l_ent[static_cast<std::size_t>(s)];
      v -= en.val * y[static_cast<std::size_t>(en.row)];
    }
    out = v;
    if (out_nz != nullptr) set_bit(out_bits_.data(), static_cast<std::size_t>(lu.pivot_row[kk]));
  }
  x.swap(y);
  if (out_nz != nullptr) take_pattern(x, *out_nz);
}

}  // namespace

void gather_nonzeros(const std::vector<double>& v, std::vector<std::int32_t>& nz) {
  constexpr std::size_t kBlock = 8;
  const std::size_t size = v.size();
  nz.resize(size);
  std::size_t n = 0;
  auto gather = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      nz[n] = static_cast<std::int32_t>(i);
      n += v[i] != 0.0 ? 1 : 0;
    }
  };
  std::size_t i0 = 0;
  for (; i0 + kBlock <= size; i0 += kBlock) {
    // One test per block: the OR of the bit patterns, shifted past the sign
    // so that -0 counts as zero.
    std::uint64_t bits = 0;
    for (std::size_t i = i0; i < i0 + kBlock; ++i) bits |= std::bit_cast<std::uint64_t>(v[i]) << 1;
    if (bits != 0) gather(i0, i0 + kBlock);
  }
  gather(i0, size);
  nz.resize(n);
}

std::unique_ptr<BasisRep> make_basis_rep(BasisKernel kernel, std::size_t m,
                                         double markowitz_tol) {
  if (kernel == BasisKernel::Dense) return std::make_unique<DenseBasis>(m);
  return std::make_unique<SparseLuBasis>(m, markowitz_tol);
}

}  // namespace archex::milp

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

  void btran(std::vector<double>& x,
             const std::vector<std::int32_t>* /*nz*/) const override {
    std::vector<double>& y = scratch_;
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double ci = x[i];
      if (ci == 0.0) continue;
      const double* row = binv_.data() + i * m_;
      for (std::size_t j = 0; j < m_; ++j) y[j] += ci * row[j];
    }
    std::copy(y.begin(), y.end(), x.begin());
  }

  void update(const std::vector<double>& w, std::size_t r,
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
  }

  [[nodiscard]] bool fill_heavy() const override { return false; }
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

/// x := E_k^-1 ... E_1^-1 x over one eta chunk, oldest eta first.
void eta_ftran(const EtaFile& f, std::vector<double>& x) {
  for (int k = 0; k < f.count(); ++k) {
    const std::size_t r = static_cast<std::size_t>(f.pos[static_cast<std::size_t>(k)]);
    const double t = x[r] * f.inv_pivot[static_cast<std::size_t>(k)];
    x[r] = t;
    if (t == 0.0) continue;
    const std::int32_t b = f.start[static_cast<std::size_t>(k)];
    const std::int32_t e = f.start[static_cast<std::size_t>(k) + 1];
    for (std::int32_t s = b; s < e; ++s) {
      const auto es = static_cast<std::size_t>(s);
      x[static_cast<std::size_t>(f.ent_pos[es])] -= f.ent_val[es] * t;
    }
  }
}

/// x := E_1^-T ... E_k^-T x over one eta chunk, newest eta first; `count`
/// limits it to the chunk's oldest etas.
void eta_btran(const EtaFile& f, std::vector<double>& x, int count) {
  for (int k = count; k-- > 0;) {
    const std::size_t r = static_cast<std::size_t>(f.pos[static_cast<std::size_t>(k)]);
    double s = x[r];
    const std::int32_t b = f.start[static_cast<std::size_t>(k)];
    const std::int32_t e = f.start[static_cast<std::size_t>(k) + 1];
    for (std::int32_t t = b; t < e; ++t) {
      const auto et = static_cast<std::size_t>(t);
      s -= f.ent_val[et] * x[static_cast<std::size_t>(f.ent_pos[et])];
    }
    x[r] = s * f.inv_pivot[static_cast<std::size_t>(k)];
  }
}

void set_bit(std::uint64_t* bits, std::size_t k) {
  bits[k >> 6] |= std::uint64_t{1} << (k & 63);
}

/// Sets bit to_pivot[i] in `todo` for every listed i with x[i] != 0.
void mark_nonzeros(const std::vector<double>& x, const std::vector<std::int32_t>& idx,
                   const std::vector<std::int32_t>& to_pivot, std::uint64_t* todo) {
  for (const std::int32_t i : idx) {
    if (x[static_cast<std::size_t>(i)] != 0.0) {
      set_bit(todo, static_cast<std::size_t>(to_pivot[static_cast<std::size_t>(i)]));
    }
  }
}

class SparseLuBasis final : public BasisRep {
 public:
  SparseLuBasis(std::size_t m, double markowitz_tol, double eta_fill_factor)
      : m_(m),
        markowitz_tol_(markowitz_tol),
        eta_fill_factor_(eta_fill_factor),
        lu_(std::make_shared<const LuData>()),
        solve_scratch_(m, 0.0),
        todo_((m + 63) / 64, 0),
        eta_head_(m, -1) {}

  bool factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                 const std::vector<std::int32_t>& basic) override;
  void ftran(std::vector<double>& x, const std::vector<std::int32_t>* nz) const override;
  void btran(std::vector<double>& x, const std::vector<std::int32_t>* nz) const override;

  void update(const std::vector<double>& w, std::size_t r,
              const std::vector<std::int32_t>& wnz) override {
    etas_.pos.push_back(static_cast<std::int32_t>(r));
    etas_.inv_pivot.push_back(1.0 / w[r]);
    for (const std::int32_t i : wnz) {
      if (static_cast<std::size_t>(i) != r) {
        etas_.ent_pos.push_back(i);
        etas_.ent_val.push_back(w[static_cast<std::size_t>(i)]);
      }
    }
    etas_.start.push_back(static_cast<std::int32_t>(etas_.ent_pos.size()));
    index_eta(etas_, etas_.count() - 1);
  }

  [[nodiscard]] bool fill_heavy() const override {
    // Refactorize early once the eta file dwarfs the factors themselves:
    // each eta is applied to every subsequent ftran/btran, so past this
    // point replaying updates costs more than a fresh factorization.
    return (head_ != nullptr || etas_.count() > 0) &&
           static_cast<double>(frozen_nnz_ + etas_.nnz()) >
               eta_fill_factor_ * static_cast<double>(lu_->nnz());
  }

  [[nodiscard]] std::shared_ptr<const FactorState> snapshot() const override {
    // Freeze the tail into a chunk: the snapshot and the live kernel then
    // share the same immutable prefix instead of holding two copies of it.
    if (etas_.count() > 0) {
      auto c = std::make_shared<EtaChunk>();
      c->etas = etas_;
      for (std::size_t g = eta_file_.size() - static_cast<std::size_t>(etas_.count());
           g < eta_file_.size(); ++g) {
        eta_file_[g] = &c->etas;
      }
      c->prev = head_;
      c->total = (head_ ? head_->total : 0) + etas_.count();
      frozen_.push_back(c.get());
      frozen_nnz_ += etas_.nnz();
      head_ = std::move(c);
      etas_.clear();
    }
    auto s = std::make_shared<FactorState>();
    s->lu = lu_;
    s->etas = head_;
    return s;
  }

  bool adopt(const std::shared_ptr<const FactorState>& state) override {
    if (state == nullptr || state->lu == nullptr || state->lu->m != m_) {
      return false;
    }
    lu_ = state->lu;
    head_ = state->etas;
    frozen_.clear();
    frozen_nnz_ = 0;
    for (const EtaChunk* c = head_.get(); c != nullptr; c = c->prev.get()) {
      frozen_.push_back(c);
      frozen_nnz_ += c->etas.nnz();
    }
    std::reverse(frozen_.begin(), frozen_.end());
    etas_.clear();
    clear_eta_index();
    for (const EtaChunk* c : frozen_) {
      for (int k = 0; k < c->etas.count(); ++k) index_eta(c->etas, k);
    }
    return true;
  }

  [[nodiscard]] const char* name() const override { return "sparse-lu"; }

 private:
  std::size_t m_;
  double markowitz_tol_;
  double eta_fill_factor_;
  std::shared_ptr<const LuData> lu_;
  // The eta file: the chunk chain ending at `head_` (shared with
  // snapshots; `frozen_` lists it oldest first), then the live tail.
  // snapshot() moves the tail into a chunk — the represented file does not
  // change, so it stays a const operation.
  mutable std::shared_ptr<const EtaChunk> head_;
  mutable std::vector<const EtaChunk*> frozen_;
  mutable std::size_t frozen_nnz_ = 0;
  mutable EtaFile etas_;

  /// U-solve / L^T-solve output, all zero (+-0) between solves: each
  /// triangular pass zeroes the input entries it consumes, then the solve
  /// swaps this buffer with the caller's vector.
  mutable std::vector<double> solve_scratch_;
  /// Bitset over pivots: the triangular steps left to run in the current
  /// solve. All zero between solves (each pass clears a bit as it runs it).
  mutable std::vector<std::uint64_t> todo_;
  mutable std::vector<std::int32_t> dense_nz_;  ///< pattern of a solve's dense input

  // Transposed view of the whole eta file, so a btran of a sparse input
  // runs only the etas that can see a nonzero. Eta g (numbered oldest first
  // across chunks and tail) is entry eta_local_[g] of *eta_file_[g]. The
  // etas that pivot at position p or read it form a list, newest first:
  // eta_head_[p] is its first node (-1: none) in the pooled eta_node_.
  struct EtaNode {
    std::int32_t eta;
    std::int32_t next;
  };
  mutable std::vector<const EtaFile*> eta_file_;
  std::vector<std::int32_t> eta_local_;
  std::vector<std::int32_t> eta_head_;
  std::vector<EtaNode> eta_node_;
  mutable std::vector<std::uint64_t> eta_todo_;    ///< etas left to run; zero between solves
  mutable std::vector<std::int32_t> eta_written_;  ///< positions the sparse pass wrote

  void index_eta(const EtaFile& f, int k) {
    const auto g = static_cast<std::int32_t>(eta_file_.size());
    eta_file_.push_back(&f);
    eta_local_.push_back(k);
    auto link = [&](std::int32_t p) {
      std::int32_t& head = eta_head_[static_cast<std::size_t>(p)];
      eta_node_.push_back({g, head});
      head = static_cast<std::int32_t>(eta_node_.size() - 1);
    };
    const auto kk = static_cast<std::size_t>(k);
    link(f.pos[kk]);
    for (std::int32_t t = f.start[kk]; t < f.start[kk + 1]; ++t) {
      link(f.ent_pos[static_cast<std::size_t>(t)]);
    }
  }
  void clear_eta_index() {
    eta_file_.clear();
    eta_local_.clear();
    std::fill(eta_head_.begin(), eta_head_.end(), -1);
    eta_node_.clear();
  }
  void eta_btran_sparse(std::vector<double>& x, const std::vector<std::int32_t>& nz) const;
  void eta_btran_through(std::vector<double>& x, std::size_t g) const;

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
  frozen_nnz_ = 0;
  etas_.clear();
  clear_eta_index();
  auto lu = std::make_shared<LuData>();
  lu->m = m_;
  if (m_ == 0) {
    lu_ = std::move(lu);
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

  // Inverse permutations, then the reverse U index: bucket every U entry's
  // row k under the pivot that writes the entry's position (counting sort).
  const std::vector<std::int32_t>& pos_pivot = lu->pos_pivot;
  lu->row_pivot.resize(m_);
  lu->pos_pivot.resize(m_);
  for (std::size_t k = 0; k < m_; ++k) {
    lu->row_pivot[static_cast<std::size_t>(lu->pivot_row[k])] = static_cast<std::int32_t>(k);
    lu->pos_pivot[static_cast<std::size_t>(lu->pivot_pos[k])] = static_cast<std::int32_t>(k);
  }
  lu->ut_start.assign(m_ + 1, 0);
  for (const std::int32_t p : lu->u_pos) {
    ++lu->ut_start[static_cast<std::size_t>(pos_pivot[static_cast<std::size_t>(p)]) + 1];
  }
  for (std::size_t s = 0; s < m_; ++s) lu->ut_start[s + 1] += lu->ut_start[s];
  lu->ut_row.resize(lu->u_pos.size());
  std::vector<std::int32_t> cursor(lu->ut_start.begin(), lu->ut_start.end() - 1);
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::int32_t t = lu->u_start[k]; t < lu->u_start[k + 1]; ++t) {
      const std::size_t s = static_cast<std::size_t>(
          pos_pivot[static_cast<std::size_t>(lu->u_pos[static_cast<std::size_t>(t)])]);
      lu->ut_row[static_cast<std::size_t>(cursor[s]++)] = static_cast<std::int32_t>(k);
    }
  }

  lu_ = std::move(lu);
  return true;
}

void SparseLuBasis::ftran(std::vector<double>& x, const std::vector<std::int32_t>* nz) const {
  const LuData& lu = *lu_;
  std::uint64_t* const todo = todo_.data();
  // L pass, in pivot order, on the row-indexed input. Steps with an empty L
  // column change nothing, so only `l_steps` are walked. Rows the pass
  // writes are marked for the U pass: they are outside the caller's `nz`.
  for (const std::int32_t k32 : lu.l_steps) {
    const std::size_t k = static_cast<std::size_t>(k32);
    const double xk = x[static_cast<std::size_t>(lu.pivot_row[k])];
    if (xk == 0.0) continue;
    const std::int32_t b = lu.l_start[k];
    const std::int32_t e = lu.l_start[k + 1];
    for (std::int32_t t = b; t < e; ++t) {
      const ColEntry& en = lu.l_ent[static_cast<std::size_t>(t)];
      x[static_cast<std::size_t>(en.row)] -= en.val * xk;
      set_bit(todo, static_cast<std::size_t>(lu.row_pivot[static_cast<std::size_t>(en.row)]));
    }
  }
  // U back-substitution, row-oriented, producing the position-indexed
  // result. A row runs only when its input is nonzero or the reverse index
  // marks it as reading a nonzero result; any other row would compute a
  // zero from zeros. Rows run in descending pivot order, highest bit first.
  std::vector<double>& y = solve_scratch_;
  if (nz == nullptr) {
    gather_nonzeros(x, dense_nz_);
    nz = &dense_nz_;
  }
  mark_nonzeros(x, *nz, lu.row_pivot, todo);
  for (std::size_t wd = todo_.size(); wd-- > 0;) {
    while (todo[wd] != 0) {
      const int bit = 63 - std::countl_zero(todo[wd]);
      todo[wd] &= ~(std::uint64_t{1} << bit);
      const std::size_t kk = wd * 64 + static_cast<std::size_t>(bit);
      double& in = x[static_cast<std::size_t>(lu.pivot_row[kk])];
      double t = in;
      in = 0.0;
      const std::int32_t b = lu.u_start[kk];
      const std::int32_t e = lu.u_start[kk + 1];
      for (std::int32_t s = b; s < e; ++s) {
        const auto us = static_cast<std::size_t>(s);
        t -= lu.u_val[us] * y[static_cast<std::size_t>(lu.u_pos[us])];
      }
      const double v = t * lu.u_diag_inv[kk];
      y[static_cast<std::size_t>(lu.pivot_pos[kk])] = v;
      if (v == 0.0) continue;
      // Readers of this result are earlier pivots: lower bits, still ahead.
      for (std::int32_t s = lu.ut_start[kk]; s < lu.ut_start[kk + 1]; ++s) {
        set_bit(todo, static_cast<std::size_t>(lu.ut_row[static_cast<std::size_t>(s)]));
      }
    }
  }
  x.swap(y);
  // Eta replay, oldest first: x := E_k^-1 ... E_1^-1 x.
  for (const EtaChunk* c : frozen_) eta_ftran(c->etas, x);
  eta_ftran(etas_, x);
}

void SparseLuBasis::eta_btran_sparse(std::vector<double>& x,
                                     const std::vector<std::int32_t>& nz) const {
  // Same steps as eta_btran over the chain, newest first, but an eta runs
  // only once a position it pivots at or reads holds a nonzero; any other
  // eta would rewrite a zero with a zero. Etas run highest bit first, and a
  // position a run turns nonzero marks the older etas touching it. Once
  // more than half of the older etas are marked anyway, plain replay of
  // all of them is cheaper than chasing marks.
  eta_written_.clear();
  eta_todo_.resize((eta_file_.size() + 63) / 64, 0);
  std::uint64_t* const run = eta_todo_.data();
  std::size_t pending = 0;  // marked etas not yet run
  auto touch = [&](std::size_t p, std::int32_t below) {
    for (std::int32_t n = eta_head_[p]; n >= 0;) {
      const EtaNode& node = eta_node_[static_cast<std::size_t>(n)];
      const auto g = static_cast<std::size_t>(node.eta);
      const std::uint64_t bit = std::uint64_t{1} << (g & 63);
      if (node.eta < below && (run[g >> 6] & bit) == 0) {
        run[g >> 6] |= bit;
        ++pending;
      }
      n = node.next;
    }
  };
  // Runs eta g; true when it turned its position from zero to nonzero.
  auto run_eta = [&](std::size_t g) {
    const EtaFile& f = *eta_file_[g];
    const auto k = static_cast<std::size_t>(eta_local_[g]);
    const auto r = static_cast<std::size_t>(f.pos[k]);
    const bool was_zero = x[r] == 0.0;
    double s = x[r];
    for (std::int32_t t = f.start[k]; t < f.start[k + 1]; ++t) {
      const auto et = static_cast<std::size_t>(t);
      s -= f.ent_val[et] * x[static_cast<std::size_t>(f.ent_pos[et])];
    }
    x[r] = s * f.inv_pivot[k];
    eta_written_.push_back(f.pos[k]);
    return was_zero && x[r] != 0.0;
  };
  for (const std::int32_t i : nz) {
    if (x[static_cast<std::size_t>(i)] != 0.0) {
      touch(static_cast<std::size_t>(i), static_cast<std::int32_t>(eta_file_.size()));
    }
  }
  for (std::size_t wd = eta_todo_.size(); wd-- > 0;) {
    while (run[wd] != 0) {
      const int bit = 63 - std::countl_zero(run[wd]);
      run[wd] &= ~(std::uint64_t{1} << bit);
      --pending;
      const std::size_t g = wd * 64 + static_cast<std::size_t>(bit);
      if (2 * pending > g) {
        std::fill(run, run + wd + 1, std::uint64_t{0});
        eta_btran_through(x, g);
        return;
      }
      if (run_eta(g)) touch(static_cast<std::size_t>(eta_written_.back()), static_cast<std::int32_t>(g));
    }
  }
}

void SparseLuBasis::eta_btran_through(std::vector<double>& x, std::size_t g) const {
  // Plain replay of etas g .. 0, newest first: the rest of g's chunk, then
  // the older chunks.
  const EtaFile* f = eta_file_[g];
  eta_btran(*f, x, eta_local_[g] + 1);
  eta_written_.insert(eta_written_.end(), f->pos.begin(), f->pos.begin() + eta_local_[g] + 1);
  auto c = frozen_.rbegin();
  if (f != &etas_) {
    while (&(*c)->etas != f) ++c;
    ++c;
  }
  for (; c != frozen_.rend(); ++c) {
    eta_btran((*c)->etas, x, (*c)->etas.count());
    eta_written_.insert(eta_written_.end(), (*c)->etas.pos.begin(), (*c)->etas.pos.end());
  }
}

void SparseLuBasis::btran(std::vector<double>& x, const std::vector<std::int32_t>* nz) const {
  const LuData& lu = *lu_;
  std::uint64_t* const todo = todo_.data();
  // Eta transposes, newest first: x := E_1^-T ... E_k^-T x.
  if (nz != nullptr) {
    eta_btran_sparse(x, *nz);
    // The etas wrote only the positions they ran at: those and `nz` cover x.
    mark_nonzeros(x, eta_written_, lu.pos_pivot, todo);
  } else if (!eta_file_.empty()) {
    eta_written_.clear();
    eta_btran_through(x, eta_file_.size() - 1);
  }
  // U^T forward solve on the position-indexed input, column-oriented. A
  // pivot runs only when its input is nonzero (an input the scatter touches
  // is marked as it goes); the rest would yield zeros and scatter nothing.
  // Pivots run in ascending order, lowest bit first. Each value goes
  // straight to its row of the result: that is where the L^T pass starts.
  std::vector<double>& y = solve_scratch_;
  if (nz == nullptr) {
    gather_nonzeros(x, dense_nz_);
    nz = &dense_nz_;
  }
  mark_nonzeros(x, *nz, lu.pos_pivot, todo);
  for (std::size_t wd = 0; wd < todo_.size(); ++wd) {
    while (todo[wd] != 0) {
      const int bit = std::countr_zero(todo[wd]);
      todo[wd] &= todo[wd] - 1;
      const std::size_t k = wd * 64 + static_cast<std::size_t>(bit);
      double& in = x[static_cast<std::size_t>(lu.pivot_pos[k])];
      const double t = in * lu.u_diag_inv[k];
      in = 0.0;
      y[static_cast<std::size_t>(lu.pivot_row[k])] = t;
      if (t == 0.0) continue;
      const std::int32_t b = lu.u_start[k];
      const std::int32_t e = lu.u_start[k + 1];
      for (std::int32_t s = b; s < e; ++s) {
        const auto us = static_cast<std::size_t>(s);
        const auto p = static_cast<std::size_t>(lu.u_pos[us]);
        x[p] -= lu.u_val[us] * t;
        // The position's pivot is a later one: a higher bit, still ahead.
        set_bit(todo, static_cast<std::size_t>(lu.pos_pivot[p]));
      }
    }
  }
  // L^T backward solve over the non-empty L columns, producing the
  // row-indexed result. Step kk reads only rows of later pivots, which are
  // final by then, so skipping the empty steps is exact.
  for (auto it = lu.l_steps.rbegin(); it != lu.l_steps.rend(); ++it) {
    const std::size_t kk = static_cast<std::size_t>(*it);
    double& out = y[static_cast<std::size_t>(lu.pivot_row[kk])];
    double v = out;
    const std::int32_t b = lu.l_start[kk];
    const std::int32_t e = lu.l_start[kk + 1];
    for (std::int32_t s = b; s < e; ++s) {
      const ColEntry& en = lu.l_ent[static_cast<std::size_t>(s)];
      v -= en.val * y[static_cast<std::size_t>(en.row)];
    }
    out = v;
  }
  x.swap(y);
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
                                         double markowitz_tol,
                                         double eta_fill_factor) {
  if (kernel == BasisKernel::Dense) return std::make_unique<DenseBasis>(m);
  return std::make_unique<SparseLuBasis>(m, markowitz_tol, eta_fill_factor);
}

}  // namespace archex::milp

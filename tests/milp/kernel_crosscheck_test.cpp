/// \file kernel_crosscheck_test.cpp
/// Dense-vs-sparse basis kernel cross-checks. The dense explicit inverse is
/// the oracle: both kernels must agree on status, optimal objective and the
/// independent certifier's verdict over randomized bounded-variable LPs
/// (including degenerate and near-singular bases), the Forrest–Tomlin
/// kernel's solves must stay within 1e-9 of it across hundreds of updates,
/// and the update-log basis transplant must reproduce what a fresh
/// refactorization computes. The sparse kernel's solves must also match, bit
/// for bit, the plain dense-loop solve over the same factors and update log.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "check/certify.hpp"
#include "domains/epn.hpp"
#include "milp/pricing.hpp"
#include "milp/simplex.hpp"

namespace {

using namespace archex::milp;

/// Random bounded-variable LP with mixed senses, negative lower bounds,
/// fixed columns and one-sided (infinite-bound) columns. Every generated
/// instance is feasible at x = 0 for its LE/GE rows; EQ rows use rhs 0 so
/// the origin stays feasible and phase 1 is still exercised via GE rows.
Model random_bounded_lp(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(-2.0, 3.0);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int> col(0, n - 1);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < n; ++j) {
    switch (kind(rng)) {
      case 0: v.push_back(m.add_continuous(-5.0, 5.0)); break;
      case 1: v.push_back(m.add_continuous(2.0, 2.0)); break;  // fixed
      case 2: v.push_back(m.add_continuous(0.0, kInf)); break;
      default: v.push_back(m.add_continuous(0.0, 10.0)); break;
    }
  }
  for (int i = 0; i < n; ++i) {
    LinExpr e;
    for (int k = 0; k < 4; ++k) e += coef(rng) * v[static_cast<std::size_t>(col(rng))];
    switch (i % 3) {
      case 0: m.add_constraint(std::move(e), Sense::LE, 8.0 + i); break;
      case 1: m.add_constraint(std::move(e), Sense::GE, -12.0 - i); break;
      default: m.add_constraint(std::move(e), Sense::EQ, 0.0); break;
    }
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) {
    // Columns unbounded above get a positive cost so minimization stays
    // bounded; the rest mix signs freely.
    const bool one_sided = m.vars()[static_cast<std::size_t>(j)].ub >= kInf;
    obj += (one_sided ? std::abs(coef(rng)) + 0.1 : coef(rng)) * v[static_cast<std::size_t>(j)];
  }
  m.set_objective(obj);
  return m;
}

SimplexOptions kernel_opts(BasisKernel k) {
  SimplexOptions o;
  o.kernel = k;
  return o;
}

/// Solve with both kernels and require identical verdicts: same status, and
/// on Optimal the same objective plus matching certify_lp verdicts.
void expect_kernels_agree(const Model& m, const char* what) {
  SimplexSolver sparse(m, kernel_opts(BasisKernel::SparseLu));
  SimplexSolver dense(m, kernel_opts(BasisKernel::Dense));
  const SolveStatus st_sparse = sparse.solve_primal();
  const SolveStatus st_dense = dense.solve_primal();
  EXPECT_EQ(st_sparse, st_dense) << what;
  if (st_sparse != SolveStatus::Optimal || st_dense != SolveStatus::Optimal) return;

  const double rel = 1e-6 * (1.0 + std::abs(dense.objective_value()));
  EXPECT_NEAR(sparse.objective_value(), dense.objective_value(), rel) << what;

  const auto cert_sparse =
      archex::check::certify_lp(m, sparse.primal_solution(), sparse.objective_value(),
                                sparse.dual_values(), sparse.reduced_costs());
  const auto cert_dense =
      archex::check::certify_lp(m, dense.primal_solution(), dense.objective_value(),
                                dense.dual_values(), dense.reduced_costs());
  EXPECT_EQ(cert_sparse.ok(), cert_dense.ok()) << what << "\nsparse: "
      << cert_sparse.summary() << "\ndense: " << cert_dense.summary();
  EXPECT_TRUE(cert_sparse.ok()) << what << "\n" << cert_sparse.summary();
}

TEST(KernelCrossCheck, RandomBoundedLpsAgree) {
  for (unsigned seed = 0; seed < 20; ++seed) {
    expect_kernels_agree(random_bounded_lp(18, seed),
                         ("seed " + std::to_string(seed)).c_str());
  }
}

/// Duplicated rows and symmetric costs: massive dual degeneracy, the
/// pivot-tie regime where kernels are most likely to diverge numerically.
Model degenerate_lp(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(0.5, 2.0);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < 10; ++j) v.push_back(m.add_continuous(0.0, 1.0));
  for (int i = 0; i < 5; ++i) {
    LinExpr e;
    for (int j = 0; j < 10; ++j) e += coef(rng) * v[static_cast<std::size_t>(j)];
    const double rhs = 4.0;
    LinExpr e2 = e;
    m.add_constraint(std::move(e), Sense::LE, rhs);
    m.add_constraint(std::move(e2), Sense::LE, rhs);  // exact duplicate row
  }
  LinExpr obj;
  for (int j = 0; j < 10; ++j) obj += -1.0 * v[static_cast<std::size_t>(j)];
  m.set_objective(obj);
  return m;
}

/// Rows that are near scalar multiples of each other: the basis matrix can
/// come within an eyelash of singular, stressing threshold pivoting.
Model near_singular_lp(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(0.5, 2.0);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < 8; ++j) v.push_back(m.add_continuous(0.0, 10.0));
  for (int i = 0; i < 4; ++i) {
    LinExpr a, b;
    for (int j = 0; j < 8; ++j) {
      const double c = coef(rng);
      a += c * v[static_cast<std::size_t>(j)];
      b += c * (1.0 + 1e-9) * v[static_cast<std::size_t>(j)];
    }
    m.add_constraint(std::move(a), Sense::LE, 20.0);
    m.add_constraint(std::move(b), Sense::GE, 1.0);
  }
  LinExpr obj;
  for (int j = 0; j < 8; ++j) obj += (j % 2 == 0 ? 1.0 : -1.0) * v[static_cast<std::size_t>(j)];
  m.set_objective(obj);
  return m;
}

TEST(KernelCrossCheck, DegenerateBasesAgree) {
  for (unsigned seed = 100; seed < 110; ++seed) {
    expect_kernels_agree(degenerate_lp(seed), ("degenerate seed " + std::to_string(seed)).c_str());
  }
}

TEST(KernelCrossCheck, NearSingularBasesAgree) {
  for (unsigned seed = 200; seed < 208; ++seed) {
    expect_kernels_agree(near_singular_lp(seed),
                         ("near-singular seed " + std::to_string(seed)).c_str());
  }
}

TEST(KernelCrossCheck, EtaReplayMatchesRefactorization) {
  const Model m = random_bounded_lp(16, 7);
  SimplexSolver donor(m, kernel_opts(BasisKernel::SparseLu));
  ASSERT_EQ(donor.solve_primal(), SolveStatus::Optimal);
  // Accumulate updates past the initial factorization before exporting.
  donor.set_bounds(0, 0.0, 4.0);
  ASSERT_EQ(donor.reoptimize_dual(), SolveStatus::Optimal);
  const Basis basis = donor.export_basis();
  ASSERT_NE(basis.factor, nullptr) << "sparse kernel must ship its factorization";

  // Transplant via update-log replay: no refactorization may be charged.
  SimplexSolver replay(m, kernel_opts(BasisKernel::SparseLu));
  replay.set_bounds(0, 0.0, 4.0);
  ASSERT_TRUE(replay.load_basis(basis));
  EXPECT_EQ(replay.reopt_stats().transplants, 1);
  EXPECT_EQ(replay.reopt_stats().refactors, 0)
      << "transplant must cost a log replay, not a refactorization";

  // Same basis through the fresh-refactorization path (snapshot stripped).
  Basis stripped = basis;
  stripped.factor = nullptr;
  SimplexSolver refact(m, kernel_opts(BasisKernel::SparseLu));
  refact.set_bounds(0, 0.0, 4.0);
  ASSERT_TRUE(refact.load_basis(stripped));
  EXPECT_EQ(refact.reopt_stats().transplants, 0);
  EXPECT_GE(refact.reopt_stats().refactors, 1);

  // Both must land on the donor's optimum after a bound tightening.
  donor.set_bounds(1, 0.0, 3.0);
  replay.set_bounds(1, 0.0, 3.0);
  refact.set_bounds(1, 0.0, 3.0);
  ASSERT_EQ(donor.reoptimize_dual(), SolveStatus::Optimal);
  ASSERT_EQ(replay.reoptimize_dual(), SolveStatus::Optimal);
  ASSERT_EQ(refact.reoptimize_dual(), SolveStatus::Optimal);
  // The replayed transplant continues the donor's exact arithmetic: same
  // factors, same update log, same nonbasic resting points.
  EXPECT_DOUBLE_EQ(replay.objective_value(), donor.objective_value());
  const double rel = 1e-8 * (1.0 + std::abs(donor.objective_value()));
  EXPECT_NEAR(refact.objective_value(), donor.objective_value(), rel);
}

TEST(KernelCrossCheck, SnapshotSurvivesDonorMutation) {
  // The snapshot must be immutable: the donor pivoting on (refactorizing,
  // growing its update log) cannot corrupt an already-exported basis.
  const Model m = random_bounded_lp(16, 7);
  SimplexSolver donor(m, kernel_opts(BasisKernel::SparseLu));
  ASSERT_EQ(donor.solve_primal(), SolveStatus::Optimal);
  const Basis basis = donor.export_basis();
  const double exported_obj = donor.objective_value();

  // Mutate the donor's kernel state thoroughly after the export: pivot,
  // refactorize, accumulate and discard updates. The tightened rounds need not
  // stay feasible — any churn serves — but the original bounds are restored
  // before the final comparison.
  for (int round = 0; round < 4; ++round) {
    const double lb = m.vars()[static_cast<std::size_t>(round)].lb;
    const double ub = m.vars()[static_cast<std::size_t>(round)].ub;
    donor.set_bounds(round, lb, lb + 0.5 * std::min(1.0, ub - lb));
    (void)donor.reoptimize_dual();
    donor.set_bounds(round, lb, ub);
    (void)donor.reoptimize_dual();
  }

  SimplexSolver thief(m, kernel_opts(BasisKernel::SparseLu));
  ASSERT_TRUE(thief.load_basis(basis));
  ASSERT_EQ(thief.reoptimize_dual(), SolveStatus::Optimal);
  const double rel = 1e-8 * (1.0 + std::abs(exported_obj));
  EXPECT_NEAR(thief.objective_value(), exported_obj, rel);
}

TEST(KernelCrossCheck, DenseKernelShipsNoSnapshotAndStillLoads) {
  const Model m = random_bounded_lp(12, 3);
  SimplexSolver a(m, kernel_opts(BasisKernel::Dense));
  ASSERT_EQ(a.solve_primal(), SolveStatus::Optimal);
  const Basis basis = a.export_basis();
  EXPECT_EQ(basis.factor, nullptr);
  SimplexSolver b(m, kernel_opts(BasisKernel::Dense));
  ASSERT_TRUE(b.load_basis(basis));  // refactorization fallback
  EXPECT_EQ(b.reopt_stats().transplants, 0);
  ASSERT_EQ(b.reoptimize_dual(), SolveStatus::Optimal);
  const double rel = 1e-8 * (1.0 + std::abs(a.objective_value()));
  EXPECT_NEAR(b.objective_value(), a.objective_value(), rel);
}

// --- The Forrest–Tomlin kernel against its references ------------------------

/// The solver's column layout [A | I_slack | diag(art_sign)] in compressed
/// form, rows ascending within a column (as SimplexSolver builds it).
struct Columns {
  std::vector<std::int32_t> start;
  std::vector<ColEntry> ent;
  [[nodiscard]] std::size_t count() const { return start.size() - 1; }
};

Columns columns_of(const Model& m, const std::vector<std::int8_t>& art_sign) {
  const std::size_t n = m.num_vars();
  const std::size_t rows = m.num_constraints();
  std::vector<std::vector<ColEntry>> cols(n + 2 * rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto r = static_cast<std::int32_t>(i);
    for (const Term& t : m.constraint(i).expr.terms()) {
      cols[static_cast<std::size_t>(t.var.index)].push_back({r, t.coef});
    }
    cols[n + i].push_back({r, 1.0});
    cols[n + rows + i].push_back({r, static_cast<double>(art_sign[i])});
  }
  Columns c;
  c.start.push_back(0);
  for (const auto& col : cols) {
    c.ent.insert(c.ent.end(), col.begin(), col.end());
    c.start.push_back(static_cast<std::int32_t>(c.ent.size()));
  }
  return c;
}

/// Column j of the basis layout as a dense row-indexed vector.
std::vector<double> dense_column(const Columns& cols, std::size_t m, std::size_t j) {
  std::vector<double> a(m, 0.0);
  for (std::int32_t t = cols.start[j]; t < cols.start[j + 1]; ++t) {
    const ColEntry& e = cols.ent[static_cast<std::size_t>(t)];
    a[static_cast<std::size_t>(e.row)] += e.val;
  }
  return a;
}

/// The plain every-step solves over a snapshot: the LU of FactorState plus
/// its update log, replayed into dense-loop form. It mirrors the kernel's
/// documented arithmetic (milp/basis_lu.hpp UpdateLog, basis_lu.cpp): the
/// row etas oldest first in ftran and newest first in btran, the
/// column-oriented U pass and the row-oriented U^T pass in rank order, and
/// ftran row-eta and U-pass results at or below 1e-14 dropped to zero.
class ReferenceSolves {
 public:
  explicit ReferenceSolves(const FactorState& st) : lu_(*st.lu), m_(st.lu->m) {
    rows_.resize(m_);
    for (std::size_t k = 0; k < m_; ++k) {
      for (std::int32_t t = lu_.u_start[k]; t < lu_.u_start[k + 1]; ++t) {
        const auto ut = static_cast<std::size_t>(t);
        rows_[k].push_back({lu_.u_pos[ut], lu_.u_val[ut]});
      }
      order_.push_back(k);
    }
    diag_inv_ = lu_.u_diag_inv;
    std::vector<const UpdateLog*> chain;
    for (const UpdateChunk* c = st.updates.get(); c != nullptr; c = c->prev.get()) {
      chain.push_back(&c->log);
    }
    std::reverse(chain.begin(), chain.end());
    for (const UpdateLog* g : chain) {
      for (std::size_t k = 0; k < g->slot.size(); ++k) replay(*g, k);
    }
  }

  [[nodiscard]] std::vector<double> ftran(std::vector<double> x) const {
    for (std::size_t k = 0; k < m_; ++k) {
      const double xk = x[static_cast<std::size_t>(lu_.pivot_row[k])];
      if (xk == 0.0) continue;
      for (std::int32_t t = lu_.l_start[k]; t < lu_.l_start[k + 1]; ++t) {
        const ColEntry& en = lu_.l_ent[static_cast<std::size_t>(t)];
        x[static_cast<std::size_t>(en.row)] -= en.val * xk;
      }
    }
    for (const RowEta& eta : etas_) {  // row etas, oldest first
      double acc = 0.0;
      for (const auto& [r, v] : eta.reads) acc += v * x[static_cast<std::size_t>(r)];
      double& z = x[static_cast<std::size_t>(eta.row)];
      if (acc != 0.0) z = drop(z - acc);
    }
    std::vector<double> y(m_, 0.0);
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const std::size_t k = *it;
      double& in = x[static_cast<std::size_t>(lu_.pivot_row[k])];
      const double v = drop(in * diag_inv_[k]);
      in = 0.0;
      const auto p = lu_.pivot_pos[k];
      y[static_cast<std::size_t>(p)] = v;
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < m_; ++j) {  // column p, every row
        for (const auto& [pos, u] : rows_[j]) {
          if (pos == p) x[static_cast<std::size_t>(lu_.pivot_row[j])] -= u * v;
        }
      }
    }
    return y;
  }

  [[nodiscard]] std::vector<double> btran(std::vector<double> x) const {
    std::vector<double> y(m_, 0.0);
    for (const std::size_t k : order_) {
      double& in = x[static_cast<std::size_t>(lu_.pivot_pos[k])];
      const double t = drop(in * diag_inv_[k]);
      in = 0.0;
      y[static_cast<std::size_t>(lu_.pivot_row[k])] = t;
      if (t == 0.0) continue;
      for (const auto& [pos, u] : rows_[k]) x[static_cast<std::size_t>(pos)] -= u * t;
    }
    for (std::size_t g = etas_.size(); g-- > 0;) {
      const double zt = y[static_cast<std::size_t>(etas_[g].row)];
      if (zt == 0.0) continue;
      for (const auto& [r, eta] : etas_[g].reads) y[static_cast<std::size_t>(r)] -= eta * zt;
    }
    for (std::size_t kk = m_; kk-- > 0;) {
      double v = y[static_cast<std::size_t>(lu_.pivot_row[kk])];
      for (std::int32_t s = lu_.l_start[kk]; s < lu_.l_start[kk + 1]; ++s) {
        const ColEntry& en = lu_.l_ent[static_cast<std::size_t>(s)];
        v -= en.val * y[static_cast<std::size_t>(en.row)];
      }
      y[static_cast<std::size_t>(lu_.pivot_row[kk])] = v;
    }
    return y;
  }

 private:
  struct RowEta {
    std::int32_t row;  ///< the row it writes
    std::vector<std::pair<std::int32_t, double>> reads;  ///< (row, eta value)
  };

  static double drop(double v) { return std::abs(v) <= 1e-14 ? 0.0 : v; }

  void replay(const UpdateLog& g, std::size_t k) {
    const auto t = static_cast<std::size_t>(g.slot[k]);
    const std::int32_t r = lu_.pivot_pos[t];
    for (auto& row : rows_) {
      row.erase(std::remove_if(row.begin(), row.end(),
                               [&](const std::pair<std::int32_t, double>& e) { return e.first == r; }),
                row.end());
    }
    rows_[t].clear();
    diag_inv_[t] = 1.0 / g.diag[k];
    for (std::int32_t s = g.spike_start[k]; s < g.spike_start[k + 1]; ++s) {
      const auto us = static_cast<std::size_t>(s);
      rows_[static_cast<std::size_t>(g.spike_slot[us])].push_back({r, g.spike_val[us]});
    }
    RowEta eta{lu_.pivot_row[t], {}};
    for (std::int32_t s = g.eta_start[k]; s < g.eta_start[k + 1]; ++s) {
      const auto us = static_cast<std::size_t>(s);
      eta.reads.push_back(
          {lu_.pivot_row[static_cast<std::size_t>(g.eta_slot[us])], g.eta_val[us]});
    }
    etas_.push_back(std::move(eta));
    order_.erase(std::find(order_.begin(), order_.end(), t));
    order_.push_back(t);
  }

  const LuData& lu_;
  std::size_t m_;
  std::vector<std::vector<std::pair<std::int32_t, double>>> rows_;  ///< U rows off the diagonal
  std::vector<double> diag_inv_;
  std::vector<std::size_t> order_;  ///< pivots in rank order
  std::vector<RowEta> etas_;
};

/// Exact equality per entry; == already treats +0 and -0 as equal.
void expect_bitwise_equal(const std::vector<double>& got, const std::vector<double>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t bad = 0;
  std::size_t first = got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    if (bad++ == 0) first = i;
  }
  EXPECT_EQ(bad, 0u) << what << ": first mismatch at " << first << ": got "
                     << (bad ? got[first] : 0.0) << ", want " << (bad ? want[first] : 0.0);
}

/// One solve input: a vector, its pattern (null for "scan it") and whether
/// it goes through btran.
struct SolveCase {
  std::vector<double> x;
  std::vector<std::int32_t> nz;
  bool use_nz = false;
  bool btran = false;
  std::string name;
};

/// Column, unit-vector and dense random inputs for ftran and btran.
std::vector<SolveCase> solve_cases(std::size_t m, const Columns& cols, std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> pick_col(0, cols.count() - 1);
  std::uniform_int_distribution<std::size_t> pick_row(0, m - 1);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  std::vector<SolveCase> cases;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t j = pick_col(rng);
    SolveCase col{dense_column(cols, m, j), {}, true, false, "ftran(col " + std::to_string(j) + ")"};
    for (std::int32_t t = cols.start[j]; t < cols.start[j + 1]; ++t) {
      col.nz.push_back(cols.ent[static_cast<std::size_t>(t)].row);
    }
    cases.push_back(col);
    col.use_nz = false;
    cases.push_back(col);

    const std::size_t r = pick_row(rng);
    SolveCase unit{std::vector<double>(m, 0.0), {static_cast<std::int32_t>(r)}, true, true,
                   "btran(e_" + std::to_string(r) + ")"};
    unit.x[r] = 1.0;
    cases.push_back(unit);
    unit.use_nz = false;
    cases.push_back(unit);

    // Dense input with exact zeros, through both solves.
    SolveCase dense{std::vector<double>(m), {}, false, false, "ftran(dense)"};
    for (double& v : dense.x) v = (rng() % 4 == 0) ? 0.0 : val(rng);
    cases.push_back(dense);
    dense.btran = true;
    dense.name = "btran(dense)";
    cases.push_back(dense);
  }
  return cases;
}

std::vector<std::vector<double>> run_solves(const BasisRep& rep, const std::vector<SolveCase>& cases) {
  std::vector<std::vector<double>> got;
  for (const SolveCase& c : cases) {
    std::vector<double> x = c.x;
    const std::vector<std::int32_t>* nz = c.use_nz ? &c.nz : nullptr;
    if (c.btran) {
      std::vector<std::int32_t> out;
      rep.btran(x, nz, &out);
      std::vector<std::int32_t> want;
      gather_nonzeros(x, want);
      EXPECT_EQ(out, want) << c.name << ": btran pattern";
    } else {
      rep.ftran(x, nz);
    }
    got.push_back(std::move(x));
  }
  return got;
}

/// Solves a case set with `rep` — through whatever live update tail it
/// holds — then snapshots it and requires the reference over the snapshot
/// to give the same bits.
void check_solves(const BasisRep& rep, std::size_t m, const Columns& cols, std::mt19937& rng,
                  const std::string& what) {
  const std::vector<SolveCase> cases = solve_cases(m, cols, rng);
  const auto got = run_solves(rep, cases);
  const ReferenceSolves ref(*rep.snapshot());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SolveCase& c = cases[i];
    const std::vector<double> want = c.btran ? ref.btran(c.x) : ref.ftran(c.x);
    expect_bitwise_equal(got[i], want,
                         what + " " + c.name + (c.use_nz ? " with pattern" : ""));
  }
}

/// A kernel driven through updates the way the simplex drives it: pivot a
/// random nonbasic column in at its largest ftran entry; a declined update
/// refactorizes the new basis.
struct Driver {
  const Columns& cols;
  std::size_t m;
  std::vector<std::int32_t> basic;
  std::vector<char> is_basic;
  std::mt19937 rng;
  int updates = 0;
  int declined = 0;

  Driver(const Columns& c, std::vector<std::int32_t> b, unsigned seed)
      : cols(c), m(b.size()), basic(std::move(b)), is_basic(c.count(), 0), rng(seed) {
    for (const std::int32_t j : basic) is_basic[static_cast<std::size_t>(j)] = 1;
  }

  void pivot(BasisRep& kernel, int count) {
    std::uniform_int_distribution<std::size_t> pick_col(0, cols.count() - 1);
    for (int done = 0, tries = 0; done < count && tries < 50 * count; ++tries) {
      const std::size_t j = pick_col(rng);
      if (is_basic[j] != 0) continue;
      std::vector<double> w = dense_column(cols, m, j);
      std::vector<std::int32_t> nz;
      for (std::int32_t t = cols.start[j]; t < cols.start[j + 1]; ++t) {
        nz.push_back(cols.ent[static_cast<std::size_t>(t)].row);
      }
      std::vector<std::int32_t> wnz;
      kernel.ftran_entering(w, nz, wnz);
      std::vector<std::int32_t> want;
      gather_nonzeros(w, want);
      EXPECT_EQ(wnz, want) << "ftran_entering pattern";
      std::size_t r = 0;
      for (std::size_t i = 1; i < m; ++i) {
        if (std::abs(w[i]) > std::abs(w[r])) r = i;
      }
      if (std::abs(w[r]) < 1e-3) continue;
      is_basic[static_cast<std::size_t>(basic[r])] = 0;
      is_basic[j] = 1;
      basic[r] = static_cast<std::int32_t>(j);
      if (kernel.update(w, r, wnz)) {
        ++updates;
      } else {
        ++declined;
        ASSERT_TRUE(kernel.factorize(cols.start.data(), cols.ent.data(), basic));
      }
      ++done;
    }
  }
};

/// Factorizes the optimal basis of `model`'s LP relaxation, checks the
/// factors reproduce B, then drives updates (live tail, frozen chunks, an
/// adopted copy) and checks every solve against the reference.
void check_basis_solves(const Model& model, unsigned seed, const std::string& what) {
  SimplexSolver lp(model);
  ASSERT_EQ(lp.solve_primal(), SolveStatus::Optimal) << what;
  const Basis basis = lp.export_basis();
  const Columns cols = columns_of(model, basis.art_sign);
  const std::size_t m = basis.basic.size();
  std::mt19937 rng(seed);

  const auto rep = make_basis_rep(BasisKernel::SparseLu, m, 0.1);
  ASSERT_TRUE(rep->factorize(cols.start.data(), cols.ent.data(), basis.basic)) << what;
  // B^-1 B = I: each basic column solves to its unit vector.
  for (std::size_t p = 0; p < m; ++p) {
    std::vector<double> a = dense_column(cols, m, static_cast<std::size_t>(basis.basic[p]));
    rep->ftran(a, nullptr);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_NEAR(a[i], i == p ? 1.0 : 0.0, 1e-9) << what << " position " << p;
    }
  }
  check_solves(*rep, m, cols, rng, what + " fresh");

  Driver drive(cols, basis.basic, seed);
  drive.pivot(*rep, 6);
  check_solves(*rep, m, cols, rng, what + " updates");  // live tail, then frozen
  drive.pivot(*rep, 5);
  check_solves(*rep, m, cols, rng, what + " chunk+tail");

  // Round trip: a fresh kernel adopting the snapshot solves identically,
  // and keeps doing so as it installs its own updates.
  const auto adopted = make_basis_rep(BasisKernel::SparseLu, m, 0.1);
  ASSERT_TRUE(adopted->adopt(rep->snapshot())) << what;
  check_solves(*adopted, m, cols, rng, what + " adopted");
  drive.pivot(*adopted, 4);
  check_solves(*adopted, m, cols, rng, what + " adopted+updates");
}

TEST(KernelCrossCheck, SparseSolvesMatchReferenceBitForBit) {
  int checked = 0;
  for (unsigned seed = 0; checked < 8 && seed < 40; ++seed) {
    const Model m = random_bounded_lp(40, seed);
    if (solve_lp_relaxation(m).status != SolveStatus::Optimal) continue;  // infeasible draw
    check_basis_solves(m, seed, "random lp seed " + std::to_string(seed));
    ++checked;
  }
  EXPECT_EQ(checked, 8);
  const auto epn = archex::domains::epn::make_problem(archex::domains::epn::tiny_config());
  check_basis_solves(epn->model(), 99, "tiny epn");
}

/// Drives `kUpdates` updates from the slack basis of `model` and compares
/// ftran and btran with a freshly factorized dense oracle every 50 updates.
void check_against_dense(const Model& model, unsigned seed, const std::string& what) {
  constexpr int kUpdates = 400;  // SimplexOptions::refactor_interval
  const std::size_t m = model.num_constraints();
  const Columns cols = columns_of(model, std::vector<std::int8_t>(m, 1));
  std::vector<std::int32_t> slacks(m);
  for (std::size_t i = 0; i < m; ++i) slacks[i] = static_cast<std::int32_t>(model.num_vars() + i);
  const auto sparse = make_basis_rep(BasisKernel::SparseLu, m, 0.1);
  ASSERT_TRUE(sparse->factorize(cols.start.data(), cols.ent.data(), slacks)) << what;
  Driver drive(cols, slacks, seed);
  std::mt19937 rng(seed + 1);
  while (drive.updates + drive.declined < kUpdates) {
    drive.pivot(*sparse, 50);
    if (testing::Test::HasFatalFailure()) return;
    const auto dense = make_basis_rep(BasisKernel::Dense, m, 0.1);
    ASSERT_TRUE(dense->factorize(cols.start.data(), cols.ent.data(), drive.basic)) << what;
    const std::vector<SolveCase> cases = solve_cases(m, cols, rng);
    const auto got = run_solves(*sparse, cases);
    const auto want = run_solves(*dense, cases);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_NEAR(got[c][i], want[c][i], 1e-9 * std::max(1.0, std::abs(want[c][i])))
            << what << " after " << drive.updates << " updates, " << cases[c].name << " entry " << i;
      }
    }
  }
  // The updates, not refactorizations, carried the basis.
  EXPECT_GE(drive.updates, 10 * drive.declined) << what;
}

TEST(KernelCrossCheck, UpdatesMatchDenseOracle) {
  for (unsigned seed = 0; seed < 3; ++seed) {
    check_against_dense(random_bounded_lp(30, seed), seed, "random seed " + std::to_string(seed));
    check_against_dense(degenerate_lp(100 + seed), seed, "degenerate seed " + std::to_string(seed));
    check_against_dense(near_singular_lp(200 + seed), seed,
                        "near-singular seed " + std::to_string(seed));
  }
}

TEST(KernelCrossCheck, AdoptedKernelSolvesLikeItsDonor) {
  const Model model = random_bounded_lp(40, 3);
  const std::size_t m = model.num_constraints();
  const Columns cols = columns_of(model, std::vector<std::int8_t>(m, 1));
  std::vector<std::int32_t> slacks(m);
  for (std::size_t i = 0; i < m; ++i) slacks[i] = static_cast<std::int32_t>(model.num_vars() + i);
  const auto donor = make_basis_rep(BasisKernel::SparseLu, m, 0.1);
  ASSERT_TRUE(donor->factorize(cols.start.data(), cols.ent.data(), slacks));
  Driver drive(cols, slacks, 5);
  drive.pivot(*donor, 30);
  std::mt19937 rng(6);
  const std::vector<SolveCase> cases = solve_cases(m, cols, rng);
  const auto want = run_solves(*donor, cases);
  const std::shared_ptr<const FactorState> snap = donor->snapshot();

  const auto adopted = make_basis_rep(BasisKernel::SparseLu, m, 0.1);
  ASSERT_TRUE(adopted->adopt(snap));
  const auto got = run_solves(*adopted, cases);
  for (std::size_t c = 0; c < cases.size(); ++c) expect_bitwise_equal(got[c], want[c], cases[c].name);

  // The snapshot stays immutable while the donor keeps updating, snapshots
  // again and refactorizes: adopting it later still gives the same bits.
  drive.pivot(*donor, 20);
  (void)donor->snapshot();
  drive.pivot(*donor, 10);
  ASSERT_TRUE(donor->factorize(cols.start.data(), cols.ent.data(), drive.basic));
  drive.pivot(*donor, 5);
  const auto late = make_basis_rep(BasisKernel::SparseLu, m, 0.1);
  ASSERT_TRUE(late->adopt(snap));
  const auto again = run_solves(*late, cases);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    expect_bitwise_equal(again[c], want[c], "late " + cases[c].name);
  }
}

TEST(KernelCrossCheck, UnstableUpdateIsDeclined) {
  // An update whose pivot element disagrees with the updated U diagonal is
  // refused: the kernel keeps the old basis, bit for bit, and the caller
  // refactorizes instead of installing a bad factor.
  const Model model = random_bounded_lp(30, 4);
  const std::size_t m = model.num_constraints();
  const Columns cols = columns_of(model, std::vector<std::int8_t>(m, 1));
  std::vector<std::int32_t> slacks(m);
  for (std::size_t i = 0; i < m; ++i) slacks[i] = static_cast<std::int32_t>(model.num_vars() + i);
  const auto rep = make_basis_rep(BasisKernel::SparseLu, m, 0.1);
  ASSERT_TRUE(rep->factorize(cols.start.data(), cols.ent.data(), slacks));
  Driver drive(cols, slacks, 8);
  drive.pivot(*rep, 10);
  std::mt19937 rng(9);
  const std::vector<SolveCase> cases = solve_cases(m, cols, rng);
  const auto before = run_solves(*rep, cases);

  // The crafted update: a structural column's ftran with its pivot element
  // off by 0.1 %.
  std::size_t j = 0;
  while (drive.is_basic[j] != 0) ++j;
  std::vector<double> w = dense_column(cols, m, j);
  std::vector<std::int32_t> nz;
  for (std::int32_t t = cols.start[j]; t < cols.start[j + 1]; ++t) {
    nz.push_back(cols.ent[static_cast<std::size_t>(t)].row);
  }
  std::vector<std::int32_t> wnz;
  rep->ftran_entering(w, nz, wnz);
  ASSERT_FALSE(wnz.empty());
  const auto r = static_cast<std::size_t>(wnz.front());
  w[r] *= 1.001;
  EXPECT_FALSE(rep->update(w, r, wnz));
  const auto after = run_solves(*rep, cases);
  for (std::size_t c = 0; c < cases.size(); ++c) expect_bitwise_equal(after[c], before[c], cases[c].name);
  // Without a fresh ftran_entering there is no spike to install either.
  w[r] /= 1.001;
  EXPECT_FALSE(rep->update(w, r, wnz));

  // The caller's refactorization of the new basis matches the dense oracle.
  std::vector<std::int32_t> basic = drive.basic;
  basic[r] = static_cast<std::int32_t>(j);
  ASSERT_TRUE(rep->factorize(cols.start.data(), cols.ent.data(), basic));
  const auto dense = make_basis_rep(BasisKernel::Dense, m, 0.1);
  ASSERT_TRUE(dense->factorize(cols.start.data(), cols.ent.data(), basic));
  const auto got = run_solves(*rep, cases);
  const auto want = run_solves(*dense, cases);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_NEAR(got[c][i], want[c][i], 1e-9 * std::max(1.0, std::abs(want[c][i])));
    }
  }
}

TEST(PricingRegistry, BuiltinsRegisteredAndUnknownFallsBack) {
  const auto names = pricer_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "dantzig"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "devex"), names.end());
  EXPECT_EQ(make_pricer("no-such-rule"), nullptr);

  // An unknown name on the options must fall back to Dantzig, not crash.
  SimplexOptions opts;
  opts.pricing = "no-such-rule";
  const Model m = random_bounded_lp(10, 5);
  const Solution s = solve_lp_relaxation(m, opts);
  EXPECT_EQ(s.status, SolveStatus::Optimal);
}

TEST(PricingRegistry, DevexReachesTheSameOptimum) {
  // Pivot counts per seed under each rule. Both rules share every pivot
  // step but entering selection, so a change to a shared step that alters
  // a pivot sequence shows here.
  constexpr std::array<std::int64_t, 10> kDantzigIterations = {7, 3, 3, 7, 1,
                                                               11, 7, 6, 6, 4};
  constexpr std::array<std::int64_t, 10> kDevexIterations = {7, 3, 3, 7, 1,
                                                             12, 6, 6, 6, 4};
  for (unsigned seed = 0; seed < 10; ++seed) {
    const Model m = random_bounded_lp(15, seed);
    SimplexOptions dantzig;
    SimplexOptions devex;
    devex.pricing = "devex";
    const Solution a = solve_lp_relaxation(m, dantzig);
    const Solution b = solve_lp_relaxation(m, devex);
    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    EXPECT_EQ(a.simplex_iterations, kDantzigIterations[seed]) << "seed " << seed;
    EXPECT_EQ(b.simplex_iterations, kDevexIterations[seed]) << "seed " << seed;
    if (a.status != SolveStatus::Optimal) continue;
    const double rel = 1e-6 * (1.0 + std::abs(a.objective));
    EXPECT_NEAR(b.objective, a.objective, rel) << "seed " << seed;
  }
}

}  // namespace

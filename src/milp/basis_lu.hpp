/// \file basis_lu.hpp
/// Basis-representation kernels for the bounded-variable revised simplex.
///
/// The simplex loops only ever touch the basis matrix B through four
/// operations: ftran (x := B^-1 x), btran (x := B^-T x), an update after a
/// pivot, and a full refactorization. `BasisRep` narrows the kernel to
/// exactly that surface so the solver can swap representations:
///
///   * `SparseLuBasis` (default) — sparse LU factorization with
///     Markowitz-style pivot selection under threshold partial pivoting,
///     updated in place between refactorizations by Forrest–Tomlin: the
///     entering column's spike replaces its column of U and one sparse row
///     eta restores triangularity. Work per pivot is proportional to the
///     nonzeros touched, which is what makes 1k-5k row models tractable.
///   * `DenseBasis` — the original explicit dense inverse (Gauss-Jordan
///     refactorization, rank-1 product-form updates). O(m^2) per pivot;
///     kept as the cross-check oracle and for tiny models.
///
/// A sparse-LU kernel can additionally snapshot its factorization into an
/// immutable `FactorState` (shared LU + shared update-log chunks). The
/// parallel branch & bound ships these snapshots with exported bases so that
/// loading a transplanted basis costs a replay of the update log instead of
/// a refactorization.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace archex::milp {

/// One entry of a sparse column: row (or basis-position) index plus value.
struct ColEntry {
  std::int32_t row;
  double val;
};

/// Which basis kernel a SimplexSolver instantiates (SimplexOptions::kernel).
enum class BasisKernel : std::uint8_t { SparseLu, Dense };

/// Forrest–Tomlin update records in pooled (flat) storage. Record k says
/// that the basis column at the position of pivot `slot[k]` was replaced by
/// an entering column whose spike (L^-1 a_q after the earlier row etas) is
/// s, and that the slot then moved to the end of the pivot order:
///   * its row eta, entries t in [eta_start[k], eta_start[k+1]) at pivot
///     `eta_slot[t]` with value `eta_val[t]`, eliminated the slot's old U
///     row: z[slot] -= sum eta_val * z[eta_slot] in ftran;
///   * its new U diagonal is `diag[k]` (s[slot] minus the eta's share);
///   * the new U column holds s off the diagonal: entries t in
///     [spike_start[k], spike_start[k+1]) at pivot `spike_slot[t]` with
///     value `spike_val[t]`.
/// The records replace the U columns and rows they name, so replaying them
/// over the LU they started from rebuilds the updated factor exactly.
struct UpdateLog {
  std::vector<std::int32_t> slot;         ///< pivot whose column was replaced
  std::vector<double> diag;               ///< its new U diagonal
  std::vector<std::int32_t> eta_start{0};  ///< size count()+1
  std::vector<std::int32_t> eta_slot;
  std::vector<double> eta_val;
  std::vector<std::int32_t> spike_start{0};  ///< size count()+1
  std::vector<std::int32_t> spike_slot;
  std::vector<double> spike_val;

  [[nodiscard]] int count() const { return static_cast<int>(slot.size()); }
  void clear() {
    slot.clear();
    diag.clear();
    eta_start.assign(1, 0);
    eta_slot.clear();
    eta_val.clear();
    spike_start.assign(1, 0);
    spike_slot.clear();
    spike_val.clear();
  }
};

/// Sparse LU factors of a basis matrix B (with row and position
/// permutations folded into the pivot order): B = L * U up to permutation.
/// Immutable once built; shared by snapshots across threads. Pivot k keeps
/// its row and position for the factorization's lifetime: updates only
/// rewrite U and reorder the pivots (see UpdateLog).
///
/// Besides the factors, `factorize` records the inverse permutations and
/// `l_steps` (the pivots with a non-empty L column, the only L steps that
/// can change a vector). They change which steps run, never the arithmetic
/// of a step that does.
struct LuData {
  std::size_t m = 0;
  std::vector<std::int32_t> pivot_row;  ///< original row of pivot k
  std::vector<std::int32_t> pivot_pos;  ///< basis position of pivot k
  std::vector<std::int32_t> row_pivot;  ///< pivot of original row i (inverse)
  std::vector<std::int32_t> pos_pivot;  ///< pivot of basis position p (inverse)
  /// L, column per pivot k (unit diagonal implicit): entries are
  /// (original row, multiplier).
  std::vector<std::int32_t> l_start;  ///< size m+1
  std::vector<ColEntry> l_ent;
  /// U, row per pivot k (diagonal split out): entry t has basis position
  /// u_pos[t] and value u_val[t] (two arrays: no padding per entry).
  std::vector<std::int32_t> u_start;  ///< size m+1
  std::vector<std::int32_t> u_pos;
  std::vector<double> u_val;
  std::vector<double> u_diag_inv;  ///< 1/pivot value per k, so the solves multiply
  /// Pivots k with a non-empty L column, ascending.
  std::vector<std::int32_t> l_steps;
};

/// A frozen run of update records, linked to the run before it: a chain of
/// chunks is an update log, and chains that share a prefix share its chunks.
struct UpdateChunk {
  UpdateLog log;
  std::shared_ptr<const UpdateChunk> prev;  ///< older chunk; null for the first
  int total = 0;  ///< records in this chunk and every older one
};

/// Immutable snapshot of a sparse-LU kernel's factorization state: the
/// (shared, never mutated) LU factors plus the update log at export time, as
/// the newest chunk of its chain. Snapshots taken along one dive share the
/// chunks of their common prefix, so a stack of snapshots stores each record
/// once. Safe to hand across threads; adopting it replays the log instead of
/// refactorizing.
struct FactorState {
  std::shared_ptr<const LuData> lu;
  std::shared_ptr<const UpdateChunk> updates;  ///< null when there are none

  [[nodiscard]] int update_count() const { return updates ? updates->total : 0; }
};

/// Abstract basis representation. Vectors are dense (length m). "Row-indexed"
/// means indexed by original constraint row, "position-indexed" by basis
/// position (the row of `basic_` the column occupies).
///
/// Solve contract: a kernel may skip a step whose inputs are all zero, but
/// every step it runs keeps the arithmetic and summation order of its plain
/// every-step loop, so its results are bit for bit those of that loop over
/// the same factors (a zero may differ in sign) and the simplex pivot
/// sequence does not depend on what was skipped. A solve may swap its
/// result buffer into `x` rather than copy it, so callers must not hold
/// pointers into `x`'s storage across the call.
class BasisRep {
 public:
  virtual ~BasisRep() = default;

  /// Rebuilds the factorization of B whose column j is the slice
  /// `col_ent[col_start[basic[j]] .. col_start[basic[j]+1])` of the solver's
  /// compressed column storage. Returns false when the basis is numerically
  /// singular (pivot column max below the same 1e-11 floor as the dense
  /// kernel).
  virtual bool factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                         const std::vector<std::int32_t>& basic) = 0;

  /// x := B^-1 x. Input row-indexed, output position-indexed. `nz` is
  /// null for a dense input, or lists rows that hold every nonzero of x
  /// (zeros and repeats allowed), sparing a sparse kernel its O(m) scan.
  virtual void ftran(std::vector<double>& x, const std::vector<std::int32_t>* nz) const = 0;

  /// x := B^-T x. Input position-indexed, output row-indexed. `nz` as for
  /// ftran, over positions. A non-null `out_nz` receives the rows i with
  /// x[i] != 0.0 of the result, ascending (what gather_nonzeros gives).
  virtual void btran(std::vector<double>& x, const std::vector<std::int32_t>* nz,
                     std::vector<std::int32_t>* out_nz) const = 0;

  /// x := B^-1 x for the column about to enter the basis: ftran, after
  /// which the kernel keeps what its next update() needs (the sparse
  /// kernel's Forrest–Tomlin spike). Any other update in between leaves
  /// update() without it. `out_nz` receives the result's nonzero positions,
  /// ascending.
  virtual void ftran_entering(std::vector<double>& x, const std::vector<std::int32_t>& nz,
                              std::vector<std::int32_t>& out_nz) = 0;

  /// Update after a pivot at basis position `r`: the column last passed to
  /// ftran_entering() replaces position r. `w` is that ftran's result
  /// (position-indexed, w[r] the pivot element) and `wnz` lists the
  /// positions with w[i] != 0.0 in ascending order (r included). Returns
  /// false when the kernel declines the update — it failed the stability
  /// test, would grow the factors too far, or has no spike — and then still
  /// represents the old basis: the caller must refactorize.
  [[nodiscard]] virtual bool update(const std::vector<double>& w, std::size_t r,
                                    const std::vector<std::int32_t>& wnz) = 0;

  /// Immutable snapshot of the current factorization for basis transplants;
  /// null when the kernel does not support snapshots (dense).
  [[nodiscard]] virtual std::shared_ptr<const FactorState> snapshot() const = 0;

  /// Adopts a snapshot taken by a same-shaped kernel over the same basis.
  /// Returns false (state unchanged) when unsupported or incompatible; the
  /// caller then falls back to factorize().
  virtual bool adopt(const std::shared_ptr<const FactorState>& state) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Writes the indices i with v[i] != 0 to `nz`, ascending. Solve vectors
/// are sparse with no regular pattern, so this skips all-zero blocks of
/// eight and gathers the rest branch-free.
void gather_nonzeros(const std::vector<double>& v, std::vector<std::int32_t>& nz);

/// Builds a kernel for an m-row basis. `markowitz_tol` (see SimplexOptions)
/// only affects the sparse kernel.
std::unique_ptr<BasisRep> make_basis_rep(BasisKernel kernel, std::size_t m,
                                         double markowitz_tol);

}  // namespace archex::milp

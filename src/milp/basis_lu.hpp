/// \file basis_lu.hpp
/// Basis-representation kernels for the bounded-variable revised simplex.
///
/// The simplex loops only ever touch the basis matrix B through four
/// operations: ftran (x := B^-1 x), btran (x := B^-T x), a product-form
/// update after a pivot, and a full refactorization. `BasisRep` narrows the
/// kernel to exactly that surface so the solver can swap representations:
///
///   * `SparseLuBasis` (default) — sparse LU factorization with
///     Markowitz-style pivot selection under threshold partial pivoting,
///     plus an eta file of product-form updates between refactorizations.
///     Work per pivot is proportional to the nonzeros touched, which is what
///     makes 1k-5k row models tractable.
///   * `DenseBasis` — the original explicit dense inverse (Gauss-Jordan
///     refactorization, rank-1 product-form updates). O(m^2) per pivot;
///     kept as the cross-check oracle and for tiny models.
///
/// A sparse-LU kernel can additionally snapshot its factorization into an
/// immutable `FactorState` (shared LU + shared eta chunks). The parallel
/// branch & bound ships these snapshots with exported bases so that loading
/// a transplanted basis costs an eta replay instead of a refactorization.
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

/// Product-form eta file in pooled (flat) storage. Eta k records that basis
/// position `pos[k]` was repivoted on the ftran'd entering column w:
/// `inv_pivot[k]` = 1 / w[pos[k]], and the other nonzeros of w are the
/// entries t in [start[k], start[k+1]), at position `ent_pos[t]` with value
/// `ent_val[t]` (two arrays: no padding per entry). Appending an eta never
/// allocates per update (amortized growth of the pooled arrays, whose
/// capacity survives refactorizations), and replay walks contiguous memory.
struct EtaFile {
  std::vector<std::int32_t> start{0};  ///< size count()+1
  std::vector<std::int32_t> pos;       ///< repivoted basis position per eta
  std::vector<double> inv_pivot;       ///< 1/pivot, precomputed (replay multiplies)
  std::vector<std::int32_t> ent_pos;   ///< pooled off-pivot entries: position
  std::vector<double> ent_val;         ///< pooled off-pivot entries: value

  [[nodiscard]] int count() const { return static_cast<int>(pos.size()); }
  [[nodiscard]] std::size_t nnz() const { return ent_pos.size(); }
  void clear() {
    start.assign(1, 0);
    pos.clear();
    inv_pivot.clear();
    ent_pos.clear();
    ent_val.clear();
  }
};

/// Sparse LU factors of a basis matrix B (with row and position
/// permutations folded into the pivot order): B = L * U up to permutation.
/// Immutable once built; shared by snapshots across threads.
///
/// Besides the factors, `factorize` records index arrays that let the solves
/// follow the nonzeros: the inverse permutations, `l_steps` (the pivots with
/// a non-empty L column, the only L steps that can change a vector) and the
/// reverse U index (`ut_*`: which U rows read the value a pivot writes).
/// They change which steps run, never the arithmetic of a step that does.
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
  /// Reverse U index: the U rows holding position pivot_pos[s] are
  /// ut_row[ut_start[s] .. ut_start[s+1]) (each one a pivot k < s).
  std::vector<std::int32_t> ut_start;  ///< size m+1
  std::vector<std::int32_t> ut_row;

  [[nodiscard]] std::size_t nnz() const { return l_ent.size() + u_pos.size() + m; }
};

/// A frozen run of etas, linked to the run before it: a chain of chunks is
/// an eta file, and chains that share a prefix share its chunks.
struct EtaChunk {
  EtaFile etas;
  std::shared_ptr<const EtaChunk> prev;  ///< older chunk; null for the first
  int total = 0;  ///< etas in this chunk and every older one
};

/// Immutable snapshot of a sparse-LU kernel's factorization state: the
/// (shared, never mutated) LU factors plus the eta file at export time, as
/// the newest chunk of its chain. Snapshots taken along one dive share the
/// chunks of their common prefix, so a stack of snapshots stores each eta
/// once. Safe to hand across threads; adopting it replays the etas instead
/// of refactorizing.
struct FactorState {
  std::shared_ptr<const LuData> lu;
  std::shared_ptr<const EtaChunk> etas;  ///< null when there are none

  [[nodiscard]] int eta_count() const { return etas ? etas->total : 0; }
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
  /// ftran, over positions.
  virtual void btran(std::vector<double>& x, const std::vector<std::int32_t>* nz) const = 0;

  /// Product-form update after a pivot at basis position `r`; `w` is the
  /// ftran result of the entering column (position-indexed, w[r] != 0) and
  /// `wnz` lists the positions with w[i] != 0.0 in ascending order (r
  /// included), so kernels touch only the nonzeros.
  virtual void update(const std::vector<double>& w, std::size_t r,
                      const std::vector<std::int32_t>& wnz) = 0;

  /// Advises refactorizing before `refactor_interval` is reached because the
  /// eta file has outgrown the factors (always false for the dense kernel).
  [[nodiscard]] virtual bool fill_heavy() const = 0;

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
/// and `eta_fill_factor` (the refactorize-early fill bound, a multiple of the
/// LU nonzeros) only affect the sparse kernel.
std::unique_ptr<BasisRep> make_basis_rep(BasisKernel kernel, std::size_t m,
                                         double markowitz_tol,
                                         double eta_fill_factor);

}  // namespace archex::milp

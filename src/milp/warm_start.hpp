/// \file warm_start.hpp
/// Warm-start vocabulary shared by the simplex, the branch & bound, and the
/// compiled-model sweep pipeline (arch/compiled_model.hpp).
///
/// The `Basis` snapshot lives at namespace scope so `Solution` can carry one
/// across `solve_milp` calls without `model.hpp` depending on the whole
/// simplex header.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "milp/basis_lu.hpp"

namespace archex::milp {

/// Compact snapshot of a simplex basis: the column status vector plus the
/// basic column of every row. Bounds and values are *not* part of a basis;
/// they are reconstructed on install from the receiving solver's current
/// bounds. `art_sign` records the sign (+1 or -1) each artificial column was
/// given by the exporting solver's cold start (the matrix entry, not a
/// status), so the importer rebuilds the exact same basis matrix.
///
/// `factor` additionally carries the exporter's factorization state when
/// the kernel supports snapshots (sparse LU): the importer then replays
/// the eta file instead of refactorizing. It is advisory — a null or
/// incompatible snapshot just falls back to refactorization — and is
/// deliberately *not* serialized by checkpoints.
///
/// This is the hand-off unit of the parallel branch & bound (a worker
/// exports its basis when branching; whichever worker steals the child
/// installs it with load_basis() and warm-starts the dual simplex) and of
/// the scenario-sweep pipeline (scenario k's root basis warm-starts
/// scenario k+1 via MilpOptions::warm_hint).
struct Basis {
  std::vector<std::uint8_t> status;   ///< ColStatus per column (total_cols)
  std::vector<std::int32_t> basic;    ///< basic column per row (m)
  std::vector<std::int8_t> art_sign;  ///< artificial column sign per row, +-1 (m)
  std::shared_ptr<const FactorState> factor;  ///< optional factorization
};

/// Branching history of one solve, exported by milp/pseudocost.hpp's
/// PseudoCosts into the caller's (pre-presolve) column space: per column,
/// the summed per-unit LP bound change and the observation count of each
/// direction (index 0 down, 1 up). A column with zero counts, or past the
/// end of `cols`, has no history.
struct PseudoCostTable {
  struct Entry {
    double sum[2] = {0.0, 0.0};
    std::int32_t count[2] = {0, 0};
  };
  std::vector<Entry> cols;
};

/// Caller-supplied warm start for `solve_milp` (MilpOptions::warm_hint),
/// typically the previous solve of a structurally identical model whose
/// bounds / objective / RHS were perturbed (a scenario delta):
///
///   * `basis` — the previous root/final basis. The root LP installs it with
///     load_basis() and reoptimizes with the dual simplex; a snapshot that no
///     longer fits the model (structure changed) or has decayed numerically
///     is rejected and the root falls back to a cold primal solve.
///   * `x` — a candidate incumbent in the model's own variable space. It is
///     seeded through the normal incumbent channel, i.e. snapped, validated
///     against *this* model's constraints (a delta may have invalidated the
///     point) and only admitted when feasible — so the cutoff it provides is
///     always sound.
///   * `pseudocosts` — a previous solve's Solution::pseudocosts. The tree
///     starts its pseudo-cost table from it instead of from nothing; the
///     lazy loop (arch/algorithm.hpp) hands each re-solve the table of the
///     solve before, whose columns keep their indices under learning.
///
/// Every field is optional (null basis / empty x / null table). `basis` and
/// `x` are honored only when `use_presolve` is off: under presolve the
/// solver works in a reduced column space that differs per call, so neither
/// would line up. `pseudocosts` is honored either way: it is read through
/// PresolveResult::orig_of_reduced, one column at a time.
struct WarmStartHint {
  std::shared_ptr<const Basis> basis;  ///< previous basis; may be null
  std::vector<double> x;  ///< candidate incumbent; empty = none
  std::shared_ptr<const PseudoCostTable> pseudocosts;  ///< may be null
};

}  // namespace archex::milp

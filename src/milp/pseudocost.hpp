#pragma once
/// Branching-variable rules of the branch & bound tree.
///
/// The main tree branches on pseudo-costs: the LP bound change per unit of
/// branching, learnt per column and direction from the child LPs the tree
/// solves anyway. The fixed cost-weighted most-fractional rule stays as the
/// probe's rule and as the cold-start fallback before any branching has been
/// observed.
#include <cstdint>
#include <mutex>
#include <vector>

namespace archex::milp {

/// Cost-weighted most-fractional rule: the fractional integral column with
/// the best fractionality × (1 + |objective coefficient|). Weighting by cost
/// resolves the expensive structural decisions (component selection,
/// edge/contactor choice) before cheap coupling binaries. Returns -1 when
/// every column in `int_vars` is integral within `int_tol`.
[[nodiscard]] std::int32_t cost_weighted_branch_var(const std::vector<double>& x,
                                                    const std::vector<std::int32_t>& int_vars,
                                                    const std::vector<double>& obj_coef,
                                                    double int_tol);

/// Per-column, per-direction pseudo-cost table of one solve. Every member is
/// safe to call from concurrent tree workers (one internal lock).
class PseudoCosts {
 public:
  enum class Dir : std::uint8_t { Down = 0, Up = 1 };

  explicit PseudoCosts(std::size_t num_cols) : cols_(num_cols) {}

  /// Learns one observation: a branching moved `col` by `distance` in `dir`
  /// and the child LP's objective rose by `gain` over its parent's (clamped
  /// at 0, minimize sense).
  void record(std::int32_t col, Dir dir, double distance, double gain);

  /// Product-rule choice: the fractional column maximizing
  /// max(f·pc⁻, ε) · max((1−f)·pc⁺, ε), ties to the first in `int_vars`. A
  /// direction without history for a column uses that direction's running
  /// average over all observations; before the first observation the choice
  /// is cost_weighted_branch_var's. Returns -1 when every column is integral.
  /// A chosen column with no history in either direction counts as a
  /// fallback.
  [[nodiscard]] std::int32_t select(const std::vector<double>& x,
                                    const std::vector<std::int32_t>& int_vars,
                                    const std::vector<double>& obj_coef, double int_tol);

  /// Per-direction average for `col` (the running average without history);
  /// 0 before any observation.
  [[nodiscard]] double estimate(std::int32_t col, Dir dir) const;

  [[nodiscard]] std::int64_t updates() const;
  [[nodiscard]] std::int64_t fallbacks() const;

 private:
  struct Entry {
    double sum[2] = {0.0, 0.0};
    std::int32_t count[2] = {0, 0};
  };

  /// Running average of direction `d` (callers hold mu_); with no history in
  /// `d`, the other direction's, so a one-sided start still ranks columns.
  [[nodiscard]] double average(int d) const;
  [[nodiscard]] double estimate_locked(std::int32_t col, int d) const;

  mutable std::mutex mu_;
  std::vector<Entry> cols_;
  double dir_sum_[2] = {0.0, 0.0};
  std::int64_t dir_count_[2] = {0, 0};
  std::int64_t fallbacks_ = 0;
};

}  // namespace archex::milp

/// \file budget.hpp
/// The one time-budget type of the stack.
///
/// A `Budget` is a wall-clock allowance with two parts: a relative
/// allowance (`seconds`, measured from a start point the caller names) and
/// an absolute end (`end`, a monotonic time point). Either part may be
/// unlimited; the budget ends at whichever comes first. This header is the
/// only module that knows both kinds of limit: every other layer holds a
/// `Budget` and asks `deadline_from()` for the absolute deadline, the one
/// conversion point (including the clamp/overflow rules).
///
/// Where each layer converts:
///
///   * `solve_milp` — once, at solve entry (`MilpOptions::budget`);
///   * `solve_iteratively` / the lazy loops — once, at loop entry, into
///     `Budget::until(...)`, so solve + analyze + learn of every iteration
///     spend the same allowance;
///   * `serve::ExplorationService` — from request *admission*
///     (`budget_ms`), so queue wait spends the budget too;
///   * explorers — their `--budget` flag is the `MilpOptions::budget` of the
///     whole exploration.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace archex::milp {

/// A wall-clock allowance. Value semantics, trivially copyable.
struct Budget {
  using Clock = std::chrono::steady_clock;

  /// Relative allowance in seconds. +inf (the default) = unlimited; values
  /// <= 0 mean "already exhausted" (an immediate TimeLimit); NaN is treated
  /// as unlimited.
  double seconds = std::numeric_limits<double>::infinity();
  /// Absolute end. `time_point::max()` (the default) = none; a time point
  /// already passed means "already exhausted".
  Clock::time_point end = Clock::time_point::max();

  [[nodiscard]] static constexpr Budget unlimited() { return {}; }
  [[nodiscard]] static constexpr Budget of_seconds(double s) { return {s}; }
  [[nodiscard]] static constexpr Budget of_ms(double ms) {
    return {ms / 1000.0};
  }
  /// A budget that ends at the absolute time point `t`, whenever it starts.
  [[nodiscard]] static constexpr Budget until(Clock::time_point t) {
    return {std::numeric_limits<double>::infinity(), t};
  }

  /// True when this budget actually constrains anything.
  [[nodiscard]] bool limited() const {
    return std::isfinite(seconds) || end != Clock::time_point::max();
  }

  /// THE conversion point: the absolute deadline of this budget measured
  /// from `start` — the earlier of `start + seconds` and `end`. An unlimited
  /// relative part — or one beyond half the clock's remaining range
  /// (~centuries; the duration cast would overflow) — leaves only `end`
  /// (the "never" sentinel `Clock::time_point::max()` by default). Negative
  /// allowances clamp to `start` itself: an immediately expired deadline.
  [[nodiscard]] Clock::time_point deadline_from(Clock::time_point start) const {
    if (!std::isfinite(seconds)) return end;
    const double limit_s = std::max(seconds, 0.0);
    const double headroom_s =
        std::chrono::duration<double>(Clock::time_point::max() - start).count();
    if (limit_s >= headroom_s * 0.5) return end;
    return std::min(end, start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(limit_s)));
  }

  /// min() of two budgets, part by part: the tighter allowance and the
  /// earlier end win (a NaN allowance loses).
  [[nodiscard]] static Budget tighter(Budget a, Budget b) {
    const double as = std::isnan(a.seconds)
                          ? std::numeric_limits<double>::infinity()
                          : a.seconds;
    const double bs = std::isnan(b.seconds)
                          ? std::numeric_limits<double>::infinity()
                          : b.seconds;
    return {std::min(as, bs), std::min(a.end, b.end)};
  }
};

}  // namespace archex::milp

/// \file perf_report.hpp
/// Per-pattern cost attribution: joins the Problem's encode-time charges and
/// row provenance (origin_of_row) with the solve's presolve eliminations and
/// simplex effort, so "which pattern makes this exploration expensive?" has a
/// table for an answer (`epn_explorer --perf-report`).
///
/// Attribution sources, per origin label ("structural", each pattern's
/// describe(), "flow(name)", "symmetry-breaking"):
///   * encode seconds   — Problem::pattern_costs(), measured per application;
///   * rows             — count of model rows with that origin;
///   * presolve removed — of those rows, how many presolve eliminated
///                        (Solution::presolve_removed_rows);
///   * simplex share    — the label's share of *surviving* rows, as a proxy
///                        for its share of simplex effort: pivot work scales
///                        with the rows the basis actually carries, and the
///                        kernel has no per-row counters (and should not —
///                        that would put a counter in ftran's inner loop).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/problem.hpp"
#include "milp/model.hpp"

namespace archex {

/// One origin label's row in the attribution table.
struct PatternCostRow {
  std::string label;
  double encode_seconds = 0.0;
  std::size_t applications = 0;     ///< encode-time charges with this label
  std::size_t rows = 0;             ///< model rows with this origin
  std::size_t presolve_removed = 0; ///< of those, eliminated by presolve
  double simplex_share = 0.0;       ///< share of surviving rows, in [0, 1]
};

/// The full report. `attributed_fraction` is the share of measured encode
/// wall-time carried by rows with a *named* origin — 1.0 unless some encode
/// path bypassed the per-application charging.
struct PerfReport {
  std::vector<PatternCostRow> rows;  ///< sorted by encode_seconds, descending
  double encode_total_seconds = 0.0;
  double attributed_seconds = 0.0;
  double attributed_fraction = 1.0;
  std::size_t model_rows = 0;
  std::size_t surviving_rows = 0;    ///< model rows presolve kept
  std::int64_t simplex_iterations = 0;
  double solve_seconds = 0.0;
};

/// Builds the attribution table for a solved problem. `sol` must come from a
/// solve of `problem`'s model (row indices are matched positionally).
[[nodiscard]] PerfReport build_perf_report(const Problem& problem,
                                           const milp::Solution& sol);

/// Renders the report as the fixed-width table the CLI prints.
void write_perf_report(std::ostream& os, const PerfReport& report);

}  // namespace archex

#include "arch/perf_report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

namespace archex {

PerfReport build_perf_report(const Problem& problem, const milp::Solution& sol) {
  PerfReport rep;
  rep.simplex_iterations = sol.simplex_iterations;
  rep.solve_seconds = sol.solve_seconds;

  // Label -> table row, in first-seen order for stable aggregation.
  std::map<std::string, std::size_t> index;
  auto row_for = [&](const std::string& label) -> PatternCostRow& {
    auto [it, fresh] = index.emplace(label, rep.rows.size());
    if (fresh) {
      rep.rows.emplace_back();
      rep.rows.back().label = label;
    }
    return rep.rows[it->second];
  };

  // Encode charges: every timed application (the constructor's "structural"
  // entry included) carries a named label, so the attributed fraction only
  // dips below 1 if a future encode path forgets to charge itself.
  for (const Problem::PatternCost& pc : problem.pattern_costs()) {
    PatternCostRow& r = row_for(pc.label);
    r.encode_seconds += pc.seconds;
    ++r.applications;
    rep.encode_total_seconds += pc.seconds;
    rep.attributed_seconds += pc.seconds;
  }
  rep.attributed_fraction =
      rep.encode_total_seconds > 0.0
          ? rep.attributed_seconds / rep.encode_total_seconds
          : 1.0;

  // Row provenance: count rows per origin, then charge presolve eliminations
  // back through the same labels.
  rep.model_rows = problem.model().num_constraints();
  for (std::size_t i = 0; i < rep.model_rows; ++i) {
    ++row_for(problem.origin_of_row(i)).rows;
  }
  for (const std::int32_t dead : sol.presolve_removed_rows) {
    ++row_for(problem.origin_of_row(static_cast<std::size_t>(dead))).presolve_removed;
  }

  // Simplex effort proxy: a label's share of the rows that survived presolve
  // (rationale in the header).
  rep.surviving_rows = rep.model_rows;
  for (const PatternCostRow& r : rep.rows) {
    rep.surviving_rows -= std::min(r.presolve_removed, rep.surviving_rows);
  }
  if (rep.surviving_rows > 0) {
    for (PatternCostRow& r : rep.rows) {
      r.simplex_share =
          static_cast<double>(r.rows - std::min(r.presolve_removed, r.rows)) /
          static_cast<double>(rep.surviving_rows);
    }
  }

  std::stable_sort(rep.rows.begin(), rep.rows.end(),
                   [](const PatternCostRow& a, const PatternCostRow& b) {
                     return a.encode_seconds > b.encode_seconds;
                   });
  return rep;
}

void write_perf_report(std::ostream& os, const PerfReport& rep) {
  char line[256];
  os << "perf report: per-pattern cost attribution\n";
  std::snprintf(line, sizeof(line),
                "encode total: %.6fs  attributed: %.6fs (%.1f%%)\n",
                rep.encode_total_seconds, rep.attributed_seconds,
                100.0 * rep.attributed_fraction);
  os << line;
  std::snprintf(line, sizeof(line),
                "model rows: %zu  surviving presolve: %zu  simplex iterations:"
                " %lld  solve: %.6fs\n",
                rep.model_rows, rep.surviving_rows,
                static_cast<long long>(rep.simplex_iterations),
                rep.solve_seconds);
  os << line;
  std::snprintf(line, sizeof(line), "%-44s %10s %6s %8s %8s %8s\n", "pattern",
                "encode(s)", "apps", "rows", "removed", "lp-share");
  os << line;
  for (const PatternCostRow& r : rep.rows) {
    // Truncate long describe() strings so the table stays aligned.
    std::string label = r.label;
    if (label.size() > 44) label = label.substr(0, 41) + "...";
    std::snprintf(line, sizeof(line), "%-44s %10.6f %6zu %8zu %8zu %7.1f%%\n",
                  label.c_str(), r.encode_seconds, r.applications, r.rows,
                  r.presolve_removed, 100.0 * r.simplex_share);
    os << line;
  }
}

}  // namespace archex

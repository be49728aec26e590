#include "check/arch_lint.hpp"

#include <ostream>

namespace archex::check {

std::string ArchDiagnostic::to_string() const {
  std::string out = diag.to_string();
  if (!constraint.empty()) out += " [constraint '" + constraint + "']";
  if (!variable.empty()) out += " [variable '" + variable + "']";
  if (!origin.empty()) out += " [origin: " + origin + "]";
  return out;
}

void ArchLintReport::print(std::ostream& os) const {
  for (const ArchDiagnostic& d : diagnostics) os << d.to_string() << "\n";
  os << base.num_errors << " error(s), " << base.num_warnings << " warning(s), "
     << base.num_infos << " info(s)\n";
}

ArchLintReport lint(const Problem& problem, const LintOptions& options) {
  const milp::Model& model = problem.model();
  ArchLintReport report;
  report.base = check::lint(model, options);
  report.diagnostics.reserve(report.base.diagnostics.size());
  for (const Diagnostic& d : report.base.diagnostics) {
    ArchDiagnostic ad;
    ad.diag = d;
    if (d.row >= 0) {
      ad.origin = problem.origin_of_row(static_cast<std::size_t>(d.row));
      ad.constraint = model.constraint(static_cast<std::size_t>(d.row)).name;
    }
    if (d.col >= 0) {
      ad.variable = model.vars()[static_cast<std::size_t>(d.col)].name;
    }
    report.diagnostics.push_back(std::move(ad));
  }
  return report;
}

}  // namespace archex::check

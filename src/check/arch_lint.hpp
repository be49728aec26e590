/// \file arch_lint.hpp
/// Architecture-level lint: the model linter, mapped back to the template
/// nodes and patterns that produced each finding.
///
/// The milp-level linter reports row/column indices; at the exploration layer
/// those indices are meaningless to a user who wrote patterns, not rows. This
/// pass runs `check::lint` on a Problem's model and attributes every finding
/// to its origin — the structural encoding, a named pattern instance, a flow
/// commodity, or symmetry breaking — using the row provenance the Problem
/// records as constraints are emitted. A finding like "always-inactive row"
/// then reads "pattern 'reliability(load1)' produced an always-inactive
/// constraint".
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "arch/problem.hpp"
#include "check/lint.hpp"

namespace archex::check {

/// A model diagnostic plus its exploration-layer attribution.
struct ArchDiagnostic {
  Diagnostic diag;
  std::string origin;      ///< "structural", pattern description, "flow(...)", ...
  std::string constraint;  ///< row name, empty for column findings
  std::string variable;    ///< column name, empty for row findings

  [[nodiscard]] std::string to_string() const;
};

/// Arch-level lint output; `base` keeps the raw model report.
struct ArchLintReport {
  std::vector<ArchDiagnostic> diagnostics;
  LintReport base;

  [[nodiscard]] bool clean(Severity at_least = Severity::Error) const {
    return base.clean(at_least);
  }
  void print(std::ostream& os) const;
};

/// Lints `problem.model()` and attributes each diagnostic.
[[nodiscard]] ArchLintReport lint(const Problem& problem, const LintOptions& options = {});

}  // namespace archex::check

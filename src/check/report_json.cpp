#include "check/report_json.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace archex::check {

namespace {

using obs::json_quote;

/// Stable kebab-case rule ids; the enum names are CamelCase.
std::string kebab(const char* camel) {
  std::string out;
  for (const char* p = camel; *p != '\0'; ++p) {
    if (std::isupper(static_cast<unsigned char>(*p)) != 0) {
      if (!out.empty()) out += '-';
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
    } else {
      out += *p;
    }
  }
  return out;
}

struct Finding {
  std::string pass;
  std::string rule;
  std::string severity;  // "error" | "warning" | "info"
  std::int32_t row = -1;
  std::int32_t col = -1;
  std::string message;
  std::string origin;  // empty = omit
};

std::string origin_of(const JsonReportInput& in, std::int32_t row) {
  if (in.row_origins == nullptr || row < 0) return {};
  const auto i = static_cast<std::size_t>(row);
  if (i >= in.row_origins->size()) return {};
  return (*in.row_origins)[i];
}

void collect_lint(const JsonReportInput& in, std::vector<Finding>& out) {
  for (const Diagnostic& d : in.lint->diagnostics) {
    Finding f;
    f.pass = "lint";
    f.rule = kebab(to_string(d.rule));
    switch (d.severity) {
      case Severity::Error: f.severity = "error"; break;
      case Severity::Warning: f.severity = "warning"; break;
      case Severity::Info: f.severity = "info"; break;
    }
    f.row = d.row;
    f.col = d.col;
    f.message = d.message;
    if (!d.fix_hint.empty()) f.message += " (hint: " + d.fix_hint + ")";
    f.origin = origin_of(in, d.row);
    out.push_back(std::move(f));
  }
}

void collect_analysis(const JsonReportInput& in, std::vector<Finding>& out) {
  const AnalysisReport& a = *in.analysis;
  if (a.decomposition.ran && a.decomposition.components.size() >= 2) {
    Finding f;
    f.pass = "decompose";
    f.rule = "decomposable-model";
    f.severity = "info";
    f.message = "model splits into " +
                std::to_string(a.decomposition.components.size()) +
                " independent sub-models";
    out.push_back(std::move(f));
  }
  if (a.propagation.ran && a.propagation.result.infeasible) {
    Finding f;
    f.pass = "propagate";
    f.rule = "static-infeasibility";
    f.severity = "error";
    f.row = a.propagation.result.infeasible_row;
    f.col = a.propagation.result.infeasible_col;
    f.message = "bound propagation proves the model infeasible";
    f.origin = origin_of(in, f.row);
    out.push_back(std::move(f));
  }
  if (a.symmetry.ran) {
    for (const std::string& rec : a.symmetry.recommendations) {
      Finding f;
      f.pass = "symmetry";
      f.rule = "symmetric-orbit";
      f.severity = "info";
      f.message = rec;
      out.push_back(std::move(f));
    }
  }
  if (a.iis.infeasible) {
    for (const std::int32_t r : a.iis.rows) {
      Finding f;
      f.pass = "iis";
      f.rule = "iis-member";
      f.severity = "error";
      f.row = r;
      f.message = "row participates in the " +
                  std::string(a.iis.irreducible ? "irreducible " : "") +
                  "infeasible subsystem";
      f.origin = origin_of(in, r);
      out.push_back(std::move(f));
    }
  }
}

void emit_orbits(std::ostream& os, const std::vector<Orbit>& orbits,
                 const char* indent) {
  os << "[";
  for (std::size_t k = 0; k < orbits.size(); ++k) {
    if (k != 0) os << ",";
    os << "\n" << indent << "  {\"size\": " << orbits[k].size << ", \"members\": [";
    for (std::size_t j = 0; j < orbits[k].members.size(); ++j) {
      if (j != 0) os << ", ";
      os << orbits[k].members[j];
    }
    os << "]}";
  }
  if (!orbits.empty()) os << "\n" << indent;
  os << "]";
}

void emit_analysis(std::ostream& os, const JsonReportInput& in) {
  const AnalysisReport& a = *in.analysis;
  os << "  \"analysis\": {\n";
  os << "    \"passes\": [";
  for (std::size_t k = 0; k < a.passes_run.size(); ++k) {
    if (k != 0) os << ", ";
    os << json_quote(a.passes_run[k]);
  }
  os << "],\n";
  bool first_section = true;
  auto sep = [&] {
    if (!first_section) os << ",\n";
    first_section = false;
  };
  if (a.decomposition.ran) {
    sep();
    os << "    \"decompose\": {\"num_components\": "
       << a.decomposition.components.size()
       << ", \"unreferenced_cols\": " << a.decomposition.unreferenced_cols
       << ", \"components\": [";
    for (std::size_t k = 0; k < a.decomposition.components.size(); ++k) {
      const ComponentInfo& c = a.decomposition.components[k];
      if (k != 0) os << ", ";
      os << "{\"rows\": " << c.num_rows << ", \"cols\": " << c.num_cols << "}";
    }
    os << "]}";
  }
  if (a.propagation.ran) {
    const milp::Propagation& p = a.propagation.result;
    sep();
    os << "    \"propagate\": {\"infeasible\": " << (p.infeasible ? "true" : "false")
       << ", \"infeasible_row\": " << p.infeasible_row
       << ", \"infeasible_col\": " << p.infeasible_col
       << ", \"converged\": " << (p.converged ? "true" : "false")
       << ", \"passes\": " << p.passes
       << ", \"bounds_tightened\": " << p.bounds_tightened
       << ", \"vars_fixed\": " << p.vars_fixed << "}";
  }
  if (a.symmetry.ran) {
    sep();
    os << "    \"symmetry\": {\"refinement_rounds\": " << a.symmetry.refinement_rounds
       << ",\n      \"col_orbits\": ";
    emit_orbits(os, a.symmetry.col_orbits, "      ");
    os << ",\n      \"row_orbits\": ";
    emit_orbits(os, a.symmetry.row_orbits, "      ");
    os << ",\n      \"recommendations\": [";
    for (std::size_t k = 0; k < a.symmetry.recommendations.size(); ++k) {
      if (k != 0) os << ", ";
      os << json_quote(a.symmetry.recommendations[k]);
    }
    os << "]}";
  }
  if (a.iis.attempted) {
    sep();
    os << "    \"iis\": {\"infeasible\": " << (a.iis.infeasible ? "true" : "false")
       << ", \"irreducible\": " << (a.iis.irreducible ? "true" : "false")
       << ", \"oracle\": " << json_quote(a.iis.oracle)
       << ", \"oracle_calls\": " << a.iis.oracle_calls << ", \"rows\": [";
    for (std::size_t k = 0; k < a.iis.rows.size(); ++k) {
      if (k != 0) os << ", ";
      os << a.iis.rows[k];
    }
    os << "]";
    if (in.row_origins != nullptr) {
      os << ", \"origins\": [";
      std::size_t attributed = 0;
      for (std::size_t k = 0; k < a.iis.rows.size(); ++k) {
        if (k != 0) os << ", ";
        const std::string origin = origin_of(in, a.iis.rows[k]);
        if (!origin.empty() && origin != "unattributed") ++attributed;
        os << json_quote(origin.empty() ? "unattributed" : origin);
      }
      os << "], \"attribution\": "
         << obs::json_number(a.iis.rows.empty() ? 1.0
                                                : static_cast<double>(attributed) /
                                                      static_cast<double>(a.iis.rows.size()));
    }
    os << "}";
  }
  os << "\n  }";
}

}  // namespace

std::string to_json(const JsonReportInput& in) {
  std::vector<Finding> findings;
  if (in.lint != nullptr) collect_lint(in, findings);
  if (in.analysis != nullptr) collect_analysis(in, findings);

  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;
  for (const Finding& f : findings) {
    if (f.severity == "error") ++errors;
    else if (f.severity == "warning") ++warnings;
    else ++infos;
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"archex-check-report/1\",\n";
  os << "  \"tool\": " << json_quote(in.tool) << ",\n";
  os << "  \"model\": {\"file\": " << json_quote(in.model.file)
     << ", \"rows\": " << in.model.rows << ", \"cols\": " << in.model.cols
     << "},\n";
  os << "  \"summary\": {\"errors\": " << errors << ", \"warnings\": " << warnings
     << ", \"infos\": " << infos << ", \"findings\": " << findings.size()
     << "},\n";
  os << "  \"findings\": [";
  for (std::size_t k = 0; k < findings.size(); ++k) {
    const Finding& f = findings[k];
    if (k != 0) os << ",";
    os << "\n    {\"pass\": " << json_quote(f.pass) << ", \"rule\": " << json_quote(f.rule)
       << ", \"severity\": " << json_quote(f.severity) << ", \"row\": " << f.row
       << ", \"col\": " << f.col << ", \"message\": " << json_quote(f.message);
    if (!f.origin.empty()) os << ", \"origin\": " << json_quote(f.origin);
    os << "}";
  }
  if (!findings.empty()) os << "\n  ";
  os << "]";
  if (in.analysis != nullptr) {
    os << ",\n";
    emit_analysis(os, in);
  }
  os << "\n}\n";
  return os.str();
}

std::vector<std::string> read_origins_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open origins file: " + path);
  std::vector<std::string> origins;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected 'index<TAB>label'");
    }
    std::size_t idx = 0;
    try {
      idx = static_cast<std::size_t>(std::stoul(line.substr(0, tab)));
    } catch (const std::exception&) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": bad row index");
    }
    if (idx >= origins.size()) origins.resize(idx + 1, "unattributed");
    origins[idx] = line.substr(tab + 1);
  }
  return origins;
}

void write_origins_file(const std::string& path,
                        const std::vector<std::string>& origins) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write origins file: " + path);
  out << "# row-index<TAB>origin-label, one line per model row\n";
  for (std::size_t i = 0; i < origins.size(); ++i) {
    out << i << '\t' << origins[i] << '\n';
  }
}

}  // namespace archex::check

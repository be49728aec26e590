/// \file spec_explorer.cpp
/// The text-file front end of Figure 1: "The input to the toolbox consists
/// of two text files: problem description and library."
///
/// Usage:
///   spec_explorer <problem.spec> <components.lib> [--budget=SECONDS]
///
/// Domain patterns (has_sufficient_power, has_operation_mode) are registered
/// before parsing, so the shipped data/epn.spec and data/rpl.spec both load
/// through the same generic front end — the extensibility story of Sec. 3.
#include <iostream>
#include <string>

#include "arch/parser.hpp"
#include "domains/epn.hpp"
#include "domains/rpl.hpp"
#include "milp/budget.hpp"

using namespace archex;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: spec_explorer <problem.spec> <components.lib> [--budget=S]\n";
    return 2;
  }
  double budget = 120.0;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--budget=", 0) == 0) budget = std::stod(arg.substr(9));
  }

  // Make the domain-specific patterns resolvable from spec files.
  domains::epn::register_epn_patterns();
  domains::rpl::register_rpl_patterns();

  try {
    const ProblemSpec spec = load_problem_spec_file(argv[1]);
    Library lib = load_library_file(argv[2]);
    std::cout << "Loaded " << spec.tmpl.num_nodes() << " template nodes, "
              << spec.tmpl.candidate_edges().size() << " candidate edges, "
              << spec.patterns.size() << " pattern instances from " << spec.spec_lines
              << " specification lines.\n";

    std::unique_ptr<Problem> problem = instantiate(spec, std::move(lib));
    problem->add_symmetry_breaking();
    const milp::ModelStats stats = problem->model().stats();
    std::cout << "Generated MILP: " << stats.num_vars << " variables, "
              << stats.num_constraints << " constraints (" << stats.standard_form_lines
              << " standard-form lines) — abstraction ratio "
              << stats.standard_form_lines / std::max(1, spec.spec_lines) << "x.\n\n";

    milp::MilpOptions opts;
    opts.budget = milp::Budget::of_seconds(budget);
    const ExplorationResult res = problem->solve(opts);
    std::cout << "status: " << milp::to_string(res.solution.status) << " after "
              << res.solver_seconds << "s, " << res.solution.nodes_explored << " nodes\n";
    if (!res.feasible()) return 1;
    std::cout << "cost: " << res.architecture.cost << "\n";
    res.architecture.print(std::cout);
    res.print_timing(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

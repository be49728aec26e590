/// \file rpl_explorer.cpp
/// The Reconfigurable Production Line case study (paper Sec. 4.2).
///
/// Usage:
///   rpl_explorer [--idle=N] [--budget=SECONDS] [--dot]
///
/// `--budget` is the wall-clock allowance (milp::Budget, the stack's one
/// time knob).
///
/// Without --idle this reproduces the Fig. 4a experiment (line B reused for
/// product A in operation mode Omega2); with --idle=10 it reproduces
/// Fig. 4b (the idle-rate requirement drives parallel slower machines,
/// cutting the total idle rate ~3.5x).
#include <iostream>
#include <string>

#include "domains/rpl.hpp"
#include "milp/budget.hpp"

using namespace archex;
using namespace archex::domains::rpl;

int main(int argc, char** argv) {
  RplConfig cfg;
  double budget = 120.0;
  bool dot = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--idle=", 0) == 0) cfg.max_total_idle = std::stod(arg.substr(7));
    else if (arg.rfind("--budget=", 0) == 0) budget = std::stod(arg.substr(9));
    else if (arg == "--dot") dot = true;
    else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  std::cout << "=== Reconfigurable production line exploration ===\n"
            << "modes: Omega1 (A@" << cfg.rate_a << " + B@" << cfg.rate_b
            << ", no borrowing), Omega2 (A@" << 2 * cfg.rate_a << ", line B stalled)\n";
  if (cfg.max_total_idle > 0) {
    std::cout << "requirement: total idle rate <= " << cfg.max_total_idle << " parts/min\n";
  }

  auto problem = make_problem(cfg);
  const milp::ModelStats stats = problem->model().stats();
  std::cout << "Spec: " << problem->num_patterns_applied() << " pattern instances; MILP: "
            << stats.num_vars << " variables, " << stats.num_constraints << " constraints\n\n";

  milp::MilpOptions opts;
  opts.budget = milp::Budget::of_seconds(budget);
  ExplorationResult res = problem->solve(opts);
  std::cout << "status: " << milp::to_string(res.solution.status) << ", solver time "
            << res.solver_seconds << "s, " << res.solution.nodes_explored << " nodes, "
            << res.solution.simplex_iterations << " simplex iterations\n";
  res.print_degradation(std::cout);
  if (!res.feasible()) return 1;

  std::cout << "cost: " << res.architecture.cost << "\n";
  res.architecture.print(std::cout);
  std::cout << "total idle rate (both modes): " << total_idle_rate(*problem, res.architecture)
            << " parts/min\n";

  // Show the Omega2 reuse explicitly: product-A flow through line-B nodes.
  double borrowed = 0.0;
  const auto it = res.architecture.flows.find("O2:A");
  if (it != res.architecture.flows.end()) {
    for (const FlowEdge& e : it->second) {
      const auto& to = res.architecture.nodes[static_cast<std::size_t>(e.to)];
      if (to.name.find('B') != std::string::npos && to.type == "Machine") {
        borrowed += e.rate;
      }
    }
  }
  std::cout << "product A processed on line B in Omega2: " << borrowed << " parts/min"
            << (borrowed > 0 ? "  (line B reused, as in Fig. 4a)" : "") << "\n";
  res.print_timing(std::cout);
  if (dot) std::cout << res.architecture.to_dot();
  return 0;
}

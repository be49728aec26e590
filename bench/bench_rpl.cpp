/// \file bench_rpl.cpp
/// Reproduces the reconfigurable production line evaluation of Sec. 4.2:
///   * Table 3 — template & library echo (inputs),
///   * Fig. 4a — cost-optimal RPL where line B is reused for product A in
///               operation mode Omega2 (paper: ~5,000 constraints, ~3,000
///               variables, solver 0.4s),
///   * Fig. 4b — adding max_total_idle_rate(M, 10) drives parallel slower
///               machines: total idle rate drops 28 -> 8 parts/min (3.5x).
///
/// Flags: --budget=S (wall-clock allowance of each solve)
#include <cstdio>
#include <string>
#include <vector>

#include "domains/rpl.hpp"

using namespace archex;
using namespace archex::domains::rpl;

namespace {

void echo_table3(const RplConfig& cfg) {
  std::printf("--- Table 3: template and library ---\n");
  const Library lib = make_library(cfg);
  const ArchTemplate t = make_template(cfg);
  std::printf("%-9s | per-stage slots (A,B) | options (cost, mu)\n", "type");
  const std::vector<std::string> types = {"Source", "Machine", "Conveyor", "Sink"};
  for (const std::string& type : types) {
    const std::size_t a = t.select({type, "", "A"}).size();
    const std::size_t b = t.select({type, "", "B"}).size();
    std::printf("%-9s | %zu,%zu                  |", type.c_str(), a, b);
    for (LibIndex i : lib.of_type(type)) {
      const Component& c = lib.at(i);
      std::printf(" %s(%g", c.name.c_str(), c.cost());
      if (c.has_attr(attr::kThroughput)) std::printf(",%g", c.attr_or(attr::kThroughput));
      std::printf(")");
    }
    std::printf("\n");
  }
  std::printf("rates: lambda_A=%g, lambda_B=%g; modes: Omega1 (A+B, no borrowing), "
              "Omega2 (2*lambda_A, B stalled)\n\n",
              cfg.rate_a, cfg.rate_b);
}

struct Outcome {
  bool ok = false;
  double cost = 0;
  double idle = 0;
  double reused = 0;
  milp::ModelStats stats;
  double seconds = 0;
  const char* status = "";
};

Outcome run(const RplConfig& cfg, double budget_s) {
  auto p = make_problem(cfg);
  milp::MilpOptions opts;
  opts.budget = milp::Budget::of_seconds(budget_s);
  ExplorationResult res = p->solve(opts);
  Outcome out;
  out.stats = res.stats;
  out.seconds = res.solver_seconds;
  out.status = milp::to_string(res.solution.status);
  if (!res.feasible()) return out;
  out.ok = true;
  out.cost = res.architecture.cost;
  out.idle = total_idle_rate(*p, res.architecture);
  const auto it = res.architecture.flows.find("O2:A");
  if (it != res.architecture.flows.end()) {
    for (const FlowEdge& e : it->second) {
      const auto& to = res.architecture.nodes[static_cast<std::size_t>(e.to)];
      if (to.type == "Machine" && to.name.find('B') != std::string::npos) {
        out.reused += e.rate;
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double budget_s = 300.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--budget=", 0) == 0) budget_s = std::stod(a.substr(9));
  }
  RplConfig cfg;
  std::printf("=== RPL benchmark (Sec. 4.2), budget %gs/solve ===\n\n", budget_s);
  echo_table3(cfg);

  std::printf("--- Fig. 4a: no idle requirement (paper: line B reused in Omega2) ---\n");
  const Outcome a = run(cfg, budget_s);
  std::printf("MILP: %zu vars, %zu constraints (paper: ~3,000 vars, ~5,000 constraints)\n",
              a.stats.num_vars, a.stats.num_constraints);
  std::printf("status: %s in %.1fs; cost %.0f; total idle %.1f parts/min; "
              "A-parts on line B in Omega2: %.1f %s\n\n",
              a.status, a.seconds, a.cost, a.idle, a.reused,
              a.reused > 0 ? "(line B reused: matches Fig. 4a)" : "(NO reuse)");

  std::printf("--- Fig. 4b: max_total_idle_rate(Machine, 10) ---\n");
  cfg.max_total_idle = 10.0;
  const Outcome b = run(cfg, budget_s);
  std::printf("status: %s in %.1fs; cost %.0f; total idle %.1f parts/min\n", b.status,
              b.seconds, b.cost, b.idle);
  if (a.ok && b.ok && b.idle > 0) {
    std::printf("idle-rate reduction: %.1f -> %.1f = %.1fx (paper: 28 -> 8 = 3.5x)\n",
                a.idle, b.idle, a.idle / b.idle);
    std::printf("cost of the idle requirement: +%.0f (paper: slightly costlier design)\n",
                b.cost - a.cost);
  }
  return 0;
}

/// \file bench_epn.cpp
/// Reproduces the aircraft EPN evaluation of Sec. 4.1:
///   * Table 2  — template & library echo (inputs),
///   * Fig. 2b  — monolithic (eager) optimization,
///   * Fig. 3   — lazy iterative optimization with per-iteration
///                reliabilities r = (HV, LV),
///   * the spec-size/abstraction observation (patterns vs generated MILP).
///
/// Absolute numbers differ from the paper (their substrate is CPLEX on a
/// Xeon; ours is the in-repo solver — see DESIGN.md), but the qualitative
/// results reproduce: the lazy method needs ~3 learning iterations with
/// reliabilities marching 1e-3 -> 1e-6 -> 1e-9, at slightly higher cost
/// than the monolithic optimum, in a fraction of its runtime.
///
/// Flags: --scale=tiny|small|paper  --budget=S  --skip-monolithic
/// (`--budget` bounds each exploration: the monolithic solve, and the lazy
/// loop as a whole)
#include <cstdio>
#include <string>
#include <vector>

#include "domains/epn.hpp"

using namespace archex;
using namespace archex::domains::epn;

namespace {

void echo_table2(const EpnConfig& cfg) {
  std::printf("--- Table 2: template and library ---\n");
  const Library lib = make_library(cfg);
  std::printf("%-10s | max # in T (L,R) | options (cost, power)\n", "type");
  const ArchTemplate t = make_template(cfg);
  const std::vector<std::string> types = {"Generator", "ACBus", "Rectifier", "DCBus",
                                          "Load"};
  for (const std::string& type : types) {
    const std::size_t left = t.select({type, "", "LE"}).size();
    const std::size_t right = t.select({type, "", "RI"}).size();
    const std::size_t mid = t.select({type, "", "MI"}).size();
    const std::string extra = mid ? " +" + std::to_string(mid) + " APU" : "";
    std::printf("%-10s | %zu,%zu%s            |", type.c_str(), left, right, extra.c_str());
    for (LibIndex i : lib.of_type(type)) {
      const Component& c = lib.at(i);
      std::printf(" %s(%g", c.name.c_str(), c.cost());
      if (c.has_attr(attr::kPower)) std::printf(",%g", c.attr_or(attr::kPower));
      std::printf(")");
    }
    std::printf("\n");
  }
  std::printf("contactor (edge) cost: %g; component failure prob: %g\n\n", cfg.contactor_cost,
              cfg.component_fail_prob);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scale = "small";
  double budget_s = 150.0;
  bool monolithic = true;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--scale=", 0) == 0) scale = a.substr(8);
    else if (a.rfind("--budget=", 0) == 0) budget_s = std::stod(a.substr(9));
    else if (a == "--skip-monolithic") monolithic = false;
  }

  EpnConfig cfg;
  if (scale == "small") {
    cfg = small_config();
    cfg.rectifiers_per_side = 3;
  } else if (scale == "tiny") {
    cfg = small_config();
    cfg.rectifiers_per_side = 3;
    cfg.critical_threshold = 1e-5;  // k = 2 regime
    cfg.sheddable_threshold = 1e-2;
  }

  std::printf("=== EPN benchmark (Sec. 4.1), scale=%s, budget %gs/exploration ===\n\n",
              scale.c_str(), budget_s);
  echo_table2(cfg);

  milp::MilpOptions opts;
  opts.budget = milp::Budget::of_seconds(budget_s);

  // --- abstraction claim: spec size vs generated MILP size ---
  {
    cfg.reliability_eager = true;
    auto p = make_problem(cfg);
    const milp::ModelStats st = p->model().stats();
    std::printf("--- Spec vs MILP (paper: 46 patterns / 90 LoC -> >100k lines, 20k vars) ---\n");
    std::printf("patterns applied: %zu; generated MILP: %zu vars, %zu constraints,"
                " %zu standard-form lines\n\n",
                p->num_patterns_applied(), st.num_vars, st.num_constraints,
                st.standard_form_lines);
  }

  // --- Fig. 2b: monolithic (eager) optimization ---
  double monolithic_cost = -1;
  if (monolithic) {
    std::printf("--- Fig. 2b: monolithic optimization (paper: cost 106,000, ~5h) ---\n");
    cfg.reliability_eager = true;
    auto p = make_problem(cfg);
    ExplorationResult res = p->solve(opts);
    std::printf("status: %s after %.1fs, %lld nodes\n", milp::to_string(res.solution.status),
                res.solver_seconds, static_cast<long long>(res.solution.nodes_explored));
    if (res.feasible()) {
      monolithic_cost = res.architecture.cost;
      std::printf("cost: %.0f\n", monolithic_cost);
      double worst_crit = 0;
      double worst_shed = 0;
      for (const auto& [load, prob] : link_fail_probs(*p, res.architecture)) {
        const NodeId id = p->arch_template().find(load);
        (p->arch_template().node(id).has_tag("critical") ? worst_crit : worst_shed) =
            std::max(p->arch_template().node(id).has_tag("critical") ? worst_crit : worst_shed,
                     prob);
      }
      std::printf("exact link failure probabilities: critical %.3g (req %.0g), "
                  "sheddable %.3g (req %.0g)\n",
                  worst_crit, cfg.critical_threshold, worst_shed, cfg.sheddable_threshold);
    }
    std::printf("\n");
  }

  // --- Fig. 3: lazy iterative optimization ---
  std::printf("--- Fig. 3: lazy iterations (paper: r=(0.6,0.8)e-3 -> (0.2,0.32)e-6 ->\n"
              "    (0.38,0.19)e-9, cost 108,000 vs monolithic 106,000, 56s total) ---\n");
  cfg.reliability_eager = false;
  auto p = make_problem(cfg);
  IterativeResult lazy = solve_lazy_epn(*p, cfg, opts);
  double lazy_total = 0;
  for (const IterativeStep& it : lazy.iterations) {
    lazy_total += it.solve_seconds;
    if (it.architecture.nodes.empty()) {  // a failed solve has no metrics
      std::printf("iteration %d: %s, no architecture", it.index, milp::to_string(it.status));
    } else {
      std::printf("iteration %d: cost %8.0f  r = (%.3g, %.3g)", it.index, it.cost,
                  it.metrics.at("worst_hv"), it.metrics.at("worst_lv"));
    }
    std::printf("  %zu constraints, %zu vars,  %.1fs\n", it.stats.num_constraints,
                it.stats.num_vars, it.solve_seconds);
  }
  std::printf("%s after %zu iterations, %.1fs total\n",
              lazy.converged ? "converged" : "NOT converged", lazy.iterations.size(),
              lazy_total);
  if (lazy.final_result.feasible() && monolithic_cost > 0) {
    std::printf("cost ordering: lazy %.0f >= monolithic %.0f : %s (paper: 108k >= 106k)\n",
                lazy.final_result.architecture.cost, monolithic_cost,
                lazy.final_result.architecture.cost >= monolithic_cost - 1e-6 ? "yes"
                                                                              : "NO");
  }
  return 0;
}

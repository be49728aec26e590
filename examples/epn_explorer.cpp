/// \file epn_explorer.cpp
/// The aircraft Electrical Power Network case study (paper Sec. 4.1).
///
/// Usage:
///   epn_explorer [--mode=lazy|monolithic] [--scale=tiny|small|paper]
///                [--budget=SECONDS] [--max-nodes=N] [--dot]
///                [--write-lp=FILE] [--profile-json=FILE] [--perf-report]
///                [--sweep=N]
///
/// `--budget` is the wall-clock allowance (milp::Budget, the one time knob
/// of the stack); in lazy mode it bounds the whole loop.
/// `--sweep=N` demonstrates the compiled pipeline (docs/pipeline.md):
/// compile the spec once, then solve N cost-perturbation scenarios
/// against the frozen artifact, warm-starting each from the previous
/// optimal basis.
///
/// `lazy` runs the iterative MILP-modulo-reliability algorithm (Fig. 3) and
/// prints each iteration's solve/analyze/learn split, then one `lazy loop:`
/// line whose `unaccounted` term is the wall time none of them covers;
/// `monolithic` encodes the reliability requirements eagerly (Fig. 2b).
/// `--scale=paper` uses the Table 2 template sizes (the monolithic run at
/// paper scale is expensive by design — the paper reports hours on CPLEX).
/// `--write-lp=FILE` exports the assembled MILP in CPLEX-LP text instead of
/// solving (CI feeds the export to `milp_solve --trace-json`).
/// `--profile-json=FILE` records hierarchical spans (encode -> per-pattern,
/// solve phases, sampled simplex kernels) and writes a Chrome trace-event
/// file loadable in Perfetto. `--perf-report` prints the per-pattern cost
/// attribution table (arch/perf_report.hpp) after the solve.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "arch/compiled_model.hpp"
#include "arch/perf_report.hpp"
#include "domains/epn.hpp"
#include "milp/budget.hpp"
#include "obs/span.hpp"

using namespace archex;
using namespace archex::domains::epn;

namespace {

struct Args {
  std::string mode = "lazy";
  std::string scale = "small";
  // One budget across the whole lazy loop (solve + analyze + learn, end to
  // end — see docs/solver.md); solve_iteratively slices re-solves so a
  // non-closing iteration cannot starve the ones after it.
  double budget = 300.0;
  int sweep = 0;
  // Optional per-iteration node cap (0 = off) for deterministic bounding
  // of each iteration's search independent of wall clock.
  std::int64_t max_nodes = 0;
  bool dot = false;
  std::string write_lp;
  std::string profile_json;
  bool perf_report = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) a.mode = arg.substr(7);
    else if (arg.rfind("--scale=", 0) == 0) a.scale = arg.substr(8);
    else if (arg.rfind("--budget=", 0) == 0) a.budget = std::stod(arg.substr(9));
    else if (arg.rfind("--max-nodes=", 0) == 0) a.max_nodes = std::stoll(arg.substr(12));
    else if (arg.rfind("--sweep=", 0) == 0) a.sweep = std::stoi(arg.substr(8));
    else if (arg == "--dot") a.dot = true;
    else if (arg.rfind("--write-lp=", 0) == 0) a.write_lp = arg.substr(11);
    else if (arg.rfind("--profile-json=", 0) == 0) a.profile_json = arg.substr(15);
    else if (arg == "--perf-report") a.perf_report = true;
    else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return a;
}

void report_links(const Problem& p, const Architecture& arch) {
  double worst_crit = 0.0;
  double worst_shed = 0.0;
  for (const auto& [load, prob] : link_fail_probs(p, arch)) {
    const NodeId id = p.arch_template().find(load);
    if (p.arch_template().node(id).has_tag("critical")) {
      worst_crit = std::max(worst_crit, prob);
    } else {
      worst_shed = std::max(worst_shed, prob);
    }
  }
  std::cout << "  exact link failure probability: critical <= " << worst_crit
            << ", sheddable <= " << worst_shed << "\n";
}

/// A duration for the lazy-loop timing lines: microseconds below 1 ms,
/// where a fixed "0.000s" would hide the analysis and learning steps.
std::string seconds(double s) {
  char buf[32];
  if (std::abs(s) < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.0f\u00b5s", s * 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", s);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  const std::optional<EpnConfig> scaled = scale_config(args.scale);
  if (!scaled) {
    std::cerr << "unknown scale: " << args.scale << " (expected tiny, small or paper)\n";
    return 2;
  }
  EpnConfig cfg = *scaled;
  // The compiled sweep solves the frozen matrix directly, so it needs the
  // eager (monolithic) reliability encoding.
  cfg.reliability_eager = (args.mode == "monolithic") || args.sweep > 0;

  std::cout << "=== Aircraft EPN exploration (" << args.mode << ", " << args.scale
            << " scale) ===\n";
  // Profiler must outlive the Problem (non-owning pointer); armed only when
  // the user asked for a trace so the disabled path stays zero-cost.
  obs::SpanProfiler profiler;
  obs::SpanProfiler* prof = args.profile_json.empty() ? nullptr : &profiler;
  auto problem = make_problem(cfg, prof);
  const milp::ModelStats stats = problem->model().stats();
  std::cout << "Spec: " << problem->num_patterns_applied() << " pattern instances\n"
            << "MILP: " << stats.num_vars << " variables, " << stats.num_constraints
            << " constraints, " << stats.standard_form_lines << " standard-form lines\n\n";

  milp::MilpOptions opts;
  opts.budget = milp::Budget::of_seconds(args.budget);
  if (args.max_nodes > 0) opts.max_nodes = args.max_nodes;

  if (!args.write_lp.empty()) {
    // Export the assembled MILP (objective included) without solving.
    problem->model().set_objective(problem->cost_expression(),
                                   milp::ObjectiveSense::Minimize);
    std::ofstream out(args.write_lp);
    if (!out) {
      std::cerr << "cannot write " << args.write_lp << "\n";
      return 2;
    }
    problem->model().write_lp(out);
    std::cout << "wrote " << args.write_lp << "\n";
    return 0;
  }

  // Shared epilogue for both modes: dump the Chrome trace and/or the
  // per-pattern attribution table, even when the solve came back infeasible
  // (the encode/presolve spans are still informative).
  auto write_observability = [&](const milp::Solution& sol) -> bool {
    if (prof != nullptr) {
      std::ofstream out(args.profile_json);
      if (!out) {
        std::cerr << "cannot write " << args.profile_json << "\n";
        return false;
      }
      prof->write_chrome_trace(out);
      const auto rep = prof->collect();
      std::cerr << "profile: " << rep.records.size() << " records (" << rep.dropped
                << " dropped) -> " << args.profile_json << "\n";
    }
    if (args.perf_report) {
      write_perf_report(std::cout, build_perf_report(*problem, sol));
    }
    return true;
  };

  if (args.sweep > 0) {
    // Compiled pipeline demo: encode once, then re-solve cost perturbations
    // as objective deltas with warm starts (docs/pipeline.md).
    const CompiledModel cm = compile(*problem);
    std::cout << "compiled: fingerprint " << std::hex << cm.fingerprint()
              << std::dec << ", encode " << cm.encode_seconds() << "s\n";
    SweepState state;
    ExplorationResult last;
    for (int i = 0; i < args.sweep; ++i) {
      Scenario sc;
      sc.name = "perturb-" + std::to_string(i);
      sc.edge_cost_scale = 1.0 + 0.02 * i;
      if (!cm.library().empty()) {
        sc.component_cost_scale[cm.library().at(0).name] = 1.0 + 0.05 * i;
      }
      ExplorationResult res = archex::solve(cm, sc, opts, &state);
      std::cout << "scenario " << sc.name << ": "
                << milp::to_string(res.solution.status) << ", cost "
                << res.solution.objective << ", "
                << (res.solution.warm_started ? "warm" : "cold") << ", "
                << res.solver_seconds << "s\n";
      last = std::move(res);
    }
    std::cout << "sweep: " << state.warm_solves << " warm, "
              << state.cold_solves << " cold\n"
              << "degradation: " << last.degradation_json() << "\n";
    if (!write_observability(last.solution)) return 2;
    return last.feasible() ? 0 : 1;
  }

  if (args.mode == "monolithic") {
    ExplorationResult res = problem->solve(opts);
    std::cout << "status: " << milp::to_string(res.solution.status) << ", solver time "
              << res.solver_seconds << "s, " << res.solution.nodes_explored << " nodes, "
              << res.solution.simplex_iterations << " simplex iterations\n";
    res.print_degradation(std::cout);
    if (res.degraded()) {
      std::cout << "degradation: " << res.degradation_json() << "\n";
    }
    if (!write_observability(res.solution)) return 2;
    if (!res.feasible()) return 1;
    std::cout << "cost: " << res.architecture.cost << "\n";
    res.architecture.print(std::cout);
    report_links(*problem, res.architecture);
    res.print_timing(std::cout);
    if (args.dot) std::cout << res.architecture.to_dot();
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    IterativeResult res = solve_lazy_epn(*problem, cfg, opts);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    double solve = 0.0, analyze = 0.0, learn = 0.0;
    for (const IterativeStep& it : res.iterations) {
      std::cout << "iteration " << it.index << ": ";
      // A solve that did not prove optimality says so, even when it left an
      // architecture (a node- or time-limited solve's incumbent).
      if (it.status != milp::SolveStatus::Optimal || it.architecture.nodes.empty()) {
        std::cout << milp::to_string(it.status) << ", ";
      }
      if (it.architecture.nodes.empty()) {
        // The solve failed (budget spent, or learning made it infeasible)
        // and was never analyzed: the step carries no metrics.
        std::cout << "no architecture, ";
      } else {
        std::cout << "cost " << it.cost << ", r = (" << it.metrics.at("worst_hv") << ", "
                  << it.metrics.at("worst_lv") << "), ";
      }
      std::cout << it.stats.num_constraints << " constraints, " << it.stats.num_vars
                << " variables, " << it.nodes << " nodes, " << it.simplex_iterations
                << " simplex iterations, solve " << seconds(it.solve_seconds) << ", analyze "
                << seconds(it.analyze_seconds) << ", learn " << seconds(it.learn_seconds)
                << "\n";
      solve += it.solve_seconds;
      analyze += it.analyze_seconds;
      learn += it.learn_seconds;
    }
    std::cout << "lazy loop: wall " << seconds(wall) << " = solve " << seconds(solve)
              << " + analyze " << seconds(analyze) << " + learn " << seconds(learn)
              << " + unaccounted " << seconds(wall - solve - analyze - learn) << "\n";
    std::cout << (res.converged ? "converged" : "NOT converged") << "\n";
    res.final_result.print_degradation(std::cout);
    if (!write_observability(res.final_result.solution)) return 2;
    if (!res.final_result.feasible()) return 1;
    res.final_result.architecture.print(std::cout);
    report_links(*problem, res.final_result.architecture);
    res.final_result.print_timing(std::cout);
    if (args.dot) std::cout << res.final_result.architecture.to_dot();
  }
  return 0;
}

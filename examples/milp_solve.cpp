/// \file milp_solve.cpp
/// Standalone MILP solver CLI over the in-repo engine: reads a CPLEX-LP
/// format file, solves it, prints status / objective / nonzero assignment.
/// The "Solver" box of Figure 1 as a reusable tool.
///
/// Usage: milp_solve <model.lp> [--budget=S] [--max-nodes=N] [--threads=N]
///                   [--lp-relaxation] [--trace-json=FILE] [--profile-json=FILE]
///                   [--log-interval=S] [--timing] [--certify] [--no-certify]
///                   [--inject=site:n[:seed]] [--checkpoint=FILE]
///                   [--checkpoint-interval=S] [--resume]
///
/// `--budget=S` is the wall-clock allowance (milp::Budget), with or without
/// `--lp-relaxation`. `--threads=N`
/// sets the tree search's workers: 1 (the default) is deterministic, 0 means
/// one per hardware thread.
///
/// Exit codes follow the termination reason: 0 optimal, 3 infeasible,
/// 4 unbounded, 5 node limit, 6 time limit, 7 iteration limit, 8 numerical
/// failure, 9 certificate violation, 2 usage/parse error.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "check/certify.hpp"
#include "milp/branch_bound.hpp"
#include "milp/fault.hpp"
#include "milp/lp_format.hpp"
#include "milp/simplex.hpp"
#include "obs/span.hpp"

using namespace archex::milp;

namespace {

int exit_code(SolveStatus s) {
  switch (s) {
    case SolveStatus::Optimal: return 0;
    case SolveStatus::Infeasible: return 3;
    case SolveStatus::Unbounded: return 4;
    case SolveStatus::NodeLimit: return 5;
    case SolveStatus::TimeLimit: return 6;
    case SolveStatus::IterationLimit: return 7;
    case SolveStatus::NumericalError:
    case SolveStatus::Cutoff: return 8;
  }
  return 8;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: milp_solve <model.lp> [--budget=S] [--max-nodes=N]"
      " [--threads=N] [--lp-relaxation]\n"
      "                  [--trace-json=FILE] [--profile-json=FILE]"
      " [--log-interval=S] [--timing]\n"
      "                  [--certify] [--no-certify]\n"
      "                  [--inject=site:n[:seed]] [--checkpoint=FILE]"
      " [--checkpoint-interval=S] [--resume]\n"
      "  fault sites: singular, nan-pivot, deadline, stall, bad-alloc"
      " (see docs/diagnostics.md)\n");
}

/// Parses the numeric tail of `arg` with `conv` (std::stod / std::stoi /
/// std::stoll wrappers). A malformed or trailing-garbage value prints the
/// usage text and exits 2 instead of aborting on an uncaught exception.
template <typename T, typename Conv>
bool parse_num(const std::string& arg, std::size_t prefix_len, Conv conv,
               T& out) {
  const std::string tail = arg.substr(prefix_len);
  try {
    std::size_t pos = 0;
    out = conv(tail, &pos);
    if (pos != tail.size() || tail.empty()) throw std::invalid_argument(tail);
    return true;
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad value in argument: %s\n", arg.c_str());
    usage();
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  double budget_s = 300.0;
  std::int64_t max_nodes = -1;  // -1 = keep the library default
  int threads = 1;              // 0 = one per hardware thread
  bool relaxation = false;
  bool timing = false;
  bool certify = true;  // independent certification of the answer (default on)
  double log_interval = 0.0;
  std::string trace_path;
  std::string profile_path;
  FaultPlan fault;
  bool fault_armed = false;
  std::string checkpoint_file;
  double checkpoint_interval = 30.0;
  bool resume = false;
  auto to_d = [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); };
  auto to_i = [](const std::string& s, std::size_t* pos) { return std::stoi(s, pos); };
  auto to_ll = [](const std::string& s, std::size_t* pos) { return std::stoll(s, pos); };
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--budget=", 0) == 0) {
      if (!parse_num(a, 9, to_d, budget_s)) return 2;
    } else if (a.rfind("--max-nodes=", 0) == 0) {
      long long v = 0;
      if (!parse_num(a, 12, to_ll, v)) return 2;
      max_nodes = v;
    } else if (a.rfind("--threads=", 0) == 0) {
      if (!parse_num(a, 10, to_i, threads)) return 2;
    } else if (a == "--lp-relaxation") {
      relaxation = true;
    } else if (a.rfind("--trace-json=", 0) == 0) {
      trace_path = a.substr(13);
    } else if (a.rfind("--profile-json=", 0) == 0) {
      profile_path = a.substr(15);
    } else if (a.rfind("--log-interval=", 0) == 0) {
      if (!parse_num(a, 15, to_d, log_interval)) return 2;
    } else if (a == "--timing") {
      timing = true;
    } else if (a == "--certify") {
      certify = true;
    } else if (a == "--no-certify") {
      certify = false;
    } else if (a.rfind("--inject=", 0) == 0) {
      if (!fault.arm_from_spec(a.substr(9))) {
        std::fprintf(stderr, "bad fault spec: %s\n", a.c_str());
        usage();
        return 2;
      }
      fault_armed = true;
    } else if (a.rfind("--checkpoint=", 0) == 0) {
      checkpoint_file = a.substr(13);
    } else if (a.rfind("--checkpoint-interval=", 0) == 0) {
      if (!parse_num(a, 22, to_d, checkpoint_interval)) return 2;
    } else if (a == "--resume") {
      resume = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      usage();
      return 2;
    }
  }
  if (resume && checkpoint_file.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint=FILE\n");
    usage();
    return 2;
  }

  try {
    const Model model = parse_lp_file(argv[1]);
    const ModelStats st = model.stats();
    std::printf("model: %zu variables (%zu binary, %zu integer), %zu constraints, %zu nnz\n",
                st.num_vars, st.num_binary, st.num_integer, st.num_constraints,
                st.num_nonzeros);

    // The recorder behind both --trace-json and --profile-json: lives on the
    // stack here, read only after solve_milp's workers have joined.
    archex::obs::SpanProfiler profiler;
    const bool recording = !trace_path.empty() || !profile_path.empty();

    Solution sol;
    if (relaxation) {
      SimplexOptions lp_opts;
      // --budget bounds the relaxation too: the simplex polls this deadline.
      lp_opts.deadline = Budget::of_seconds(budget_s).deadline_from(Budget::Clock::now());
      if (recording) lp_opts.spans = profiler.main();
      sol = solve_lp_relaxation(model, lp_opts);
    } else {
      MilpOptions opts;
      if (recording) opts.profiler = &profiler;
      opts.budget = Budget::of_seconds(budget_s);
      if (max_nodes >= 0) opts.max_nodes = max_nodes;
      opts.num_threads = threads;
      opts.certify = certify;
      if (fault_armed) opts.fault = &fault;
      opts.checkpoint_file = checkpoint_file;
      opts.checkpoint_interval_s = checkpoint_interval;
      opts.resume = resume;
      if (log_interval > 0.0) {
        opts.log_interval = log_interval;
        opts.log_sink = &std::cout;
      }
      sol = solve_milp(model, opts);
      if (resume) {
        const auto it = sol.metrics.find("milp.checkpoint.loaded");
        std::printf("resume: %s\n",
                    it != sol.metrics.end() && it->second > 0.0
                        ? "checkpoint loaded"
                        : "checkpoint rejected, fresh solve");
      }
    }
    archex::check::Certificate cert;
    if (certify && sol.has_incumbent) {
      if (relaxation) {
        // The answer solves the relaxation, so certify against it: integrality
        // of the original columns is not a property the relaxation promises.
        Model relaxed = model;
        for (std::size_t j = 0; j < relaxed.num_vars(); ++j) {
          relaxed.var(VarId{static_cast<std::int32_t>(j)}).type = VarType::Continuous;
        }
        cert = archex::check::certify(relaxed, sol);
      } else {
        cert = archex::check::certify(model, sol);
      }
    }
    std::printf("status: %s\n", to_string(sol.status));
    if (sol.degraded) {
      std::printf("degraded: %lld subtree(s) abandoned by the recovery ladder;"
                  " bound stays sound\n",
                  static_cast<long long>(sol.degraded_nodes));
    }
    if (sol.has_incumbent || sol.status == SolveStatus::Optimal) {
      std::printf("objective: %.10g\n", sol.objective);
      std::printf("nodes: %lld, simplex iterations: %lld, time: %.3fs\n",
                  static_cast<long long>(sol.nodes_explored),
                  static_cast<long long>(sol.simplex_iterations), sol.solve_seconds);
      if (sol.threads_used > 1) {
        std::printf("threads: %d, steals: %lld, cpu time: %.3fs\n", sol.threads_used,
                    static_cast<long long>(sol.steals), sol.cpu_seconds);
      }
      for (std::size_t j = 0; j < sol.x.size(); ++j) {
        if (std::abs(sol.x[j]) > 1e-9) {
          const std::string& name = model.vars()[j].name;
          std::printf("  %s = %.10g\n",
                      name.empty() ? ("x" + std::to_string(j)).c_str() : name.c_str(),
                      sol.x[j]);
        }
      }
    }
    if (timing) {
      const SolvePhases& p = sol.phases;
      std::printf("phases: presolve %.3fs, root LP %.3fs, heuristic %.3fs,"
                  " tree %.3fs, extract %.3fs\n",
                  p.presolve, p.root_lp, p.heuristic, p.tree, p.extract);
    }
    if (cert.checked) std::printf("%s\n", cert.summary().c_str());
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write trace to %s\n", trace_path.c_str());
        return 2;
      }
      sol.trace.write_jsonl(out);
      std::fprintf(stderr, "trace: %zu events (%lld dropped) -> %s\n",
                   sol.trace.events.size(),
                   static_cast<long long>(sol.trace.dropped), trace_path.c_str());
    }
    if (!profile_path.empty()) {
      std::ofstream out(profile_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write profile to %s\n",
                     profile_path.c_str());
        return 2;
      }
      profiler.write_chrome_trace(out);
      const auto rep = profiler.collect();
      std::fprintf(stderr, "profile: %zu records (%lld dropped) -> %s\n",
                   rep.records.size(), static_cast<long long>(rep.dropped),
                   profile_path.c_str());
    }
    if (cert.checked && !cert.ok()) return 9;
    return exit_code(sol.status);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

/// \file bench_sweep.cpp
/// Compiled-pipeline sweep benchmark (docs/pipeline.md): the cached+warm
/// re-solve path against the naive alternative it replaces. One scenario
/// family = 20 perturbations (cost scales plus one RHS delta) of a
/// routing-fabric assignment whose root LP dominates the solve: all cost
/// lives on the edges, so the relaxation is the (integral) assignment
/// polytope, the tree closes at the root, and the warm dual-simplex
/// restart is the whole story. Component (node) costs are deliberately
/// zero — a priced node's delta column satisfies delta >= x_e per incident
/// edge, so the relaxation evades node cost by splitting a sink across k
/// edges (delta -> 1/k), opening an integrality gap that grows with the
/// template and drowns the warm start in tree search (that regime is what
/// the EPN models in bench_serve measure).
///
///   * BM_SweepCold — every scenario pays the full classic path: build the
///     Problem (encode), compile, solve from scratch. This is "20
///     independent encode+cold-solve runs".
///   * BM_SweepWarm — the artifact is compiled once (outside the timed
///     region, exactly what a service cache hit means) and each timed
///     iteration fetches it from a CompiledModelCache and re-solves the
///     whole family as parameter deltas, warm-starting each scenario from
///     the previous optimal basis (SweepState).
///
/// The committed BENCH_sweep.json baseline is recorded through
/// tools/run_bench.sh (release provenance enforced) and diffed by
/// tools/bench_diff.py in ci.sh; ci.sh additionally asserts the recorded
/// cold/warm ratio stays >= 5x and that every warm objective equals the
/// cold objective for the same scenario.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arch/compiled_model.hpp"
#include "arch/patterns/connection.hpp"
#include "arch/problem.hpp"
#include "milp/budget.hpp"

namespace {

using namespace archex;
using namespace archex::patterns;

constexpr int kScenarios = 20;

/// Routing fabric: `mids` relays, each sink fed by exactly one relay, with
/// a distinct integer edge cost (all multiples of 25, so the solver's gcd
/// granularity pruning stays armed) per candidate connection. Size is
/// driven by `mids`; snks = mids / 4 gives mids * snks candidate edges.
struct SweepSpec {
  Library lib;
  ArchTemplate tmpl;

  explicit SweepSpec(int mids) {
    const int snks = std::max(2, mids / 4);
    lib.set_edge_cost(25.0);
    lib.add({"MidRelay", "Mid", "relay", {}, {{attr::kCost, 0}}});
    lib.add({"SnkX", "Snk", "", {}, {{attr::kCost, 0}}});
    tmpl.add_nodes(mids, "M", "Mid");
    tmpl.add_nodes(snks, "T", "Snk");
    tmpl.allow_connection(NodeFilter::of_type("Mid"), NodeFilter::of_type("Snk"));
  }

  [[nodiscard]] std::unique_ptr<Problem> make() const {
    auto p = std::make_unique<Problem>(lib, tmpl);
    // Every sink fed through exactly one relay: the assignment shape whose
    // relaxation is integral (all cost on edges — see the file comment).
    p->apply(NConnections(NodeFilter::of_type("Mid"), NodeFilter::of_type("Snk"),
                          1, milp::Sense::EQ, false, CountSide::kTo));
    // Distinct per-edge integer costs (a fixed hash of the edge index, all
    // multiples of 25): a unique optimum, no symmetric plateau to enumerate.
    const auto& es = p->edges().edges();
    for (std::size_t e = 0; e < es.size(); ++e) {
      const double c = 25.0 * (1.0 + static_cast<double>((e * 2654435761u) % 64));
      p->set_edge_cost(es[e].from, es[e].to, c);
    }
    return p;
  }
};

/// The i-th member of the perturbation family: a uniform edge-cost scale
/// (objective delta) for every member, plus one RHS delta (sink T1 needs a
/// second feed) mid-sweep — the two non-structural delta kinds the warm
/// dual-simplex restart was built for (docs/pipeline.md).
Scenario perturbation(int i) {
  Scenario sc;
  sc.name = "perturb-" + std::to_string(i);
  sc.edge_cost_scale = 1.0 + 0.01 * i;
  if (i == 10) sc.rhs["exactly_n_connections(T1<-Mid)"] = 2.0;
  return sc;
}

milp::MilpOptions solver_options() {
  milp::MilpOptions opts;
  opts.num_threads = 1;
  opts.budget = milp::Budget::of_seconds(60.0);
  return opts;
}

void BM_SweepCold(benchmark::State& state) {
  const int mids = static_cast<int>(state.range(0));
  const SweepSpec spec(mids);
  const milp::MilpOptions opts = solver_options();
  std::int64_t solved = 0;
  for (auto _ : state) {
    for (int i = 0; i < kScenarios; ++i) {
      // The naive path: re-encode and re-compile per scenario, solve with no
      // warm-start state.
      auto problem = spec.make();
      const CompiledModel cm = compile(*problem);
      const ExplorationResult res = archex::solve(cm, perturbation(i), opts);
      if (!res.feasible()) {
        state.SkipWithError("cold scenario infeasible");
        return;
      }
      benchmark::DoNotOptimize(res.solution.objective);
      ++solved;
    }
  }
  // Work counters are per iteration: the iteration count google-benchmark
  // picks depends on speed, and tools/bench_diff.py gates these exactly.
  state.counters["scenarios"] =
      benchmark::Counter(static_cast<double>(solved), benchmark::Counter::kAvgIterations);
  state.counters["cold_solves"] =
      benchmark::Counter(static_cast<double>(solved), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SweepCold)
    ->Arg(96)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_SweepWarm(benchmark::State& state) {
  const int mids = static_cast<int>(state.range(0));
  const SweepSpec spec(mids);
  const milp::MilpOptions opts = solver_options();
  // Compile once, park in the cache: the timed region below is the service's
  // cache-hit path (fingerprint lookup + 20 warm re-solves), with the encode
  // already paid by an earlier request.
  CompiledModelCache cache(4);
  auto problem = spec.make();
  const std::uint64_t fp = [&] {
    auto cm = std::make_shared<const CompiledModel>(compile(*problem));
    const std::uint64_t f = cm->fingerprint();
    cache.put(std::move(cm));
    return f;
  }();
  std::int64_t warm = 0;
  std::int64_t cold = 0;
  for (auto _ : state) {
    const std::shared_ptr<const CompiledModel> cm = cache.get(fp);
    if (cm == nullptr) {
      state.SkipWithError("cache lost the compiled artifact");
      return;
    }
    SweepState sweep;
    for (int i = 0; i < kScenarios; ++i) {
      const ExplorationResult res = archex::solve(*cm, perturbation(i), opts, &sweep);
      if (!res.feasible()) {
        state.SkipWithError("warm scenario infeasible");
        return;
      }
      benchmark::DoNotOptimize(res.solution.objective);
    }
    warm += sweep.warm_solves;
    cold += sweep.cold_solves;
  }
  state.counters["warm_solves"] =
      benchmark::Counter(static_cast<double>(warm), benchmark::Counter::kAvgIterations);
  state.counters["cold_solves"] =
      benchmark::Counter(static_cast<double>(cold), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SweepWarm)
    ->Arg(96)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // Provenance stamp for tools/run_bench.sh — see bench_milp.cpp for why the
  // stock library_build_type cannot be used.
#if !defined(NDEBUG)
  benchmark::AddCustomContext("archex_build_type", "debug");
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  benchmark::AddCustomContext("archex_build_type", "sanitized");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  benchmark::AddCustomContext("archex_build_type", "sanitized");
#else
  benchmark::AddCustomContext("archex_build_type", "release");
#endif
#else
  benchmark::AddCustomContext("archex_build_type", "release");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

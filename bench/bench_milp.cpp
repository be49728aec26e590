/// \file bench_milp.cpp
/// Microbenchmarks of the MILP substrate (google-benchmark): LP solve
/// scaling, warm-started dual reoptimization vs cold solves (the ablation
/// behind the branch & bound design), and presolve throughput.
#include <benchmark/benchmark.h>

#include <optional>
#include <random>

#include "milp/branch_bound.hpp"
#include "milp/presolve.hpp"
#include "milp/simplex.hpp"
#include "obs/span.hpp"

namespace {

using namespace archex::milp;

/// Random sparse LP with n variables and n constraints: a width-5 band plus
/// one long-range coupling per row (~6 nonzeros/row at every scale). This is
/// the sparsity class of ArchEx flow/adjacency encodings and keeps the
/// nonzero count linear in n, so the same generator scales from 25 to 5000
/// rows; a constant-density generator would make large instances quadratic
/// in n regardless of kernel.
Model random_lp(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(0.1, 3.0);
  Model m;
  std::vector<VarId> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) v.push_back(m.add_continuous(0, 10));
  for (int i = 0; i < n; ++i) {
    LinExpr e;
    for (int k = 0; k < 5; ++k) {
      const int j = (i + k) % n;
      e += coef(rng) * v[static_cast<std::size_t>(j)];
    }
    const int far = (i * 7 + n / 2) % n;
    e += coef(rng) * v[static_cast<std::size_t>(far)];
    m.add_constraint(std::move(e), Sense::LE, 5.0 * coef(rng));
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj += -coef(rng) * v[static_cast<std::size_t>(j)];
  m.set_objective(obj);
  return m;
}

/// Random binary knapsack-style MILP.
Model random_milp(int n, int rows, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(1, 9);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < n; ++j) v.push_back(m.add_binary());
  LinExpr obj;
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    for (int j = 0; j < n; ++j) e += static_cast<double>(w(rng)) * v[static_cast<std::size_t>(j)];
    m.add_constraint(std::move(e), Sense::LE, 2.5 * n);
  }
  for (int j = 0; j < n; ++j) obj += static_cast<double>(w(rng)) * v[static_cast<std::size_t>(j)];
  m.set_objective(obj, ObjectiveSense::Maximize);
  return m;
}

void BM_LpSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Model m = random_lp(n, 42);
  std::int64_t iters = 0;
  for (auto _ : state) {
    Solution s = solve_lp_relaxation(m);
    iters = s.simplex_iterations;
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["rows"] = n;
  state.counters["iters"] = static_cast<double>(iters);
}
BENCHMARK(BM_LpSolve)
    ->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Arg(1000)->Arg(2000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_LpSolveDense(benchmark::State& state) {
  // The pre-LU explicit-inverse kernel on the same instances: the committed
  // before/after scaling curve. Capped at 200 rows — beyond that the dense
  // kernel's O(m^2)-per-pivot cost makes the benchmark itself intractable,
  // which is the point of the sparse kernel.
  const int n = static_cast<int>(state.range(0));
  const Model m = random_lp(n, 42);
  SimplexOptions opts;
  opts.kernel = BasisKernel::Dense;
  std::int64_t iters = 0;
  for (auto _ : state) {
    Solution s = solve_lp_relaxation(m, opts);
    iters = s.simplex_iterations;
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["rows"] = n;
  state.counters["iters"] = static_cast<double>(iters);
}
BENCHMARK(BM_LpSolveDense)
    ->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_WarmDualReopt(benchmark::State& state) {
  // One bound change + dual reoptimization, the branch & bound node kernel.
  const Model m = random_lp(static_cast<int>(state.range(0)), 7);
  SimplexSolver lp(m);
  lp.solve_primal();
  int col = 0;
  for (auto _ : state) {
    lp.set_bounds(col, 0.0, 1.0);
    benchmark::DoNotOptimize(lp.reoptimize_dual());
    lp.set_bounds(col, 0.0, 10.0);
    benchmark::DoNotOptimize(lp.reoptimize_dual());
    col = (col + 1) % static_cast<int>(state.range(0));
  }
}
BENCHMARK(BM_WarmDualReopt)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_ColdResolve(benchmark::State& state) {
  // The same kernel without warm starts: full two-phase solve per change.
  const Model m = random_lp(static_cast<int>(state.range(0)), 7);
  SimplexSolver lp(m);
  int col = 0;
  for (auto _ : state) {
    lp.set_bounds(col, 0.0, 1.0);
    benchmark::DoNotOptimize(lp.solve_primal());
    lp.set_bounds(col, 0.0, 10.0);
    col = (col + 1) % static_cast<int>(state.range(0));
  }
}
BENCHMARK(BM_ColdResolve)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMicrosecond);

/// Strongly correlated knapsack with fractional values: the objective has no
/// usable granularity, so the tree reaches hundreds of thousands of nodes —
/// large enough for the work-stealing pool to matter.
Model hard_knapsack(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(10, 30);
  Model m;
  LinExpr tw, tv;
  double cap = 0.0;
  for (int j = 0; j < n; ++j) {
    VarId v = m.add_binary();
    const int wj = w(rng);
    tw += static_cast<double>(wj) * v;
    tv += (static_cast<double>(wj) + 5.0 + 0.1 * (j % 7)) * v;
    cap += wj;
  }
  m.add_constraint(tw <= LinExpr(0.5 * cap));
  m.set_objective(tv, ObjectiveSense::Maximize);
  return m;
}

void BM_MilpThreads(benchmark::State& state) {
  // Thread-count sweep of solve_milp on a fixed >10k-node instance. The
  // speedup ratio between threads=1 and threads=N is the headline number;
  // nodes/steals expose the tree inflation and work-redistribution rate.
  // The second arg attaches a recorder (spans + search events, one per
  // solve): the traced/untraced pair at equal thread counts measures the
  // telemetry overhead, which must stay within run-to-run noise (the buffers
  // are single-writer, no locks).
  const Model m = hard_knapsack(50, 42);
  const bool traced = state.range(1) != 0;
  MilpOptions opts;
  opts.num_threads = static_cast<int>(state.range(0));
  std::int64_t nodes = 0, steals = 0, events = 0;
  double cpu = 0.0, refactors = 0.0;
  for (auto _ : state) {
    std::optional<archex::obs::SpanProfiler> recorder;
    if (traced) opts.profiler = &recorder.emplace();
    Solution s = solve_milp(m, opts);
    nodes = s.nodes_explored;
    steals = s.steals;
    cpu = s.cpu_seconds;
    events = static_cast<std::int64_t>(s.trace.events.size()) + s.trace.dropped;
    const auto it = s.metrics.find("milp.refactors");
    refactors = it == s.metrics.end() ? 0.0 : it->second;
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["threads"] = static_cast<double>(opts.num_threads);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["steals"] = static_cast<double>(steals);
  state.counters["cpu_s"] = cpu;
  state.counters["refactors"] = refactors;
  state.counters["trace_events"] = static_cast<double>(events);
  state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_MilpThreads)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ObsOverhead(benchmark::State& state) {
  // Span-profiler cost on the BM_LpSolve/1000 instance. Arg 0 solves with
  // profiling disabled (opts.spans == nullptr — the default every solve
  // takes); Arg 1 attaches a live SpanBuffer with kernel sampling. The
  // Arg(0) time must sit within noise of plain BM_LpSolve/1000: disabled
  // profiling is one null test per ScopedSpan, no clock reads.
  const Model m = random_lp(1000, 42);
  const bool profiled = state.range(0) != 0;
  archex::obs::SpanProfiler prof;
  SimplexOptions opts;
  if (profiled) opts.spans = prof.main();
  std::int64_t spans = 0;
  for (auto _ : state) {
    Solution s = solve_lp_relaxation(m, opts);
    benchmark::DoNotOptimize(s.objective);
  }
  if (profiled) {
    const auto rep = prof.collect();
    spans = static_cast<std::int64_t>(rep.records.size()) + rep.dropped;
  }
  state.counters["spans"] = static_cast<double>(spans);
  state.SetLabel(profiled ? "profiled" : "disabled");
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Presolve(benchmark::State& state) {
  const Model m = random_milp(static_cast<int>(state.range(0)), 8, 3);
  for (auto _ : state) {
    PresolveResult r = presolve(m);
    benchmark::DoNotOptimize(r.reduced.num_vars());
  }
}
BENCHMARK(BM_Presolve)->Arg(50)->Arg(200)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Provenance stamp for tools/run_bench.sh: the stock
  // `context.library_build_type` describes how the system libbenchmark was
  // compiled, not this binary, so the guard keys on this field instead.
  // Sanitized builds are excluded even though the asan/tsan presets define
  // NDEBUG — their numbers are no more comparable than a debug build's.
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

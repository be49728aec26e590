/// Unit tests for the recorder (obs/span.hpp): RAII span nesting,
/// cross-worker merge ordering, overflow accounting (including the
/// milp.records_dropped metric fed by solve_milp), per-solve event views of
/// one recording, the zero-cost disabled path, the Chrome trace-event export
/// (spans and instants), the Prometheus exposition, and the per-pattern
/// cost-attribution report on a real EPN encode.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "arch/perf_report.hpp"
#include "domains/epn.hpp"
#include "milp/branch_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace archex::obs {
namespace {

TEST(SpanTest, NullAndDisabledBuffersAreNoOps) {
  {
    ScopedSpan null_span(nullptr, span_id(SpanName::Ftran));
    null_span.stop();  // must not crash
  }
  SpanBuffer unarmed;  // never init()ed: enabled() is false
  EXPECT_FALSE(unarmed.enabled());
  {
    ScopedSpan span(&unarmed, span_id(SpanName::Ftran));
  }
  EXPECT_TRUE(unarmed.spans().empty());
  EXPECT_EQ(unarmed.dropped(), 0);
}

TEST(SpanTest, NestedScopesRecordDepthAndContainment) {
  SpanProfiler prof;
  SpanBuffer* buf = prof.main();
  ASSERT_NE(buf, nullptr);
  {
    ScopedSpan outer(buf, span_id(SpanName::Encode));
    {
      ScopedSpan inner(buf, span_id(SpanName::Presolve));
    }
    {
      ScopedSpan inner2(buf, span_id(SpanName::Solve));
    }
  }
  // Recorded at exit: children precede the parent in raw buffer order...
  ASSERT_EQ(buf->spans().size(), 3u);
  EXPECT_EQ(buf->spans()[0].name, span_id(SpanName::Presolve));
  EXPECT_EQ(buf->spans()[2].name, span_id(SpanName::Encode));
  // ...and collect() re-sorts so the parent comes first.
  const SpanProfiler::Report rep = prof.collect();
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_EQ(rep.records[0].name, span_id(SpanName::Encode));
  EXPECT_EQ(rep.records[0].depth, 0);
  EXPECT_EQ(rep.records[1].name, span_id(SpanName::Presolve));
  EXPECT_EQ(rep.records[1].depth, 1);
  EXPECT_EQ(rep.records[2].name, span_id(SpanName::Solve));
  EXPECT_EQ(rep.records[2].depth, 1);
  // Containment: every child lies inside the parent's [t0, t1].
  const Record& parent = rep.records[0];
  for (std::size_t i = 1; i < rep.records.size(); ++i) {
    EXPECT_GE(rep.records[i].t0, parent.t0);
    EXPECT_LE(rep.records[i].t1, parent.t1);
  }
}

TEST(SpanTest, StopClosesEarlyAndDestructorRecordsNothingFurther) {
  SpanProfiler prof;
  SpanBuffer* buf = prof.main();
  {
    ScopedSpan span(buf, span_id(SpanName::RootLp));
    span.stop();
    ASSERT_EQ(buf->spans().size(), 1u);
  }
  EXPECT_EQ(buf->spans().size(), 1u);
}

TEST(SpanTest, CollectMergesWorkersInStartTimeOrder) {
  SpanProfiler prof;
  prof.arm_workers(3);
  ASSERT_EQ(prof.num_workers(), 3);
  // Interleave spans across workers so no single buffer is globally ordered.
  for (int round = 0; round < 2; ++round) {
    for (int w = 0; w < 3; ++w) {
      ScopedSpan span(prof.buffer(w), span_id(SpanName::Ftran));
    }
  }
  const SpanProfiler::Report rep = prof.collect();
  ASSERT_EQ(rep.records.size(), 6u);
  for (std::size_t i = 1; i < rep.records.size(); ++i) {
    EXPECT_LE(rep.records[i - 1].t0, rep.records[i].t0) << "slot " << i;
  }
  // All three workers are represented with their own id.
  std::vector<int> seen(3, 0);
  for (const Record& s : rep.records) {
    ASSERT_GE(s.worker, 0);
    ASSERT_LT(s.worker, 3);
    ++seen[static_cast<std::size_t>(s.worker)];
  }
  for (int w = 0; w < 3; ++w) EXPECT_EQ(seen[static_cast<std::size_t>(w)], 2);
}

TEST(SpanTest, OverflowDropsNewestAndCounts) {
  SpanProfiler prof(/*capacity_per_worker=*/2);
  SpanBuffer* buf = prof.main();
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(buf, span_id(SpanName::PriceRow));
  }
  EXPECT_EQ(buf->spans().size(), 2u);  // oldest two kept (drop-newest)
  EXPECT_EQ(prof.dropped(), 3);
  // take_dropped() hands out the delta exactly once.
  EXPECT_EQ(prof.take_dropped(), 3);
  EXPECT_EQ(prof.take_dropped(), 0);
  {
    ScopedSpan span(buf, span_id(SpanName::PriceRow));
  }
  EXPECT_EQ(prof.take_dropped(), 1);
  const SpanProfiler::Report rep = prof.collect();
  EXPECT_EQ(rep.dropped, 4);  // collect() reports the total, not the delta
}

TEST(SpanTest, InternIsIdempotentAndPreInternsEnumNames) {
  SpanProfiler prof;
  // The enum value is the id for every fixed name; event types follow.
  for (std::int32_t i = 0; i < span_id(SpanName::kCount); ++i) {
    EXPECT_EQ(prof.name_of(i), to_string(static_cast<SpanName>(i)));
  }
  for (std::int32_t i = 0; i < kEventTypes; ++i) {
    const auto t = static_cast<EventType>(i);
    EXPECT_EQ(prof.name_of(event_id(t)), to_string(t));
    EXPECT_TRUE(is_event_id(event_id(t)));
  }
  const std::int32_t a = prof.intern("cannot_connect(A, B)");
  const std::int32_t b = prof.intern("cannot_connect(A, B)");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(is_event_id(a));
  EXPECT_GE(a, span_id(SpanName::kCount));
  // A dynamic name spelled like an event type still interns as a span.
  EXPECT_FALSE(is_event_id(prof.intern(to_string(EventType::NodeOpen))));
  EXPECT_EQ(prof.name_of(a), "cannot_connect(A, B)");
  EXPECT_EQ(prof.name_of(9999), "?");
}

TEST(SpanTest, DisabledSpansAreEffectivelyFree) {
  // 1M disabled spans must complete in far less than the time even a single
  // clock read per span would cost. The generous bound (1s) keeps the test
  // meaningful without being flaky on loaded CI machines: 1M clock-reading
  // spans take well over 1s only when the disabled path is broken enough to
  // actually read clocks; a null test per span finishes in ~ms.
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    ScopedSpan span(nullptr, span_id(SpanName::Ftran));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, 1.0);
}

TEST(SpanTest, ChromeTraceExportIsWellFormed) {
  SpanProfiler prof;
  prof.arm_workers(2);
  {
    ScopedSpan outer(prof.main(), span_id(SpanName::Solve));
    ScopedSpan inner(prof.buffer(1), span_id(SpanName::Ftran));
  }
  std::ostringstream os;
  prof.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find_last_not_of('\n'), json.size() - 2);
  EXPECT_EQ(json[json.size() - 2], '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ftran\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);
}

TEST(SpanTest, ChromeTraceExportsEventsAsInstants) {
  SpanProfiler prof;
  {
    ScopedSpan tree(prof.main(), span_id(SpanName::Tree));
    prof.main()->emit(EventType::NodeClose, 5, 12.5,
                      static_cast<std::uint8_t>(NodeOutcome::Branched));
    prof.main()->emit(EventType::DualRepair);
  }
  std::ostringstream os;
  prof.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"tree\",\"cat\":\"archex\",\"ph\":\"X\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"node_close\",\"cat\":\"archex\",\"ph\":\"i\",\"s\":\"t\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"node\":5,\"outcome\":\"branched\",\"bound\":12.5}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"dual_repair\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{}"), std::string::npos);  // a key-less event
}

/// Tiny binary model: min sum (1 + j/2) x_j s.t. sum x_j >= 3, six binaries.
milp::Model tiny_cover() {
  using namespace archex::milp;
  Model m;
  LinExpr obj;
  LinExpr row;
  for (int j = 0; j < 6; ++j) {
    VarId v = m.add_binary();
    obj += (1.0 + 0.5 * j) * v;
    row += 1.0 * v;
  }
  m.add_constraint(std::move(row), Sense::GE, 3.0);
  m.set_objective(obj, ObjectiveSense::Minimize);
  return m;
}

TEST(SpanTest, SolveMilpRecordsPhasesAndCountsDroppedRecords) {
  using namespace archex::milp;
  // A deliberately tiny capacity (four records: fewer than the solve's
  // events alone) exercises the overflow accounting path end to end.
  SpanProfiler prof(/*capacity_per_worker=*/4);
  MilpOptions opts;
  opts.num_threads = 1;
  opts.profiler = &prof;
  const Solution sol = solve_milp(tiny_cover(), opts);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);

  const SpanProfiler::Report rep = prof.collect();
  EXPECT_EQ(rep.records.size(), 4u);
  EXPECT_GT(rep.dropped, 0);
  const auto it = sol.metrics.find("milp.records_dropped");
  ASSERT_NE(it, sol.metrics.end());
  EXPECT_GT(it->second, 0.0);
  EXPECT_EQ(static_cast<std::int64_t>(it->second), sol.trace.dropped);
}

TEST(SpanTest, SolveKeepsSolveStartOnOverflow) {
  using namespace archex::milp;
  // Drop-newest keeps the first records of a solve, so an overflowing trace
  // still opens with its one solve_start.
  SpanProfiler prof(/*capacity_per_worker=*/8);
  MilpOptions opts;
  opts.num_threads = 1;
  opts.profiler = &prof;
  const Solution sol = solve_milp(tiny_cover(), opts);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_GT(sol.trace.dropped, 0);
  EXPECT_EQ(sol.trace.count(EventType::SolveStart), 1u);
  ASSERT_FALSE(sol.trace.empty());
  EXPECT_EQ(sol.trace.events.front().type, EventType::SolveStart);
}

TEST(SpanTest, OneRecorderAcrossSolvesGivesEachSolveItsOwnTrace) {
  using namespace archex::milp;
  SpanProfiler prof;
  MilpOptions opts;
  opts.num_threads = 1;
  opts.profiler = &prof;
  const Solution first = solve_milp(tiny_cover(), opts);
  const Solution second = solve_milp(tiny_cover(), opts);
  ASSERT_EQ(first.status, SolveStatus::Optimal);
  ASSERT_EQ(second.status, SolveStatus::Optimal);
  for (const Solution* s : {&first, &second}) {
    EXPECT_EQ(s->trace.dropped, 0);
    EXPECT_EQ(s->trace.count(EventType::SolveStart), 1u);
    EXPECT_EQ(s->trace.count(EventType::SolveEnd), 1u);
    EXPECT_EQ(s->trace.count(EventType::NodeOpen),
              static_cast<std::size_t>(s->nodes_explored));
    EXPECT_EQ(s->trace.events.front().type, EventType::SolveStart);
    EXPECT_GE(s->trace.events.front().t, 0.0);  // timed from this solve's start
  }
  // Same model, same deterministic search: identical event sequences.
  ASSERT_EQ(first.trace.events.size(), second.trace.events.size());
  for (std::size_t i = 0; i < first.trace.events.size(); ++i) {
    EXPECT_EQ(first.trace.events[i].type, second.trace.events[i].type) << i;
  }
  // The recording itself holds both solves.
  std::size_t starts = 0;
  for (const Record& r : prof.collect().records) {
    starts += r.name == event_id(EventType::SolveStart) ? 1 : 0;
  }
  EXPECT_EQ(starts, 2u);
}

TEST(SpanTest, ParallelSolveRecordsSpansFromMultipleWorkers) {
  using namespace archex::milp;
  // A tree big enough that both pool workers run node LPs, with per-pivot
  // kernel sampling: each worker writes its own buffer concurrently, which
  // is exactly what the tsan CI slice needs to see (single-writer
  // discipline — arm before spawn, collect after join).
  Model m;
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> w(10, 30);
  LinExpr tw, tv;
  double cap = 0.0;
  for (int j = 0; j < 30; ++j) {
    VarId v = m.add_binary();
    const int wj = w(rng);
    tw += static_cast<double>(wj) * v;
    tv += (static_cast<double>(wj) + 5.0 + 0.1 * (j % 7)) * v;
    cap += wj;
  }
  m.add_constraint(std::move(tw), Sense::LE, 0.5 * cap);
  m.set_objective(tv, ObjectiveSense::Maximize);

  SpanProfiler prof;
  MilpOptions opts;
  opts.num_threads = 2;
  opts.profiler = &prof;
  const Solution sol = solve_milp(m, opts);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_GE(prof.num_workers(), 2);
  const SpanProfiler::Report rep = prof.collect();
  std::size_t worker1_nodes = 0;
  for (const Record& r : rep.records) {
    if (r.worker == 1 && r.name == event_id(EventType::NodeOpen)) ++worker1_nodes;
  }
  EXPECT_GT(worker1_nodes, 0u) << "no node events from pool worker 1";
}

TEST(MetricsTest, SnapshotAndPrometheusExposeTimerMax) {
  MetricsRegistry reg;
  Timer& t = reg.timer("phase");
  t.record(1'000'000'000);  // 1s
  t.record(3'000'000'000);  // 3s  <- the max
  t.record(2'000'000'000);  // 2s
  const auto snap = reg.snapshot();
  EXPECT_NEAR(snap.at("phase.seconds"), 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.at("phase.count"), 3.0);
  EXPECT_NEAR(snap.at("phase.max"), 3.0, 1e-9);

  reg.counter("milp.nodes").add(41);
  reg.gauge("gap").set(0.125);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE archex_milp_nodes_total counter\n"
                      "archex_milp_nodes_total 41\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE archex_gap gauge\narchex_gap 0.125\n"),
            std::string::npos);
  EXPECT_NE(text.find("archex_phase_seconds_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("archex_phase_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("archex_phase_max_seconds 3\n"), std::string::npos);
}

TEST(PerfReportTest, EpnEncodeAttributionIsNearComplete) {
  using namespace archex::domains::epn;
  SpanProfiler prof;
  EpnConfig cfg = small_config();
  cfg.reliability_eager = false;  // keep the solve cheap; encode is the point
  auto problem = make_problem(cfg, &prof);

  // Every encode path charges a named label, so attribution is complete.
  const PerfReport pre = build_perf_report(*problem, milp::Solution{});
  EXPECT_GT(pre.encode_total_seconds, 0.0);
  EXPECT_GE(pre.attributed_fraction, 0.9);
  EXPECT_GT(pre.rows.size(), 1u);
  bool structural = false;
  for (const PatternCostRow& r : pre.rows) structural |= r.label == "structural";
  EXPECT_TRUE(structural);

  // And the profiler saw the same pattern applications as nested spans
  // under "encode".
  const SpanProfiler::Report rep = prof.collect();
  ASSERT_FALSE(rep.records.empty());
  EXPECT_EQ(rep.records[0].name, span_id(SpanName::Encode));
  std::size_t pattern_spans = 0;
  for (const Record& s : rep.records) {
    if (s.name >= span_id(SpanName::kCount) && !s.is_event()) ++pattern_spans;
  }
  EXPECT_EQ(pattern_spans, problem->num_patterns_applied());

  // Solving end to end fills in rows / presolve / simplex-share columns and
  // the report renders with the documented header.
  milp::MilpOptions opts;
  opts.budget = milp::Budget::of_seconds(60.0);
  opts.num_threads = 1;
  ExplorationResult res = problem->solve(opts);
  ASSERT_TRUE(res.feasible());
  const PerfReport post = build_perf_report(*problem, res.solution);
  EXPECT_GE(post.attributed_fraction, 0.9);
  EXPECT_EQ(post.model_rows, problem->model().num_constraints());
  EXPECT_LE(post.surviving_rows, post.model_rows);
  double share = 0.0;
  std::size_t rows_sum = 0;
  for (const PatternCostRow& r : post.rows) {
    share += r.simplex_share;
    rows_sum += r.rows;
  }
  EXPECT_EQ(rows_sum, post.model_rows);
  EXPECT_NEAR(share, 1.0, 1e-9);
  std::ostringstream os;
  write_perf_report(os, post);
  EXPECT_NE(os.str().find("per-pattern cost attribution"), std::string::npos);
  EXPECT_NE(os.str().find("structural"), std::string::npos);
}

}  // namespace
}  // namespace archex::obs

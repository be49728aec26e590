/// Unit tests for the observability layer: the metrics registry (concurrent
/// counters, timer scopes, snapshot flattening), search events in the
/// recorder's single-writer buffers (overflow, merge ordering, JSONL schema)
/// and the node logger's interval gating.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/node_log.hpp"
#include "obs/span.hpp"

namespace archex::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterSumsConcurrentAdds) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 4;
  constexpr int kAdds = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kAdds);
}

TEST(MetricsTest, HandlesAreStableAcrossRegistrations) {
  MetricsRegistry reg;
  Counter& a = reg.counter("n");
  Counter& b = reg.counter("n");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3);
  Gauge& g1 = reg.gauge("v");
  Gauge& g2 = reg.gauge("v");
  EXPECT_EQ(&g1, &g2);
  Timer& t1 = reg.timer("t");
  Timer& t2 = reg.timer("t");
  EXPECT_EQ(&t1, &t2);
}

TEST(MetricsTest, SnapshotFlattensAllKinds) {
  MetricsRegistry reg;
  reg.counter("nodes").add(7);
  reg.gauge("gap").set(0.25);
  reg.timer("phase").record(1'500'000'000);  // 1.5s
  const std::map<std::string, double> snap = reg.snapshot();
  ASSERT_EQ(snap.count("nodes"), 1u);
  EXPECT_DOUBLE_EQ(snap.at("nodes"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("gap"), 0.25);
  EXPECT_NEAR(snap.at("phase.seconds"), 1.5, 1e-12);
  EXPECT_DOUBLE_EQ(snap.at("phase.count"), 1.0);
}

TEST(MetricsTest, ScopedTimerFeedsTimerAndMirror) {
  MetricsRegistry reg;
  Timer& t = reg.timer("scope");
  double mirror = -1.0;
  {
    ScopedTimer scope(&t, &mirror);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    scope.stop();
    // A stopped scope records nothing further on destruction.
  }
  EXPECT_EQ(t.count(), 1);
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_NEAR(mirror, t.seconds(), 1e-12);
  {
    ScopedTimer null_scope(nullptr, nullptr);  // must be a no-op
  }
  EXPECT_EQ(t.count(), 1);
}

TEST(MetricsTest, WriteJsonEmitsOneObject) {
  MetricsRegistry reg;
  reg.counter("a").add(2);
  reg.timer("b").record(500'000'000);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"a\":"), std::string::npos);
  EXPECT_NE(json.find("\"b.seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":"), std::string::npos);
}

TEST(MetricsTest, EmptyHistogramQuantilesAreNaNEverywhere) {
  // Regression: empty-histogram quantiles used to report 0.0, which read as
  // "p99 was instant" in dashboards. They are NaN now, consistently across
  // the direct call, snapshot(), the JSON export (null) and the Prometheus
  // export (the literal NaN, valid exposition text).
  MetricsRegistry reg;
  Histogram& h = reg.histogram("serve.latency");
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.99)));

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("serve.latency.count"), 0.0);
  EXPECT_TRUE(std::isnan(snap.at("serve.latency.p50")));
  EXPECT_TRUE(std::isnan(snap.at("serve.latency.p99")));

  std::ostringstream js;
  reg.write_json(js);
  EXPECT_NE(js.str().find("\"serve.latency.p50\":null"), std::string::npos)
      << js.str();
  EXPECT_NE(js.str().find("\"serve.latency.p99\":null"), std::string::npos)
      << js.str();

  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("archex_serve_latency_p50_seconds NaN"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("archex_serve_latency_p99_seconds NaN"),
            std::string::npos)
      << text;

  // One sample flips every path back to finite values.
  h.record(0.25);
  EXPECT_TRUE(std::isfinite(h.quantile(0.5)));
  EXPECT_TRUE(std::isfinite(reg.snapshot().at("serve.latency.p99")));
}

TEST(MetricsTest, HistogramQuantilesBracketObservations) {
  Histogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));  // empty: NaN, no crash
  // 1000 observations spread over [1 ms, 100 ms]; the log-bucketed estimate
  // must land within one sqrt(2) bucket of the true quantile.
  for (int i = 1; i <= 1000; ++i) h.record(1e-3 * (0.001 + 0.1 * i));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.sum_seconds(), 1e-3 * (0.001 * 1000 + 0.1 * 500500), 1e-6);
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 0.050 / 1.5);
  EXPECT_LE(p50, 0.050 * 1.5);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 0.099 / 1.5);
  EXPECT_LE(p99, 0.101 * 1.5);
  EXPECT_GE(p99, p50);  // quantiles are monotone in q
}

TEST(MetricsTest, HistogramClampsOutliersWithoutLosingCounts) {
  Histogram h;
  h.record(0.0);     // below the 100 us floor -> first bucket
  h.record(-1.0);    // negative durations clamp, never index out of range
  h.record(1e9);     // absurd outlier -> overflow bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_GT(h.quantile(1.0), 0.0);
}

TEST(MetricsTest, HistogramRecordsConcurrently) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("latency");
  constexpr int kThreads = 4;
  constexpr int kRecords = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) h.record(1e-3 * (t + 1));
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(kThreads) * kRecords);
  EXPECT_NEAR(h.sum_seconds(), 1e-3 * (1 + 2 + 3 + 4) * kRecords, 1e-6);
  // All mass sits in [1 ms, 4 ms]: the quantiles may not escape it.
  EXPECT_GE(h.quantile(0.5), 1e-3 / 1.5);
  EXPECT_LE(h.quantile(0.99), 4e-3 * 1.5);
}

TEST(MetricsTest, SnapshotAndPrometheusRenderHistograms) {
  MetricsRegistry reg;
  reg.histogram("serve.latency").record(0.25);
  reg.histogram("serve.latency").record(0.5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("serve.latency.count"), 2.0);
  EXPECT_NEAR(snap.at("serve.latency.sum"), 0.75, 1e-9);
  EXPECT_GT(snap.at("serve.latency.p50"), 0.0);
  EXPECT_GE(snap.at("serve.latency.p99"), snap.at("serve.latency.p50"));

  const std::string text = prometheus_text(reg);
  for (const char* needle :
       {"archex_serve_latency_seconds_sum", "archex_serve_latency_seconds_count",
        "archex_serve_latency_p50_seconds", "archex_serve_latency_p99_seconds"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

// ---------------------------------------------------------------------------
// Search events in the recorder
// ---------------------------------------------------------------------------

TEST(TraceTest, DefaultBufferIsDisabled) {
  SpanBuffer buf;
  EXPECT_FALSE(buf.enabled());
  buf.emit(EventType::NodeOpen, 1, 2.0);  // must be a no-op, not a crash
  EXPECT_TRUE(buf.spans().empty());
  EXPECT_EQ(buf.dropped(), 0);
}

TEST(TraceTest, OverflowDropsNewestAndCountsDropped) {
  SpanBuffer buf;
  buf.init(0, 4, std::chrono::steady_clock::now());
  for (std::int64_t i = 0; i < 6; ++i) buf.emit(EventType::NodeOpen, i);
  EXPECT_EQ(buf.dropped(), 2);
  ASSERT_EQ(buf.spans().size(), 4u);
  for (std::size_t i = 0; i < buf.spans().size(); ++i) {
    EXPECT_EQ(buf.spans()[i].id, static_cast<std::int64_t>(i)) << "slot " << i;
    EXPECT_TRUE(buf.spans()[i].is_event());
  }
  // init() re-arms the buffer: it is immediately reusable.
  buf.init(0, 4, std::chrono::steady_clock::now());
  buf.emit(EventType::NodeClose, 9);
  ASSERT_EQ(buf.spans().size(), 1u);
  EXPECT_EQ(buf.spans()[0].id, 9);
  EXPECT_EQ(buf.dropped(), 0);
}

TEST(TraceTest, MergeSortsEventsAcrossBuffers) {
  SpanProfiler prof;
  prof.arm_workers(2);
  const SpanProfiler::Mark start = prof.mark();
  // Interleave writes so neither buffer alone is globally ordered.
  prof.buffer(0)->emit(EventType::NodeOpen, 1);
  prof.buffer(1)->emit(EventType::NodeOpen, 2);
  prof.buffer(0)->emit(EventType::NodeClose, 1);
  prof.buffer(1)->emit(EventType::NodeClose, 2);
  const Trace trace = prof.trace_since(start);
  ASSERT_EQ(trace.events.size(), 4u);
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LE(trace.events[i - 1].t, trace.events[i].t);
  }
  EXPECT_GE(trace.events[0].t, 0.0);
  EXPECT_EQ(trace.count(EventType::NodeOpen), 2u);
  EXPECT_EQ(trace.count(EventType::NodeClose), 2u);
  EXPECT_EQ(trace.num_workers(), 2);
  EXPECT_EQ(trace.dropped, 0);
}

TEST(TraceTest, JsonlUsesDocumentedKeysAndNullForNonFinite) {
  SpanProfiler prof;
  prof.arm_workers(4);
  const SpanProfiler::Mark start = prof.mark();
  SpanBuffer* buf = prof.buffer(3);
  buf->emit(EventType::SolveStart, -1, 4.0);
  {
    ScopedSpan root(buf, span_id(SpanName::RootLp));  // exported as a phase event
  }
  buf->emit(EventType::NodeOpen, 1, std::numeric_limits<double>::quiet_NaN());
  buf->emit(EventType::NodeClose, 1, 12.5, static_cast<std::uint8_t>(NodeOutcome::Branched));
  buf->emit(EventType::Incumbent, 1, 42.0);
  buf->emit(EventType::Steal, 7, 2.0);
  buf->emit(EventType::SolveEnd, -1, 42.0);
  const Trace trace = prof.trace_since(start);
  std::ostringstream os;
  trace.write_jsonl(os);
  const std::string out = os.str();

  EXPECT_NE(out.find("\"type\":\"solve_start\",\"worker\":3,\"workers\":4"),
            std::string::npos);
  EXPECT_NE(out.find("\"type\":\"phase\",\"worker\":3,\"phase\":\"root_lp\""),
            std::string::npos);
  EXPECT_NE(out.find("\"node\":1,\"parent_bound\":null"), std::string::npos);
  EXPECT_NE(out.find("\"outcome\":\"branched\",\"bound\":12.5"), std::string::npos);
  EXPECT_NE(out.find("\"node\":1,\"objective\":42"), std::string::npos);
  EXPECT_NE(out.find("\"node\":7,\"victim\":2"), std::string::npos);
  // One object per line, every line closed.
  std::istringstream lines(out);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(n, trace.events.size());
}

// ---------------------------------------------------------------------------
// Node logger
// ---------------------------------------------------------------------------

TEST(NodeLogTest, DisabledLoggerWritesNothing) {
  std::ostringstream os;
  NodeLogger no_sink(1.0, nullptr, std::chrono::steady_clock::now());
  EXPECT_FALSE(no_sink.enabled());
  EXPECT_FALSE(no_sink.due());
  no_sink.log_final({});
  NodeLogger no_interval(0.0, &os, std::chrono::steady_clock::now());
  EXPECT_FALSE(no_interval.enabled());
  no_interval.log({});
  no_interval.log_final({});
  EXPECT_TRUE(os.str().empty());
}

TEST(NodeLogTest, FinalLineBypassesIntervalAndPrintsHeader) {
  std::ostringstream os;
  NodeLogger logger(3600.0, &os, std::chrono::steady_clock::now());
  EXPECT_TRUE(logger.enabled());
  EXPECT_FALSE(logger.due());  // one hour from now
  NodeLogger::Line line;
  line.nodes = 120;
  line.open = 4;
  line.has_incumbent = true;
  line.incumbent = 1500.0;
  line.best_bound = 1450.0;
  line.steals = 2;
  logger.log(line);  // not due: must print nothing
  EXPECT_TRUE(os.str().empty());
  logger.log_final(line);
  const std::string out = os.str();
  EXPECT_NE(out.find("Nodes"), std::string::npos);
  EXPECT_NE(out.find("Best Bound"), std::string::npos);
  EXPECT_NE(out.find("120"), std::string::npos);
  EXPECT_NE(out.find("1500"), std::string::npos);
}

TEST(NodeLogTest, DueLinesAreRateLimited) {
  std::ostringstream os;
  NodeLogger logger(0.02, &os, std::chrono::steady_clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  ASSERT_TRUE(logger.due());
  NodeLogger::Line line;
  line.nodes = 1;
  logger.log(line);
  const std::string first = os.str();
  EXPECT_FALSE(first.empty());
  // Immediately afterwards the next interval has not elapsed: no second line.
  logger.log(line);
  EXPECT_EQ(os.str(), first);
}

TEST(NodeLogTest, MissingIncumbentRendersDashes) {
  std::ostringstream os;
  NodeLogger logger(1.0, &os, std::chrono::steady_clock::now());
  NodeLogger::Line line;
  line.nodes = 5;
  line.best_bound = std::numeric_limits<double>::infinity();
  logger.log_final(line);
  EXPECT_NE(os.str().find("--"), std::string::npos);
}

}  // namespace
}  // namespace archex::obs

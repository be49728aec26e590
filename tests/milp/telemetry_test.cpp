/// Tests for the solver telemetry added around the branch & bound: termination
/// reasons, the time-stamped incumbent trajectory, the structured event trace
/// (sequential node accounting, parallel steal events), phase timings, the
/// metrics snapshot and the live node log — plus the invariant that tracing
/// never perturbs the search itself.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "milp/branch_bound.hpp"
#include "milp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace archex::milp {
namespace {

/// Deterministic binary knapsack (same family the parallel suite uses).
Model knapsack_fixture(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(1, 9);
  Model m;
  LinExpr tw, tv;
  for (int j = 0; j < n; ++j) {
    VarId v = m.add_binary();
    tw += static_cast<double>(w(rng)) * v;
    tv += static_cast<double>(w(rng)) * v;
  }
  m.add_constraint(tw <= LinExpr(2.5 * n));
  m.set_objective(tv, ObjectiveSense::Maximize);
  return m;
}

/// Strongly correlated knapsack: a large tree that keeps every worker busy.
Model hard_knapsack_fixture(int n, unsigned seed) {
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

// ---------------------------------------------------------------------------
// Termination status (Solution::status says *why* the solve stopped)
// ---------------------------------------------------------------------------

TEST(TermReasonTest, OptimalSolve) {
  const Solution s = solve_milp(knapsack_fixture(12, 1));
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_STREQ(to_string(s.status), "optimal");
}

TEST(TermReasonTest, InfeasibleModel) {
  Model m;
  VarId x = m.add_binary();
  m.add_constraint(LinExpr(x) >= LinExpr(2.0));
  m.set_objective(LinExpr(x));
  const Solution s = solve_milp(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
  EXPECT_STREQ(to_string(s.status), "infeasible");
}

TEST(TermReasonTest, UnboundedModel) {
  Model m;
  VarId x = m.add_integer(0, kInf);
  m.set_objective(-1.0 * x);  // min -x, x unbounded above
  const Solution s = solve_milp(m);
  EXPECT_EQ(s.status, SolveStatus::Unbounded);
  EXPECT_STREQ(to_string(s.status), "unbounded");
}

TEST(TermReasonTest, NodeLimit) {
  MilpOptions o;
  o.num_threads = 1;
  o.max_nodes = 1;  // the fractional root alone exhausts the budget
  const Solution s = solve_milp(knapsack_fixture(22, 3), o);
  EXPECT_EQ(s.status, SolveStatus::NodeLimit);
  EXPECT_STREQ(to_string(s.status), "node-limit");
}

TEST(TermReasonTest, TimeLimit) {
  MilpOptions o;
  o.num_threads = 1;
  o.budget = Budget::of_seconds(0.05);  // far below what the hard tree needs
  const Solution s = solve_milp(hard_knapsack_fixture(45, 7), o);
  EXPECT_EQ(s.status, SolveStatus::TimeLimit);
  EXPECT_STREQ(to_string(s.status), "time-limit");
}

TEST(TermReasonTest, LpRelaxationReportsReason) {
  const Solution s = solve_lp_relaxation(knapsack_fixture(12, 1));
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_STREQ(to_string(s.status), "optimal");
}

// ---------------------------------------------------------------------------
// Incumbent trajectory (satellite: time-stamped improvements, model sense)
// ---------------------------------------------------------------------------

TEST(TelemetryTest, IncumbentTrajectoryIsMonotoneInModelSense) {
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(knapsack_fixture(22, 17), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.incumbent_trajectory.empty());
  for (std::size_t i = 1; i < s.incumbent_trajectory.size(); ++i) {
    const IncumbentPoint& prev = s.incumbent_trajectory[i - 1];
    const IncumbentPoint& cur = s.incumbent_trajectory[i];
    EXPECT_LE(prev.t, cur.t) << "timestamps must be non-decreasing";
    // Maximize model: every recorded incumbent strictly improves.
    EXPECT_GT(cur.objective, prev.objective) << "point " << i;
  }
  EXPECT_NEAR(s.incumbent_trajectory.back().objective, s.objective, 1e-9);
}

TEST(TelemetryTest, TrajectoryLengthMatchesIncumbentCounter) {
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.incumbent_trajectory.empty());
  EXPECT_EQ(s.metrics.at("milp.incumbents"),
            static_cast<double>(s.incumbent_trajectory.size()));
}

// ---------------------------------------------------------------------------
// Structured trace
// ---------------------------------------------------------------------------

TEST(TelemetryTest, TraceOffByDefault) {
  const Solution s = solve_milp(knapsack_fixture(12, 1));
  EXPECT_TRUE(s.trace.empty());
  EXPECT_EQ(s.trace.dropped, 0);
}

TEST(TelemetryTest, SequentialTraceAccountsForEveryNode) {
  MilpOptions o;
  o.num_threads = 1;
  obs::SpanProfiler recorder;
  o.profiler = &recorder;
  // The root rounding overshoots this knapsack's capacity, so the solve runs
  // the probe between the root and the main run: all three emit nodes.
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.trace.empty());
  EXPECT_EQ(s.trace.dropped, 0);
  EXPECT_EQ(s.trace.count(obs::EventType::SolveStart), 1u);
  EXPECT_EQ(s.trace.count(obs::EventType::SolveEnd), 1u);
  EXPECT_GE(s.trace.count(obs::EventType::Phase), 3u);  // presolve, root, tree
  // Every explored node opens exactly once and closes exactly once.
  EXPECT_EQ(s.trace.count(obs::EventType::NodeOpen),
            static_cast<std::size_t>(s.nodes_explored));
  EXPECT_EQ(s.trace.count(obs::EventType::NodeClose),
            static_cast<std::size_t>(s.nodes_explored));
  EXPECT_EQ(s.trace.count(obs::EventType::Steal), 0u);
  EXPECT_EQ(s.trace.num_workers(), 1);
  // Merged events are time-sorted.
  for (std::size_t i = 1; i < s.trace.events.size(); ++i) {
    EXPECT_LE(s.trace.events[i - 1].t, s.trace.events[i].t);
  }
  // Node ids are unique across the root, the probe and the main run: each
  // id opens once, then closes once. The phase a node opens in names its
  // run: the root LP, the heuristic (the probe), or the tree (the main run).
  std::map<std::int64_t, int> opened, closed;
  int opened_in[3] = {0, 0, 0};  // root, probe, main run
  int run = 0;
  for (const obs::TraceEvent& e : s.trace.events) {
    if (e.type == obs::EventType::Phase) {
      if (e.detail == static_cast<std::uint8_t>(obs::Phase::Heuristic)) run = 1;
      if (e.detail == static_cast<std::uint8_t>(obs::Phase::Tree)) run = 2;
    } else if (e.type == obs::EventType::NodeOpen) {
      EXPECT_EQ(++opened[e.id], 1) << "node " << e.id << " opened twice";
      ++opened_in[run];
    } else if (e.type == obs::EventType::NodeClose) {
      EXPECT_EQ(opened.count(e.id), 1u) << "node " << e.id << " closed before opening";
      EXPECT_EQ(++closed[e.id], 1) << "node " << e.id << " closed twice";
    }
  }
  EXPECT_EQ(opened.size(), static_cast<std::size_t>(s.nodes_explored));
  EXPECT_EQ(closed.size(), opened.size());
  EXPECT_EQ(opened_in[0], 1);
  EXPECT_GT(opened_in[1], 0);
  EXPECT_GT(opened_in[2], 0);
  // Incumbent events carry the model-sense objective; the last one is the
  // reported optimum.
  ASSERT_GE(s.trace.count(obs::EventType::Incumbent), 1u);
  double last_inc = 0.0;
  for (const obs::TraceEvent& e : s.trace.events) {
    if (e.type == obs::EventType::Incumbent) last_inc = e.value;
  }
  EXPECT_NEAR(last_inc, s.objective, 1e-9);
}

TEST(TelemetryTest, ParallelTraceRecordsStealsFromMultipleWorkers) {
  MilpOptions o;
  o.num_threads = 4;
  // The ~350k-node tree emits far more than the default buffer capacity;
  // give each worker room for the full solve so event counts are exact.
  obs::SpanProfiler recorder(std::size_t{1} << 19);
  o.profiler = &recorder;
  o.budget = Budget::of_seconds(300);
  const Solution s = solve_milp(hard_knapsack_fixture(50, 42), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.threads_used, 4);
  EXPECT_GE(s.steals, 1);
  EXPECT_GE(s.trace.num_workers(), 2) << "events from at least two workers";
  EXPECT_GE(s.trace.count(obs::EventType::Steal), 1u);
  EXPECT_GE(s.trace.count(obs::EventType::Incumbent), 1u);
  EXPECT_GT(s.trace.count(obs::EventType::NodeOpen), 0u);
  // A buffer may fill under this workload, but never silently: the trace
  // reports exactly what was dropped.
  if (s.trace.dropped == 0) {
    EXPECT_EQ(s.trace.count(obs::EventType::Steal),
              static_cast<std::size_t>(s.steals));
  }
}

TEST(TelemetryTest, TracingDoesNotPerturbTheSearch) {
  const Model m = knapsack_fixture(22, 99);
  MilpOptions off;
  off.num_threads = 1;
  obs::SpanProfiler recorder;
  MilpOptions on = off;
  on.profiler = &recorder;
  const Solution a = solve_milp(m, off);
  const Solution b = solve_milp(m, on);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
}

TEST(TelemetryTest, LpCutoffStopsKeepTheTree) {
  // Node LPs stop once their dual bound passes the incumbent cutoff. The
  // tree must not change: the node counts below were measured before the
  // stop existed, when these solves also took the listed iterations. Only
  // the stopped nodes' iterations may disappear.
  struct Case {
    int n;
    unsigned seed;
    std::int64_t nodes;
    std::int64_t uncut_iterations;
  };
  for (const Case c : {Case{20, 1, 2903, 3324}, Case{20, 7, 1254, 1588},
                       Case{30, 7, 13512, 18298}}) {
    MilpOptions o;
    o.num_threads = 1;
    obs::SpanProfiler recorder(std::size_t{1} << 16);
    o.profiler = &recorder;
    const Solution s = solve_milp(hard_knapsack_fixture(c.n, c.seed), o);
    ASSERT_TRUE(s.optimal());
    EXPECT_EQ(s.nodes_explored, c.nodes) << c.n << "/" << c.seed;
    EXPECT_LT(s.simplex_iterations, c.uncut_iterations);
    EXPECT_GT(s.metrics.at("milp.lp_cutoff"), 0.0);
    // A cutoff close carries the node's bound — for a stopped LP, its dual
    // bound at the stop — and that bound misses the final incumbent.
    ASSERT_EQ(s.trace.dropped, 0);
    std::size_t cutoffs = 0;
    for (const obs::TraceEvent& e : s.trace.events) {
      if (e.type != obs::EventType::NodeClose ||
          e.detail != static_cast<std::uint8_t>(obs::NodeOutcome::Cutoff)) {
        continue;
      }
      ++cutoffs;
      ASSERT_TRUE(std::isfinite(e.value));
      EXPECT_LE(e.value, s.objective + 1.0);  // maximize: bound below optimum + step
    }
    EXPECT_GE(cutoffs, static_cast<std::size_t>(s.metrics.at("milp.lp_cutoff")));
  }
}

// ---------------------------------------------------------------------------
// Phase timings + metrics snapshot
// ---------------------------------------------------------------------------

TEST(TelemetryTest, PhaseTimingsArePopulated) {
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_GE(s.phases.presolve, 0.0);
  EXPECT_GT(s.phases.root_lp, 0.0);
  EXPECT_GE(s.phases.heuristic, 0.0);
  EXPECT_GT(s.phases.tree, 0.0);
  EXPECT_GE(s.phases.extract, 0.0);
  const double total = s.phases.presolve + s.phases.root_lp + s.phases.heuristic +
                       s.phases.tree + s.phases.extract;
  EXPECT_LE(total, s.solve_seconds + 0.5);
}

TEST(TelemetryTest, MetricsSnapshotCoversTheSolve) {
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.metrics.empty());
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.nodes"),
                   static_cast<double>(s.nodes_explored));
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.simplex_iterations"),
                   static_cast<double>(s.simplex_iterations));
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.threads"), 1.0);
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.steals"), 0.0);
  EXPECT_NEAR(s.metrics.at("milp.objective"), s.objective, 1e-9);
  EXPECT_GT(s.metrics.at("milp.phase.tree.seconds"), 0.0);
  EXPECT_GE(s.metrics.at("milp.incumbents"), 1.0);
}

TEST(TelemetryTest, ExternalRegistryReceivesTheMetrics) {
  obs::MetricsRegistry reg;
  MilpOptions o;
  o.num_threads = 1;
  o.metrics = &reg;
  const Solution s = solve_milp(knapsack_fixture(12, 1), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(reg.counter("milp.nodes").value(), s.nodes_explored);
}

// ---------------------------------------------------------------------------
// Live node log
// ---------------------------------------------------------------------------

TEST(TelemetryTest, NodeLogEmitsHeaderAndFinalLine) {
  std::ostringstream log;
  MilpOptions o;
  o.num_threads = 1;
  o.log_interval = 1e-6;  // every due() check fires
  o.log_sink = &log;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  const std::string out = log.str();
  EXPECT_NE(out.find("Nodes"), std::string::npos);
  EXPECT_NE(out.find("Best Bound"), std::string::npos);
  EXPECT_NE(out.find("Gap%"), std::string::npos);
}

TEST(TelemetryTest, SingleThreadNodeLogTracksTheGlobalBound) {
  // The one-worker search logs the pool's global bound estimate, which
  // tightens past the root bound as the shallow open nodes close.
  std::ostringstream log;
  MilpOptions o;
  o.num_threads = 1;
  o.log_interval = 1e-9;  // every due() check fires
  o.log_sink = &log;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  const double root_bound = s.metrics.at("milp.root_bound");
  std::vector<std::string> lines;
  std::istringstream in(log.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u) << "header, progress lines, final line";
  int tighter = 0;
  // Skip the header and the final summary line.
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    std::istringstream row(lines[i]);
    std::string nodes, open, incumbent, bound;
    row >> nodes >> open >> incumbent >> bound;
    // Maximize: a tighter bound is strictly below the root bound (the log
    // prints 6 significant digits).
    if (bound != "--" && std::stod(bound) < root_bound - 1e-4 * std::abs(root_bound)) {
      ++tighter;
    }
  }
  EXPECT_GE(tighter, 1) << log.str();
}

TEST(TelemetryTest, NodeLogOffByDefault) {
  std::ostringstream log;
  MilpOptions o;
  o.num_threads = 1;
  o.log_sink = &log;  // sink alone must not enable logging
  const Solution s = solve_milp(knapsack_fixture(12, 1), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_TRUE(log.str().empty());
}

}  // namespace
}  // namespace archex::milp

/// Tests for the deterministic fault injector (milp/fault.hpp) and the
/// numerical-recovery ladder it exercises: every injectable site must leave
/// the branch & bound with a *sound* answer — either the clean optimum (the
/// ladder recovered) or a degraded solve whose reported bound still brackets
/// the true optimum (the ladder abandoned a subtree but never pruned it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>

#include "milp/branch_bound.hpp"
#include "milp/fault.hpp"
#include "milp/simplex.hpp"
#include "obs/span.hpp"

namespace archex::milp {
namespace {

/// Strongly correlated knapsack (same recipe as the parallel-BB stress
/// suite): granularity pruning never fires, so the tree is deep enough that
/// a mid-search injection genuinely lands mid-search. n = 20, seed = 7 runs
/// ~1e3 nodes in milliseconds.
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

double metric(const Solution& s, const std::string& name) {
  const auto it = s.metrics.find(name);
  return it == s.metrics.end() ? 0.0 : it->second;
}

/// Occurrence counts of `site` (a) over a clean full solve and (b) over the
/// root phase alone (max_nodes = 1 stops before the tree). Aiming between
/// the two puts the injection mid-tree; root-LP failures run the same
/// ladder rungs and are tested separately.
struct SiteProfile {
  std::int64_t total = 0;
  std::int64_t root = 0;
  double clean_objective = 0.0;
  [[nodiscard]] std::int64_t mid_tree() const { return root + (total - root) / 2; }
};

SiteProfile profile_site(const Model& m, FaultSite site, const MilpOptions& base) {
  SiteProfile p;
  FaultPlan full;
  MilpOptions o = base;
  o.fault = &full;
  const Solution s = solve_milp(m, o);
  EXPECT_EQ(s.status, SolveStatus::Optimal);
  p.total = full.occurrences(site);
  p.clean_objective = s.objective;

  FaultPlan root_only;
  MilpOptions r = base;
  r.fault = &root_only;
  r.max_nodes = 1;
  solve_milp(m, r);
  p.root = root_only.occurrences(site);
  return p;
}

// ---------------------------------------------------------------------------
// FaultPlan unit behaviour
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, FiresExactlyAtTheNthOccurrence) {
  FaultPlan p;
  p.arm(FaultSite::NanPivot, 3);
  EXPECT_FALSE(p.fire(FaultSite::NanPivot));  // occurrence 1
  EXPECT_FALSE(p.fire(FaultSite::NanPivot));  // occurrence 2
  EXPECT_TRUE(p.fire(FaultSite::NanPivot));   // occurrence 3: fires
  EXPECT_FALSE(p.fire(FaultSite::NanPivot));  // one-shot without seed/repeat
  EXPECT_EQ(p.occurrences(FaultSite::NanPivot), 4);
  EXPECT_EQ(p.fired(FaultSite::NanPivot), 1);
  EXPECT_TRUE(p.any_fired());
}

TEST(FaultPlanTest, RepeatWindowFiresContiguously) {
  FaultPlan p;
  p.arm(FaultSite::SingularFactor, 2, /*seed=*/0, /*repeat=*/3);
  int fired = 0;
  for (int k = 1; k <= 10; ++k) fired += p.fire(FaultSite::SingularFactor);
  EXPECT_EQ(fired, 3);  // occurrences 2, 3, 4
  EXPECT_EQ(p.fired(FaultSite::SingularFactor), 3);
}

TEST(FaultPlanTest, SeededTailIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    FaultPlan p;
    p.arm(FaultSite::Deadline, 5, seed);
    std::vector<bool> hits;
    hits.reserve(200);
    for (int k = 0; k < 200; ++k) hits.push_back(p.fire(FaultSite::Deadline));
    return hits;
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);       // same seed replays exactly
  EXPECT_NE(a, c);       // different seed, different tail
  int tail_hits = 0;
  for (bool h : a) tail_hits += h;
  EXPECT_GE(tail_hits, 2);  // the ~1/8 tail actually fires sometimes
}

TEST(FaultPlanTest, UnarmedPlanOnlyCounts) {
  FaultPlan p;
  for (int k = 0; k < 7; ++k) EXPECT_FALSE(p.fire(FaultSite::BadAlloc));
  EXPECT_EQ(p.occurrences(FaultSite::BadAlloc), 7);
  EXPECT_EQ(p.fired(FaultSite::BadAlloc), 0);
  EXPECT_FALSE(p.any_fired());
}

TEST(FaultPlanTest, ParsesCliSpecs) {
  FaultPlan p;
  EXPECT_TRUE(p.arm_from_spec("singular:3"));
  EXPECT_TRUE(p.arm_from_spec("nan-pivot:10:77"));
  EXPECT_TRUE(p.arm_from_spec("deadline:1"));
  EXPECT_TRUE(p.arm_from_spec("stall:2"));
  EXPECT_TRUE(p.arm_from_spec("bad-alloc:4"));
  EXPECT_FALSE(p.arm_from_spec(""));
  EXPECT_FALSE(p.arm_from_spec("singular"));        // missing :n
  EXPECT_FALSE(p.arm_from_spec("warp-core:1"));     // unknown site
  EXPECT_FALSE(p.arm_from_spec("singular:abc"));    // non-numeric n
  EXPECT_FALSE(p.arm_from_spec("singular:1:zz"));   // non-numeric seed
  EXPECT_FALSE(p.arm_from_spec("singular:0"));      // occurrences are 1-based
}

TEST(FaultPlanTest, SiteNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    const auto parsed = parse_fault_site(to_string(site));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, site);
  }
  EXPECT_FALSE(parse_fault_site("nonsense").has_value());
}

// ---------------------------------------------------------------------------
// Recovery ladder: each injectable site, sequential search
// ---------------------------------------------------------------------------

TEST(RecoveryLadderTest, NanPivotMidSearchRecoversToCleanOptimum) {
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions base;
  base.num_threads = 1;
  const SiteProfile prof = profile_site(m, FaultSite::NanPivot, base);
  ASSERT_GT(prof.total, prof.root + 8);  // the tree is where most pivots are

  // repeat = 2: a single poisoned pivot is absorbed by reoptimize_dual's own
  // cold fallback; the second consecutive firing defeats that too, so the
  // NumericalError reaches the branch & bound and the ladder must engage.
  FaultPlan plan;
  plan.arm(FaultSite::NanPivot, prof.mid_tree(), /*seed=*/0, /*repeat=*/2);
  MilpOptions opts = base;
  opts.fault = &plan;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(s.objective, prof.clean_objective);
  EXPECT_GE(metric(s, "milp.recover.tighten"), 1.0);
  EXPECT_EQ(metric(s, "check.certify.ok"), 1.0);
  EXPECT_FALSE(s.degraded);
}

TEST(RecoveryLadderTest, SingularRefactorizationRecovers) {
  const Model m = hard_knapsack_fixture(20, 7);
  // Refactorize every pivot so the singular site is reached at every node.
  MilpOptions base;
  base.num_threads = 1;
  base.lp.refactor_interval = 1;
  const SiteProfile prof = profile_site(m, FaultSite::SingularFactor, base);
  ASSERT_GT(prof.total, prof.root + 8);

  FaultPlan plan;
  plan.arm(FaultSite::SingularFactor, prof.mid_tree());
  MilpOptions opts = base;
  opts.fault = &plan;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(s.objective, prof.clean_objective);
  EXPECT_EQ(metric(s, "check.certify.ok"), 1.0);
}

TEST(RecoveryLadderTest, BadAllocDuringNodeSolveRecovers) {
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions base;
  base.num_threads = 1;
  // The bad-alloc site only exists at tree nodes, so no root aiming needed.
  const SiteProfile prof = profile_site(m, FaultSite::BadAlloc, base);
  ASSERT_GT(prof.total, 2);
  ASSERT_EQ(prof.root, 0);

  FaultPlan plan;
  plan.arm(FaultSite::BadAlloc, prof.total / 2);
  MilpOptions opts = base;
  opts.fault = &plan;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(s.objective, prof.clean_objective);
  EXPECT_GE(metric(s, "milp.recover.tighten"), 1.0);
  EXPECT_EQ(metric(s, "check.certify.ok"), 1.0);
}

TEST(RecoveryLadderTest, InjectedDeadlineTerminatesWithTimeLimit) {
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions base;
  base.num_threads = 1;
  const SiteProfile prof = profile_site(m, FaultSite::Deadline, base);
  ASSERT_GT(prof.total, 2);  // the poll site is actually reached repeatedly

  FaultPlan plan;
  plan.arm(FaultSite::Deadline, std::max<std::int64_t>(2, prof.mid_tree()));
  MilpOptions opts = base;
  opts.fault = &plan;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  EXPECT_EQ(s.status, SolveStatus::TimeLimit);
  EXPECT_STREQ(to_string(s.status), "time-limit");
  // An injected deadline is a limit, not a numerical failure: any incumbent
  // found before it must still be a feasible point with a sound bound.
  if (s.has_incumbent) {
    EXPECT_TRUE(m.feasible(s.x, 1e-5));
    EXPECT_GE(s.best_bound, s.objective - 1e-6);  // Maximize: bound >= incumbent
  }
}

TEST(RecoveryLadderTest, RootLpFailureRecoversOnceThenSurfaces) {
  // The initial root solve gets the same first two ladder rungs as every
  // node LP, so a transient failure recovers to the clean optimum.
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions base;
  base.num_threads = 1;
  const Solution clean = solve_milp(m, base);
  ASSERT_EQ(clean.status, SolveStatus::Optimal);

  FaultPlan once;
  once.arm(FaultSite::NanPivot, 2);  // inside the root primal solve
  MilpOptions o1 = base;
  o1.fault = &once;
  const Solution s1 = solve_milp(m, o1);
  EXPECT_TRUE(once.any_fired());
  EXPECT_EQ(s1.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(s1.objective, clean.objective);

  // A persistent root failure defeats every rung; below the first tree node
  // there is no parent bound to inherit, so it must surface as
  // NumericalError — never a bogus Optimal/Infeasible claim.
  FaultPlan always;
  always.arm(FaultSite::NanPivot, 2, /*seed=*/0,
             /*repeat=*/std::numeric_limits<std::int64_t>::max() / 2);
  MilpOptions o2 = base;
  o2.fault = &always;
  const Solution s2 = solve_milp(m, o2);
  EXPECT_TRUE(always.any_fired());
  EXPECT_EQ(s2.status, SolveStatus::NumericalError);
  EXPECT_STREQ(to_string(s2.status), "numerical-error");
  EXPECT_FALSE(s2.has_incumbent);
}

/// Minimize-cost exact cover with a coverage floor: the equality rows make
/// every cold (re)solve open phase 1 with live artificials, so an injection
/// sweep also lands failures in that state. 8 groups x 4 members runs a few
/// hundred nodes in milliseconds.
Model equality_cover_fixture(int n_groups, int per_group, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> jitter(0, 3);
  Model m;
  LinExpr total_w, obj;
  double wmax = 0.0;
  for (int g = 0; g < n_groups; ++g) {
    LinExpr pick;
    double gw = 0.0;
    for (int k = 0; k < per_group; ++k) {
      const VarId v = m.add_binary();
      const double w = 5.0 + 3.0 * k + jitter(rng);
      const double c = 4.0 + 3.0 * k + jitter(rng);
      pick += 1.0 * v;
      total_w += w * v;
      obj += c * v;
      gw = std::max(gw, w);
    }
    m.add_constraint(std::move(pick) == LinExpr(1.0));
    wmax += gw;
  }
  m.add_constraint(std::move(total_w) >= LinExpr(0.62 * wmax));
  m.set_objective(obj, ObjectiveSense::Minimize);
  return m;
}

TEST(RecoveryLadderTest, RecoveredSolvesNeverClaimFalseOptima) {
  // Regression: a node LP aborted mid-phase-1 (live zero-cost artificials)
  // used to be warm-reoptimized as-is by the recovery ladder; the
  // artificials then absorbed constraint violations for free and the node
  // returned "optimal" objectives far below the true bound — unsound prunes
  // and a wrong final optimum. Sweep each injectable numerical site across
  // the whole solve: wherever the failure lands, a non-degraded Optimal
  // must reproduce the clean optimum.
  const Model m = equality_cover_fixture(8, 4, 11);
  MilpOptions base;
  base.num_threads = 1;

  FaultPlan probe;  // unarmed: counts occurrences over the clean solve
  MilpOptions ob = base;
  ob.fault = &probe;
  const Solution clean = solve_milp(m, ob);
  ASSERT_EQ(clean.status, SolveStatus::Optimal);

  for (const FaultSite site : {FaultSite::SingularFactor, FaultSite::NanPivot}) {
    const std::int64_t total = probe.occurrences(site);
    ASSERT_GT(total, 0) << to_string(site);
    const std::int64_t step = std::max<std::int64_t>(1, total / 48);
    for (std::int64_t nth = 1; nth <= total; nth += step) {
      FaultPlan plan;
      plan.arm(site, nth);
      MilpOptions o = base;
      o.fault = &plan;
      const Solution s = solve_milp(m, o);
      if (s.status == SolveStatus::Optimal && !s.degraded) {
        EXPECT_NEAR(s.objective, clean.objective, 1e-6)
            << to_string(site) << " injected at occurrence " << nth;
      }
    }
  }
}

TEST(RecoveryLadderTest, ExhaustedLadderDegradesWithSoundBound) {
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions base;
  base.num_threads = 1;
  const SiteProfile prof = profile_site(m, FaultSite::NanPivot, base);

  // Fire the NaN pivot at *every* occurrence past the root phase: every rung
  // of the ladder (tighten, cold, each retry) re-enters a pivot loop and is
  // poisoned again, so subtrees must be abandoned.
  FaultPlan plan;
  plan.arm(FaultSite::NanPivot, prof.root + 1, /*seed=*/0,
           /*repeat=*/std::numeric_limits<std::int64_t>::max() / 2);
  MilpOptions opts = base;
  opts.fault = &plan;
  obs::SpanProfiler recorder;
  opts.profiler = &recorder;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  EXPECT_TRUE(s.degraded);
  EXPECT_GT(s.degraded_nodes, 0);
  EXPECT_GE(metric(s, "milp.recover.abandoned"), 1.0);
  EXPECT_GE(metric(s, "milp.recover.requeue"), 1.0);
  EXPECT_GE(metric(s, "milp.degraded_nodes"), 1.0);
  // Soundness (Maximize sense): whatever incumbent survived cannot beat the
  // true optimum, and the reported bound must still dominate it — the
  // abandoned subtrees were folded into best_bound, not pruned.
  if (s.has_incumbent) {
    EXPECT_LE(s.objective, prof.clean_objective + 1e-6);
    EXPECT_GE(s.best_bound, prof.clean_objective - 1e-6);
    EXPECT_EQ(metric(s, "check.certify.ok"), 1.0);
  } else {
    // Never claim infeasibility out of a degraded, empty-handed search.
    EXPECT_NE(s.status, SolveStatus::Infeasible);
  }
  // The trace records the escalation.
  bool saw_abandon = false;
  for (const auto& e : s.trace.events) {
    if (e.type == obs::EventType::Recover &&
        static_cast<obs::RecoverRung>(e.detail) == obs::RecoverRung::Abandon) {
      saw_abandon = true;
    }
  }
  EXPECT_TRUE(saw_abandon);
}

// ---------------------------------------------------------------------------
// Recovery ladder: pool workers (requeue path) and stall injection
// ---------------------------------------------------------------------------

TEST(RecoveryLadderTest, ParallelNanPivotStillReachesOptimum) {
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions base;
  base.num_threads = 1;
  const SiteProfile prof = profile_site(m, FaultSite::NanPivot, base);
  ASSERT_GT(prof.total, prof.root + 16);

  FaultPlan plan;
  plan.arm(FaultSite::NanPivot, prof.mid_tree(), /*seed=*/0, /*repeat=*/8);
  MilpOptions opts;
  opts.num_threads = 2;
  opts.fault = &plan;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, prof.clean_objective, 1e-6);
  EXPECT_EQ(metric(s, "check.certify.ok"), 1.0);
}

TEST(RecoveryLadderTest, WorkerStallInjectionDoesNotChangeTheOptimum) {
  const Model m = hard_knapsack_fixture(18, 11);
  MilpOptions clean;
  clean.num_threads = 1;
  const Solution ref = solve_milp(m, clean);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);

  FaultPlan plan;
  plan.arm(FaultSite::WorkerStall, 2, /*seed=*/0, /*repeat=*/2);
  MilpOptions opts;
  opts.num_threads = 2;
  opts.fault = &plan;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, ref.objective, 1e-6);
}

// ---------------------------------------------------------------------------
// Deadline arming (the 1e9-seconds sentinel regression)
// ---------------------------------------------------------------------------

TEST(DeadlineArmingTest, NonPositiveTimeLimitsTimeOutImmediately) {
  // A negative limit clamps to "already expired" — the historical meaning —
  // so 0 and -1e-4 behave identically instead of oppositely (pre-fix, any
  // negative finite limit silently meant *unlimited*).
  const Model m = hard_knapsack_fixture(16, 3);
  for (double limit : {0.0, -1e-4, -1.0}) {
    MilpOptions opts;
    opts.num_threads = 1;
    opts.budget = Budget::of_seconds(limit);
    const Solution s = solve_milp(m, opts);
    EXPECT_EQ(s.status, SolveStatus::TimeLimit) << "budget=" << limit;
  }
}

TEST(DeadlineArmingTest, HugeFiniteTimeLimitsStillSolve) {
  // Pre-fix, any limit >= 1e9 s silently meant "no deadline", and naively
  // arming it overflowed steady_clock's integer range. Both huge-finite
  // cases must now solve to optimality.
  const Model m = hard_knapsack_fixture(16, 3);
  for (double limit : {1.5e9, 1e18}) {
    MilpOptions opts;
    opts.num_threads = 1;
    opts.budget = Budget::of_seconds(limit);
    const Solution s = solve_milp(m, opts);
    EXPECT_EQ(s.status, SolveStatus::Optimal) << "budget=" << limit;
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation (the serve drain/preemption token)
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, PreSetTokenStopsBeforeTheTree) {
  const Model m = hard_knapsack_fixture(20, 7);
  std::atomic<bool> cancel{true};
  MilpOptions opts;
  opts.num_threads = 1;
  opts.cancel = &cancel;
  const Solution s = solve_milp(m, opts);
  // Cancellation reads as an expired budget: TimeLimit, never a claim.
  EXPECT_EQ(s.status, SolveStatus::TimeLimit);
  EXPECT_FALSE(s.has_incumbent);
}

TEST(CancelTokenTest, MidSolveCancelKeepsSoundIncumbent) {
  // Cancel from a second thread while the search runs; whatever incumbent
  // was found so far must still be feasible with a bracketing bound.
  const Model m = hard_knapsack_fixture(52, 7);
  const Solution clean = solve_milp(m, {});
  ASSERT_EQ(clean.status, SolveStatus::Optimal);

  std::atomic<bool> cancel{false};
  MilpOptions opts;
  opts.num_threads = 1;
  opts.cancel = &cancel;
  std::thread killer([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cancel.store(true, std::memory_order_relaxed);
  });
  const Solution s = solve_milp(m, opts);
  killer.join();
  EXPECT_EQ(s.status, SolveStatus::TimeLimit);
  if (s.has_incumbent) {
    EXPECT_TRUE(m.feasible(s.x, 1e-5));
    EXPECT_LE(s.objective, clean.objective + 1e-6);   // Maximize
    EXPECT_GE(s.best_bound, clean.objective - 1e-6);  // bound still brackets
  }
}

// ---------------------------------------------------------------------------
// Multi-threaded injection sweep (the serve isolation drill, solver level):
// every injectable numerical site, swept shallow to deep through a 4-worker
// pool solve, must end in a sound state — the clean optimum, a degraded
// incumbent whose bound still brackets it, or an explicit NumericalError.
// Never a crash, never a false optimum.
// ---------------------------------------------------------------------------

TEST(MtInjectionSweepTest, FourWorkerSweepStaysSoundAcrossAllSites) {
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions seq;
  seq.num_threads = 1;

  for (const FaultSite site :
       {FaultSite::SingularFactor, FaultSite::NanPivot, FaultSite::BadAlloc}) {
    const SiteProfile prof = profile_site(m, site, seq);
    if (prof.total == 0) continue;  // site unreachable on this fixture
    const std::int64_t probes[] = {1, prof.mid_tree(),
                                   std::max<std::int64_t>(1, prof.total - 2)};
    for (const std::int64_t nth : probes) {
      FaultPlan plan;
      // Repeat window + seeded tail: under a 4-worker pool the occurrence
      // ordering is nondeterministic, so a burst plus a sparse tail makes
      // sure failures land *somewhere* mid-search on every run.
      plan.arm(site, nth, /*seed=*/static_cast<std::uint64_t>(nth) + 1,
               /*repeat=*/6);
      MilpOptions opts;
      opts.num_threads = 4;
      opts.fault = &plan;
      const Solution s = solve_milp(m, opts);
      const std::string where =
          std::string(to_string(site)) + " @ " + std::to_string(nth);

      if (s.status == SolveStatus::Optimal && !s.degraded) {
        EXPECT_NEAR(s.objective, prof.clean_objective, 1e-6) << where;
      } else if (s.has_incumbent) {
        // Degraded or limit-stopped: sound bracket, feasible point.
        EXPECT_TRUE(m.feasible(s.x, 1e-5)) << where;
        EXPECT_LE(s.objective, prof.clean_objective + 1e-6) << where;
        EXPECT_GE(s.best_bound, prof.clean_objective - 1e-6) << where;
      } else {
        // Empty-handed exits must be explicit, never "infeasible".
        EXPECT_NE(s.status, SolveStatus::Infeasible) << where;
      }
    }
  }
}

TEST(MtInjectionSweepTest, PersistentPoisonDegradesSoundlyUnderFourWorkers) {
  // Mirror of ExhaustedLadderDegradesWithSoundBound through the pool: every
  // post-root NaN pivot is poisoned, so workers abandon subtrees. The
  // incumbent/bound bracket must survive the concurrent bound folding.
  const Model m = hard_knapsack_fixture(20, 7);
  MilpOptions seq;
  seq.num_threads = 1;
  const SiteProfile prof = profile_site(m, FaultSite::NanPivot, seq);

  FaultPlan plan;
  plan.arm(FaultSite::NanPivot, prof.root + 1, /*seed=*/0,
           /*repeat=*/std::numeric_limits<std::int64_t>::max() / 2);
  MilpOptions opts;
  opts.num_threads = 4;
  opts.fault = &plan;
  const Solution s = solve_milp(m, opts);
  EXPECT_TRUE(plan.any_fired());
  if (s.has_incumbent) {
    EXPECT_LE(s.objective, prof.clean_objective + 1e-6);
    EXPECT_GE(s.best_bound, prof.clean_objective - 1e-6);
  } else {
    EXPECT_NE(s.status, SolveStatus::Infeasible);
  }
}

}  // namespace
}  // namespace archex::milp

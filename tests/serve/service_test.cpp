/// Tests of the resilient exploration service (serve/): the NDJSON value
/// type, the request/response schema, and the full ExplorationService
/// lifecycle — deadlines as anytime degraded results, the NumericalError
/// retry ladder, per-request fault isolation, load shedding, and drain with
/// checkpoint/resume. The `ServeConcurrency*` suites run under the
/// ThreadSanitizer CI leg (see tests/CMakeLists.txt), so they stick to
/// millisecond-scale knapsacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/compiled_model.hpp"
#include "domains/epn.hpp"
#include "milp/branch_bound.hpp"
#include "milp/lp_format.hpp"
#include "obs/json.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace archex::serve {
namespace {

using obs::Json;

/// Strongly correlated knapsack (the recipe shared with the fault-recovery
/// and parallel-BB suites): granularity pruning never fires, so deadlines
/// and preemptions land mid-search. n = 20 solves in milliseconds; n = 52,
/// seed 7 explores ~6e4 nodes (~0.5 s release build) — slow enough that an
/// 80 ms deadline or a 150 ms drain reliably interrupts it.
std::string knapsack_lp(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(10, 30);
  milp::Model m;
  milp::LinExpr tw, tv;
  double cap = 0.0;
  for (int j = 0; j < n; ++j) {
    milp::VarId v = m.add_binary();
    const int wj = w(rng);
    tw += static_cast<double>(wj) * v;
    tv += (static_cast<double>(wj) + 5.0 + 0.1 * (j % 7)) * v;
    cap += wj;
  }
  m.add_constraint(tw <= milp::LinExpr(0.5 * cap));
  m.set_objective(tv, milp::ObjectiveSense::Maximize);
  std::ostringstream os;
  m.write_lp(os);
  return os.str();
}

/// The exact solver path the service takes for an inline LP source: parse
/// the text, then solve. Reusing it makes bit-exact comparisons meaningful.
milp::Solution solo_solve(const std::string& lp_text,
                          milp::MilpOptions opts = {}) {
  std::istringstream in(lp_text);
  milp::Model m = milp::parse_lp(in);
  return milp::solve_milp(m, opts);
}

Request lp_request(std::string id, std::string lp_text) {
  Request r;
  r.id = std::move(id);
  r.lp = std::move(lp_text);
  return r;
}

ServiceOptions with_workers(int n) {
  ServiceOptions so;
  so.workers = n;
  return so;
}

// ---------------------------------------------------------------------------
// Json value type
// ---------------------------------------------------------------------------

TEST(ServeJsonTest, DumpIsDeterministicWithSortedKeys) {
  Json j;
  j["zeta"] = Json(1.0);
  j["alpha"] = Json("a");
  j["mid"] = Json(true);
  EXPECT_EQ(j.dump(), "{\"alpha\":\"a\",\"mid\":true,\"zeta\":1}");
}

TEST(ServeJsonTest, RoundTripPreservesStructureAndPrecision) {
  // 17 significant digits survive a dump/parse cycle bit-exactly.
  const double awkward = 247.70000000000002;
  Json j;
  j["obj"] = Json(awkward);
  j["neg"] = Json(-1.5e-11);
  j["text"] = Json("line\nbreak \"quoted\" \\slash");
  j["list"] = Json(Json::Array{Json(1.0), Json()});

  std::string err;
  const std::optional<Json> back = Json::parse(j.dump(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->dump(), j.dump());
  EXPECT_EQ(back->find("obj")->as_number(), awkward);
  EXPECT_EQ(back->find("text")->as_string(), "line\nbreak \"quoted\" \\slash");
  ASSERT_EQ(back->find("list")->as_array().size(), 2u);
  EXPECT_TRUE(back->find("list")->as_array()[1].is_null());
}

TEST(ServeJsonTest, ParsesUnicodeEscapes) {
  std::string err;
  const auto j = Json::parse("{\"s\":\"\\u0041\\u00e9\\t\"}", &err);
  ASSERT_TRUE(j.has_value()) << err;
  EXPECT_EQ(j->find("s")->as_string(), "A\xc3\xa9\t");
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}", &err).has_value());
  EXPECT_FALSE(Json::parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(Json::parse("{'single':1}", &err).has_value());
  EXPECT_FALSE(Json::parse("0x10", &err).has_value());  // strtod hex rejected
  EXPECT_FALSE(Json::parse("nan", &err).has_value());
  // Depth bomb: the recursive-descent parser caps nesting instead of
  // overflowing the stack on hostile input.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::parse(deep, &err).has_value());
}

TEST(ServeJsonTest, NonFiniteNumbersDumpAsNull) {
  Json j;
  j["inf"] = Json(std::numeric_limits<double>::infinity());
  EXPECT_EQ(j.dump(), "{\"inf\":null}");
}

// ---------------------------------------------------------------------------
// Request schema
// ---------------------------------------------------------------------------

std::optional<Request> parse_request(const std::string& text, std::string* err) {
  const std::optional<Json> j = Json::parse(text, err);
  if (!j.has_value()) return std::nullopt;
  return Request::from_json(*j, err);
}

TEST(ServeRequestTest, MinimalRequestGetsDocumentedDefaults) {
  std::string err;
  const auto r = parse_request("{\"id\":\"r1\",\"lp\":\"...\"}", &err);
  ASSERT_TRUE(r.has_value()) << err;
  EXPECT_EQ(r->id, "r1");
  EXPECT_EQ(r->threads, 1);
  EXPECT_EQ(r->retries, -1);
  EXPECT_EQ(r->budget_ms, 0.0);
  EXPECT_FALSE(r->droppable);
  EXPECT_FALSE(r->lint);
  EXPECT_TRUE(r->preemptible);
  // to_json -> from_json round-trips the whole schema.
  const auto back = Request::from_json(r->to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->to_json().dump(), r->to_json().dump());
}

TEST(ServeRequestTest, RejectsSchemaViolations) {
  std::string err;
  EXPECT_FALSE(parse_request("{\"lp\":\"...\"}", &err).has_value());
  EXPECT_FALSE(err.empty());  // missing id names the problem
  EXPECT_FALSE(parse_request("{\"id\":\"a\"}", &err).has_value());
  EXPECT_FALSE(
      parse_request("{\"id\":\"a\",\"lp\":\"x\",\"domain\":\"epn\"}", &err)
          .has_value());  // ambiguous source
  EXPECT_FALSE(
      parse_request("{\"id\":\"a\",\"domain\":\"nosuch\"}", &err).has_value());
  EXPECT_FALSE(
      parse_request("{\"id\":\"a\",\"lp\":\"x\",\"threads\":0}", &err)
          .has_value());
  EXPECT_FALSE(
      parse_request("{\"id\":\"a\",\"lp\":\"x\",\"budget_ms\":-5}", &err)
          .has_value());
  // The removed time keys fail loudly, naming their replacement, instead of
  // being ignored (which would run the request unbounded).
  for (const char* removed : {"deadline_ms", "time_limit_s"}) {
    err.clear();
    EXPECT_FALSE(parse_request(std::string("{\"id\":\"a\",\"lp\":\"x\",\"") + removed +
                                   "\":500}",
                               &err)
                     .has_value())
        << removed;
    EXPECT_NE(err.find("budget_ms"), std::string::npos) << err;
  }
}

TEST(ServeRequestTest, CompiledOpSchema) {
  std::string err;
  // The happy path: sweep over a domain source with scenarios and a budget.
  const auto ok = parse_request(
      "{\"id\":\"a\",\"op\":\"sweep\",\"domain\":\"epn\",\"scale\":\"tiny\","
      "\"sweep\":[{\"name\":\"s0\"},{\"edge_cost_scale\":1.1,"
      "\"unavailable\":[\"GenA\"],\"rhs\":{\"row\":4},"
      "\"cost_scale\":{\"GenA\":1.5}}],\"budget_ms\":500}",
      &err);
  ASSERT_TRUE(ok.has_value()) << err;
  EXPECT_EQ(ok->op, "sweep");
  EXPECT_EQ(ok->scale, "tiny");
  ASSERT_EQ(ok->sweep.size(), 2u);
  EXPECT_EQ(ok->sweep[0].name, "s0");
  EXPECT_DOUBLE_EQ(ok->sweep[1].edge_cost_scale, 1.1);
  EXPECT_EQ(ok->sweep[1].unavailable, std::vector<std::string>{"GenA"});
  EXPECT_DOUBLE_EQ(ok->sweep[1].rhs.at("row"), 4.0);
  EXPECT_DOUBLE_EQ(ok->sweep[1].cost_scale.at("GenA"), 1.5);
  EXPECT_DOUBLE_EQ(ok->budget_ms, 500.0);
  // to_json -> from_json round-trips the compiled-op fields too.
  const auto back = Request::from_json(ok->to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->to_json().dump(), ok->to_json().dump());

  // Violations, each named: unknown op; compiled op over an LP source;
  // compiled op with lazy; sweep without scenarios; scale outside epn;
  // unknown scale value; negative budget.
  EXPECT_FALSE(parse_request("{\"id\":\"a\",\"op\":\"frobnicate\",\"lp\":\"x\"}",
                             &err).has_value());
  EXPECT_FALSE(parse_request("{\"id\":\"a\",\"op\":\"compile\",\"lp\":\"x\"}",
                             &err).has_value());
  EXPECT_FALSE(parse_request(
                   "{\"id\":\"a\",\"op\":\"compile\",\"domain\":\"epn\","
                   "\"lazy\":true}",
                   &err).has_value());
  EXPECT_FALSE(parse_request(
                   "{\"id\":\"a\",\"op\":\"sweep\",\"domain\":\"epn\"}", &err)
                   .has_value());
  EXPECT_FALSE(parse_request(
                   "{\"id\":\"a\",\"domain\":\"rpl\",\"scale\":\"tiny\"}", &err)
                   .has_value());
  EXPECT_FALSE(parse_request(
                   "{\"id\":\"a\",\"domain\":\"epn\",\"scale\":\"huge\"}", &err)
                   .has_value());
  EXPECT_FALSE(parse_request(
                   "{\"id\":\"a\",\"domain\":\"epn\",\"budget_ms\":-1}", &err)
                   .has_value());
}

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

TEST(ServeRequestTest, CompiledOpsRejectExploreOnlyKeys) {
  // The compiled path has no fault plan, checkpoint or retry ladder: a sweep
  // sent with "inject" must fail at the schema, naming the key, instead of
  // running without the fault and reporting success.
  const char* values[][2] = {{"inject", "\"nan-pivot:2\""},
                             {"checkpoint", "\"x.ck\""},
                             {"resume", "true"},
                             {"retries", "2"}};
  for (const char* op : {"compile", "solve_compiled", "sweep"}) {
    for (const auto& [key, value] : values) {
      std::string err;
      const std::string text = std::string("{\"id\":\"a\",\"op\":\"") + op +
                               "\",\"domain\":\"epn\",\"sweep\":[{}],\"" + key +
                               "\":" + value + "}";
      EXPECT_FALSE(parse_request(text, &err).has_value()) << op << " " << key;
      EXPECT_NE(err.find(std::string("'") + key + "'"), std::string::npos) << err;
    }
  }
  // The same keys stay valid on an explore request.
  std::string err;
  EXPECT_TRUE(parse_request("{\"id\":\"a\",\"domain\":\"epn\",\"inject\":"
                            "\"nan-pivot:2\",\"checkpoint\":\"x.ck\",\"resume\":true,"
                            "\"retries\":2}",
                            &err)
                  .has_value())
      << err;
}

TEST(ServeBackoffTest, DeterministicExponentialWithBoundedJitter) {
  const std::uint64_t seed = 0xABCDEF12345ULL;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const double a = backoff_delay_ms(10.0, seed, attempt);
    const double b = backoff_delay_ms(10.0, seed, attempt);
    EXPECT_EQ(a, b);  // pure function of (base, seed, attempt)
    const double nominal = 10.0 * std::ldexp(1.0, attempt);
    EXPECT_GE(a, 0.5 * nominal);
    EXPECT_LT(a, 1.5 * nominal);
  }
  EXPECT_NE(backoff_delay_ms(10.0, 1, 0), backoff_delay_ms(10.0, 2, 0));
  EXPECT_EQ(backoff_delay_ms(0.0, seed, 3), 0.0);  // test default: no sleep
}

// ---------------------------------------------------------------------------
// Service lifecycle
// ---------------------------------------------------------------------------

TEST(ServeServiceTest, InlineLpSolvesToOptimalBitExact) {
  const std::string lp = knapsack_lp(20, 7);
  const milp::Solution solo = solo_solve(lp);
  ASSERT_EQ(solo.status, milp::SolveStatus::Optimal);

  ExplorationService svc(with_workers(1));
  const Response r = svc.run(lp_request("k20", lp));
  EXPECT_EQ(r.status, ResponseStatus::Optimal);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.attempts, 1);
  ASSERT_TRUE(r.has_objective);
  EXPECT_EQ(r.objective, solo.objective);  // same code path: bit-identical
  EXPECT_EQ(r.nodes, solo.nodes_explored);
  EXPECT_EQ(r.gap, 0.0);
  // The lifecycle trace walks the documented states in order.
  ASSERT_GE(r.lifecycle.size(), 4u);
  EXPECT_EQ(r.lifecycle.front().state, "start");
  EXPECT_EQ(r.lifecycle.back().state, "done");
}

TEST(ServeServiceTest, LpFileSourceMatchesInlineText) {
  const std::string lp = knapsack_lp(20, 7);
  const std::string path = ::testing::TempDir() + "serve_lpfile_test.lp";
  {
    std::ofstream out(path);
    out << lp;
  }
  ExplorationService svc(with_workers(1));
  Request req;
  req.id = "file";
  req.lp_file = path;
  const Response r = svc.run(req);
  EXPECT_EQ(r.status, ResponseStatus::Optimal);
  EXPECT_EQ(r.objective, solo_solve(lp).objective);
  std::remove(path.c_str());
}

TEST(ServeServiceTest, DeadlineReturnsAnytimeDegradedWithSoundGap) {
  const std::string lp = knapsack_lp(52, 7);
  const milp::Solution solo = solo_solve(lp);
  ASSERT_EQ(solo.status, milp::SolveStatus::Optimal);

  ExplorationService svc(with_workers(1));
  Request req = lp_request("deadline", lp);
  req.budget_ms = 80;  // full solve needs ~6x that: expires mid-tree
  const Response r = svc.run(req);
  ASSERT_EQ(r.status, ResponseStatus::Degraded) << r.reason;
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.degraded);
  ASSERT_TRUE(r.has_objective);  // the anytime incumbent came back
  EXPECT_TRUE(std::isfinite(r.gap));
  EXPECT_GT(r.gap, 0.0);  // optimality genuinely unproven at the deadline
  // Soundness of the anytime answer (Maximize): the incumbent never beats
  // the true optimum and the reported bound still brackets it.
  EXPECT_LE(r.objective, solo.objective + 1e-6);
  EXPECT_GE(r.bound, solo.objective - 1e-6);
  EXPECT_LT(r.nodes, solo.nodes_explored);
  // The budget was enforced end-to-end, not per phase.
  EXPECT_LT(r.total_ms, 2000.0);
}

TEST(ServeServiceTest, QueueWaitSpendsTheDeadline) {
  // A request whose budget is consumed while queued gets an immediate
  // explicit timeout — it never reaches the solver with a fresh allowance.
  ExplorationService svc(with_workers(1));
  auto blocker = svc.submit(lp_request("blocker", knapsack_lp(52, 7)));
  Request starved = lp_request("starved", knapsack_lp(20, 7));
  starved.budget_ms = 1;  // gone long before the blocker finishes
  auto fut = svc.submit(std::move(starved));
  const Response r = fut.get();
  EXPECT_EQ(r.status, ResponseStatus::Timeout);
  EXPECT_FALSE(r.has_objective);
  EXPECT_EQ(r.nodes, 0);
  EXPECT_EQ(r.reason, "deadline expired before execution");
  EXPECT_EQ(blocker.get().status, ResponseStatus::Optimal);
}

TEST(ServeServiceTest, LintGateRejectsWithoutPoisoningSiblings) {
  // x's bounds contradict: model-lint flags it at Error severity.
  const std::string bad =
      "Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n 2 <= x <= 1\nEnd\n";
  ExplorationService svc(with_workers(1));
  Request req = lp_request("bad", bad);
  req.lint = true;
  const Response r = svc.run(req);
  EXPECT_EQ(r.status, ResponseStatus::Rejected);
  EXPECT_EQ(r.reason.rfind("lint:", 0), 0u) << r.reason;
  EXPECT_FALSE(r.ok);

  // The rejection is isolated: the next request on the same service is clean.
  const Response ok = svc.run(lp_request("good", knapsack_lp(20, 7)));
  EXPECT_EQ(ok.status, ResponseStatus::Optimal);
}

TEST(ServeServiceTest, RetryLadderRecoversWithTightenedTolerances) {
  // nan-pivot from occurrence 2 with a 4-wide window defeats the solver's
  // own root recovery on attempt 1; the service retry (tightened
  // tolerances) runs past the window and recovers the optimum.
  const std::string lp = knapsack_lp(20, 7);
  const milp::Solution solo = solo_solve(lp);

  ExplorationService svc(with_workers(1));
  Request req = lp_request("transient", lp);
  req.inject = "nan-pivot:2:0:4";
  req.retries = 2;
  const Response r = svc.run(req);
  EXPECT_EQ(r.status, ResponseStatus::Optimal) << r.reason;
  EXPECT_EQ(r.attempts, 2);
  ASSERT_TRUE(r.has_objective);
  // Tightened tolerances may pivot differently; the optimum itself agrees.
  EXPECT_NEAR(r.objective, solo.objective, 1e-9);
}

TEST(ServeServiceTest, RetryLadderFallsBackToDenseKernel) {
  // An 8-wide window also defeats the tightened-tolerance rung; only the
  // dense-kernel rung (attempt 3) gets past it.
  const std::string lp = knapsack_lp(20, 7);
  ExplorationService svc(with_workers(1));
  Request req = lp_request("stubborn", lp);
  req.inject = "nan-pivot:2:0:8";
  req.retries = 2;
  const Response r = svc.run(req);
  EXPECT_EQ(r.status, ResponseStatus::Optimal) << r.reason;
  EXPECT_EQ(r.attempts, 3);
  EXPECT_NEAR(r.objective, solo_solve(lp).objective, 1e-9);
  EXPECT_GE(svc.metrics().counter("serve.retries").value(), 2.0);
}

TEST(ServeServiceTest, ExhaustedRetriesSurfaceAsErrorNeverFalseOptima) {
  ExplorationService svc(with_workers(1));
  Request req = lp_request("doomed", knapsack_lp(20, 7));
  req.inject = "nan-pivot:2:0:1000000000";  // persistent: every attempt fails
  req.retries = 1;
  const Response r = svc.run(req);
  EXPECT_EQ(r.status, ResponseStatus::Error);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.has_objective);  // never a fabricated answer
  EXPECT_EQ(r.attempts, 2);
  EXPECT_FALSE(r.reason.empty());
}

TEST(ServeServiceTest, BadInjectSpecIsARequestScopedError) {
  ExplorationService svc(with_workers(1));
  Request req = lp_request("typo", knapsack_lp(20, 7));
  req.inject = "no-such-site:1";
  const Response r = svc.run(req);
  EXPECT_EQ(r.status, ResponseStatus::Error);
  EXPECT_NE(r.reason.find("inject"), std::string::npos);
  EXPECT_EQ(svc.run(lp_request("after", knapsack_lp(20, 7))).status,
            ResponseStatus::Optimal);
}

TEST(ServeServiceTest, LoadShedsOldestDroppableWithExplicitRejection) {
  ServiceOptions so;
  so.workers = 1;
  so.queue_capacity = 2;
  ExplorationService svc(so);

  // Occupy the single worker, then wait until it picked the blocker up so
  // the admission queue is empty and fills deterministically below.
  auto blocker = svc.submit(lp_request("blocker", knapsack_lp(52, 7)));
  while (svc.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Request b = lp_request("b", knapsack_lp(20, 7));
  b.droppable = true;
  Request c = lp_request("c", knapsack_lp(20, 8));
  c.droppable = true;
  auto fb = svc.submit(std::move(b));
  auto fc = svc.submit(std::move(c));
  // Queue is now at capacity. A non-droppable newcomer sheds the oldest
  // droppable (b); a further droppable newcomer sheds c.
  auto fd = svc.submit(lp_request("d", knapsack_lp(20, 9)));
  Request e = lp_request("e", knapsack_lp(20, 10));
  e.droppable = true;
  auto fe = svc.submit(std::move(e));

  const Response rb = fb.get();
  EXPECT_EQ(rb.status, ResponseStatus::Rejected);
  EXPECT_EQ(rb.reason, "shed");
  const Response rc = fc.get();
  EXPECT_EQ(rc.status, ResponseStatus::Rejected);
  EXPECT_EQ(rc.reason, "shed");
  EXPECT_EQ(fd.get().status, ResponseStatus::Optimal);
  EXPECT_EQ(fe.get().status, ResponseStatus::Optimal);
  EXPECT_EQ(blocker.get().status, ResponseStatus::Optimal);
  EXPECT_EQ(svc.metrics().counter("serve.shed").value(), 2.0);
}

TEST(ServeServiceTest, QueueFullRejectsNewcomerWhenNothingDroppable) {
  ServiceOptions so;
  so.workers = 1;
  so.queue_capacity = 1;
  ExplorationService svc(so);
  auto blocker = svc.submit(lp_request("blocker", knapsack_lp(52, 7)));
  while (svc.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto fb = svc.submit(lp_request("b", knapsack_lp(20, 7)));  // fills the queue
  auto fc = svc.submit(lp_request("c", knapsack_lp(20, 8)));  // turned away
  const Response rc = fc.get();
  EXPECT_EQ(rc.status, ResponseStatus::Rejected);
  EXPECT_EQ(rc.reason, "queue_full");
  EXPECT_EQ(fb.get().status, ResponseStatus::Optimal);
  EXPECT_EQ(blocker.get().status, ResponseStatus::Optimal);
}

TEST(ServeServiceTest, DrainPreemptsCheckpointsAndResumeMatchesSolo) {
  const std::string lp = knapsack_lp(52, 7);
  const milp::Solution solo = solo_solve(lp);
  ASSERT_EQ(solo.status, milp::SolveStatus::Optimal);

  ServiceOptions so;
  so.workers = 1;
  so.checkpoint_dir = ::testing::TempDir();
  so.checkpoint_interval_s = 0.01;
  std::string ck_path;
  {
    ExplorationService svc(so);
    auto fut = svc.submit(lp_request("drainme", lp));
    // Let the solve get properly underway (incumbent + open tree) first.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const ExplorationService::DrainReport rep = svc.drain();
    const Response r = fut.get();
    ASSERT_EQ(r.status, ResponseStatus::Preempted) << r.reason;
    EXPECT_FALSE(r.ok);
    // A preempted solve keeps its incumbent on the wire but is not degraded:
    // `degraded` is the solver's own flag, not "incumbent, optimality
    // unproven" as for a budget-stopped solve.
    EXPECT_TRUE(r.has_objective);
    EXPECT_FALSE(r.degraded);
    ASSERT_TRUE(r.resumable);
    ASSERT_FALSE(r.checkpoint.empty());
    ck_path = r.checkpoint;
    EXPECT_EQ(rep.preempted, 1u);
    ASSERT_EQ(rep.checkpoints.size(), 1u);
    EXPECT_EQ(rep.checkpoints.front(), ck_path);
    EXPECT_TRUE(std::ifstream(ck_path).good());
    // Dead after drain: nothing further is admitted.
    EXPECT_EQ(svc.run(lp_request("late", lp)).status, ResponseStatus::Rejected);
  }

  // A fresh service resumes the checkpoint and lands on the uninterrupted
  // optimum — preemption paused the work, it did not lose or corrupt it.
  ExplorationService svc2(with_workers(1));
  Request resume = lp_request("drainme", lp);
  resume.checkpoint = ck_path;
  resume.resume = true;
  const Response r2 = svc2.run(resume);
  EXPECT_EQ(r2.status, ResponseStatus::Optimal) << r2.reason;
  EXPECT_NEAR(r2.objective, solo.objective, 1e-9);
  EXPECT_GT(r2.nodes, 0);
  std::remove(ck_path.c_str());
}

TEST(ServeServiceTest, DrainShedsQueueAndClosesAdmission) {
  ExplorationService svc(with_workers(1));
  auto blocker = svc.submit(lp_request("blocker", knapsack_lp(52, 7)));
  while (svc.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::future<Response>> queued;
  queued.push_back(svc.submit(lp_request("q1", knapsack_lp(20, 7))));
  queued.push_back(svc.submit(lp_request("q2", knapsack_lp(20, 8))));
  const auto rep = svc.drain();
  EXPECT_EQ(rep.shed, 2u);
  for (auto& f : queued) {
    const Response r = f.get();
    EXPECT_EQ(r.status, ResponseStatus::Rejected);
    EXPECT_EQ(r.reason, "drained");
  }
  // The in-flight blocker was preempted (no deadline pressure of its own).
  EXPECT_EQ(blocker.get().status, ResponseStatus::Preempted);
  EXPECT_EQ(svc.run(lp_request("late", knapsack_lp(20, 7))).status,
            ResponseStatus::Rejected);
}

TEST(ServeServiceTest, PrometheusExposesServeMetrics) {
  ExplorationService svc(with_workers(1));
  svc.submit(lp_request("m1", knapsack_lp(20, 7))).get();
  Request deg = lp_request("m2", knapsack_lp(52, 7));
  deg.budget_ms = 60;
  svc.run(deg);
  const std::string text = svc.prometheus();
  for (const char* needle :
       {"archex_serve_requests_total", "archex_serve_completed_total",
        "archex_serve_optimal_total", "archex_serve_degraded_total",
        "archex_serve_queue_depth", "archex_serve_workers",
        "archex_serve_latency_seconds_sum", "archex_serve_latency_seconds_count",
        "archex_serve_latency_p50_seconds", "archex_serve_latency_p99_seconds",
        "archex_serve_queue_wait_seconds_count"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

// ---------------------------------------------------------------------------
// Compiled-pipeline ops (docs/pipeline.md)
// ---------------------------------------------------------------------------

Request compiled_request(std::string id, std::string op) {
  Request r;
  r.id = std::move(id);
  r.op = std::move(op);
  r.domain = "epn";
  r.scale = "tiny";  // the k = 1 regime; solves in well under a second
  return r;
}

TEST(ServeCompiledTest, CompileOpCachesByFingerprint) {
  ExplorationService svc(with_workers(1));
  const Response first = svc.run(compiled_request("c1", "compile"));
  EXPECT_EQ(first.status, ResponseStatus::Compiled) << first.reason;
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.cache, "miss");
  EXPECT_NE(first.fingerprint, 0u);

  const Response again = svc.run(compiled_request("c2", "compile"));
  EXPECT_EQ(again.status, ResponseStatus::Compiled);
  EXPECT_EQ(again.cache, "hit");  // same spec key -> cached artifact
  EXPECT_EQ(again.fingerprint, first.fingerprint);
  EXPECT_EQ(svc.metrics().counter("serve.compile.cache_hits").value(), 1);
  EXPECT_EQ(svc.metrics().counter("serve.compile.cache_misses").value(), 1);

  // A different scale is a different spec: its own fingerprint, its own miss.
  Request small = compiled_request("c3", "compile");
  small.scale = "small";
  const Response other = svc.run(small);
  EXPECT_EQ(other.status, ResponseStatus::Compiled);
  EXPECT_EQ(other.cache, "miss");
  EXPECT_NE(other.fingerprint, first.fingerprint);
}

TEST(ServeCompiledTest, SolveCompiledMatchesClassicExplore) {
  ExplorationService svc(with_workers(1));
  Request classic;
  classic.id = "classic";
  classic.domain = "epn";
  classic.scale = "tiny";
  const Response ref = svc.run(classic);
  ASSERT_EQ(ref.status, ResponseStatus::Optimal) << ref.reason;

  const Response compiled = svc.run(compiled_request("sc", "solve_compiled"));
  ASSERT_EQ(compiled.status, ResponseStatus::Optimal) << compiled.reason;
  EXPECT_TRUE(compiled.has_objective);
  EXPECT_NEAR(compiled.objective, ref.objective,
              1e-6 * std::max(1.0, std::abs(ref.objective)));
  // A single-scenario solve reports at the top level only; per-scenario
  // arrays (and warm/cold counts) belong to sweep responses.
  EXPECT_TRUE(compiled.scenarios.empty());
  // The classic explore never compiles, so this request paid the encode.
  EXPECT_EQ(compiled.cache, "miss");
}

TEST(ServeCompiledTest, SweepWarmStartsAndReportsPerScenario) {
  ExplorationService svc(with_workers(1));
  Request sweep = compiled_request("sw", "sweep");
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec sc;
    sc.name = "s" + std::to_string(i);
    sc.edge_cost_scale = 1.0 + 0.02 * i;
    sweep.sweep.push_back(sc);
  }
  const Response r = svc.run(sweep);
  ASSERT_EQ(r.status, ResponseStatus::Optimal) << r.reason;
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.cache, "miss");  // fresh service: this request paid the encode
  ASSERT_EQ(r.scenarios.size(), 4u);
  for (std::size_t i = 0; i < r.scenarios.size(); ++i) {
    EXPECT_EQ(r.scenarios[i].status, ResponseStatus::Optimal) << i;
    EXPECT_TRUE(r.scenarios[i].has_objective) << i;
    EXPECT_EQ(r.scenarios[i].name, "s" + std::to_string(i));
  }
  EXPECT_FALSE(r.scenarios[0].warm);  // nothing to start from
  EXPECT_EQ(r.cold_solves, 1);
  EXPECT_EQ(r.warm_solves, 3);
  EXPECT_EQ(svc.metrics().counter("serve.sweep.warm").value(), 3);
  // The response's top-level objective mirrors the last scenario, so sweep
  // lines diff cleanly against solve_compiled lines.
  EXPECT_EQ(r.objective, r.scenarios.back().objective);
}

TEST(ServeCompiledTest, BudgetBoundsACompiledRequest) {
  ExplorationService svc(with_workers(1));
  Request r = compiled_request("b1", "solve_compiled");
  r.budget_ms = 0.001;  // expires during admission: immediate anytime answer
  const Response out = svc.run(r);
  EXPECT_EQ(out.status, ResponseStatus::Timeout);
  EXPECT_FALSE(out.ok);
}

TEST(ServeServiceTest, DrainPreemptsCompiledSolve) {
  // The paper-scale Fig. 2b model runs far past the drain: its root LP alone
  // takes most of a second, and the search after it does not close. Drain
  // stops the solve through the cancel token, so the response reports the
  // preemption (never ok) and the drain report counts it.
  ExplorationService svc(with_workers(1));
  Request req = compiled_request("paper", "solve_compiled");
  req.scale = "paper";
  auto fut = svc.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ExplorationService::DrainReport rep = svc.drain();
  const Response r = fut.get();
  EXPECT_EQ(r.status, ResponseStatus::Preempted) << r.reason;
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.resumable);  // compiled requests carry no checkpoint
  EXPECT_EQ(rep.preempted, 1u);
  EXPECT_TRUE(rep.checkpoints.empty());
  EXPECT_EQ(svc.metrics().counter("serve.preempted").value(), 1);
}

TEST(ServeCompiledTest, OutcomeKeysMatchDegradationJson) {
  // ExplorationResult::degradation_json promises the response's outcome keys
  // byte for byte: check it on a proven optimum and on a node-capped solve
  // that stops with an incumbent (NodeLimit, the anytime case).
  domains::epn::EpnConfig cfg = *domains::epn::scale_config("tiny");
  cfg.reliability_eager = true;  // what the service builds for a non-lazy spec
  const CompiledModel cm = compile(*domains::epn::make_problem(cfg));
  ExplorationService svc(with_workers(1));
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{20}}) {
    SCOPED_TRACE(cap);
    Request req = compiled_request("d" + std::to_string(cap), "solve_compiled");
    req.max_nodes = cap;
    const Response r = svc.run(req);
    milp::MilpOptions o;
    if (cap > 0) o.max_nodes = cap;
    const ExplorationResult er = archex::solve(cm, Scenario{}, o);
    EXPECT_EQ(er.solution.status, cap > 0 ? milp::SolveStatus::NodeLimit
                                          : milp::SolveStatus::Optimal);
    EXPECT_TRUE(er.has_objective());
    Json keys;
    const Json wire = r.to_json();
    for (const char* k :
         {"objective", "bound", "gap", "degraded", "degraded_nodes"}) {
      if (const Json* v = wire.find(k); v != nullptr) keys[k] = *v;
    }
    EXPECT_EQ(keys.dump(), er.degradation_json());
  }
}

// ---------------------------------------------------------------------------
// Wire pins: whole responses, byte for byte
// ---------------------------------------------------------------------------

/// `r.to_json().dump()` without its timing values (`queue_ms`,
/// `solve_seconds`, `total_ms`, each scenario's `solve_seconds`, each
/// lifecycle mark's `ms`). The lifecycle state names stay.
std::string untimed_wire(const Response& r) {
  Json j = r.to_json();
  for (const char* k : {"queue_ms", "solve_seconds", "total_ms"}) j.obj().erase(k);
  if (Json::Object& o = j.obj(); o.count("lifecycle") != 0) {
    for (Json& ev : o["lifecycle"].arr()) ev.obj().erase("ms");
  }
  if (Json::Object& o = j.obj(); o.count("scenarios") != 0) {
    for (Json& sc : o["scenarios"].arr()) sc.obj().erase("solve_seconds");
  }
  return j.dump();
}

TEST(ServeWireTest, EveryRequestPathKeepsItsWire) {
  ExplorationService svc(with_workers(1));
  EXPECT_EQ(untimed_wire(svc.run(lp_request("k20", knapsack_lp(20, 7)))),
            R"w({"attempts":1,"bound":247.70000000000002,"degraded":false,"gap":0,"id":"k20","lifecycle":[{"state":"start"},{"state":"build"},{"state":"solve"},{"state":"extract"},{"state":"done"}],"nodes":1254,"objective":247.70000000000002,"ok":true,"status":"optimal"})w");

  Request lint = lp_request(
      "bad", "Minimize\n obj: x\nSubject To\n c1: x >= 1\nBounds\n 2 <= x <= 1\nEnd\n");
  lint.lint = true;
  EXPECT_EQ(untimed_wire(svc.run(lint)),
            R"w({"degraded":false,"id":"bad","lifecycle":[{"state":"start"},{"state":"build"},{"state":"lint"},{"state":"done"}],"ok":false,"reason":"lint: bounds of 'x' cross: lb=2.000000 > ub=1.000000","status":"rejected"})w");

  Request doomed = lp_request("doomed", knapsack_lp(20, 7));
  doomed.inject = "nan-pivot:2:0:1000000000";
  doomed.retries = 1;
  EXPECT_EQ(untimed_wire(svc.run(doomed)),
            R"w({"attempts":2,"degraded":false,"id":"doomed","lifecycle":[{"state":"start"},{"state":"build"},{"state":"solve"},{"state":"retry"},{"state":"extract"},{"state":"done"}],"nodes":1,"ok":false,"reason":"numerical error after 2 attempt(s)","status":"error"})w");

  EXPECT_EQ(untimed_wire(svc.run(compiled_request("c1", "compile"))),
            R"w({"cache":"miss","degraded":false,"fingerprint":"b7d4a81d06026d65","id":"c1","lifecycle":[{"state":"start"},{"state":"compile"},{"state":"done"}],"ok":true,"status":"compiled"})w");
  EXPECT_EQ(untimed_wire(svc.run(compiled_request("c2", "compile"))),
            R"w({"cache":"hit","degraded":false,"fingerprint":"b7d4a81d06026d65","id":"c2","lifecycle":[{"state":"start"},{"state":"compile"},{"state":"done"}],"ok":true,"status":"compiled"})w");
  EXPECT_EQ(untimed_wire(svc.run(compiled_request("sc", "solve_compiled"))),
            R"w({"attempts":1,"bound":30505.999999999993,"cache":"hit","degraded":false,"fingerprint":"b7d4a81d06026d65","gap":0,"id":"sc","lifecycle":[{"state":"start"},{"state":"compile"},{"state":"solve"},{"state":"extract"},{"state":"done"}],"nodes":197,"objective":30505.999999999993,"ok":true,"status":"optimal"})w");

  Request sweep = compiled_request("sw", "sweep");
  for (int i = 0; i < 3; ++i) {
    ScenarioSpec sc;
    sc.name = "s" + std::to_string(i);
    sc.edge_cost_scale = 1.0 + 0.02 * i;
    sweep.sweep.push_back(sc);
  }
  EXPECT_EQ(untimed_wire(svc.run(sweep)),
            R"w({"attempts":1,"bound":31166,"cache":"hit","cold_solves":1,"degraded":false,"fingerprint":"b7d4a81d06026d65","gap":0,"id":"sw","lifecycle":[{"state":"start"},{"state":"compile"},{"state":"solve"},{"state":"extract"},{"state":"done"}],"nodes":443,"objective":31166,"ok":true,"scenarios":[{"bound":30505.999999999996,"degraded":false,"gap":0,"name":"s0","objective":30505.999999999996,"ok":true,"status":"optimal","warm":false},{"bound":30836,"degraded":false,"gap":0,"name":"s1","objective":30836,"ok":true,"status":"optimal","warm":true},{"bound":31166,"degraded":false,"gap":0,"name":"s2","objective":31166,"ok":true,"status":"optimal","warm":true}],"status":"optimal","warm_solves":2})w");

  // The QueueWaitSpendsTheDeadline setup: the budget runs out in the queue.
  auto blocker = svc.submit(lp_request("blocker", knapsack_lp(52, 7)));
  Request starved = lp_request("starved", knapsack_lp(20, 7));
  starved.budget_ms = 1;
  EXPECT_EQ(untimed_wire(svc.submit(std::move(starved)).get()),
            R"w({"degraded":false,"id":"starved","lifecycle":[{"state":"start"},{"state":"done"}],"ok":false,"reason":"deadline expired before execution","status":"timeout"})w");
  blocker.get();
}

// ---------------------------------------------------------------------------
// Concurrency suites (ThreadSanitizer CI leg)
// ---------------------------------------------------------------------------

TEST(ServeConcurrencyTest, ConcurrentRequestsMatchSoloBitExact) {
  // Eight fast knapsacks race through four workers; every response must be
  // bit-identical to its solo run — concurrency may reorder completion,
  // never results.
  ExplorationService svc(with_workers(4));
  std::vector<std::string> lps;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) {
    lps.push_back(knapsack_lp(16 + i, 7 + static_cast<unsigned>(i)));
    futs.push_back(svc.submit(lp_request("c" + std::to_string(i), lps.back())));
  }
  for (int i = 0; i < 8; ++i) {
    const Response r = futs[static_cast<std::size_t>(i)].get();
    const milp::Solution solo = solo_solve(lps[static_cast<std::size_t>(i)]);
    ASSERT_EQ(r.status, ResponseStatus::Optimal) << r.id << ": " << r.reason;
    EXPECT_EQ(r.objective, solo.objective) << r.id;
    EXPECT_EQ(r.nodes, solo.nodes_explored) << r.id;
  }
}

TEST(ServeConcurrencyTest, FaultedRequestFailsAloneUnderLoad) {
  ExplorationService svc(with_workers(4));
  std::vector<std::string> lps;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 6; ++i) {
    lps.push_back(knapsack_lp(16 + i, 21 + static_cast<unsigned>(i)));
    Request req = lp_request("f" + std::to_string(i), lps.back());
    if (i == 2) {
      req.inject = "nan-pivot:2:0:1000000000";
      req.retries = 0;
    }
    futs.push_back(svc.submit(std::move(req)));
  }
  for (int i = 0; i < 6; ++i) {
    const Response r = futs[static_cast<std::size_t>(i)].get();
    if (i == 2) {
      EXPECT_EQ(r.status, ResponseStatus::Error);
      EXPECT_FALSE(r.has_objective);
    } else {
      ASSERT_EQ(r.status, ResponseStatus::Optimal) << r.id << ": " << r.reason;
      EXPECT_EQ(r.objective, solo_solve(lps[static_cast<std::size_t>(i)]).objective)
          << r.id;
    }
  }
}

TEST(ServeConcurrencyTest, ParallelSubmittersAndDrainResolveEveryFuture) {
  // Four submitter threads race a mid-flight drain; the invariant is
  // accounting, not outcomes: every future resolves with a terminal status
  // and nothing hangs or crashes.
  ExplorationService svc(with_workers(2));
  std::mutex mu;
  std::vector<std::future<Response>> futs;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&svc, &mu, &futs, t] {
      for (int i = 0; i < 4; ++i) {
        auto f = svc.submit(lp_request(
            "s" + std::to_string(t) + "_" + std::to_string(i),
            knapsack_lp(14 + i, static_cast<unsigned>(3 * t + i + 1))));
        std::lock_guard<std::mutex> lock(mu);
        futs.push_back(std::move(f));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc.drain();
  for (std::thread& t : submitters) t.join();
  ASSERT_EQ(futs.size(), 16u);
  int resolved = 0;
  for (auto& f : futs) {
    const Response r = f.get();  // must not hang
    EXPECT_TRUE(r.status == ResponseStatus::Optimal ||
                r.status == ResponseStatus::Rejected ||
                r.status == ResponseStatus::Preempted)
        << to_string(r.status);
    ++resolved;
  }
  EXPECT_EQ(resolved, 16);
}

}  // namespace
}  // namespace archex::serve

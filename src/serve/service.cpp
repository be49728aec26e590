#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "arch/algorithm.hpp"
#include "arch/problem.hpp"
#include "check/lint.hpp"
#include "domains/epn.hpp"
#include "domains/rpl.hpp"
#include "milp/branch_bound.hpp"
#include "milp/budget.hpp"
#include "milp/fault.hpp"
#include "milp/lp_format.hpp"

namespace archex::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Request ids become checkpoint file names; keep them path-safe.
std::string sanitize_id(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("req") : out;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

/// The request's model, whichever source it came from. Domain problems keep
/// the Problem alive (the solve needs its decision-variable mapping); LP
/// sources own a bare Model.
struct BuiltModel {
  std::unique_ptr<Problem> problem;
  milp::Model model;  // valid when problem == nullptr
  bool epn_lazy = false;
  domains::epn::EpnConfig epn_cfg;

  [[nodiscard]] const milp::Model& lint_target() const {
    return problem != nullptr ? problem->model() : model;
  }
};

BuiltModel build_model(const Request& req) {
  BuiltModel b;
  if (req.domain == "epn") {
    const std::optional<domains::epn::EpnConfig> cfg =
        domains::epn::scale_config(req.scale.empty() ? "small" : req.scale);
    if (!cfg) throw std::invalid_argument("unknown scale '" + req.scale + "'");
    b.epn_cfg = *cfg;
    b.epn_lazy = req.lazy;
    b.epn_cfg.reliability_eager = !req.lazy;
    b.problem = domains::epn::make_problem(b.epn_cfg);
  } else if (req.domain == "rpl") {
    b.problem = domains::rpl::make_problem();
  } else if (!req.lp_file.empty()) {
    b.model = milp::parse_lp_file(req.lp_file);
  } else {
    std::istringstream in(req.lp);
    b.model = milp::parse_lp(in);
  }
  return b;
}

/// THE conversion from the request's time knob to an absolute deadline
/// (via milp/budget.hpp): `budget_ms`, 0 meaning unlimited, measured from
/// admission so queue wait spends the budget.
Clock::time_point deadline_of(const Request& req, Clock::time_point admitted) {
  return (req.budget_ms > 0 ? milp::Budget::of_ms(req.budget_ms)
                            : milp::Budget::unlimited())
      .deadline_from(admitted);
}

/// Severity order for folding per-scenario statuses into one sweep status.
int severity(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::Optimal:
    case ResponseStatus::Compiled: return 0;
    case ResponseStatus::Degraded: return 1;
    case ResponseStatus::Infeasible:
    case ResponseStatus::Unbounded: return 2;
    case ResponseStatus::Timeout: return 3;
    default: return 4;  // Error / Rejected / Preempted
  }
}

/// THE options of a request's solves, shared by both paths: its thread
/// count, its deadline as the budget, the service's cancel token and its
/// node cap. The explore path adds its fault plan and checkpoint on top.
milp::MilpOptions solver_options(const Request& req, Clock::time_point deadline,
                                 const std::atomic<bool>* cancel) {
  milp::MilpOptions o;
  o.num_threads = req.threads;
  o.budget = milp::Budget::until(deadline);
  o.cancel = cancel;
  if (req.max_nodes > 0) o.max_nodes = req.max_nodes;
  return o;
}

/// THE rule from a solver outcome to the wire's outcome fields, shared by
/// the explore path and every compiled scenario; it also charges the solve's
/// work to the serve.solver.* counters. `preempted` is the drain override
/// (ExplorationService::drain_preempted): a solve the cancel token stopped
/// reports Preempted, never ok, and only the solver's own degraded flag,
/// even with an incumbent.
void record_outcome(const milp::Solution& sol, bool preempted, Outcome& out,
                    obs::MetricsRegistry& reg) {
  switch (sol.status) {
    case milp::SolveStatus::Optimal:
      out.status = sol.degraded ? ResponseStatus::Degraded
                                : ResponseStatus::Optimal;
      break;
    case milp::SolveStatus::TimeLimit:
    case milp::SolveStatus::NodeLimit:
    case milp::SolveStatus::IterationLimit:
      // With an incumbent, the anytime result.
      out.status = sol.has_incumbent ? ResponseStatus::Degraded
                                     : ResponseStatus::Timeout;
      break;
    case milp::SolveStatus::Infeasible:
      out.status = ResponseStatus::Infeasible;
      break;
    case milp::SolveStatus::Unbounded:
      out.status = ResponseStatus::Unbounded;
      break;
    // Cutoff is an LP-level outcome of the node reoptimizations, unreachable
    // as a MILP Solution::status.
    case milp::SolveStatus::NumericalError:
    case milp::SolveStatus::Cutoff:
      out.status = ResponseStatus::Error;
      break;
  }
  if (preempted) out.status = ResponseStatus::Preempted;
  out.ok = out.status == ResponseStatus::Optimal ||
           out.status == ResponseStatus::Degraded;
  out.has_objective = sol.has_incumbent;
  if (sol.has_incumbent) {
    out.objective = sol.objective;
    out.bound = sol.best_bound;
    out.gap = std::abs(sol.objective - sol.best_bound);
  }
  out.degraded = sol.degraded || out.status == ResponseStatus::Degraded;
  reg.counter("serve.solver.nodes").add(sol.nodes_explored);
  reg.counter("serve.solver.simplex_iterations").add(sol.simplex_iterations);
}

/// THE lint gate of both paths: when `model` has an error-severity finding,
/// rejects `r` with the first one and counts it.
bool lint_rejects(const milp::Model& model, Response& r,
                  obs::MetricsRegistry& reg) {
  const check::LintReport report = check::lint(model);
  if (report.clean(check::Severity::Error)) return false;
  r.status = ResponseStatus::Rejected;
  r.reason = "lint: " + report.at_least(check::Severity::Error).front().message;
  reg.counter("serve.lint_rejected").add();
  return true;
}

}  // namespace

double backoff_delay_ms(double base_ms, std::uint64_t seed, int attempt) {
  if (base_ms <= 0.0) return 0.0;
  const std::uint64_t h =
      splitmix64(seed + 0x9E3779B97F4A7C15ULL *
                            static_cast<std::uint64_t>(attempt + 1));
  // 53 uniform bits -> [0, 1), mapped to a [0.5, 1.5) multiplier.
  const double jitter =
      0.5 + std::ldexp(static_cast<double>(h >> 11), -53);
  return base_ms * std::ldexp(1.0, attempt) * jitter;
}

ExplorationService::ExplorationService(ServiceOptions opts)
    : opts_(std::move(opts)), compiled_cache_(opts_.compiled_cache_capacity) {
  opts_.workers = std::max(opts_.workers, 1);
  opts_.queue_capacity = std::max<std::size_t>(opts_.queue_capacity, 1);
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  reg_.gauge("serve.workers").set(static_cast<double>(opts_.workers));
}

ExplorationService::~ExplorationService() { close(); }

Response ExplorationService::reject(const Request& req,
                                    const std::string& reason) {
  Response r;
  r.id = req.id;
  r.status = ResponseStatus::Rejected;
  r.reason = reason;
  reg_.counter("serve.rejected").add();
  if (reason == "shed" || reason == "drained") reg_.counter("serve.shed").add();
  return r;
}

std::future<Response> ExplorationService::submit(Request req) {
  reg_.counter("serve.requests").add();
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();
  std::unique_lock<std::mutex> lock(mu_);
  if (draining_ || stopping_) {
    lock.unlock();
    promise.set_value(reject(req, "draining"));
    return fut;
  }
  if (queue_.size() >= opts_.queue_capacity) {
    // Load shedding: the oldest droppable queued request yields its slot and
    // gets an explicit rejection; with nothing sheddable the newcomer is
    // turned away instead. Either way somebody is told, nobody is dropped
    // silently.
    const auto victim =
        std::find_if(queue_.begin(), queue_.end(),
                     [](const std::unique_ptr<Pending>& p) {
                       return p->req.droppable;
                     });
    if (victim == queue_.end()) {
      lock.unlock();
      promise.set_value(reject(req, "queue_full"));
      return fut;
    }
    std::unique_ptr<Pending> shed = std::move(*victim);
    queue_.erase(victim);
    shed->promise.set_value(reject(shed->req, "shed"));
  }
  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  pending->promise = std::move(promise);
  pending->admitted = Clock::now();
  queue_.push_back(std::move(pending));
  reg_.counter("serve.admitted").add();
  reg_.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  lock.unlock();
  cv_.notify_one();
  return fut;
}

Response ExplorationService::run(const Request& req) {
  reg_.counter("serve.requests").add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stopping_) return reject(req, "draining");
  }
  reg_.counter("serve.admitted").add();
  return execute(req, Clock::now());
}

void ExplorationService::worker_loop() {
  for (;;) {
    std::unique_ptr<Pending> p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      p = std::move(queue_.front());
      queue_.pop_front();
      reg_.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
    }
    Response r;
    try {
      r = execute(p->req, p->admitted);
    } catch (const std::exception& e) {
      // Isolation backstop: no request may take the worker down.
      r = Response{};
      r.id = p->req.id;
      r.status = ResponseStatus::Error;
      r.reason = e.what();
      finish_metrics(r);
    } catch (...) {
      r = Response{};
      r.id = p->req.id;
      r.status = ResponseStatus::Error;
      r.reason = "unknown exception";
      finish_metrics(r);
    }
    p->promise.set_value(std::move(r));
  }
}

/// One request in flight: the response being built, the admission time its
/// lifecycle marks count from, and its absolute deadline.
struct ExplorationService::InFlight {
  Response& r;
  Clock::time_point admitted;
  Clock::time_point deadline;

  void mark(const char* state) {
    r.lifecycle.push_back({state, ms_between(admitted, Clock::now())});
  }
};

Response ExplorationService::execute(const Request& req,
                                     Clock::time_point admitted) {
  Response r;
  r.id = req.id;
  r.queue_ms = ms_between(admitted, Clock::now());
  InFlight job{r, admitted, deadline_of(req, admitted)};
  job.mark("start");
  // A budget fully consumed by queue wait gets its answer without touching
  // the solver: there is no incumbent to report, so this is a timeout.
  if (Clock::now() >= job.deadline) {
    r.status = ResponseStatus::Timeout;
    r.reason = "deadline expired before execution";
  } else if (req.op.empty()) {
    execute_explore(req, job);
  } else {
    execute_compiled(req, job);
  }
  r.total_ms = ms_between(admitted, Clock::now());
  job.mark("done");
  finish_metrics(r);
  return r;
}

void ExplorationService::execute_explore(const Request& req, InFlight& job) {
  Response& r = job.r;
  // --- build (encode) ---
  job.mark("build");
  BuiltModel built;
  try {
    built = build_model(req);
  } catch (const std::exception& e) {
    r.status = ResponseStatus::Error;
    r.reason = std::string("model build failed: ") + e.what();
    return;
  }

  // --- lint gate ---
  if (req.lint) {
    job.mark("lint");
    if (lint_rejects(built.lint_target(), r, reg_)) return;
  }

  milp::MilpOptions base = solver_options(req, job.deadline, &cancel_);
  // --- per-request fault plan (isolation: each request owns its plan) ---
  milp::FaultPlan fault;
  if (!req.inject.empty()) {
    if (!fault.arm_from_spec(req.inject)) {
      r.status = ResponseStatus::Error;
      r.reason = "bad inject spec '" + req.inject + "'";
      return;
    }
    base.fault = &fault;
  }
  std::string ck = req.checkpoint;
  if (ck.empty() && req.preemptible && !opts_.checkpoint_dir.empty()) {
    ck = opts_.checkpoint_dir + "/" + sanitize_id(req.id) + ".ck";
  }
  base.checkpoint_file = ck;
  base.checkpoint_interval_s = opts_.checkpoint_interval_s;
  base.resume = req.resume;

  const std::uint64_t backoff_seed =
      (req.seed != 0 ? req.seed : fnv1a(req.id)) ^ opts_.backoff_seed;
  const int retries = req.retries >= 0 ? req.retries : opts_.default_retries;

  // --- solve, with the service-level NumericalError ladder on top of the
  // solver's own recovery: attempt 1 tightens tolerances, attempt 2 falls
  // back to the dense oracle kernel. ---
  job.mark("solve");
  milp::Solution sol;
  std::string solve_error;
  int attempt = 0;
  const Clock::time_point t_solve = Clock::now();
  for (;;) {
    milp::MilpOptions o = base;
    if (attempt == 1) {
      // Tightened-tolerance rung: refuse marginal pivots, pivot for
      // stability over sparsity, refactorize twice as often.
      o.lp.pivot_tol = std::max(o.lp.pivot_tol * 10.0, 1e-7);
      o.lp.markowitz_tol = std::max(o.lp.markowitz_tol, 0.5);
      o.lp.refactor_interval = std::max(o.lp.refactor_interval / 2, 16);
    } else if (attempt >= 2) {
      o.lp.kernel = milp::BasisKernel::Dense;  // slow, numerically boring
    }
    solve_error.clear();
    try {
      if (built.problem != nullptr) {
        if (built.epn_lazy) {
          IterativeResult lr = domains::epn::solve_lazy_epn(
              *built.problem, built.epn_cfg, o, /*max_iterations=*/10);
          sol = std::move(lr.final_result.solution);
        } else {
          sol = built.problem->solve(o).solution;
        }
      } else {
        sol = milp::solve_milp(built.model, o);
      }
    } catch (const std::exception& e) {
      solve_error = e.what();
      sol = milp::Solution{};
      sol.status = milp::SolveStatus::NumericalError;
    }
    if (sol.status != milp::SolveStatus::NumericalError) break;
    if (attempt >= retries) break;
    if (cancel_.load(std::memory_order_relaxed) ||
        Clock::now() >= job.deadline) {
      break;  // no budget left to spend on another attempt
    }
    reg_.counter("serve.retries").add();
    const double delay =
        backoff_delay_ms(opts_.backoff_base_ms, backoff_seed, attempt);
    if (delay > 0) {
      const double remaining_ms = ms_between(Clock::now(), job.deadline);
      const double capped = std::min(delay, std::max(remaining_ms, 0.0));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(capped));
    }
    ++attempt;
    job.mark("retry");
  }
  r.solve_seconds =
      std::chrono::duration<double>(Clock::now() - t_solve).count();
  r.attempts = attempt + 1;

  // --- map the solution to a response ---
  job.mark("extract");
  r.nodes = sol.nodes_explored;
  r.degraded_nodes = sol.degraded_nodes;
  const bool preempted = drain_preempted(sol, job);
  record_outcome(sol, preempted, r, reg_);
  if (sol.status == milp::SolveStatus::NumericalError) {
    r.reason = solve_error.empty()
                   ? "numerical error after " + std::to_string(attempt + 1) +
                         " attempt(s)"
                   : solve_error;
  }
  if (preempted) {
    r.checkpoint = ck;
    r.resumable = !ck.empty() && file_exists(ck);
    std::lock_guard<std::mutex> lock(mu_);
    ++drain_preempted_;
    if (r.resumable) drained_checkpoints_.push_back(r.checkpoint);
  }
}

std::shared_ptr<const CompiledModel> ExplorationService::get_or_compile(
    const Request& req, std::string* cache_state) {
  // Spec key: everything the built-in domain model depends on (compiled ops
  // reject `lazy`). The fingerprint memo is needed because the content hash
  // is only known after compiling.
  const std::string key = "domain=" + req.domain + ";scale=" + req.scale;
  // One compile at a time: a duplicate request blocks here and then hits.
  std::lock_guard<std::mutex> lock(compile_mu_);
  auto refresh = [&] {
    const CompiledModelCache::Stats cs = compiled_cache_.stats();
    reg_.gauge("serve.compile.cache_size")
        .set(static_cast<double>(compiled_cache_.size()));
    reg_.gauge("serve.compile.cache_evictions")
        .set(static_cast<double>(cs.evictions));
  };
  if (const auto it = spec_fingerprint_.find(key);
      it != spec_fingerprint_.end()) {
    if (std::shared_ptr<const CompiledModel> cm =
            compiled_cache_.get(it->second)) {
      *cache_state = "hit";
      reg_.counter("serve.compile.cache_hits").add();
      refresh();
      return cm;
    }
  }
  BuiltModel built = build_model(req);
  auto cm = std::make_shared<const CompiledModel>(compile(*built.problem));
  compiled_cache_.put(cm);
  spec_fingerprint_[key] = cm->fingerprint();
  *cache_state = "miss";
  reg_.counter("serve.compile.cache_misses").add();
  refresh();
  return cm;
}

void ExplorationService::execute_compiled(const Request& req, InFlight& job) {
  Response& r = job.r;
  // --- stage 1+2: the compiled artifact, through the LRU ---
  job.mark("compile");
  std::shared_ptr<const CompiledModel> cm;
  try {
    cm = get_or_compile(req, &r.cache);
  } catch (const std::exception& e) {
    r.status = ResponseStatus::Error;
    r.reason = std::string("compile failed: ") + e.what();
    return;
  }
  r.fingerprint = cm->fingerprint();

  // --- lint gate, against the compiled artifact's frozen matrix ---
  if (req.lint) {
    job.mark("lint");
    if (lint_rejects(cm->base_model(), r, reg_)) return;
  }

  if (req.op == "compile") {
    r.status = ResponseStatus::Compiled;
    r.ok = true;
    return;
  }

  // --- stage 3: solve the scenario (or the sweep's scenario family) ---
  const milp::MilpOptions base = solver_options(req, job.deadline, &cancel_);
  job.mark("solve");
  const Clock::time_point t_solve = Clock::now();
  const bool is_sweep = req.op == "sweep";
  const std::vector<ScenarioSpec> single{req.scenario};
  const std::vector<ScenarioSpec>& specs = is_sweep ? req.sweep : single;
  SweepState state;
  SweepState* sweep_state = is_sweep ? &state : nullptr;
  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  bool preempted = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    Scenario sc;
    sc.name = spec.name.empty() ? "scenario" + std::to_string(i) : spec.name;
    sc.component_cost_scale = spec.cost_scale;
    sc.edge_cost_scale = spec.edge_cost_scale;
    sc.unavailable = spec.unavailable;
    sc.rhs = spec.rhs;
    ScenarioResult sr;
    sr.name = sc.name;
    try {
      const ExplorationResult er = archex::solve(*cm, sc, base, sweep_state);
      r.nodes += er.solution.nodes_explored;
      r.degraded_nodes += er.solution.degraded_nodes;
      const bool stopped_by_drain = drain_preempted(er.solution, job);
      preempted = preempted || stopped_by_drain;
      record_outcome(er.solution, stopped_by_drain, sr, reg_);
      sr.warm = er.solution.warm_started;
      sr.solve_seconds = er.solver_seconds;
    } catch (const std::exception& e) {
      // Isolation: one bad scenario (e.g. an unknown component name) fails
      // alone; the rest of the sweep still runs.
      sr.status = ResponseStatus::Error;
      if (r.reason.empty()) r.reason = sc.name + ": " + e.what();
    }
    results.push_back(std::move(sr));
  }
  r.solve_seconds =
      std::chrono::duration<double>(Clock::now() - t_solve).count();
  r.attempts = 1;
  if (preempted) {
    std::lock_guard<std::mutex> lock(mu_);
    ++drain_preempted_;
  }

  // The top level reports the last (for solve_compiled: the only)
  // scenario's outcome, so a sweep response tail-diffs cleanly against the
  // solve_compiled response for that scenario; a sweep then folds status,
  // ok and degraded over all its scenarios.
  job.mark("extract");
  static_cast<Outcome&>(r) = results.back();
  if (!is_sweep) return;
  r.scenarios = std::move(results);
  r.warm_solves = state.warm_solves;
  r.cold_solves = state.cold_solves;
  r.status = r.scenarios.front().status;  // the first of the worst wins
  for (const ScenarioResult& sr : r.scenarios) {
    r.ok = r.ok && sr.ok;
    r.degraded = r.degraded || sr.degraded;
    if (severity(sr.status) > severity(r.status)) r.status = sr.status;
  }
  reg_.counter("serve.sweep.scenarios")
      .add(static_cast<std::int64_t>(r.scenarios.size()));
  reg_.counter("serve.sweep.warm").add(state.warm_solves);
  reg_.counter("serve.sweep.cold").add(state.cold_solves);
}

bool ExplorationService::drain_preempted(const milp::Solution& sol,
                                         const InFlight& job) const {
  return cancel_.load(std::memory_order_relaxed) &&
         sol.status == milp::SolveStatus::TimeLimit &&
         Clock::now() < job.deadline;
}

void ExplorationService::finish_metrics(const Response& r) {
  reg_.counter("serve.completed").add();
  switch (r.status) {
    case ResponseStatus::Optimal: reg_.counter("serve.optimal").add(); break;
    case ResponseStatus::Degraded: reg_.counter("serve.degraded").add(); break;
    case ResponseStatus::Timeout: reg_.counter("serve.timeouts").add(); break;
    case ResponseStatus::Infeasible:
      reg_.counter("serve.infeasible").add();
      break;
    case ResponseStatus::Unbounded: reg_.counter("serve.infeasible").add(); break;
    case ResponseStatus::Error: reg_.counter("serve.errors").add(); break;
    case ResponseStatus::Rejected: break;  // counted at rejection time
    case ResponseStatus::Preempted:
      reg_.counter("serve.preempted").add();
      break;
    case ResponseStatus::Compiled: reg_.counter("serve.compiled").add(); break;
  }
  reg_.histogram("serve.latency").record(r.total_ms / 1000.0);
  reg_.histogram("serve.queue_wait").record(r.queue_ms / 1000.0);
}

ExplorationService::DrainReport ExplorationService::drain() {
  DrainReport rep;
  std::vector<std::unique_ptr<Pending>> shed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    stopping_ = true;
    while (!queue_.empty()) {
      shed.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    reg_.gauge("serve.queue_depth").set(0.0);
  }
  cancel_.store(true, std::memory_order_relaxed);
  cv_.notify_all();
  for (std::unique_ptr<Pending>& p : shed) {
    p->promise.set_value(reject(p->req, "drained"));
    ++rep.shed;
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    rep.preempted = drain_preempted_;
    rep.checkpoints = drained_checkpoints_;
  }
  return rep;
}

void ExplorationService::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

std::size_t ExplorationService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::string ExplorationService::prometheus() const {
  return obs::prometheus_text(reg_);
}

}  // namespace archex::serve

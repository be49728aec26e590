/// \file service.hpp
/// ExplorationService: concurrent exploration requests with per-request
/// robustness policies.
///
/// The service is a plain library — no sockets, no signals — so the whole
/// lifecycle is unit-testable in-process; `archex_serve` (NDJSON daemon) and
/// `archex_batch` are thin shells over it. Per the microkernel framing in
/// PAPERS.md each robustness policy is its own narrow mechanism:
///
///   * admission — a bounded queue; when full the oldest `droppable` request
///     is shed (explicit `rejected` response, never a silent drop), falling
///     back to rejecting the newcomer;
///   * deadline — one absolute monotonic budget per request measured from
///     admission, threaded through encode/presolve/solve/extract as
///     `MilpOptions::budget = Budget::until(deadline)`; expiry yields the
///     best incumbent as an anytime `degraded` result with its bound gap;
///   * retry — a bounded ladder above the solver's own recovery for solves
///     that still end in NumericalError: tightened tolerances, then the
///     dense oracle kernel, with deterministic seeded backoff between
///     attempts so replays are reproducible;
///   * isolation — each request owns its model, FaultPlan, solver state and
///     response; a faulted or lint-rejected request fails alone;
///   * drain — stop admitting, shed the queue explicitly, preempt in-flight
///     solves via the cooperative cancel token; preempted solves write their
///     checkpoint and the drain report names the files so work resumes.
///
/// Metrics land in an `obs::MetricsRegistry` under `serve.*` (queue depth,
/// latency/queue-wait histograms, per-outcome counters; docs/serving.md has
/// the full list) exposed in Prometheus text via `prometheus()`.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/compiled_model.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"

namespace archex::serve {

struct ServiceOptions {
  int workers = 2;                  ///< worker threads consuming the queue
  std::size_t queue_capacity = 32;  ///< admission bound (excludes in-flight)
  int default_retries = 2;          ///< NumericalError ladder budget
  /// Base backoff between retry attempts; the actual delay is
  /// `backoff_delay_ms` (exponential + deterministic jitter). 0 — the test
  /// default — retries immediately.
  double backoff_base_ms = 0.0;
  std::uint64_t backoff_seed = 0x9E3779B97F4A7C15ULL;
  /// Directory for service-assigned checkpoints of preemptible requests.
  /// Empty disables auto-checkpointing (requests may still name their own).
  std::string checkpoint_dir;
  double checkpoint_interval_s = 0.25;
  /// Capacity of the compiled-model LRU (arch::CompiledModelCache), keyed by
  /// content fingerprint. Serves the "compile"/"solve_compiled"/"sweep" ops:
  /// repeated requests for an already-compiled spec skip the encode. 0
  /// disables caching (every compiled op re-encodes).
  std::size_t compiled_cache_capacity = 8;
};

class ExplorationService {
 public:
  explicit ExplorationService(ServiceOptions opts = {});
  ~ExplorationService();
  ExplorationService(const ExplorationService&) = delete;
  ExplorationService& operator=(const ExplorationService&) = delete;

  /// Admits a request. Always yields a response — admission failures (queue
  /// full and nothing sheddable, service draining) resolve the future
  /// immediately with status `rejected`.
  std::future<Response> submit(Request req);

  /// Runs one request synchronously on the calling thread, bypassing the
  /// queue (deadline measured from this call). Used by `archex_batch`'s
  /// sequential mode and tests; the same lifecycle as queued execution.
  Response run(const Request& req);

  struct DrainReport {
    std::size_t shed = 0;       ///< queued requests rejected at drain
    std::size_t preempted = 0;  ///< in-flight solves stopped cooperatively
    std::vector<std::string> checkpoints;  ///< resumable checkpoint files
  };

  /// SIGTERM path: stops admission, sheds the queue with explicit
  /// rejections, preempts in-flight solves (they checkpoint if armed), joins
  /// the workers and reports what is resumable. Idempotent; the service
  /// accepts nothing afterwards.
  DrainReport drain();

  /// Graceful stop: no new admissions, but queued and in-flight requests run
  /// to completion before the workers exit. Idempotent.
  void close();

  [[nodiscard]] std::size_t queue_depth() const;
  obs::MetricsRegistry& metrics() { return reg_; }
  /// Prometheus text exposition of the service registry (the `{"op":
  /// "metrics"}` endpoint body).
  [[nodiscard]] std::string prometheus() const;

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point admitted;
  };

  void worker_loop();
  /// One request in flight (service.cpp): its response, admission time and
  /// deadline.
  struct InFlight;
  /// The one request lifecycle both paths share: builds the response, marks
  /// "start", answers a deadline already spent in the queue as a timeout,
  /// runs the explore or the compiled body by `op`, then marks "done" and
  /// records the latency and outcome metrics.
  Response execute(const Request& req,
                   std::chrono::steady_clock::time_point admitted);
  /// The explore body: build the model, lint, arm the fault plan and the
  /// checkpoint, solve under the NumericalError retry ladder, and map the
  /// solution (with the drain-preemption override) to the response.
  void execute_explore(const Request& req, InFlight& job);
  /// The compile/solve_compiled/sweep body: fetch-or-compile the artifact
  /// through the LRU, then solve the request's scenarios against it (sweeps
  /// warm-start each scenario from the previous basis), with the same
  /// drain-preemption override. No retries, fault plan or checkpoint: the
  /// request schema rejects those keys here.
  void execute_compiled(const Request& req, InFlight& job);
  /// The drain predicate of both paths: a solve that stopped on its time
  /// limit while the cancel token is set and the request's own deadline
  /// still has slack was preempted by drain(), not timed out.
  [[nodiscard]] bool drain_preempted(const milp::Solution& sol,
                                     const InFlight& job) const;
  /// The compiled artifact for the request's spec: cache hit when the spec
  /// was compiled before (and survived eviction), fresh compile otherwise.
  /// Sets `*cache_state` to "hit"/"miss" and refreshes the serve.compile.*
  /// metrics. Throws what model building throws.
  std::shared_ptr<const CompiledModel> get_or_compile(const Request& req,
                                                      std::string* cache_state);
  Response reject(const Request& req, const std::string& reason);
  void finish_metrics(const Response& r);

  ServiceOptions opts_;
  obs::MetricsRegistry reg_;
  std::atomic<bool> cancel_{false};  ///< shared cooperative preemption token

  /// Compiled artifacts by fingerprint, plus the spec-key -> fingerprint
  /// memo that turns a repeated request into a cache lookup (the fingerprint
  /// is only known *after* compiling; the memo closes the loop).
  CompiledModelCache compiled_cache_;
  std::mutex compile_mu_;
  std::map<std::string, std::uint64_t> spec_fingerprint_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;   ///< workers exit once the queue is empty
  bool draining_ = false;   ///< admission closed
  std::vector<std::string> drained_checkpoints_;
  std::size_t drain_preempted_ = 0;
};

/// Deterministic retry backoff: `base_ms * 2^attempt`, jittered into
/// [0.5, 1.5) by splitmix64(seed, attempt). Pure function — tests replay it.
[[nodiscard]] double backoff_delay_ms(double base_ms, std::uint64_t seed,
                                      int attempt);

}  // namespace archex::serve

#include "milp/branch_bound.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "check/certify.hpp"
#include "milp/checkpoint.hpp"
#include "milp/fault.hpp"
#include "milp/presolve.hpp"
#include "milp/pseudocost.hpp"
#include "obs/metrics.hpp"
#include "obs/node_log.hpp"
#include "obs/span.hpp"

namespace archex::milp {

namespace {

using Clock = std::chrono::steady_clock;

const double kNan = std::numeric_limits<double>::quiet_NaN();

constexpr double kIntTol = 1e-6;  // integrality tolerance
// Optimality gap of the pruning cutoff: absolute, and relative to |incumbent|.
constexpr double kGapAbs = 1e-9;
constexpr double kGapRel = 1e-9;
constexpr double kCertifyTol = 1e-6;  // residual tolerance of the certifier
// Recovery ladder: fresh cold attempts a quarantined node gets before its
// subtree is abandoned (its parent bound then caps Solution::best_bound).
constexpr int kRecoverMaxRetries = 2;

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Granularity of the objective: the largest g such that every objective
/// coefficient is an integer multiple of g, provided only *integral*
/// variables carry objective weight. Two integer-feasible objectives then
/// differ by at least g, so the bound-pruning cutoff can be tightened by
/// almost g. Returns 0 when no granularity can be exploited.
double objective_granularity(const Model& m) {
  double g = 0.0;
  for (const Term& t : m.objective().terms()) {
    const Variable& v = m.var(t.var);
    if (!v.is_integral()) return 0.0;
    double a = std::abs(t.coef);
    double b = g;
    // Euclid on reals with a snap tolerance.
    while (b > 1e-7) {
      const double r = std::fmod(a, b);
      a = b;
      b = (r < 1e-7 || b - r < 1e-7) ? 0.0 : r;
    }
    g = a;
    if (g < 1e-6) return 0.0;
  }
  return g;
}

/// Worker `t`'s recorder buffer, or null when no recorder is attached (or
/// its buffers are disabled): every emit site then costs one pointer test.
obs::SpanBuffer* recorder_buffer(const MilpOptions& o, int t) {
  obs::SpanBuffer* b = o.profiler != nullptr ? o.profiler->buffer(t) : nullptr;
  return b != nullptr && b->enabled() ? b : nullptr;
}

/// The first two rungs of the bounded numerical-recovery ladder, shared by
/// the root LP and the pool workers:
/// (1) tightened-tolerance refactorization + warm reoptimize, (2) cold
/// primal restart. Returns the first non-NumericalError status; callers
/// escalate further (quarantine/re-enqueue, then abandon) when both fail.
/// `cutoff` reaches the warm rung (SimplexSolver::recover_resolve); each rung
/// is counted in `reg` and traced on `rec` (the worker's buffer; nullable).
SolveStatus run_recovery_ladder(SimplexSolver& lp, obs::MetricsRegistry& reg,
                                obs::SpanBuffer* rec, std::int64_t node_id,
                                double cutoff = kInf) {
  reg.counter("milp.recover.tighten").add();
  if (rec != nullptr) {
    rec->emit(obs::EventType::Recover, node_id, 0.0,
              static_cast<std::uint8_t>(obs::RecoverRung::Tighten));
  }
  SolveStatus st = SolveStatus::NumericalError;
  try {
    st = lp.recover_resolve(cutoff);
  } catch (const std::bad_alloc&) {
    st = SolveStatus::NumericalError;
  }
  if (st != SolveStatus::NumericalError) return st;

  reg.counter("milp.recover.cold").add();
  if (rec != nullptr) {
    rec->emit(obs::EventType::Recover, node_id, 0.0,
              static_cast<std::uint8_t>(obs::RecoverRung::Cold));
  }
  try {
    st = lp.solve_primal();
  } catch (const std::bad_alloc&) {
    st = SolveStatus::NumericalError;
  }
  return st;
}

/// One solver's work counters — iterations and warm-start paths into `sol`;
/// refactorizations, update-log transplants, cutoff stops and the pivot
/// counts (all, primal-degenerate, dual-degenerate) into the registry.
/// Called once per solver: each pool worker's own solver after its run, the
/// root solver (worker 0 of every run) at the end of the solve.
void fold_solver_counters(const SimplexSolver& lp, Solution& sol,
                          obs::MetricsRegistry& reg) {
  const SimplexSolver::ReoptStats& s = lp.reopt_stats();
  sol.simplex_iterations += lp.iterations();
  sol.warm_dual_nodes += s.dual_fast;
  sol.warm_repair_nodes += s.repaired;
  sol.cold_nodes += s.cold;
  reg.counter("milp.refactors").add(s.refactors);
  reg.counter("milp.basis_transplants").add(s.transplants);
  reg.counter("milp.lp_cutoff").add(s.cutoffs);
  reg.counter("milp.lp.pivots").add(s.total_pivots);
  reg.counter("milp.lp.degenerate_pivots").add(s.degen_pivots);
  reg.counter("milp.lp.dual_degenerate").add(s.dual_degenerate);
}

/// The frame of one solve, shared by its stages: the caller's model and
/// options, the clock and its deadline, the telemetry handles, and the
/// Solution being filled. The presolve stage adds the model the search runs
/// on, its column map back to the caller's model, the loaded checkpoint and
/// the usable part of the warm hint.
struct SolveFrame {
  const Model& model;  ///< the caller's model
  const MilpOptions& opts;
  Solution& sol;
  const Clock::time_point t0 = Clock::now();  ///< solve entry
  /// The one conversion point of the solve's budget (milp/budget.hpp): the
  /// relative allowance measured from solve entry, capped by its absolute end.
  const Clock::time_point deadline;
  const int threads;
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry* const reg;
  /// Bounds this solve's share of a recording that may span several solves.
  obs::SpanProfiler::Mark solve_mark;
  /// The calling thread's recorder buffer 0: phase spans, root events, the
  /// root solver's kernel spans. Null when no recorder is attached.
  obs::SpanBuffer* root_rec = nullptr;
  obs::NodeLogger logger;  ///< due() is never true when the node log is off

  // Set by the presolve stage.
  /// Without presolve, only its column map is set: the identity.
  PresolveResult pre;
  const Model* work = nullptr;  ///< the model the search runs on
  const PseudoCostTable* pc_seed = nullptr;
  /// The warm hint's basis and x, or null when absent or unusable (presolve).
  const WarmStartHint* hint = nullptr;
  std::uint64_t ck_fingerprint = 0;
  CheckpointData ckdata;  ///< the checkpoint resumed from

  SolveFrame(const Model& m, const MilpOptions& o, Solution& s)
      : model(m), opts(o), sol(s), deadline(o.budget.deadline_from(t0)),
        threads(resolve_threads(o.num_threads)),
        reg(o.metrics != nullptr ? o.metrics : &local_registry),
        logger(o.log_interval, o.log_sink, t0) {
    // Worker buffers are armed here, before any thread spawns.
    if (o.profiler != nullptr) {
      o.profiler->arm_workers(std::max(threads, 1));
      solve_mark = o.profiler->mark();
    }
    root_rec = recorder_buffer(o, 0);
    if (root_rec != nullptr) {
      root_rec->emit(obs::EventType::SolveStart, -1, static_cast<double>(threads));
    }
  }
};

/// The search state of one solve, shared by the root phase, the probe run
/// and the main run: the incumbent, the node ledger (count and trace-id
/// sequence), the degradation record and the pseudo-cost table. A NodePool
/// holds only what belongs to one run.
struct SearchCtx {
  /// The solve's options, clock, telemetry, and the Solution that receives
  /// the incumbent trajectory and the pool runs' worker statistics.
  SolveFrame& frame;
  const Model& model;  // reduced model
  /// The LP settings of every solver of the solve: MilpOptions::lp with the
  /// run-control fields (`deadline`, `cancel`, `spans`, `fault`) set from
  /// the solve's own.
  SimplexOptions lp_opts;
  /// The root solver. It solves the root LP, and worker 0 of every pool run
  /// dives on it, so a one-thread solve never builds a second solver.
  SimplexSolver lp;
  std::vector<std::int32_t> int_vars;  // reduced columns with integrality
  std::vector<double> obj_coef;        ///< |objective coefficient| per column
  /// Learnt by the probe and the main run alike; one table per solve,
  /// seeded from MilpOptions::warm_hint when the caller carries one over
  /// (the lazy loop does, from each re-solve to the next).
  PseudoCosts pseudocosts;
  double granularity = 0.0;  ///< objective step size, see objective_granularity
  SolveStatus root_status = SolveStatus::NumericalError;  ///< the root LP's outcome
  double root_bound = -kInf;
  /// Root-optimal basis, captured before any dive: pool runs seed their root
  /// node with it, so the fixed root warm-starts from the root optimum.
  std::shared_ptr<const Basis> root_basis;
  SolveStatus stop_reason = SolveStatus::Optimal;  // set on limit hits
  bool stopped = false;  ///< a limit ended the search
  double sense_flip = 1.0;
  const CheckpointData* resume = nullptr;  ///< frontier for the main run

  // Node ledger, charged by the workers of every run: the nodes explored so
  // far (the root included; checked against max_nodes) and the last trace
  // node id handed out (the root's is 1), so ids stay unique across the solve.
  std::atomic<std::int64_t> nodes{1};
  std::atomic<std::uint64_t> next_id{1};

  // Written under `mu`: the incumbent, whose objective (minimize sense,
  // kInf if none) is mirrored into an atomic so the pruning cutoff reads it
  // without the lock, and the recovery-ladder record. `degraded_bound` is
  // the min parent bound over every abandoned subtree: folding it into the
  // final best bound keeps the reported gap sound — an abandoned subtree can
  // hide solutions no better than its parent LP bound, never better.
  std::mutex mu;
  std::atomic<double> incumbent_obj{kInf};
  std::vector<double> incumbent_x;
  std::int64_t degraded_nodes = 0;
  double degraded_bound = kInf;

  /// The search over the presolved model `f.work`.
  explicit SearchCtx(SolveFrame& f)
      : frame(f), model(*f.work), lp_opts(run_control(f)), lp(model, lp_opts),
        pseudocosts(model.num_vars()), granularity(objective_granularity(model)) {
    for (std::size_t j = 0; j < model.num_vars(); ++j) {
      if (model.vars()[j].is_integral()) int_vars.push_back(static_cast<std::int32_t>(j));
    }
    obj_coef.assign(model.num_vars(), 0.0);
    for (const Term& t : model.objective().terms()) {
      obj_coef[static_cast<std::size_t>(t.var.index)] = std::abs(t.coef);
    }
    sense_flip = model.objective_sense() == ObjectiveSense::Maximize ? -1.0 : 1.0;
  }

  /// MilpOptions::lp with its run-control fields set from the solve's own.
  static SimplexOptions run_control(const SolveFrame& f) {
    SimplexOptions o = f.opts.lp;
    o.deadline = f.deadline;
    o.cancel = f.opts.cancel;
    o.spans = f.root_rec;
    o.fault = f.opts.fault;
    return o;
  }

  /// Current incumbent objective (minimize sense, kInf if none). Lock-free.
  [[nodiscard]] double incumbent() const {
    return incumbent_obj.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool has_incumbent() const { return incumbent() < kInf; }

  /// Bound-pruning cutoff against the current incumbent (kInf if none).
  [[nodiscard]] double cutoff() const {
    const double inc = incumbent();
    if (inc >= kInf) return kInf;
    return inc - std::max({kGapAbs, kGapRel * std::abs(inc), granularity - 1e-6});
  }

  /// Integer-snap, validate against the true model, and install if better.
  /// Every improvement — warm hint, root, probe or pool worker — lands in
  /// Solution::incumbent_trajectory, serialized by the incumbent lock.
  /// Returns true when the incumbent improved (callers emit trace events).
  bool try_incumbent(std::vector<double> x, double obj) {
    for (std::int32_t j : int_vars) {
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
    }
    if (!model.feasible(x, 1e-5)) return false;
    std::lock_guard<std::mutex> lk(mu);
    if (obj < incumbent() - 1e-12) {
      incumbent_obj.store(obj, std::memory_order_relaxed);
      incumbent_x = std::move(x);
      frame.sol.incumbent_trajectory.push_back(
          {std::chrono::duration<double>(Clock::now() - frame.t0).count(), sense_flip * obj,
           sense_flip * root_bound});
      frame.reg->counter("milp.incumbents").add();
      return true;
    }
    return false;
  }

  /// Charges one node against MilpOptions::max_nodes; false when the budget
  /// is already spent (the count is then left unchanged).
  [[nodiscard]] bool count_node() {
    std::int64_t n = nodes.load(std::memory_order_relaxed);
    while (n < frame.opts.max_nodes) {
      if (nodes.compare_exchange_weak(n, n + 1, std::memory_order_relaxed)) return true;
    }
    return false;
  }

  /// Records one subtree abandoned by the recovery ladder.
  void mark_abandoned(double bound) {
    std::lock_guard<std::mutex> lk(mu);
    ++degraded_nodes;
    degraded_bound = std::min(degraded_bound, bound);
  }
};

// ---------------------------------------------------------------------------
// The tree search: an explicit open-node pool consumed by N workers.
// ---------------------------------------------------------------------------

/// An open branch & bound node: the bound deltas that define its subproblem,
/// the parent's LP objective (a valid lower bound for the whole subtree, used
/// for pre-solve pruning and best-bound stealing), and the parent's exported
/// simplex basis for dual warm starts. Both children of a branching share one
/// basis snapshot. A child also records the branching that made it, so its
/// LP's bound change over `bound` teaches the pseudo-cost table.
struct BBNode {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  double bound = -kInf;           ///< parent LP objective, minimize sense
  std::int32_t retries = 0;       ///< recovery-ladder quarantine count
  std::int32_t branch_col = -1;   ///< branched column; -1 for a root or resumed node
  PseudoCosts::Dir branch_dir = PseudoCosts::Dir::Down;
  double branch_dist = 0.0;       ///< how far the branch moved the column: f or 1-f
  /// From the fixed root; the checkpoint layer serializes these deltas, so
  /// the pool's node paths are the on-disk frontier representation too.
  std::vector<BoundDelta> path;
  std::shared_ptr<const Basis> basis;  ///< parent basis
};

/// The lock-guarded open nodes of one run, plus the run's stop flag, its
/// node-log bound estimate and its checkpoint timer. Everything that outlives
/// the run lives in the SearchCtx.
///
/// Pop policy is the work-stealing compromise: a worker whose last solved
/// node is the parent of the deque's back continues its own dive (LIFO, keeps
/// the warm-start chain intact, no basis reinstall); otherwise it *steals*
/// the best-bound open node, paying one basis refactorization.
class NodePool {
 public:
  /// `probe`: dive upward and stop at the first installed incumbent; never
  /// checkpointed. `root_bound` starts the node log's bound estimate.
  NodePool(SearchCtx& ctx, int num_workers, bool probe, double root_bound)
      : ctx_(ctx), probe_(probe),
        checkpointing_(!probe && !ctx.frame.opts.checkpoint_file.empty()),
        queues_(static_cast<std::size_t>(num_workers)),
        inflight_bound_(static_cast<std::size_t>(num_workers), kInf),
        inflight_node_(static_cast<std::size_t>(num_workers)),
        best_known_bound_(root_bound) {
    if (checkpointing_) {
      const double interval_s = ctx.frame.opts.checkpoint_interval_s;
      ck_epoch_ = Clock::now();
      ck_interval_ns_ =
          interval_s <= 0.0 ? 0 : static_cast<std::int64_t>(interval_s * 1e9);
      ck_next_ns_.store(ck_interval_ns_, std::memory_order_relaxed);
    }
  }

  /// Appends a node to `worker`'s own deque. Sleeping peers are only woken
  /// when someone is actually waiting, so an uncontested dive (push two
  /// children, immediately pop one back) stays wakeup-free.
  void push(int worker, std::shared_ptr<BBNode> node) {
    bool wake;
    {
      std::lock_guard<std::mutex> lk(mu_);
      node->id = ctx_.next_id.fetch_add(1, std::memory_order_relaxed) + 1;
      queues_[static_cast<std::size_t>(worker)].push_back(std::move(node));
      ++queued_;
      wake = waiters_ > 0;
    }
    if (wake) cv_.notify_one();
  }

  /// Blocks until a node is available, the tree is exhausted, or a stop was
  /// requested. Returns nullptr on termination. The caller's own deque is
  /// popped LIFO (continuing its dive); when it is empty, the front — oldest,
  /// closest to the root, so typically the best bound and the largest
  /// subtree — of the most promising peer deque is stolen instead. `stole`
  /// reports the victim worker id (-1 for an own-deque pop).
  std::shared_ptr<BBNode> pop(int worker, int& stole_from) {
    std::unique_lock<std::mutex> lk(mu_);
    ++waiters_;
    cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_relaxed) || queued_ > 0 || in_flight_ == 0;
    });
    --waiters_;
    if (stop_.load(std::memory_order_relaxed) || queued_ == 0) {
      lk.unlock();
      cv_.notify_all();  // release any peer still waiting
      return nullptr;
    }
    std::shared_ptr<BBNode> node;
    auto& own = queues_[static_cast<std::size_t>(worker)];
    if (!own.empty()) {
      stole_from = -1;
      node = std::move(own.back());
      own.pop_back();
    } else {
      std::size_t victim = queues_.size();
      for (std::size_t v = 0; v < queues_.size(); ++v) {
        if (queues_[v].empty()) continue;
        if (victim == queues_.size() ||
            queues_[v].front()->bound < queues_[victim].front()->bound) {
          victim = v;
        }
      }
      stole_from = static_cast<int>(victim);
      ++steals_;
      node = std::move(queues_[victim].front());
      queues_[victim].pop_front();
    }
    --queued_;
    ++in_flight_;
    inflight_bound_[static_cast<std::size_t>(worker)] = node->bound;
    // Keep the in-flight node reachable for checkpoint snapshots: a snapshot
    // taken mid-process must include it, or the subtree it roots would be
    // silently lost on resume.
    inflight_node_[static_cast<std::size_t>(worker)] = node;
    return node;
  }

  /// Marks the caller's current node finished; wakes waiters when the last
  /// in-flight node drains with empty deques (termination detection).
  void done(int worker) {
    bool finished;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inflight_bound_[static_cast<std::size_t>(worker)] = kInf;
      inflight_node_[static_cast<std::size_t>(worker)].reset();
      --in_flight_;
      finished = queued_ == 0 && in_flight_ == 0;
    }
    if (finished) cv_.notify_all();
  }

  void request_stop(SolveStatus reason) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!stop_.load(std::memory_order_relaxed)) {
        stop_.store(true, std::memory_order_relaxed);
        stop_reason_ = reason;
      }
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  [[nodiscard]] SolveStatus stop_reason() const {
    return stop_reason_;  // read after join: workers are quiescent
  }

  /// Probe run: dive upward and stop at the first installed incumbent.
  [[nodiscard]] bool probe() const { return probe_; }

  /// Re-enqueues a node a worker popped but could not process (stop already
  /// requested, deadline, node budget, or its LP cut short by a time or
  /// iteration limit). Only meaningful under checkpointing:
  /// without it the node's subtree would be missing from the frontier the
  /// final checkpoint records, and a resume would silently lose it. No-op
  /// when checkpointing is off (the pool is torn down anyway).
  void keep_for_checkpoint(int worker, const BBNode& node) {
    if (checkpointing_) push(worker, std::make_shared<BBNode>(node));
  }

  /// Writes a checkpoint when one is due. Called by workers between nodes;
  /// an atomic exchange elects a single writer, and the snapshot is taken
  /// under the pool lock but written outside it.
  void maybe_checkpoint(obs::SpanBuffer* rec) {
    if (!checkpointing_) return;
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             ck_epoch_)
            .count();
    if (now_ns < ck_next_ns_.load(std::memory_order_relaxed)) return;
    if (ck_writing_.exchange(true, std::memory_order_acquire)) return;
    if (now_ns >= ck_next_ns_.load(std::memory_order_relaxed)) {
      write_checkpoint(rec);
      ck_next_ns_.store(now_ns + ck_interval_ns_, std::memory_order_relaxed);
    }
    ck_writing_.store(false, std::memory_order_release);
  }

  /// Emits one node-log line from the pool's current state, and a Bound
  /// event when the global best-bound estimate improved. The estimate
  /// is min over open-node parent bounds and in-flight node bounds — an
  /// estimate, because a worker's in-flight LP may already have lifted its
  /// node's bound. Called by whichever worker finds the logger due; the
  /// pool lock makes the snapshot consistent.
  void log_line(obs::SpanBuffer* rec) {
    obs::NodeLogger::Line line;
    const double flip = ctx_.sense_flip;
    double est = kInf;
    {
      std::lock_guard<std::mutex> lk(mu_);
      line.nodes = ctx_.nodes.load(std::memory_order_relaxed);
      line.open = queued_;
      line.steals = steals_;
      for (const auto& q : queues_) {
        if (!q.empty()) est = std::min(est, q.front()->bound);
      }
      for (double b : inflight_bound_) est = std::min(est, b);
      if (est < kInf && est > best_known_bound_ + 1e-9) {
        best_known_bound_ = est;
        if (rec != nullptr) rec->emit(obs::EventType::Bound, -1, flip * est);
      }
      if (est >= kInf) est = best_known_bound_;
    }
    const double inc = ctx_.incumbent();
    line.has_incumbent = inc < kInf;
    line.incumbent = flip * inc;
    line.best_bound = flip * est;
    ctx_.frame.logger.log(line);
  }

  /// Writes a checkpoint now; a no-op unless checkpointing is armed. Also
  /// called once after the workers joined, so interrupted (node/time-limited)
  /// solves resume from their final frontier and completed solves leave an
  /// empty frontier that resumes trivially.
  void write_checkpoint(obs::SpanBuffer* rec) {
    if (!checkpointing_) return;
    const CheckpointData d = snapshot();
    const bool ok = save_checkpoint(ctx_.frame.opts.checkpoint_file, d);
    ctx_.frame.reg->counter(ok ? "milp.checkpoint.writes"
                               : "milp.checkpoint.write_failures").add();
    ctx_.frame.reg->gauge("milp.checkpoint.frontier")
        .set(static_cast<double>(d.frontier.size()));
    if (rec != nullptr) {
      rec->emit(obs::EventType::Checkpoint, -1, static_cast<double>(d.frontier.size()));
    }
  }

 private:
  /// Consistent copy of the resumable search state: frontier (queued plus
  /// in-flight nodes) under the pool lock, incumbent and degradation record
  /// under the SearchCtx lock. An in-flight node that already pushed its
  /// children may be captured together with them — the duplicated subtree
  /// costs re-exploration on resume but never correctness (same cutoffs,
  /// same incumbent checks).
  CheckpointData snapshot() {
    CheckpointData d;
    d.fingerprint = ctx_.frame.ck_fingerprint;
    {
      std::lock_guard<std::mutex> lk(mu_);
      d.nodes = ctx_.nodes.load(std::memory_order_relaxed);
      d.root_bound = best_known_bound_;
      for (const auto& q : queues_) {
        for (const auto& n : q) d.frontier.push_back({n->bound, n->retries, n->path});
      }
      for (const auto& n : inflight_node_) {
        if (n) d.frontier.push_back({n->bound, n->retries, n->path});
      }
    }
    {
      std::lock_guard<std::mutex> lk(ctx_.mu);
      d.degraded_nodes = ctx_.degraded_nodes;
      d.degraded_bound = ctx_.degraded_bound;
      d.has_incumbent = ctx_.has_incumbent();
      if (d.has_incumbent) {
        d.incumbent_obj = ctx_.incumbent();
        d.incumbent_x = ctx_.incumbent_x;
      }
    }
    return d;
  }

  SearchCtx& ctx_;
  const bool probe_;
  const bool checkpointing_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::shared_ptr<BBNode>>> queues_;  ///< one per worker
  std::int64_t queued_ = 0;  ///< total nodes across all deques
  int in_flight_ = 0;
  int waiters_ = 0;
  std::atomic<bool> stop_{false};
  SolveStatus stop_reason_ = SolveStatus::Optimal;

  // Telemetry (under mu_).
  std::vector<double> inflight_bound_;  ///< bound of each worker's node, kInf idle
  std::vector<std::shared_ptr<BBNode>> inflight_node_;  ///< for snapshots
  std::int64_t steals_ = 0;
  double best_known_bound_;

  // Checkpointing (configured before workers start; due-time and the
  // single-writer election are atomics so workers race without the lock).
  Clock::time_point ck_epoch_{};
  std::int64_t ck_interval_ns_ = 0;
  std::atomic<std::int64_t> ck_next_ns_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<bool> ck_writing_{false};
};

/// A worker of the tree search: a SimplexSolver (worker 0 borrows the root
/// solver, the others own one), dive-local bookkeeping, and statistics.
class Worker {
 public:
  /// Worker 0 dives on the root solver, whose bounds are the fixed root
  /// frame. The others build a private solver and replay the root solver's
  /// reduced-cost fixes, so node paths share that frame. Each private solver
  /// writes its *own* recorder buffer, keeping every buffer single-writer.
  Worker(int id, SearchCtx& ctx, NodePool& pool)
      : id_(id), ctx_(ctx), pool_(pool), rec_(recorder_buffer(ctx.frame.opts, id)),
        lp_(&ctx.lp) {
    const Model& model = ctx.model;
    if (id != 0) {
      SimplexOptions lp_opts = ctx.lp_opts;
      lp_opts.spans = rec_;
      own_lp_ = std::make_unique<SimplexSolver>(model, std::move(lp_opts));
      lp_ = own_lp_.get();
    }
    for (std::size_t j = 0; j < model.num_vars(); ++j) {
      const auto col = static_cast<std::int32_t>(j);
      root_lb_.push_back(ctx.lp.lower_bound(col));
      root_ub_.push_back(ctx.lp.upper_bound(col));
      if (own_lp_ != nullptr &&
          (root_lb_[j] != model.vars()[j].lb || root_ub_[j] != model.vars()[j].ub)) {
        own_lp_->set_bounds(col, root_lb_[j], root_ub_[j]);
      }
    }
  }

  /// CPU time consumed by the calling thread (waits in pop() don't count —
  /// the condition variable sleeps). Falls back to 0 where the POSIX
  /// per-thread clock is unavailable.
  static double thread_cpu_seconds() {
#ifdef CLOCK_THREAD_CPUTIME_ID
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    }
#endif
    return 0.0;
  }

  void run() {
    const double cpu0 = thread_cpu_seconds();
    int stole_from = -1;
    while (std::shared_ptr<BBNode> node = pool_.pop(id_, stole_from)) {
      if (stole_from >= 0) {
        ++steals_;
        if (rec_ != nullptr) {
          rec_->emit(obs::EventType::Steal, static_cast<std::int64_t>(node->id),
                     static_cast<double>(stole_from));
        }
      }
      process(*node);
      pool_.done(id_);
      pool_.maybe_checkpoint(rec_);
      if (ctx_.frame.logger.due()) pool_.log_line(rec_);
    }
    rewind();  // a borrowed root solver goes back to the fixed-root frame
    busy_seconds_ = thread_cpu_seconds() - cpu0;
  }

  /// This worker's private solver, or null when it dives on the root solver.
  [[nodiscard]] const SimplexSolver* own_solver() const { return own_lp_.get(); }
  [[nodiscard]] std::int64_t nodes() const { return nodes_; }
  [[nodiscard]] std::int64_t steals() const { return steals_; }
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }

 private:
  /// Restores the root bound of every column on the current path.
  void rewind() {
    for (const BoundDelta& d : cur_path_) {
      lp_->set_bounds(d.col, root_lb_[static_cast<std::size_t>(d.col)],
                      root_ub_[static_cast<std::size_t>(d.col)]);
    }
    cur_path_.clear();
  }

  /// Installs `node`'s subproblem in the solver. A dive continuation (the
  /// node's parent is the basis already held) applies only the newest bound
  /// delta; any other node rewinds to root bounds, replays the node's path,
  /// and transplants the parent basis.
  void rebase(const BBNode& node) {
    if (node.parent_id == held_id_ && node.path.size() == cur_path_.size() + 1) {
      const BoundDelta& d = node.path.back();
      lp_->set_bounds(d.col, d.lb, d.ub);
      cur_path_.push_back(d);
    } else {
      rewind();
      cur_path_ = node.path;
      for (const BoundDelta& d : cur_path_) lp_->set_bounds(d.col, d.lb, d.ub);
      if (node.basis) {
        lp_->load_basis(*node.basis);  // on failure reoptimize_dual cold-starts
      }
    }
    held_id_ = node.id;
  }

  void close(std::int64_t node_id, obs::NodeOutcome outcome, double bound) {
    if (rec_ != nullptr) {
      rec_->emit(obs::EventType::NodeClose, node_id, bound,
                 static_cast<std::uint8_t>(outcome));
    }
  }

  void process(const BBNode& node) {
    const MilpOptions& opts = ctx_.frame.opts;
    const auto nid = static_cast<std::int64_t>(node.id);
    const double flip = ctx_.sense_flip;
    if (opts.fault != nullptr && opts.fault->fire(FaultSite::WorkerStall)) {
      // Injected stall: models a worker losing its timeslice mid-search, so
      // tests can exercise steal/termination behaviour under skew.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    // A node parked by a stop is not explored: neither counted nor traced.
    // Every other node is counted and traced, including one pruned below.
    if (pool_.stopped()) {
      pool_.keep_for_checkpoint(id_, node);
      return;
    }
    // Expired budget and cooperative cancel stop identically; a limit stop
    // parks the node for the final checkpoint so a drain leaves a resumable file.
    const bool expired = Clock::now() >= ctx_.frame.deadline ||
                         (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed));
    if (expired || !ctx_.count_node()) {
      pool_.request_stop(expired ? SolveStatus::TimeLimit : SolveStatus::NodeLimit);
      pool_.keep_for_checkpoint(id_, node);
      return;
    }
    ++nodes_;
    if (rec_ != nullptr) rec_->emit(obs::EventType::NodeOpen, nid, flip * node.bound);
    if (node.bound >= ctx_.cutoff()) {  // pruned by a newer incumbent, no LP
      close(nid, obs::NodeOutcome::Pruned, flip * node.bound);
      return;
    }

    rebase(node);
    // The node LP may stop as soon as its dual bound proves it prunable. The
    // tree is unchanged: the incumbent only improves, so the check below
    // would prune this node at its optimum too, and a stopped node has no
    // children, so the next pop reinstalls its own parent's basis (a resumed
    // node that ships none starts from the stopped one, which stays valid).
    const double cutoff = ctx_.cutoff();
    SolveStatus st = SolveStatus::NumericalError;
    try {
      st = lp_->reoptimize_dual(cutoff);
      if (st == SolveStatus::Optimal && opts.fault != nullptr &&
          opts.fault->fire(FaultSite::BadAlloc)) {
        throw std::bad_alloc{};
      }
    } catch (const std::bad_alloc&) {
      st = SolveStatus::NumericalError;  // enter the ladder below
    }
    if (st == SolveStatus::NumericalError) {
      st = run_recovery_ladder(*lp_, *ctx_.frame.reg, rec_, nid, cutoff);
    }
    if (st == SolveStatus::NumericalError) {
      quarantine(node);
      return;
    }
    if (st == SolveStatus::Infeasible) {
      close(nid, obs::NodeOutcome::Infeasible, kNan);
      return;
    }
    if (st != SolveStatus::Optimal && st != SolveStatus::Cutoff) {
      // Time/iteration limits surface here; Unbounded cannot, because bounds
      // only ever tighten below the (bounded) root relaxation. The node was
      // not branched, so (like the pre-LP deadline/budget exits above) it
      // must survive into the final checkpoint or its subtree would be
      // silently absent from a resumed search.
      pool_.request_stop(st);
      pool_.keep_for_checkpoint(id_, node);
      close(nid, obs::NodeOutcome::Limit, kNan);
      return;
    }

    // After a cutoff stop `obj` is the LP's dual bound, not its optimum.
    const double obj = lp_->objective_value();
    if (st == SolveStatus::Optimal && node.branch_col >= 0) {
      ctx_.pseudocosts.record(node.branch_col, node.branch_dir, node.branch_dist,
                              obj - node.bound);
    }
    if (st == SolveStatus::Cutoff || obj >= ctx_.cutoff()) {  // bound pruning
      close(nid, obs::NodeOutcome::Cutoff, flip * obj);
      return;
    }

    const std::vector<double> x = lp_->primal_solution();
    // The probe keeps the fixed rule, which its upward dive is tuned for.
    const std::int32_t bv =
        pool_.probe() ? cost_weighted_branch_var(x, ctx_.int_vars, ctx_.obj_coef, kIntTol)
                      : ctx_.pseudocosts.select(x, ctx_.int_vars, ctx_.obj_coef, kIntTol);
    if (bv < 0) {
      if (ctx_.try_incumbent(x, obj)) {
        if (rec_ != nullptr) rec_->emit(obs::EventType::Incumbent, nid, flip * obj);
        // The probe's job is done; Optimal marks the stop as no limit.
        if (pool_.probe()) pool_.request_stop(SolveStatus::Optimal);
      }
      close(nid, obs::NodeOutcome::Integer, flip * obj);
      return;
    }
    close(nid, obs::NodeOutcome::Branched, flip * obj);
    branch(node, bv, x[static_cast<std::size_t>(bv)], obj);
  }

  /// A node whose LP failed both in-place rungs of the recovery ladder.
  /// Quarantine: re-enqueue it for a bounded number of fresh cold attempts
  /// (possibly on another worker's solver, whose numerical state differs),
  /// then abandon the subtree — its parent bound is folded into the global
  /// bound, never pruned away.
  void quarantine(const BBNode& node) {
    const auto nid = static_cast<std::int64_t>(node.id);
    const double bound = ctx_.sense_flip * node.bound;
    if (node.retries < kRecoverMaxRetries) {
      auto retry = std::make_shared<BBNode>(node);
      retry->basis.reset();  // force a cold start on the next attempt
      retry->retries = node.retries + 1;
      ctx_.frame.reg->counter("milp.recover.requeue").add();
      if (rec_ != nullptr) {
        rec_->emit(obs::EventType::Recover, nid, 0.0,
                   static_cast<std::uint8_t>(obs::RecoverRung::Requeue));
      }
      close(nid, obs::NodeOutcome::Requeued, bound);
      pool_.push(id_, std::move(retry));
      return;
    }
    ctx_.mark_abandoned(node.bound);
    ctx_.frame.reg->counter("milp.recover.abandoned").add();
    if (rec_ != nullptr) {
      rec_->emit(obs::EventType::Recover, nid, 0.0,
                 static_cast<std::uint8_t>(obs::RecoverRung::Abandon));
    }
    close(nid, obs::NodeOutcome::Abandoned, bound);
  }

  /// Pushes the children of `node`, branched on column `bv` at its LP value
  /// `v`; `obj` is the node's LP objective, the children's parent bound.
  void branch(const BBNode& node, std::int32_t bv, double v, double obj) {
    const double lb0 = lp_->lower_bound(bv);
    const double ub0 = lp_->upper_bound(bv);
    const double down_ub = std::floor(v + kIntTol);
    const double up_lb = std::ceil(v - kIntTol);
    // Dive toward the nearest integer first; the probe leans upward —
    // architecture MILPs are covering-style, and instantiating components
    // reaches feasibility much faster than pruning them.
    const double up_threshold = pool_.probe() ? 0.15 : 0.5;
    const double f = v - std::floor(v);
    const bool down_first = f < up_threshold;

    // The basis ships its factorization: the children load it by replaying
    // the update log, and the open siblings of a dive share one LU and one
    // log prefix.
    const auto basis = std::make_shared<const Basis>(lp_->export_basis());
    auto make_child = [&](double clb, double cub, PseudoCosts::Dir dir) {
      auto child = std::make_shared<BBNode>();
      child->parent_id = node.id;
      child->bound = obj;
      child->branch_col = bv;
      child->branch_dir = dir;
      child->branch_dist = dir == PseudoCosts::Dir::Down ? f : 1.0 - f;
      child->path = cur_path_;
      child->path.push_back({bv, clb, cub});
      child->basis = basis;
      return child;
    };
    const bool down_ok = down_ub >= lb0 - 1e-12;
    const bool up_ok = up_lb <= ub0 + 1e-12;
    // Push the dive-preferred child last: the LIFO pop continues this
    // worker's dive with it, while the sibling is exposed for stealing.
    if (down_first) {
      if (up_ok) pool_.push(id_, make_child(up_lb, ub0, PseudoCosts::Dir::Up));
      if (down_ok) pool_.push(id_, make_child(lb0, down_ub, PseudoCosts::Dir::Down));
    } else {
      if (down_ok) pool_.push(id_, make_child(lb0, down_ub, PseudoCosts::Dir::Down));
      if (up_ok) pool_.push(id_, make_child(up_lb, ub0, PseudoCosts::Dir::Up));
    }
  }

  const int id_;
  SearchCtx& ctx_;
  NodePool& pool_;
  obs::SpanBuffer* rec_;  ///< this worker's recorder buffer; null = off
  std::unique_ptr<SimplexSolver> own_lp_;  ///< null for the root solver's worker
  SimplexSolver* lp_;
  std::vector<double> root_lb_, root_ub_;
  std::vector<BoundDelta> cur_path_;
  std::uint64_t held_id_ = 0;  ///< node whose basis the solver holds
  std::int64_t nodes_ = 0;
  std::int64_t steals_ = 0;
  double busy_seconds_ = 0.0;
};

/// One run of the tree search from the fixed root held by `ctx.lp`. Worker 0
/// is the calling thread on `ctx.lp`; workers 1..threads-1 run on their own
/// threads with private solvers. A `probe` run dives upward and stops at the
/// first installed incumbent; its frontier is dropped. Otherwise the run is
/// the main search: checkpointed when armed, and seeded from `ctx.resume`'s
/// frontier when resuming. Every run charges the solve's node ledger and
/// incumbent in `ctx` directly; the per-worker statistics and the private
/// solvers' counters land in `ctx.sol`. Returns true when the probe stopped
/// at an incumbent, i.e. the search goes on.
bool run_pool(SearchCtx& ctx, int threads, bool probe) {
  const CheckpointData* resume = probe ? nullptr : ctx.resume;
  if (resume != nullptr) {
    // Nodes charged by the interrupted run count against max_nodes too, so
    // the budget continues across a kill/resume instead of restarting, and
    // the resumed run's trace ids start above them.
    ctx.nodes = std::max(ctx.nodes.load(), resume->nodes);
    ctx.next_id = std::max(ctx.next_id.load(), static_cast<std::uint64_t>(ctx.nodes.load()));
  }
  NodePool pool(ctx, threads, probe,
                resume != nullptr ? resume->root_bound : ctx.root_bound);

  if (resume != nullptr) {
    // Re-enqueue the checkpointed frontier on worker 0 (steals rebalance it).
    // No basis snapshots survive serialization: resumed nodes warm-start
    // from whatever basis their solver holds, or cold when it holds none.
    for (const CheckpointNode& cn : resume->frontier) {
      auto n = std::make_shared<BBNode>();
      n->bound = cn.bound;
      n->retries = cn.retries;
      n->path = cn.path;
      pool.push(0, std::move(n));
    }
  } else {
    auto root = std::make_shared<BBNode>();
    root->bound = ctx.root_bound;
    // The main run is the snapshot's last user: hand it over, so it is
    // freed once the root node is solved.
    root->basis = probe ? ctx.root_basis : std::move(ctx.root_basis);
    pool.push(0, std::move(root));
  }

  // Each worker writes its own recorder buffer (worker 0 is the calling
  // thread, which is also the recorder's buffer-0 owner — same thread,
  // single-writer holds).
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) workers.push_back(std::make_unique<Worker>(t, ctx, pool));
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(workers.size() - 1);
  for (std::size_t t = 1; t < workers.size(); ++t) {
    pool_threads.emplace_back([&w = *workers[t]] { w.run(); });
  }
  workers[0]->run();
  for (std::thread& th : pool_threads) th.join();

  // Final snapshot after all workers drained: an interrupted run's last
  // checkpoint then carries the exact surviving frontier, and a finished
  // run's carries an empty one (resume returns the incumbent immediately).
  pool.write_checkpoint(ctx.frame.root_rec);

  const bool hit_incumbent = pool.stopped() && pool.stop_reason() == SolveStatus::Optimal;
  if (pool.stopped() && !hit_incumbent) {
    ctx.stopped = true;
    ctx.stop_reason = pool.stop_reason();
  }
  Solution& sol = ctx.frame.sol;
  sol.threads_used = threads;
  sol.nodes_per_worker.resize(workers.size());
  for (std::size_t t = 0; t < workers.size(); ++t) {
    const Worker& w = *workers[t];
    sol.nodes_per_worker[t] += w.nodes();
    sol.steals += w.steals();
    sol.cpu_seconds += w.busy_seconds();
    // The root solver's counters are folded once, by the finish stage.
    if (w.own_solver() != nullptr) fold_solver_counters(*w.own_solver(), sol, *ctx.frame.reg);
  }
  return hit_incumbent;
}

// ---------------------------------------------------------------------------
// The stages of one solve, in order: presolve, root LP, root heuristics,
// tree, finish. Each owns its span, its phase timer and its SolvePhases field.
// ---------------------------------------------------------------------------

/// The presolve stage: presolves the caller's model (unless
/// MilpOptions::use_presolve is off), builds the search over the result in
/// `ctx`, loads the checkpoint to resume from (one written for this model
/// that fits it, else the solve starts fresh), and seeds the search with the
/// checkpointed incumbent and the warm hint mapped onto its columns. Returns
/// false, leaving `ctx` empty, when presolve proves the model infeasible.
bool presolve_stage(SolveFrame& f, std::optional<SearchCtx>& ctx) {
  const MilpOptions& options = f.opts;
  obs::MetricsRegistry* const reg = f.reg;
  f.work = &f.model;
  if (options.use_presolve) {
    {
      obs::ScopedSpan span(f.root_rec, obs::span_id(obs::SpanName::Presolve));
      obs::ScopedTimer timer(&reg->timer("milp.phase.presolve"), &f.sol.phases.presolve);
      f.pre = presolve(f.model);
    }
    // Caller-space row indices: `model` is the caller's model, so these feed
    // arch-level per-pattern attribution directly.
    f.sol.presolve_removed_rows = f.pre.removed_rows;
    auto count = [reg](const char* name, std::size_t n) {
      reg->counter(name).add(static_cast<std::int64_t>(n));
    };
    count("milp.presolve.rows_removed", f.pre.rows_removed);
    count("milp.presolve.vars_fixed", f.pre.vars_fixed);
    count("milp.presolve.bounds_tightened", f.pre.bounds_tightened);
    count("milp.presolve.strengthen_tightened", f.pre.strengthen_tightened);
    count("milp.presolve.strengthen_fixed", f.pre.strengthen_fixed);
    count("milp.presolve.rhs_strengthened", f.pre.rhs_strengthened);
    if (f.pre.infeasible) {
      f.sol.status = SolveStatus::Infeasible;
      return false;
    }
    f.work = &f.pre.reduced;
  } else {
    f.pre.orig_of_reduced.resize(f.model.num_vars());
    std::iota(f.pre.orig_of_reduced.begin(), f.pre.orig_of_reduced.end(), 0);
  }

  SearchCtx& c = ctx.emplace(f);
  if (!options.checkpoint_file.empty()) f.ck_fingerprint = model_fingerprint(*f.work);
  if (!options.checkpoint_file.empty() && options.resume) {
    CheckpointData& loaded = f.ckdata;
    bool ok = load_checkpoint(options.checkpoint_file, loaded);
    if (ok) ok = loaded.fingerprint == f.ck_fingerprint;
    if (ok && loaded.has_incumbent) {
      // Distrust the file: the vector must fit the reduced model and
      // actually be feasible before it may prune this run's search.
      ok = loaded.incumbent_x.size() == f.work->num_vars() &&
           f.work->feasible(loaded.incumbent_x);
    }
    for (const CheckpointNode& n : loaded.frontier) {
      for (const BoundDelta& d : n.path) {
        ok = ok && d.col >= 0 && static_cast<std::size_t>(d.col) < f.work->num_vars();
      }
    }
    if (ok) {
      c.resume = &loaded;
      reg->gauge("milp.checkpoint.loaded").set(1.0);
      reg->gauge("milp.checkpoint.frontier_loaded")
          .set(static_cast<double>(loaded.frontier.size()));
    } else {
      // Missing, corrupt, or from a different model: start fresh.
      reg->gauge("milp.checkpoint.rejected").set(1.0);
    }
  }
  if (c.resume != nullptr) {
    // Carry the checkpointed degradation record: subtrees the interrupted
    // run abandoned stay folded into this run's bound (and Solution flags),
    // even if the tree phase never starts again.
    c.degraded_nodes = f.ckdata.degraded_nodes;
    c.degraded_bound = std::min(c.degraded_bound, f.ckdata.degraded_bound);
    if (f.ckdata.has_incumbent) {
      // Seed the checkpointed incumbent (internal minimize sense) past
      // try_incumbent: it is not a new find, so the trajectory skips it.
      c.incumbent_obj.store(f.ckdata.incumbent_obj, std::memory_order_relaxed);
      c.incumbent_x = f.ckdata.incumbent_x;
    }
  }

  // Cross-solve warm start (milp/warm_start.hpp). The pseudo-cost table is
  // read column by column through the presolve map, so it seeds the tree
  // with or without presolve. The basis and x only line up with the model
  // the caller sees, so they are unusable under presolve (the reduced
  // column space differs per call) — gate, count, and drop them.
  const WarmStartHint* hint = options.warm_hint;
  f.pc_seed = hint != nullptr ? hint->pseudocosts.get() : nullptr;
  reg->counter("milp.pseudocost.seeded")
      .add(f.pc_seed != nullptr ? c.pseudocosts.seed(*f.pc_seed, f.pre.orig_of_reduced) : 0);
  if (hint != nullptr && options.use_presolve) {
    if (hint->basis != nullptr || !hint->x.empty()) {
      reg->counter("milp.warm_hint.skipped_presolve").add();
    }
    hint = nullptr;
  }
  f.hint = hint;
  if (hint != nullptr && !hint->x.empty() && hint->x.size() == f.work->num_vars()) {
    // Seed the previous scenario's optimum through the ordinary incumbent
    // channel: try_incumbent snaps integers and re-validates feasibility, so
    // a vector the scenario delta made infeasible is simply rejected.
    const double hint_obj = f.work->objective().evaluate(hint->x);
    if (c.try_incumbent(hint->x, c.sense_flip * hint_obj)) {
      reg->counter("milp.warm_hint.incumbent_seeded").add();
    }
  }
  return true;
}

/// The root node as the stages after the root LP see it: its optimal point
/// (rounded by the heuristics), and its reduced costs and column statuses
/// (read by reduced-cost fixing), captured before any dive disturbs them.
struct RootRecord {
  std::vector<double> x;
  std::vector<double> d;  ///< reduced costs, model sense
  std::vector<SimplexSolver::BoundStatus> status;
};

/// The root LP stage: solves the root relaxation, with the dual simplex from
/// the warm hint's basis when it loads, and through the first two rungs of
/// the recovery ladder when numerics fail. At an optimum it snapshots the
/// root basis; an integral one becomes the incumbent. Closes the root node
/// either way. Returns true when the optimum is fractional, i.e. the search
/// goes on from `root`.
bool root_lp_stage(SolveFrame& f, SearchCtx& ctx, RootRecord& root) {
  Solution& sol = f.sol;
  obs::MetricsRegistry* const reg = f.reg;
  obs::SpanBuffer* const rec = f.root_rec;
  SolveStatus st = SolveStatus::NumericalError;
  {
    obs::ScopedSpan span(rec, obs::span_id(obs::SpanName::RootLp));
    obs::ScopedTimer timer(&reg->timer("milp.phase.root_lp"), &sol.phases.root_lp);
    if (rec != nullptr) rec->emit(obs::EventType::NodeOpen, 1, kNan);
    // A hinted basis warm-starts the root with the dual simplex (bound/RHS
    // deltas preserve dual feasibility; objective deltas are repaired or fall
    // cold inside reoptimize_dual). A basis that no longer fits the model is
    // rejected by load_basis and the root solves cold — deterministically.
    bool warm_root = false;
    if (f.hint != nullptr && f.hint->basis != nullptr) {
      if (ctx.lp.load_basis(*f.hint->basis)) {
        warm_root = true;
        reg->counter("milp.warm_hint.basis_loaded").add();
      } else {
        reg->counter("milp.warm_hint.basis_rejected").add();
      }
    }
    st = warm_root ? ctx.lp.reoptimize_dual() : ctx.lp.solve_primal();
    if (warm_root && st == SolveStatus::NumericalError) {
      reg->counter("milp.warm_hint.cold_fallback").add();
      warm_root = false;
      st = ctx.lp.solve_primal();
    }
    sol.warm_started = warm_root;
    if (st == SolveStatus::NumericalError) {
      // The initial root solve gets the same first two ladder rungs as every
      // node LP; there is no parent bound to abandon into, so if both rungs
      // fail the error surfaces as the solve status.
      st = run_recovery_ladder(ctx.lp, *reg, rec, 1);
    }
  }
  ctx.root_status = st;
  bool fractional = false;
  double bound = kNan;
  auto outcome = st == SolveStatus::Infeasible ? obs::NodeOutcome::Infeasible
                                               : obs::NodeOutcome::Limit;
  if (st == SolveStatus::Optimal) {
    ctx.root_bound = ctx.lp.objective_value();
    bound = ctx.sense_flip * ctx.root_bound;
    if (rec != nullptr) rec->emit(obs::EventType::Bound, 1, bound);
    reg->gauge("milp.root_bound").set(bound);
    // Snapshot *now*, before reduced-cost fixing or the probe mutate
    // bounds/basis: the pool's root node warm-starts from it, and it is the
    // handle the next scenario of a sweep loads (Solution::final_basis).
    ctx.root_basis = std::make_shared<const Basis>(ctx.lp.export_basis());
    if (f.opts.export_basis) sol.final_basis = ctx.root_basis;
    root.x = ctx.lp.primal_solution();
    fractional = cost_weighted_branch_var(root.x, ctx.int_vars, ctx.obj_coef, kIntTol) >= 0;
    if (fractional) {
      root.d = ctx.lp.reduced_costs();
      root.status.resize(ctx.model.num_vars());
      for (std::size_t j = 0; j < root.status.size(); ++j) {
        root.status[j] = ctx.lp.column_status(static_cast<std::int32_t>(j));
      }
    } else if (ctx.try_incumbent(std::move(root.x), ctx.root_bound) && rec != nullptr) {
      rec->emit(obs::EventType::Incumbent, 1, ctx.sense_flip * ctx.incumbent());
    }
    outcome = fractional ? obs::NodeOutcome::Branched : obs::NodeOutcome::Integer;
  } else {
    sol.status = st;
  }
  if (rec != nullptr) {
    rec->emit(obs::EventType::NodeClose, 1, bound, static_cast<std::uint8_t>(outcome));
  }
  return fractional;
}

/// The root heuristics stage: rounds the fractional root optimum, then, when
/// no incumbent exists yet, runs the probe — a one-worker pool run that
/// stops at its first incumbent, so reduced-cost fixing can prune the main
/// search. Returns false when the probe ended without one: it exhausted the
/// tree or hit a limit, and no search is left.
bool root_heuristics_stage(SolveFrame& f, SearchCtx& ctx, RootRecord& root) {
  obs::ScopedSpan span(f.root_rec, obs::span_id(obs::SpanName::Heuristic));
  obs::ScopedTimer timer(&f.reg->timer("milp.phase.heuristic"), &f.sol.phases.heuristic);
  // Rounding: snap and test. No stage reads the root point after it.
  std::vector<double> xr = std::move(root.x);
  for (std::int32_t j : ctx.int_vars) {
    xr[static_cast<std::size_t>(j)] = std::round(xr[static_cast<std::size_t>(j)]);
  }
  const double obj = ctx.model.objective().evaluate(xr);
  // try_incumbent takes the minimize-sense objective.
  if (ctx.try_incumbent(std::move(xr), ctx.sense_flip * obj) && f.root_rec != nullptr) {
    f.root_rec->emit(obs::EventType::Incumbent, -1, ctx.sense_flip * ctx.incumbent());
  }
  return ctx.has_incumbent() || run_pool(ctx, 1, /*probe=*/true);
}

/// Root reduced-cost fixing, once an incumbent exists: a nonbasic integer
/// column whose root reduced cost alone pushes the root bound past the
/// cutoff is fixed at its root bound for the whole search.
void fix_by_reduced_cost(SearchCtx& ctx, const RootRecord& root) {
  if (!ctx.has_incumbent()) return;
  const double cutoff = ctx.incumbent() - std::max(kGapAbs, ctx.granularity - 1e-6);
  for (std::int32_t j : ctx.int_vars) {
    const double lb = ctx.lp.lower_bound(j);
    const double ub = ctx.lp.upper_bound(j);
    if (ub - lb < 0.5) continue;  // already fixed
    // reduced_costs() reports model sense; the fixing math is in the
    // engine's minimize sense.
    const auto col = static_cast<std::size_t>(j);
    const double dj = ctx.sense_flip * root.d[col];
    if (root.status[col] == SimplexSolver::BoundStatus::AtLower && dj > 0 &&
        ctx.root_bound + dj > cutoff + 1e-9) {
      ctx.lp.set_bounds(j, lb, lb);
    } else if (root.status[col] == SimplexSolver::BoundStatus::AtUpper && dj < 0 &&
               ctx.root_bound - dj > cutoff + 1e-9) {
      ctx.lp.set_bounds(j, ub, ub);
    }
  }
}

/// The tree stage: reduced-cost fixing, then the main pool run on
/// `f.threads` workers — unless the probe left no search (`search_left`).
void tree_stage(SolveFrame& f, SearchCtx& ctx, const RootRecord& root, bool search_left) {
  obs::ScopedSpan span(f.root_rec, obs::span_id(obs::SpanName::Tree));
  obs::ScopedTimer timer(&f.reg->timer("milp.phase.tree"), &f.sol.phases.tree);
  if (!search_left) return;
  fix_by_reduced_cost(ctx, root);
  run_pool(ctx, f.threads, /*probe=*/false);
}

/// The finish stage's extraction, when the root LP solved: the search's
/// status, objective and bound, and its incumbent postsolved into the
/// caller's column space.
void extract(SolveFrame& f, const SearchCtx& ctx) {
  obs::ScopedSpan span(f.root_rec, obs::span_id(obs::SpanName::MilpExtract));
  obs::ScopedTimer timer(&f.reg->timer("milp.phase.extract"), &f.sol.phases.extract);
  Solution& sol = f.sol;
  // Abandoned subtrees (ladder exhausted) cap the proven bound at their
  // parents' bounds — the min below keeps the reported gap sound.
  sol.degraded_nodes = ctx.degraded_nodes;
  sol.degraded = ctx.degraded_nodes > 0;
  if (ctx.has_incumbent()) {
    sol.status = ctx.stopped ? ctx.stop_reason : SolveStatus::Optimal;
    sol.has_incumbent = true;
    sol.objective = ctx.sense_flip * ctx.incumbent();
    sol.best_bound =
        ctx.sense_flip *
        std::min(ctx.stopped ? ctx.root_bound : ctx.incumbent(), ctx.degraded_bound);
    std::vector<double> x = ctx.incumbent_x;
    sol.x = f.opts.use_presolve ? f.pre.postsolve(x) : std::move(x);
  } else {
    // Degraded and empty-handed: the abandoned subtrees may hide feasible
    // points, so "Infeasible" would be an unsound claim.
    sol.status = ctx.stopped ? ctx.stop_reason
                 : sol.degraded ? SolveStatus::NumericalError
                                : SolveStatus::Infeasible;
    sol.best_bound = ctx.sense_flip * std::min(ctx.root_bound, ctx.degraded_bound);
  }
}

/// The finish stage, every exit's: folds the root solver's counters, stamps
/// the clock and the one-worker statistics, extracts the outcome when the
/// root LP solved, certifies it, logs the final line, and reports the
/// metrics and the trace. `ctx` is null when the solve ended before the
/// search was built (budget spent at entry, presolve infeasible).
void finish_stage(SolveFrame& f, const SearchCtx* ctx) {
  Solution& sol = f.sol;
  obs::MetricsRegistry* const reg = f.reg;
  if (ctx != nullptr) {
    // Pool runs folded their private solvers' counters into `sol`; the root
    // solver, shared by worker 0 of every run, is counted once, here.
    fold_solver_counters(ctx->lp, sol, *reg);
    sol.nodes_explored = ctx->nodes.load(std::memory_order_relaxed);
    reg->counter("milp.pseudocost.updates").add(ctx->pseudocosts.updates());
    reg->counter("milp.branch.fallback").add(ctx->pseudocosts.fallbacks());
    if (f.pc_seed != nullptr || ctx->pseudocosts.updates() > 0) {
      sol.pseudocosts = std::make_shared<const PseudoCostTable>(
          ctx->pseudocosts.export_table(f.pc_seed, f.pre.orig_of_reduced, f.model.num_vars()));
    }
  }
  sol.solve_seconds = std::chrono::duration<double>(Clock::now() - f.t0).count();
  // A one-worker solve, the pool never run included, is its own worker.
  if (sol.threads_used == 1) {
    sol.nodes_per_worker.assign(1, sol.nodes_explored);
    sol.cpu_seconds = sol.solve_seconds;
  }
  if (ctx != nullptr && ctx->root_status == SolveStatus::Optimal) extract(f, *ctx);
  if (f.opts.certify && sol.has_incumbent) {
    // Independent certification of the answer about to be returned: primal
    // residuals against the original (pre-presolve) model always; dual
    // feasibility + complementary slackness when this was a pure LP solved
    // without presolve (row indices then match the engine's duals).
    check::CertifyOptions copts;
    copts.feas_tol = kCertifyTol;
    copts.int_tol = std::max(kIntTol, kCertifyTol);
    copts.obj_tol = kCertifyTol;
    copts.dual_tol = kCertifyTol;
    check::Certificate cert;
    if (ctx->int_vars.empty() && !f.opts.use_presolve && sol.status == SolveStatus::Optimal) {
      cert = check::certify_lp(f.model, sol.x, sol.objective, ctx->lp.dual_values(),
                               ctx->lp.reduced_costs(), copts);
    } else {
      cert = check::certify(f.model, sol.x, sol.objective, copts);
    }
    reg->gauge("check.certify.ok").set(cert.ok() ? 1.0 : 0.0);
    reg->gauge("check.certify.max_row_violation").set(cert.max_row_violation);
    reg->gauge("check.certify.max_bound_violation").set(cert.max_bound_violation);
    reg->gauge("check.certify.max_int_violation").set(cert.max_int_violation);
    reg->gauge("check.certify.objective_error").set(cert.objective_error);
    if (cert.duals_checked) {
      reg->gauge("check.certify.max_dual_violation").set(cert.max_dual_violation);
      reg->gauge("check.certify.max_slackness_violation").set(cert.max_slackness_violation);
    }
  }
  if (f.logger.enabled()) {
    obs::NodeLogger::Line line;
    line.nodes = sol.nodes_explored;
    line.open = 0;
    line.has_incumbent = sol.has_incumbent;
    line.incumbent = sol.objective;
    line.best_bound = sol.best_bound;
    line.steals = sol.steals;
    f.logger.log_final(line);
  }

  reg->counter("milp.nodes").add(sol.nodes_explored);
  reg->counter("milp.simplex_iterations").add(sol.simplex_iterations);
  reg->counter("milp.steals").add(sol.steals);
  reg->counter("milp.warm_dual").add(sol.warm_dual_nodes);
  reg->counter("milp.warm_repair").add(sol.warm_repair_nodes);
  reg->counter("milp.cold_restarts").add(sol.cold_nodes);
  reg->gauge("milp.threads").set(static_cast<double>(sol.threads_used));
  if (sol.degraded_nodes > 0) {
    reg->gauge("milp.degraded_nodes").set(static_cast<double>(sol.degraded_nodes));
  }
  if (sol.has_incumbent) {
    reg->gauge("milp.objective").set(sol.objective);
    reg->gauge("milp.gap_abs").set(std::abs(sol.objective - sol.best_bound));
  }
  if (f.root_rec != nullptr) {
    f.root_rec->emit(obs::EventType::SolveEnd, -1, sol.has_incumbent ? sol.objective : kNan);
  }
  if (obs::SpanProfiler* const profiler = f.opts.profiler; profiler != nullptr) {
    sol.trace = profiler->trace_since(f.solve_mark);
    sol.trace.dropped = profiler->take_dropped();
    reg->counter("milp.records_dropped").add(sol.trace.dropped);
  }
  sol.metrics = reg->snapshot();
}

}  // namespace

Solution solve_milp(const Model& model, const MilpOptions& options) {
  Solution sol;
  SolveFrame f(model, options, sol);
  std::optional<SearchCtx> ctx;
  RootRecord root;
  if (Clock::now() >= f.deadline) {
    // A budget already spent at entry — an allowance <= 0, an end the lazy
    // loop or an admission queue has already passed — returns before
    // presolve touches the model: TimeLimit with zero nodes, not a presolve
    // bill the caller can no longer afford.
    sol.status = SolveStatus::TimeLimit;
  } else if (presolve_stage(f, ctx) && root_lp_stage(f, *ctx, root)) {
    const bool search_left = root_heuristics_stage(f, *ctx, root);
    tree_stage(f, *ctx, root, search_left);
  }
  finish_stage(f, ctx ? &*ctx : nullptr);
  return sol;
}

}  // namespace archex::milp

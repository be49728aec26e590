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

/// Telemetry context for one run of the numerical-recovery ladder.
struct RecoverHooks {
  obs::MetricsRegistry* reg;  ///< never null inside solve_milp
  obs::SpanBuffer* rec;       ///< the worker's recorder buffer; nullable
  std::int64_t node_id;
};

/// The first two rungs of the bounded numerical-recovery ladder, shared by
/// the root LP and the pool workers:
/// (1) tightened-tolerance refactorization + warm reoptimize, (2) cold
/// primal restart. Returns the first non-NumericalError status; callers
/// escalate further (quarantine/re-enqueue, then abandon) when both fail.
/// `cutoff` reaches the warm rung (SimplexSolver::recover_resolve).
SolveStatus run_recovery_ladder(SimplexSolver& lp, const RecoverHooks& h,
                                double cutoff = kInf) {
  h.reg->counter("milp.recover.tighten").add();
  if (h.rec != nullptr) {
    h.rec->emit(obs::EventType::Recover, h.node_id, 0.0,
                static_cast<std::uint8_t>(obs::RecoverRung::Tighten));
  }
  SolveStatus st = SolveStatus::NumericalError;
  try {
    st = lp.recover_resolve(cutoff);
  } catch (const std::bad_alloc&) {
    st = SolveStatus::NumericalError;
  }
  if (st != SolveStatus::NumericalError) return st;

  h.reg->counter("milp.recover.cold").add();
  if (h.rec != nullptr) {
    h.rec->emit(obs::EventType::Recover, h.node_id, 0.0,
                static_cast<std::uint8_t>(obs::RecoverRung::Cold));
  }
  try {
    st = lp.solve_primal();
  } catch (const std::bad_alloc&) {
    st = SolveStatus::NumericalError;
  }
  return st;
}

/// Search state shared by the root phase and every pool run.
struct SearchCtx {
  const Model& model;  // reduced model
  const MilpOptions& opts;
  /// The root solver. It solves the root LP, and worker 0 of every pool run
  /// dives on it, so a one-thread solve never builds a second solver.
  SimplexSolver lp;
  std::vector<std::int32_t> int_vars;  // reduced columns with integrality
  std::vector<double> obj_coef;        ///< |objective coefficient| per column
  /// Learnt by the probe and the main run alike; one table per solve, so
  /// items and lazy iterations never share one.
  PseudoCosts pseudocosts;
  double incumbent_obj = kInf;         // minimize sense
  std::vector<double> incumbent_x;
  bool has_incumbent = false;
  double granularity = 0.0;  ///< objective step size, see objective_granularity
  double root_bound = -kInf;
  /// Root-optimal basis, captured before any dive: pool runs seed their root
  /// node with it, so the fixed root warm-starts from the root optimum.
  std::shared_ptr<const Basis> root_basis;
  std::int64_t nodes = 0;
  std::uint64_t next_id = 0;  ///< last trace node id handed out
  Clock::time_point deadline;
  SolveStatus stop_reason = SolveStatus::Optimal;  // set on limit hits
  bool stopped = false;  ///< a limit ended the search
  double sense_flip = 1.0;
  obs::NodeLogger* logger = nullptr;  ///< null when the node log is off
  obs::MetricsRegistry* reg = nullptr;  ///< always set by solve_milp
  std::int64_t pool_refactors = 0;  ///< refactorizations folded from workers
  std::int64_t pool_transplants = 0;  ///< eta-replay basis loads from workers
  std::int64_t pool_lp_cutoffs = 0;  ///< node LPs stopped at the cutoff, from workers
  // Recovery-ladder accounting. `degraded_bound` is the min (minimize sense)
  // parent bound over every abandoned subtree: folding it into the final
  // best bound keeps the reported gap sound — an abandoned subtree can hide
  // solutions no better than its parent LP bound, never better.
  std::int64_t degraded_nodes = 0;
  double degraded_bound = kInf;
  std::uint64_t ck_fingerprint = 0;
  const CheckpointData* resume = nullptr;  ///< frontier for the main run

  SearchCtx(const Model& m, const MilpOptions& o)
      : model(m), opts(o), lp(m, o.lp), pseudocosts(m.num_vars()) {
    for (std::size_t j = 0; j < m.num_vars(); ++j) {
      if (m.vars()[j].is_integral()) int_vars.push_back(static_cast<std::int32_t>(j));
    }
    obj_coef.assign(m.num_vars(), 0.0);
    for (const Term& t : m.objective().terms()) {
      obj_coef[static_cast<std::size_t>(t.var.index)] = std::abs(t.coef);
    }
    sense_flip = m.objective_sense() == ObjectiveSense::Maximize ? -1.0 : 1.0;
  }

  bool try_incumbent(std::vector<double> x, double obj) {
    // Snap integers and validate against the true model.
    for (std::int32_t j : int_vars) x[static_cast<std::size_t>(j)] = std::round(x[j]);
    if (!model.feasible(x, 1e-5)) return false;
    if (obj < incumbent_obj - 1e-12) {
      incumbent_obj = obj;
      incumbent_x = std::move(x);
      has_incumbent = true;
      if (opts.on_incumbent) opts.on_incumbent(sense_flip * obj);
      return true;
    }
    return false;
  }

  [[nodiscard]] std::int32_t pick_branch_var(const std::vector<double>& x) const {
    return cost_weighted_branch_var(x, int_vars, obj_coef, opts.int_tol);
  }
};

// ---------------------------------------------------------------------------
// The tree search: an explicit open-node pool consumed by N workers.
// ---------------------------------------------------------------------------

/// One bound tightening along the path from the (post-fixing) root. The
/// checkpoint layer serializes exactly this triple, so the pool's node paths
/// are the on-disk frontier representation too.
using BoundChange = BoundDelta;

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
  std::vector<BoundChange> path;  ///< from the fixed root
  std::shared_ptr<const SimplexSolver::Basis> basis;  ///< parent basis
};

/// Lock-guarded open-node pool plus the shared incumbent.
///
/// Pop policy is the work-stealing compromise: a worker whose last solved
/// node is the parent of the deque's back continues its own dive (LIFO, keeps
/// the warm-start chain intact, no basis reinstall); otherwise it *steals*
/// the best-bound open node, paying one basis refactorization. The incumbent
/// objective is mirrored into an atomic so the pruning cutoff is readable
/// without the lock.
class NodePool {
 public:
  NodePool(const Model& model, const MilpOptions& opts, double granularity,
           const std::vector<std::int32_t>& int_vars, double sense_flip,
           int num_workers, bool probe, PseudoCosts& pseudocosts)
      : model_(model), opts_(opts), granularity_(granularity),
        int_vars_(int_vars), sense_flip_(sense_flip), probe_(probe),
        pseudocosts_(pseudocosts),
        queues_(static_cast<std::size_t>(num_workers)),
        inflight_bound_(static_cast<std::size_t>(num_workers), kInf),
        inflight_node_(static_cast<std::size_t>(num_workers)) {}

  /// Seeds the incumbent found before this run (root phase, checkpoint).
  void seed_incumbent(double obj, std::vector<double> x) {
    incumbent_obj_.store(obj, std::memory_order_relaxed);
    incumbent_x_ = std::move(x);
    has_incumbent_ = obj < kInf;
  }

  /// Appends a node to `worker`'s own deque. Sleeping peers are only woken
  /// when someone is actually waiting, so an uncontested dive (push two
  /// children, immediately pop one back) stays wakeup-free.
  void push(int worker, std::shared_ptr<BBNode> node) {
    bool wake;
    {
      std::lock_guard<std::mutex> lk(mu_);
      node->id = ++next_id_;
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

  /// Current incumbent objective (minimize sense, kInf if none). Lock-free.
  [[nodiscard]] double incumbent() const {
    return incumbent_obj_.load(std::memory_order_relaxed);
  }

  /// Bound-pruning cutoff against the current incumbent (kInf if none).
  [[nodiscard]] double cutoff() const {
    const double inc = incumbent();
    if (inc >= kInf) return kInf;
    return inc - std::max({opts_.gap_abs, opts_.gap_rel * std::abs(inc),
                           granularity_ - 1e-6});
  }

  /// Integer-snap, validate against the true model, and install if better.
  /// Returns true when the incumbent improved (callers emit trace events).
  bool try_incumbent(std::vector<double> x, double obj) {
    for (std::int32_t j : int_vars_) {
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
    }
    if (!model_.feasible(x, 1e-5)) return false;
    std::lock_guard<std::mutex> lk(incumbent_mu_);
    if (obj < incumbent_obj_.load(std::memory_order_relaxed) - 1e-12) {
      incumbent_obj_.store(obj, std::memory_order_relaxed);
      incumbent_x_ = std::move(x);
      has_incumbent_ = true;
      if (opts_.on_incumbent) opts_.on_incumbent(sense_flip_ * obj);
      return true;
    }
    return false;
  }

  /// Atomically counts one solved node against the global budget; returns
  /// false when the budget is already spent (caller requests NodeLimit).
  [[nodiscard]] bool count_node() {
    return nodes_.fetch_add(1, std::memory_order_relaxed) < max_pool_nodes_;
  }
  void set_node_budget(std::int64_t n) { max_pool_nodes_ = n; }
  [[nodiscard]] std::int64_t nodes() const {
    return nodes_.load(std::memory_order_relaxed);
  }

  // Read after join (workers quiescent).
  [[nodiscard]] bool has_incumbent() const { return has_incumbent_; }
  [[nodiscard]] std::vector<double>& incumbent_x() { return incumbent_x_; }

  [[nodiscard]] double sense_flip() const { return sense_flip_; }
  /// Probe run: dive upward and stop at the first installed incumbent.
  [[nodiscard]] bool probe() const { return probe_; }
  /// The solve's pseudo-cost table, shared by every run's workers.
  [[nodiscard]] PseudoCosts& pseudocosts() { return pseudocosts_; }

  /// Continues the trace node-id sequence of earlier phases and runs, so
  /// node ids stay unique across the solve.
  void set_next_id(std::uint64_t n) { next_id_ = n; }
  [[nodiscard]] std::uint64_t next_id() const { return next_id_; }  // after join
  /// Nodes already charged before this run (node-log display only).
  void set_base_nodes(std::int64_t n) { base_nodes_ = n; }
  /// Initial global lower bound (minimize sense), for Bound-event deltas.
  void set_root_bound(double b) { best_known_bound_ = b; }

  /// Records one subtree abandoned by the recovery ladder. The bound is
  /// folded into the final best bound by run_pool.
  void mark_abandoned(double bound) {
    std::lock_guard<std::mutex> lk(mu_);
    ++degraded_nodes_;
    degraded_bound_ = std::min(degraded_bound_, bound);
  }
  /// Seeds the degradation record accumulated before this run (the probe,
  /// a resumed checkpoint), so checkpoint snapshots and the fold-back after
  /// join carry it forward. Called before workers start.
  void seed_degraded(std::int64_t nodes, double bound) {
    degraded_nodes_ = nodes;
    degraded_bound_ = bound;
  }
  // Read after join (workers quiescent).
  [[nodiscard]] std::int64_t degraded_nodes() const { return degraded_nodes_; }
  [[nodiscard]] double degraded_bound() const { return degraded_bound_; }

  /// Arms periodic checkpointing (empty file = off).
  void configure_checkpoint(const std::string& file, double interval_s,
                            std::uint64_t fingerprint,
                            obs::MetricsRegistry* reg) {
    ck_file_ = file;
    ck_fingerprint_ = fingerprint;
    ck_reg_ = reg;
    ck_epoch_ = Clock::now();
    ck_interval_ns_ = interval_s <= 0.0
                          ? 0
                          : static_cast<std::int64_t>(interval_s * 1e9);
    ck_next_ns_.store(ck_interval_ns_, std::memory_order_relaxed);
  }

  /// Re-enqueues a node a worker popped but could not process (stop already
  /// requested, deadline, node budget, or its LP cut short by a time or
  /// iteration limit). Only meaningful under checkpointing:
  /// without it the node's subtree would be missing from the frontier the
  /// final checkpoint records, and a resume would silently lose it. No-op
  /// when checkpointing is off (the pool is torn down anyway).
  void keep_for_checkpoint(int worker, const BBNode& node) {
    if (ck_file_.empty()) return;
    auto copy = std::make_shared<BBNode>(node);
    std::lock_guard<std::mutex> lk(mu_);
    copy->id = ++next_id_;
    queues_[static_cast<std::size_t>(worker)].push_back(std::move(copy));
    ++queued_;
  }

  /// Writes a checkpoint when one is due. Called by workers between nodes;
  /// an atomic exchange elects a single writer, and the snapshot is taken
  /// under the pool lock but written outside it.
  void maybe_checkpoint(obs::SpanBuffer* rec) {
    if (ck_file_.empty()) return;
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

  /// Unconditional checkpoint after the workers joined, so interrupted
  /// (node/time-limited) solves resume from their final frontier and
  /// completed solves leave an empty frontier that resumes trivially.
  void write_final_checkpoint(obs::SpanBuffer* rec) {
    if (ck_file_.empty()) return;
    write_checkpoint(rec);
  }

  /// Emits one node-log line from the pool's current state, and a Bound
  /// event when the global best-bound estimate improved. The estimate
  /// is min over open-node parent bounds and in-flight node bounds — an
  /// estimate, because a worker's in-flight LP may already have lifted its
  /// node's bound. Called by whichever worker finds the logger due; the
  /// pool lock makes the snapshot consistent.
  void log_line(obs::NodeLogger* logger, obs::SpanBuffer* rec) {
    obs::NodeLogger::Line line;
    double est = kInf;
    {
      std::lock_guard<std::mutex> lk(mu_);
      line.nodes = base_nodes_ + nodes_.load(std::memory_order_relaxed);
      line.open = queued_;
      line.steals = steals_;
      for (const auto& q : queues_) {
        if (!q.empty()) est = std::min(est, q.front()->bound);
      }
      for (double b : inflight_bound_) est = std::min(est, b);
      if (est < kInf && est > best_known_bound_ + 1e-9) {
        best_known_bound_ = est;
        if (rec != nullptr) rec->emit(obs::EventType::Bound, -1, sense_flip_ * est);
      }
      if (est >= kInf) est = best_known_bound_;
    }
    const double inc = incumbent();
    line.has_incumbent = inc < kInf;
    line.incumbent = sense_flip_ * inc;
    line.best_bound = sense_flip_ * est;
    if (logger != nullptr) logger->log(line);
  }

 private:
  /// Consistent copy of the resumable search state: frontier (queued plus
  /// in-flight nodes) under the pool lock, incumbent under its own lock.
  /// An in-flight node that already pushed its children may be captured
  /// together with them — the duplicated subtree costs re-exploration on
  /// resume but never correctness (same cutoffs, same incumbent checks).
  CheckpointData snapshot() {
    CheckpointData d;
    d.fingerprint = ck_fingerprint_;
    {
      std::lock_guard<std::mutex> lk(mu_);
      d.nodes = base_nodes_ + nodes_.load(std::memory_order_relaxed);
      d.root_bound = best_known_bound_;
      d.degraded_nodes = degraded_nodes_;
      d.degraded_bound = degraded_bound_;
      for (const auto& q : queues_) {
        for (const auto& n : q) d.frontier.push_back({n->bound, n->retries, n->path});
      }
      for (const auto& n : inflight_node_) {
        if (n) d.frontier.push_back({n->bound, n->retries, n->path});
      }
    }
    {
      std::lock_guard<std::mutex> lk(incumbent_mu_);
      d.has_incumbent = has_incumbent_;
      if (has_incumbent_) {
        d.incumbent_obj = incumbent_obj_.load(std::memory_order_relaxed);
        d.incumbent_x = incumbent_x_;
      }
    }
    return d;
  }

  void write_checkpoint(obs::SpanBuffer* rec) {
    const CheckpointData d = snapshot();
    const bool ok = save_checkpoint(ck_file_, d);
    if (ck_reg_ != nullptr) {
      ck_reg_->counter(ok ? "milp.checkpoint.writes"
                          : "milp.checkpoint.write_failures").add();
      ck_reg_->gauge("milp.checkpoint.frontier")
          .set(static_cast<double>(d.frontier.size()));
    }
    if (rec != nullptr) {
      rec->emit(obs::EventType::Checkpoint, -1, static_cast<double>(d.frontier.size()));
    }
  }

  const Model& model_;
  const MilpOptions& opts_;
  const double granularity_;
  const std::vector<std::int32_t>& int_vars_;
  const double sense_flip_;
  const bool probe_;
  PseudoCosts& pseudocosts_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::shared_ptr<BBNode>>> queues_;  ///< one per worker
  std::int64_t queued_ = 0;  ///< total nodes across all deques
  int in_flight_ = 0;
  int waiters_ = 0;
  std::uint64_t next_id_ = 0;
  std::atomic<bool> stop_{false};
  SolveStatus stop_reason_ = SolveStatus::Optimal;

  std::mutex incumbent_mu_;
  std::atomic<double> incumbent_obj_{kInf};
  std::vector<double> incumbent_x_;
  bool has_incumbent_ = false;

  std::atomic<std::int64_t> nodes_{0};
  std::int64_t max_pool_nodes_ = std::numeric_limits<std::int64_t>::max();

  // Telemetry (all under mu_ except base_nodes_, set before workers start).
  std::vector<double> inflight_bound_;  ///< bound of each worker's node, kInf idle
  std::vector<std::shared_ptr<BBNode>> inflight_node_;  ///< under mu_; for snapshots
  std::int64_t steals_ = 0;
  std::int64_t base_nodes_ = 0;
  double best_known_bound_ = -kInf;

  // Recovery-ladder accounting (under mu_).
  std::int64_t degraded_nodes_ = 0;
  double degraded_bound_ = kInf;

  // Checkpointing (configured before workers start; due-time and the
  // single-writer election are atomics so workers race without the lock).
  std::string ck_file_;
  std::uint64_t ck_fingerprint_ = 0;
  obs::MetricsRegistry* ck_reg_ = nullptr;
  Clock::time_point ck_epoch_{};
  std::int64_t ck_interval_ns_ = 0;
  std::atomic<std::int64_t> ck_next_ns_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<bool> ck_writing_{false};
};

/// A worker of the tree search: a SimplexSolver (worker 0 borrows the root
/// solver, the others own one), dive-local bookkeeping, and statistics.
class Worker {
 public:
  /// Each worker's SimplexSolver gets a private copy of the LP options with
  /// its *own* recorder buffer, keeping every buffer single-writer.
  static SimplexOptions worker_lp_options(SimplexOptions lp, obs::SpanBuffer* rec) {
    lp.spans = rec;
    return lp;
  }

  /// `root_lp` non-null: dive on that solver, whose bounds are the fixed
  /// root frame. Otherwise build a private solver and replay `root_fixes`
  /// so its root bounds match the pool's reference frame.
  Worker(int id, SimplexSolver* root_lp, const Model& model,
         const MilpOptions& opts, NodePool& pool,
         const std::vector<std::int32_t>& int_vars,
         const std::vector<double>& obj_coef,
         const std::vector<BoundChange>& root_fixes, Clock::time_point deadline,
         obs::SpanBuffer* rec, obs::NodeLogger* logger, obs::MetricsRegistry* reg)
      : id_(id), opts_(opts), pool_(pool), int_vars_(int_vars),
        obj_coef_(obj_coef), deadline_(deadline),
        rec_(rec),
        logger_((logger != nullptr && logger->enabled()) ? logger : nullptr),
        reg_(reg) {
    if (root_lp == nullptr) {
      own_lp_ = std::make_unique<SimplexSolver>(
          model, worker_lp_options(opts.lp, rec));
      for (const BoundChange& f : root_fixes) own_lp_->set_bounds(f.col, f.lb, f.ub);
      root_lp = own_lp_.get();
    }
    lp_ = root_lp;
    for (std::size_t j = 0; j < model.num_vars(); ++j) {
      root_lb_.push_back(lp_->lower_bound(static_cast<std::int32_t>(j)));
      root_ub_.push_back(lp_->upper_bound(static_cast<std::int32_t>(j)));
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
      if (logger_ != nullptr && logger_->due()) pool_.log_line(logger_, rec_);
    }
    rewind();  // a borrowed root solver goes back to the fixed-root frame
    busy_seconds_ = thread_cpu_seconds() - cpu0;
  }

  [[nodiscard]] bool owns_solver() const { return own_lp_ != nullptr; }
  [[nodiscard]] std::int64_t nodes() const { return nodes_; }
  [[nodiscard]] std::int64_t steals() const { return steals_; }
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }
  [[nodiscard]] std::int64_t iterations() const { return lp_->iterations(); }
  [[nodiscard]] const SimplexSolver::ReoptStats& reopt_stats() const {
    return lp_->reopt_stats();
  }

 private:
  /// Restores the root bound of every column on the current path.
  void rewind() {
    for (const BoundChange& d : cur_path_) {
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
      const BoundChange& d = node.path.back();
      lp_->set_bounds(d.col, d.lb, d.ub);
      cur_path_.push_back(d);
    } else {
      rewind();
      cur_path_ = node.path;
      for (const BoundChange& d : cur_path_) lp_->set_bounds(d.col, d.lb, d.ub);
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
    const auto nid = static_cast<std::int64_t>(node.id);
    const double flip = pool_.sense_flip();
    if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::WorkerStall)) {
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
    if (Clock::now() >= deadline_ ||
        (opts_.cancel != nullptr &&
         opts_.cancel->load(std::memory_order_relaxed))) {
      // Expired budget and cooperative cancel stop identically: the node is
      // parked for the final checkpoint so a drain leaves a resumable file.
      pool_.request_stop(SolveStatus::TimeLimit);
      pool_.keep_for_checkpoint(id_, node);
      return;
    }
    if (!pool_.count_node()) {
      pool_.request_stop(SolveStatus::NodeLimit);
      pool_.keep_for_checkpoint(id_, node);
      return;
    }
    ++nodes_;
    if (rec_ != nullptr) rec_->emit(obs::EventType::NodeOpen, nid, flip * node.bound);
    if (node.bound >= pool_.cutoff()) {  // pruned by a newer incumbent, no LP
      close(nid, obs::NodeOutcome::Pruned, flip * node.bound);
      return;
    }

    const std::int64_t refactors0 = lp_->reopt_stats().refactors;
    rebase(node);
    // The node LP may stop as soon as its dual bound proves it prunable. The
    // tree is unchanged: the incumbent only improves, so the check below
    // would prune this node at its optimum too, and a stopped node has no
    // children, so the next pop reinstalls its own parent's basis (a resumed
    // node that ships none starts from the stopped one, which stays valid).
    const double cutoff = pool_.cutoff();
    SolveStatus st = SolveStatus::NumericalError;
    try {
      st = opts_.warm_start ? lp_->reoptimize_dual(cutoff) : lp_->solve_primal();
      if (st == SolveStatus::Optimal && opts_.fault != nullptr &&
          opts_.fault->fire(FaultSite::BadAlloc)) {
        throw std::bad_alloc{};
      }
    } catch (const std::bad_alloc&) {
      st = SolveStatus::NumericalError;  // enter the ladder below
    }
    if (st == SolveStatus::NumericalError) {
      st = run_recovery_ladder(*lp_, {reg_, rec_, nid}, cutoff);
    }
    if (st == SolveStatus::NumericalError) {
      // Both in-place rungs failed. Quarantine: re-enqueue the node for a
      // bounded number of fresh cold attempts (possibly on another worker's
      // solver, whose numerical state differs), then abandon the subtree —
      // its parent bound is folded into the global bound, never pruned away.
      if (node.retries < opts_.recover_max_retries) {
        auto retry = std::make_shared<BBNode>(node);
        retry->basis.reset();  // force a cold start on the next attempt
        retry->retries = node.retries + 1;
        if (reg_ != nullptr) reg_->counter("milp.recover.requeue").add();
        if (rec_ != nullptr) {
          rec_->emit(obs::EventType::Recover, nid, 0.0,
                     static_cast<std::uint8_t>(obs::RecoverRung::Requeue));
        }
        close(nid, obs::NodeOutcome::Requeued, flip * node.bound);
        pool_.push(id_, std::move(retry));
        return;
      }
      pool_.mark_abandoned(node.bound);
      if (reg_ != nullptr) reg_->counter("milp.recover.abandoned").add();
      if (rec_ != nullptr) {
        rec_->emit(obs::EventType::Recover, nid, 0.0,
                   static_cast<std::uint8_t>(obs::RecoverRung::Abandon));
      }
      close(nid, obs::NodeOutcome::Abandoned, flip * node.bound);
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
      pool_.pseudocosts().record(node.branch_col, node.branch_dir, node.branch_dist,
                                 obj - node.bound);
    }
    if (st == SolveStatus::Cutoff || obj >= pool_.cutoff()) {  // bound pruning
      close(nid, obs::NodeOutcome::Cutoff, flip * obj);
      return;
    }

    const std::vector<double> x = lp_->primal_solution();
    // The probe keeps the fixed rule, which its upward dive is tuned for.
    const std::int32_t bv =
        pool_.probe() ? cost_weighted_branch_var(x, int_vars_, obj_coef_, opts_.int_tol)
                      : pool_.pseudocosts().select(x, int_vars_, obj_coef_, opts_.int_tol);
    if (bv < 0) {
      if (pool_.try_incumbent(x, obj)) {
        if (rec_ != nullptr) rec_->emit(obs::EventType::Incumbent, nid, flip * obj);
        // The probe's job is done; Optimal marks the stop as no limit.
        if (pool_.probe()) pool_.request_stop(SolveStatus::Optimal);
      }
      close(nid, obs::NodeOutcome::Integer, flip * obj);
      return;
    }
    close(nid, obs::NodeOutcome::Branched, flip * obj);

    const double v = x[static_cast<std::size_t>(bv)];
    const double lb0 = lp_->lower_bound(bv);
    const double ub0 = lp_->upper_bound(bv);
    const double down_ub = std::floor(v + opts_.int_tol);
    const double up_lb = std::ceil(v - opts_.int_tol);
    // Dive toward the nearest integer first; the probe leans upward —
    // architecture MILPs are covering-style, and instantiating components
    // reaches feasibility much faster than pruning them.
    const double up_threshold = pool_.probe() ? 0.15 : 0.5;
    const double f = v - std::floor(v);
    const bool down_first = f < up_threshold;

    std::shared_ptr<const SimplexSolver::Basis> basis;
    if (opts_.warm_start) {
      SimplexSolver::Basis b = lp_->export_basis();
      // Ship the factorization only when this node did not refactorize: it
      // then extends the one its parent's snapshot already holds, so the
      // open siblings of a dive share one LU and one eta prefix. After a
      // refactorization, pinning the new LU per level would cost memory for
      // little gain — the kernel is refactorizing at node rate anyway — so
      // the children refactorize on load instead.
      if (lp_->reopt_stats().refactors != refactors0) b.factor = nullptr;
      basis = std::make_shared<const SimplexSolver::Basis>(std::move(b));
    }
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
  const MilpOptions& opts_;
  NodePool& pool_;
  const std::vector<std::int32_t>& int_vars_;
  const std::vector<double>& obj_coef_;
  const Clock::time_point deadline_;
  obs::SpanBuffer* rec_;  ///< this worker's recorder buffer; null = off
  obs::NodeLogger* logger_;
  obs::MetricsRegistry* reg_;
  std::unique_ptr<SimplexSolver> own_lp_;  ///< null for the root solver's worker
  SimplexSolver* lp_;
  std::vector<double> root_lb_, root_ub_;
  std::vector<BoundChange> cur_path_;
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
/// frontier when resuming. Results fold back into `ctx` and `sol`. Returns
/// true when the probe stopped at an incumbent, i.e. the search goes on.
bool run_pool(SearchCtx& ctx, Solution& sol, int threads, bool probe) {
  const Model& work = ctx.model;
  const MilpOptions& opts = ctx.opts;
  const CheckpointData* resume = probe ? nullptr : ctx.resume;
  NodePool pool(work, opts, ctx.granularity, ctx.int_vars, ctx.sense_flip,
                threads, probe, ctx.pseudocosts);
  if (!probe && !opts.checkpoint_file.empty()) {
    pool.configure_checkpoint(opts.checkpoint_file, opts.checkpoint_interval_s,
                              ctx.ck_fingerprint, ctx.reg);
  }
  if (ctx.has_incumbent) pool.seed_incumbent(ctx.incumbent_obj, ctx.incumbent_x);
  // ctx already folded any resumed checkpoint's degradation record; seeding
  // it here keeps abandoned-subtree accounting in this pool's snapshots.
  pool.seed_degraded(ctx.degraded_nodes, ctx.degraded_bound);
  // Nodes charged by a resumed run count against max_nodes too, so the
  // budget continues across a kill/resume instead of restarting.
  const std::int64_t charged =
      resume != nullptr ? std::max(ctx.nodes, resume->nodes) : ctx.nodes;
  pool.set_node_budget(opts.max_nodes - charged);
  pool.set_next_id(std::max(ctx.next_id, static_cast<std::uint64_t>(charged)));
  // Node-log totals: a resume restarts them from the checkpoint's count.
  pool.set_base_nodes(resume != nullptr ? resume->nodes : ctx.nodes);
  pool.set_root_bound(resume != nullptr ? resume->root_bound : ctx.root_bound);

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

  // Reference frame for the private solvers (workers 1..threads-1): the
  // root solver's bounds already include the reduced-cost fixes, so node
  // paths stay relative to the fixed root.
  std::vector<BoundChange> root_fixes;
  for (std::size_t j = 0; threads > 1 && j < work.num_vars(); ++j) {
    const auto col = static_cast<std::int32_t>(j);
    const double lb = ctx.lp.lower_bound(col);
    const double ub = ctx.lp.upper_bound(col);
    if (lb != work.vars()[j].lb || ub != work.vars()[j].ub) {
      root_fixes.push_back({col, lb, ub});
    }
  }

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    // Each worker writes its own recorder buffer (worker 0 is the calling
    // thread, which is also the recorder's buffer-0 owner — same thread,
    // single-writer holds).
    workers.push_back(std::make_unique<Worker>(
        t, t == 0 ? &ctx.lp : nullptr, work, opts, pool, ctx.int_vars, ctx.obj_coef,
        root_fixes, ctx.deadline, recorder_buffer(opts, t), ctx.logger, ctx.reg));
  }
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
  pool.write_final_checkpoint(recorder_buffer(opts, 0));

  // Fold results back into the context. Node counts come from the workers
  // (the pool's atomic budget counter can overshoot by one racing increment
  // per worker at the node limit).
  if (resume != nullptr) ctx.nodes = resume->nodes;
  for (const auto& w : workers) ctx.nodes += w->nodes();
  ctx.next_id = pool.next_id();
  // The pool was seeded with ctx's pre-run record, so its counters are the
  // totals — assign, don't accumulate.
  ctx.degraded_nodes = pool.degraded_nodes();
  ctx.degraded_bound = pool.degraded_bound();
  const bool hit_incumbent = pool.stopped() && pool.stop_reason() == SolveStatus::Optimal;
  if (pool.stopped() && !hit_incumbent) {
    ctx.stopped = true;
    ctx.stop_reason = pool.stop_reason();
  }
  if (pool.has_incumbent()) {
    ctx.has_incumbent = true;
    ctx.incumbent_obj = pool.incumbent();
    ctx.incumbent_x = std::move(pool.incumbent_x());
  }

  sol.threads_used = threads;
  sol.nodes_per_worker.resize(workers.size());
  for (std::size_t t = 0; t < workers.size(); ++t) {
    const Worker& w = *workers[t];
    sol.nodes_per_worker[t] += w.nodes();
    sol.steals += w.steals();
    sol.cpu_seconds += w.busy_seconds();
    // The root solver's counters are folded once, at the end of solve_milp.
    if (!w.owns_solver()) continue;
    sol.simplex_iterations += w.iterations();
    sol.warm_dual_nodes += w.reopt_stats().dual_fast;
    sol.warm_repair_nodes += w.reopt_stats().repaired;
    sol.cold_nodes += w.reopt_stats().cold;
    ctx.pool_refactors += w.reopt_stats().refactors;
    ctx.pool_transplants += w.reopt_stats().transplants;
    ctx.pool_lp_cutoffs += w.reopt_stats().cutoffs;
  }
  return hit_incumbent;
}

}  // namespace

Solution solve_milp(const Model& model, const MilpOptions& options) {
  const auto t0 = Clock::now();
  Solution sol;

  // --- telemetry setup (all optional; null/disabled hooks cost nothing) ---
  const int threads_req = resolve_threads(options.num_threads);
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry* reg = options.metrics != nullptr ? options.metrics
                                                         : &local_registry;
  // The recorder: buffer 0 is the calling thread's (phase spans, root
  // events, the root solver's kernel spans); workers get their own buffers,
  // armed here, before any thread spawns. The mark bounds this solve's
  // share of a recording that may span several solves.
  obs::SpanProfiler* const profiler = options.profiler;
  obs::SpanProfiler::Mark solve_mark;
  if (profiler != nullptr) {
    profiler->arm_workers(std::max(threads_req, 1));
    solve_mark = profiler->mark();
  }
  obs::SpanBuffer* const root_rec = recorder_buffer(options, 0);
  if (root_rec != nullptr) {
    root_rec->emit(obs::EventType::SolveStart, -1, static_cast<double>(threads_req));
  }
  obs::NodeLogger logger(options.log_interval, options.log_sink, t0);
  // Final bookkeeping, shared by every return path. Expects `solve_seconds`
  // (and the threads==1 cpu_seconds mirror) to be set already — finish()
  // must not move the clock, callers pin cpu_seconds == solve_seconds.
  auto finish = [&](Solution& s) {
    s.term_reason = term_reason_from(s.status);
    reg->counter("milp.nodes").add(s.nodes_explored);
    reg->counter("milp.simplex_iterations").add(s.simplex_iterations);
    reg->counter("milp.steals").add(s.steals);
    reg->counter("milp.warm_dual").add(s.warm_dual_nodes);
    reg->counter("milp.warm_repair").add(s.warm_repair_nodes);
    reg->counter("milp.cold_restarts").add(s.cold_nodes);
    reg->gauge("milp.threads").set(static_cast<double>(s.threads_used));
    if (s.degraded_nodes > 0) {
      reg->gauge("milp.degraded_nodes")
          .set(static_cast<double>(s.degraded_nodes));
    }
    if (s.has_incumbent) {
      reg->gauge("milp.objective").set(s.objective);
      reg->gauge("milp.gap_abs").set(std::abs(s.objective - s.best_bound));
    }
    if (root_rec != nullptr) {
      root_rec->emit(obs::EventType::SolveEnd, -1, s.has_incumbent ? s.objective : kNan);
    }
    if (profiler != nullptr) {
      s.trace = profiler->trace_since(solve_mark);
      s.trace.dropped = profiler->take_dropped();
      reg->counter("milp.records_dropped").add(s.trace.dropped);
    }
    s.metrics = reg->snapshot();
  };

  // The one conversion point of the solve's budget (milp/budget.hpp): the
  // relative allowance measured from solve entry, capped by its absolute
  // end. A budget already spent at entry — an allowance <= 0, an end the
  // lazy loop or an admission queue has already passed — returns before
  // presolve touches the model: TimeLimit with zero nodes, not a presolve
  // bill the caller can no longer afford.
  const Clock::time_point deadline = options.budget.deadline_from(t0);
  if (Clock::now() >= deadline) {
    sol.status = SolveStatus::TimeLimit;
    sol.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (threads_req == 1) sol.cpu_seconds = sol.solve_seconds;
    finish(sol);
    return sol;
  }

  // --- presolve ---
  PresolveResult pre;
  const Model* work = &model;
  if (options.use_presolve) {
    obs::ScopedSpan presolve_span(root_rec,
                                  obs::span_id(obs::SpanName::Presolve));
    obs::ScopedTimer presolve_timer(&reg->timer("milp.phase.presolve"),
                                    &sol.phases.presolve);
    pre = presolve(model);
    presolve_timer.stop();
    presolve_span.stop();
    // Caller-space row indices: `model` is the caller's model, so these feed
    // arch-level per-pattern attribution directly.
    sol.presolve_removed_rows = pre.removed_rows;
    reg->counter("milp.presolve.rows_removed").add(
        static_cast<std::int64_t>(pre.rows_removed));
    reg->counter("milp.presolve.vars_fixed").add(
        static_cast<std::int64_t>(pre.vars_fixed));
    reg->counter("milp.presolve.bounds_tightened").add(
        static_cast<std::int64_t>(pre.bounds_tightened));
    reg->counter("milp.presolve.strengthen_tightened").add(
        static_cast<std::int64_t>(pre.strengthen_tightened));
    reg->counter("milp.presolve.strengthen_fixed").add(
        static_cast<std::int64_t>(pre.strengthen_fixed));
    reg->counter("milp.presolve.rhs_strengthened").add(
        static_cast<std::int64_t>(pre.rhs_strengthened));
    if (pre.infeasible) {
      sol.status = SolveStatus::Infeasible;
      sol.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
      finish(sol);
      return sol;
    }
    work = &pre.reduced;
  }

  // --- checkpoint / resume ---
  const bool ck_enabled = !options.checkpoint_file.empty();
  std::uint64_t ck_fp = 0;
  CheckpointData ckdata;
  bool resume_ok = false;
  if (ck_enabled) {
    ck_fp = model_fingerprint(*work);
    if (options.resume) {
      CheckpointData loaded;
      bool ok = load_checkpoint(options.checkpoint_file, loaded);
      if (ok) ok = loaded.fingerprint == ck_fp;
      if (ok && loaded.has_incumbent) {
        // Distrust the file: the vector must fit the reduced model and
        // actually be feasible before it may prune this run's search.
        ok = loaded.incumbent_x.size() == work->num_vars() &&
             work->feasible(loaded.incumbent_x);
      }
      for (std::size_t i = 0; ok && i < loaded.frontier.size(); ++i) {
        for (const BoundDelta& d : loaded.frontier[i].path) {
          if (d.col < 0 ||
              static_cast<std::size_t>(d.col) >= work->num_vars()) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        resume_ok = true;
        ckdata = std::move(loaded);
        reg->gauge("milp.checkpoint.loaded").set(1.0);
        reg->gauge("milp.checkpoint.frontier_loaded")
            .set(static_cast<double>(ckdata.frontier.size()));
      } else {
        // Missing, corrupt, or from a different model: start fresh.
        reg->gauge("milp.checkpoint.rejected").set(1.0);
      }
    }
  }

  MilpOptions node_options = options;
  node_options.lp.deadline = deadline;  // simplex loops honor the wall clock
  if (node_options.lp.cancel == nullptr) node_options.lp.cancel = options.cancel;
  if (node_options.lp.spans == nullptr) node_options.lp.spans = root_rec;
  if (node_options.lp.fault == nullptr) node_options.lp.fault = options.fault;
  SearchCtx ctx(*work, node_options);
  ctx.granularity = objective_granularity(*work);
  ctx.deadline = deadline;
  ctx.logger = logger.enabled() ? &logger : nullptr;
  ctx.reg = reg;
  ctx.ck_fingerprint = ck_fp;
  if (resume_ok) {
    // Carry the checkpointed degradation record: subtrees the interrupted
    // run abandoned stay folded into this run's bound (and Solution flags),
    // even if the tree phase never starts again.
    ctx.resume = &ckdata;
    ctx.degraded_nodes = ckdata.degraded_nodes;
    ctx.degraded_bound = std::min(ctx.degraded_bound, ckdata.degraded_bound);
  }
  if (resume_ok && ckdata.has_incumbent) {
    // Seed the checkpointed incumbent (internal minimize sense, like the
    // pool stores it) without firing on_incumbent — it is not a new find.
    ctx.has_incumbent = true;
    ctx.incumbent_obj = ckdata.incumbent_obj;
    ctx.incumbent_x = ckdata.incumbent_x;
  }

  // Every incumbent improvement — root heuristic, probe, or pool worker
  // (serialized under the incumbent lock) — lands in
  // the trajectory before the user callback fires. Installed after the ctx
  // exists so it can read the current root bound.
  node_options.on_incumbent = [&](double obj) {
    sol.incumbent_trajectory.push_back(
        {std::chrono::duration<double>(Clock::now() - t0).count(), obj,
         ctx.sense_flip * ctx.root_bound});
    reg->counter("milp.incumbents").add();
    if (options.on_incumbent) options.on_incumbent(obj);
  };

  // Cross-solve warm start (milp/warm_start.hpp). The hint only lines up
  // with the model the caller sees, so it is unusable under presolve (the
  // reduced column space differs per call) — gate, count, and drop it.
  const WarmStartHint* hint = options.warm_hint;
  if (hint != nullptr && options.use_presolve) {
    reg->counter("milp.warm_hint.skipped_presolve").add();
    hint = nullptr;
  }
  if (hint != nullptr && !hint->x.empty() && hint->x.size() == work->num_vars()) {
    // Seed the previous scenario's optimum through the ordinary incumbent
    // channel: try_incumbent snaps integers and re-validates feasibility, so
    // a vector the scenario delta made infeasible is simply rejected.
    double hint_obj = work->objective().constant();
    for (const Term& t : work->objective().terms()) {
      hint_obj += t.coef * hint->x[static_cast<std::size_t>(t.var.index)];
    }
    if (ctx.try_incumbent(hint->x, ctx.sense_flip * hint_obj)) {
      reg->counter("milp.warm_hint.incumbent_seeded").add();
    }
  }

  // --- root solve ---
  obs::ScopedSpan root_span(root_rec, obs::span_id(obs::SpanName::RootLp));
  obs::ScopedTimer root_timer(&reg->timer("milp.phase.root_lp"),
                              &sol.phases.root_lp);
  if (root_rec != nullptr) root_rec->emit(obs::EventType::NodeOpen, 1, kNan);
  // A hinted basis warm-starts the root with the dual simplex (bound/RHS
  // deltas preserve dual feasibility; objective deltas are repaired or fall
  // cold inside reoptimize_dual). A basis that no longer fits the model is
  // rejected by load_basis and the root solves cold — deterministically.
  bool warm_root = false;
  if (hint != nullptr && hint->basis != nullptr) {
    if (ctx.lp.load_basis(*hint->basis)) {
      warm_root = true;
      reg->counter("milp.warm_hint.basis_loaded").add();
    } else {
      reg->counter("milp.warm_hint.basis_rejected").add();
    }
  }
  SolveStatus st = warm_root ? ctx.lp.reoptimize_dual() : ctx.lp.solve_primal();
  if (warm_root && st == SolveStatus::NumericalError) {
    reg->counter("milp.warm_hint.cold_fallback").add();
    warm_root = false;
    st = ctx.lp.solve_primal();
  }
  sol.warm_started = warm_root;
  ctx.nodes = 1;
  ctx.next_id = 1;
  if (st == SolveStatus::NumericalError) {
    // The initial root solve gets the same first two ladder rungs as every
    // node LP; there is no parent bound to abandon into, so if both rungs
    // fail the error surfaces as the solve status below.
    st = run_recovery_ladder(ctx.lp, {reg, root_rec, 1});
  }
  root_timer.stop();
  root_span.stop();
  if (st == SolveStatus::Optimal) {
    ctx.root_bound = ctx.lp.objective_value();
    if (root_rec != nullptr) {
      root_rec->emit(obs::EventType::Bound, 1, ctx.sense_flip * ctx.root_bound);
    }
    reg->gauge("milp.root_bound").set(ctx.sense_flip * ctx.root_bound);
    if (options.export_basis || options.warm_start) {
      // Snapshot *now*, before reduced-cost fixing or the probe mutate
      // bounds/basis: the pool's root node warm-starts from it, and it is the
      // handle the next scenario of a sweep loads (Solution::final_basis).
      ctx.root_basis = std::make_shared<const Basis>(ctx.lp.export_basis());
      if (options.export_basis) sol.final_basis = ctx.root_basis;
    }
    const std::vector<double> x = ctx.lp.primal_solution();

    // Root reduced-cost fixing (applied lazily once an incumbent exists):
    // a nonbasic integer column whose root reduced cost alone pushes the
    // root bound past the cutoff can be fixed at its root bound for the
    // whole search. Root data is captured *now*, before any probe dive
    // disturbs the basis.
    const std::vector<double> root_d = ctx.lp.reduced_costs();
    std::vector<SimplexSolver::BoundStatus> root_status(work->num_vars());
    for (std::size_t j = 0; j < work->num_vars(); ++j) {
      root_status[j] = ctx.lp.column_status(static_cast<std::int32_t>(j));
    }
    auto fix_by_reduced_cost = [&] {
      if (!ctx.has_incumbent) return;
      const double cutoff = ctx.incumbent_obj -
                            std::max(options.gap_abs, ctx.granularity - 1e-6);
      for (std::int32_t j : ctx.int_vars) {
        const double lb = ctx.lp.lower_bound(j);
        const double ub = ctx.lp.upper_bound(j);
        if (ub - lb < 0.5) continue;  // already fixed
        // reduced_costs() reports model sense; the fixing math is in the
        // engine's minimize sense.
        const double dj = ctx.sense_flip * root_d[static_cast<std::size_t>(j)];
        if (root_status[static_cast<std::size_t>(j)] == SimplexSolver::BoundStatus::AtLower &&
            dj > 0 && ctx.root_bound + dj > cutoff + 1e-9) {
          ctx.lp.set_bounds(j, lb, lb);
        } else if (root_status[static_cast<std::size_t>(j)] ==
                       SimplexSolver::BoundStatus::AtUpper &&
                   dj < 0 && ctx.root_bound - dj > cutoff + 1e-9) {
          ctx.lp.set_bounds(j, ub, ub);
        }
      }
    };

    if (ctx.pick_branch_var(x) < 0) {
      const bool improved = ctx.try_incumbent(x, ctx.lp.objective_value());
      if (root_rec != nullptr) {
        if (improved) {
          root_rec->emit(obs::EventType::Incumbent, 1, ctx.sense_flip * ctx.incumbent_obj);
        }
        root_rec->emit(obs::EventType::NodeClose, 1, ctx.sense_flip * ctx.root_bound,
                       static_cast<std::uint8_t>(obs::NodeOutcome::Integer));
      }
    } else {
      if (root_rec != nullptr) {
        root_rec->emit(obs::EventType::NodeClose, 1, ctx.sense_flip * ctx.root_bound,
                       static_cast<std::uint8_t>(obs::NodeOutcome::Branched));
      }
      bool search_left = true;
      {
        obs::ScopedSpan heur_span(root_rec,
                                  obs::span_id(obs::SpanName::Heuristic));
        obs::ScopedTimer heur_timer(&reg->timer("milp.phase.heuristic"),
                                    &sol.phases.heuristic);
        if (options.rounding_heuristic) {
          // Root rounding heuristic: snap and test.
          std::vector<double> xr = x;
          double obj = work->objective().constant();
          for (std::int32_t j : ctx.int_vars) {
            xr[static_cast<std::size_t>(j)] = std::round(xr[j]);
          }
          for (const Term& t : work->objective().terms()) {
            obj += t.coef * xr[static_cast<std::size_t>(t.var.index)];
          }
          const bool improved =
              ctx.try_incumbent(std::move(xr), ctx.sense_flip * obj);  // minimize sense
          if (improved && root_rec != nullptr) {
            root_rec->emit(obs::EventType::Incumbent, -1, ctx.sense_flip * ctx.incumbent_obj);
          }
        }
        // Probe: a pool run that stops at its first incumbent, so reduced-
        // cost fixing can prune the main search below. A probe that ends
        // without one has exhausted the tree or hit a limit.
        if (!ctx.has_incumbent) search_left = run_pool(ctx, sol, 1, /*probe=*/true);
      }
      obs::ScopedSpan tree_span(root_rec, obs::span_id(obs::SpanName::Tree));
      obs::ScopedTimer tree_timer(&reg->timer("milp.phase.tree"),
                                  &sol.phases.tree);
      if (search_left) {
        fix_by_reduced_cost();
        run_pool(ctx, sol, threads_req, /*probe=*/false);
      }
      tree_timer.stop();
      tree_span.stop();
    }
  } else if (st == SolveStatus::Infeasible) {
    sol.status = SolveStatus::Infeasible;
    if (root_rec != nullptr) {
      root_rec->emit(obs::EventType::NodeClose, 1, kNan,
                     static_cast<std::uint8_t>(obs::NodeOutcome::Infeasible));
    }
  } else if (st == SolveStatus::Unbounded) {
    sol.status = SolveStatus::Unbounded;
    if (root_rec != nullptr) {
      root_rec->emit(obs::EventType::NodeClose, 1, kNan,
                     static_cast<std::uint8_t>(obs::NodeOutcome::Limit));
    }
  } else {
    sol.status = st;
    if (root_rec != nullptr) {
      root_rec->emit(obs::EventType::NodeClose, 1, kNan,
                     static_cast<std::uint8_t>(obs::NodeOutcome::Limit));
    }
  }

  // Pool runs folded their private solvers' counters into `sol`; the root
  // solver, shared by worker 0 of every run, is counted once, here.
  sol.simplex_iterations += ctx.lp.iterations();
  sol.nodes_explored = ctx.nodes;
  sol.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  sol.warm_dual_nodes += ctx.lp.reopt_stats().dual_fast;
  sol.warm_repair_nodes += ctx.lp.reopt_stats().repaired;
  sol.cold_nodes += ctx.lp.reopt_stats().cold;
  reg->counter("milp.refactors")
      .add(ctx.pool_refactors + ctx.lp.reopt_stats().refactors);
  reg->counter("milp.basis_transplants")
      .add(ctx.pool_transplants + ctx.lp.reopt_stats().transplants);
  reg->counter("milp.lp_cutoff")
      .add(ctx.pool_lp_cutoffs + ctx.lp.reopt_stats().cutoffs);
  reg->counter("milp.pseudocost.updates").add(ctx.pseudocosts.updates());
  reg->counter("milp.branch.fallback").add(ctx.pseudocosts.fallbacks());
  if (sol.threads_used == 1) {
    sol.nodes_per_worker.assign(1, ctx.nodes);
    sol.cpu_seconds = sol.solve_seconds;
  }

  if (st == SolveStatus::Optimal) {
    obs::ScopedSpan extract_span(root_rec,
                                 obs::span_id(obs::SpanName::MilpExtract));
    obs::ScopedTimer extract_timer(&reg->timer("milp.phase.extract"),
                                   &sol.phases.extract);
    // Abandoned subtrees (ladder exhausted) cap the proven bound at their
    // parents' bounds — the min below keeps the reported gap sound.
    sol.degraded_nodes = ctx.degraded_nodes;
    sol.degraded = ctx.degraded_nodes > 0;
    if (ctx.has_incumbent) {
      sol.status = ctx.stopped ? ctx.stop_reason : SolveStatus::Optimal;
      sol.has_incumbent = true;
      sol.objective = ctx.sense_flip * ctx.incumbent_obj;
      sol.best_bound =
          ctx.sense_flip *
          std::min(ctx.stopped ? ctx.root_bound : ctx.incumbent_obj,
                   ctx.degraded_bound);
      std::vector<double> x = ctx.incumbent_x;
      sol.x = options.use_presolve ? pre.postsolve(x) : std::move(x);
    } else {
      // Degraded and empty-handed: the abandoned subtrees may hide feasible
      // points, so "Infeasible" would be an unsound claim.
      sol.status = ctx.stopped ? ctx.stop_reason
                   : sol.degraded ? SolveStatus::NumericalError
                                  : SolveStatus::Infeasible;
      sol.best_bound =
          ctx.sense_flip * std::min(ctx.root_bound, ctx.degraded_bound);
    }
    extract_timer.stop();
  }

  // Independent certification of the answer we are about to return: primal
  // residuals against the original (pre-presolve) model always; dual
  // feasibility + complementary slackness when this was a pure LP solved
  // without presolve (row indices then match the engine's duals).
  if (options.certify && sol.has_incumbent) {
    check::CertifyOptions copts;
    copts.feas_tol = options.certify_tol;
    copts.int_tol = std::max(options.int_tol, options.certify_tol);
    copts.obj_tol = options.certify_tol;
    copts.dual_tol = options.certify_tol;
    check::Certificate cert;
    if (ctx.int_vars.empty() && !options.use_presolve &&
        sol.status == SolveStatus::Optimal) {
      cert = check::certify_lp(model, sol.x, sol.objective, ctx.lp.dual_values(),
                               ctx.lp.reduced_costs(), copts);
    } else {
      cert = check::certify(model, sol.x, sol.objective, copts);
    }
    reg->gauge("check.certify.ok").set(cert.ok() ? 1.0 : 0.0);
    reg->gauge("check.certify.max_row_violation").set(cert.max_row_violation);
    reg->gauge("check.certify.max_bound_violation").set(cert.max_bound_violation);
    reg->gauge("check.certify.max_int_violation").set(cert.max_int_violation);
    reg->gauge("check.certify.objective_error").set(cert.objective_error);
    if (cert.duals_checked) {
      reg->gauge("check.certify.max_dual_violation").set(cert.max_dual_violation);
      reg->gauge("check.certify.max_slackness_violation")
          .set(cert.max_slackness_violation);
    }
  }
  if (logger.enabled()) {
    obs::NodeLogger::Line line;
    line.nodes = sol.nodes_explored;
    line.open = 0;
    line.has_incumbent = sol.has_incumbent;
    line.incumbent = sol.objective;
    line.best_bound = sol.best_bound;
    line.steals = sol.steals;
    logger.log_final(line);
  }
  finish(sol);
  return sol;
}

}  // namespace archex::milp

/// \file branch_bound.hpp
/// Branch & bound MILP solver on top of the bounded-variable simplex.
///
/// One open-node pool searched by LIFO-diving workers with warm-started
/// dual-simplex node solves: branching only changes variable bounds, which
/// preserves dual feasibility of the parent basis, so each node typically
/// reoptimizes in a handful of pivots. A root rounding heuristic and a probe
/// run of the pool seed the incumbent. This is the "Solver" box
/// of Figure 1 in the paper (the role CPLEX plays for the original toolbox).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "milp/budget.hpp"
#include "milp/model.hpp"
#include "milp/simplex.hpp"
#include "milp/warm_start.hpp"
#include "obs/metrics.hpp"

namespace archex::milp {

/// Branch & bound configuration.
struct MilpOptions {
  std::int64_t max_nodes = 10'000'000;
  /// The one time knob (milp/budget.hpp): a relative allowance measured
  /// from `solve_milp` entry and/or an absolute end (`Budget::until`),
  /// converted to one deadline at solve entry. A budget already spent at
  /// entry — `seconds <= 0`, or an `end` already passed — returns
  /// `TimeLimit` with zero nodes before presolve runs. The arch layer's lazy
  /// loops pass `Budget::until(...)` so every re-solve shares one end.
  Budget budget = Budget::unlimited();
  /// Cooperative cancellation token, polled wherever the deadline is polled
  /// (simplex iteration loops every 256 iterations, each B&B node boundary).
  /// Setting the pointed-to flag stops the solve exactly like an expired
  /// deadline: the best incumbent and a sound `best_bound` are returned with
  /// status `TimeLimit`, and — when checkpointing is armed — the surviving
  /// frontier is written so the solve is resumable. This is how
  /// `serve::ExplorationService` preempts in-flight solves on drain. Null
  /// (the default) costs one pointer test per poll site.
  const std::atomic<bool>* cancel = nullptr;
  bool use_presolve = true;
  /// Optional cross-solve warm start (milp/warm_start.hpp): a previous
  /// solve's root basis and/or incumbent vector, typically from the prior
  /// scenario of a compiled-model sweep, and/or its pseudo-cost table,
  /// carried by the lazy loop from one re-solve to the next. The basis is
  /// installed into the root LP and reoptimized with the dual simplex; a
  /// hint that no longer fits the model (structure changed) or has decayed
  /// numerically falls back to a cold primal root deterministically. Basis
  /// and x are honored only when `use_presolve` is false — presolve's
  /// reduced column space differs per call, so they would not line up; the
  /// pseudo-cost table is mapped through it and honored either way.
  /// Non-owning; must outlive the call. Null (the default) is the ordinary
  /// cold root with an empty pseudo-cost table.
  const WarmStartHint* warm_hint = nullptr;
  /// Export the root LP's optimal basis into `Solution::final_basis` so the
  /// caller can warm-start the next structurally identical solve. Off by
  /// default (the snapshot copies the status vectors and pins the LU
  /// factorization snapshot).
  bool export_basis = false;
  /// Workers of the tree search's open-node pool. 1 (the default) runs the
  /// pool on the calling thread alone: a LIFO dive whose node order, counts
  /// and incumbents are deterministic on any host. >= 2 adds worker threads
  /// with private SimplexSolvers that steal best-bound nodes, warm-starting
  /// each from the basis snapshot exported when its parent was branched;
  /// the optimum stays deterministic, the path does not. 0 = one worker per
  /// hardware thread (std::thread::hardware_concurrency), as an opt-in. The
  /// root phase (root LP, rounding heuristic, probe, reduced-cost fixing)
  /// runs on the calling thread at every setting.
  int num_threads = 1;
  /// LP engine settings of the root and node solvers. `solve_milp` sets the
  /// run-control fields (`deadline`, `cancel`, `spans`, `fault`) from
  /// `budget`, `cancel`, `profiler` and `fault`, overwriting any value here.
  SimplexOptions lp{};
  /// CPLEX-style live node log: a progress line roughly every
  /// `log_interval` seconds to `log_sink`. Both must be set (interval > 0,
  /// sink non-null) to enable; off by default.
  double log_interval = 0.0;
  std::ostream* log_sink = nullptr;
  /// Metrics registry to report into (phase timers, node/steal/pivot
  /// counters; see docs/observability.md for the names). Null = the solve
  /// uses a private registry, snapshotted into `Solution::metrics` either
  /// way. The arch `Problem` passes its own so encode and solve share one.
  obs::MetricsRegistry* metrics = nullptr;
  /// Run the independent solution certifier (check::certify — a code path
  /// disjoint from the simplex) on the final incumbent: every row of the
  /// *original pre-presolve* model, bounds, integrality and the objective
  /// value are re-verified, and the residuals land in Solution::metrics
  /// under `check.certify.*` (`check.certify.ok` is 1.0 when the answer
  /// certifies). Pure-LP solves without presolve additionally certify dual
  /// feasibility and complementary slackness. On by default — the cost is
  /// one pass over the matrix per solve; see docs/diagnostics.md.
  bool certify = true;
  /// Deterministic fault-injection plan shared by the root solver and every
  /// worker (copied into `lp.fault`). Null — the default — is zero-cost. See
  /// milp/fault.hpp and docs/diagnostics.md.
  FaultPlan* fault = nullptr;
  /// Checkpoint/resume. A non-empty path makes the tree phase periodically
  /// serialize the incumbent, global bound and open-node frontier to this
  /// file (write-temp-then-rename; format in docs/solver.md).
  std::string checkpoint_file{};
  /// Seconds between checkpoint writes; <= 0 checkpoints after every node
  /// (tests and kill-resume drills).
  double checkpoint_interval_s = 30.0;
  /// Resume from `checkpoint_file` when it exists and its model fingerprint
  /// matches; otherwise (missing/corrupt/mismatched) the solve starts fresh
  /// and sets the `milp.checkpoint.rejected` metric.
  bool resume = false;
  /// Optional recorder (obs/span.hpp), the one switch for spans and search
  /// events. Attached, it records the phase spans (presolve / root LP /
  /// heuristic / tree / extract) and the root events on the caller's buffer
  /// 0, and each worker's node / incumbent / steal / recover events and
  /// sampled simplex kernel spans on that worker's own buffer (set as its
  /// solver's `lp.spans`); the solve's share of the recording comes back as
  /// `Solution::trace`. The recorder outlives the solve and may span several
  /// (lazy-constraint) solves; its constructor capacity bounds each buffer,
  /// and records dropped to a full buffer surface per solve as
  /// `Trace::dropped` and the `milp.records_dropped` counter. Null — the
  /// default — keeps every span and event site at a single pointer test.
  /// Exports: `Trace::write_jsonl` (`milp_solve --trace-json`) and
  /// SpanProfiler::write_chrome_trace (`milp_solve --profile-json`).
  obs::SpanProfiler* profiler = nullptr;
};

/// Solves the mixed integer program `model`. The returned solution vector is
/// in the original (pre-presolve) variable space.
Solution solve_milp(const Model& model, const MilpOptions& options = {});

}  // namespace archex::milp

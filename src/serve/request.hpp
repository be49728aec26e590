/// \file request.hpp
/// Wire schema of the exploration service: one request and one response per
/// NDJSON line. docs/serving.md is the field-by-field reference; this header
/// is the source of truth for defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace archex::serve {

/// One scenario of a compiled-model request: the wire form of
/// `arch::Scenario`'s parameter deltas (serve stays arch-agnostic in this
/// header; the service converts). All fields are optional on the wire.
struct ScenarioSpec {
  std::string name;
  /// Library component name -> multiplicative cost scale.
  std::map<std::string, double> cost_scale;
  double edge_cost_scale = 1.0;
  /// Library components toggled unavailable (mapping binaries fixed to 0).
  std::vector<std::string> unavailable;
  /// Constraint name -> new right-hand side.
  std::map<std::string, double> rhs;

  /// Parses a scenario object ({"name", "cost_scale", "edge_cost_scale",
  /// "unavailable", "rhs"}). Returns nullopt and a reason on bad types.
  static std::optional<ScenarioSpec> from_json(const obs::Json& j, std::string* err);
  [[nodiscard]] obs::Json to_json() const;
};

/// One exploration request. The model source is exactly one of `lp_file`
/// (CPLEX-LP path), `lp` (inline LP text), or `domain` ("epn" / "rpl",
/// the built-in case studies).
struct Request {
  std::string id;  ///< caller-chosen correlation id; must be non-empty

  /// Operation. Empty or "explore" is the classic encode+solve request.
  /// The compiled-pipeline ops (docs/pipeline.md) require a `domain` source
  /// (they need the arch-layer artifact, not a bare LP) and reject the
  /// explore-only keys (`lazy`, `inject`, `checkpoint`, `resume`,
  /// `retries`), which the compiled path has no use for:
  ///   * "compile"        — encode once, cache, return the fingerprint;
  ///   * "solve_compiled" — solve `scenario` against the cached artifact;
  ///   * "sweep"          — solve the `sweep` scenarios sequentially,
  ///     warm-starting each from the previous optimal basis.
  std::string op;

  std::string lp_file;
  std::string lp;
  std::string domain;
  bool lazy = false;  ///< EPN only: lazy iterative scheme instead of eager
  /// EPN only: instance scale — "tiny" (the k = 1 regime, closes in well
  /// under a second; what sweeps/drills should use), "small" (default;
  /// matches `epn_explorer --scale=small`) or "paper" (Table 2 sizes).
  std::string scale;

  /// Scenario for "solve_compiled" (ignored otherwise).
  ScenarioSpec scenario;
  /// Scenario family for "sweep", solved in order (ignored otherwise).
  std::vector<ScenarioSpec> sweep;

  /// End-to-end budget in milliseconds, measured from *admission* (queue
  /// wait spends it too — a request that waited its whole budget gets an
  /// immediate anytime answer, not a fresh solver allowance). 0 = none.
  /// The one time knob of a request (milp/budget.hpp is the conversion
  /// point); `parse_request` rejects the keys of the removed time knobs.
  double budget_ms = 0.0;
  int threads = 1;            ///< B&B worker threads for this request
  std::int64_t max_nodes = 0; ///< 0 = solver default
  /// NumericalError retry budget (the service-level ladder: tightened
  /// tolerances, then the dense oracle kernel). -1 = service default.
  int retries = -1;
  std::uint64_t seed = 0;  ///< backoff jitter seed; 0 derives one from `id`
  bool droppable = false;  ///< may be shed when the admission queue is full
  bool lint = false;       ///< reject on Error-severity model-lint findings
  std::string inject;      ///< fault spec "site:n[:seed[:repeat]]"; tests/drills
  /// Checkpoint path for this request's solve. Empty + `preemptible` lets
  /// the service assign one under its checkpoint dir (drain writes it).
  std::string checkpoint;
  bool resume = false;      ///< resume from `checkpoint` when compatible
  bool preemptible = true;  ///< false: drain abandons instead of checkpointing

  /// Parses a request object. Returns nullopt and a reason on schema errors
  /// (missing id, no/ambiguous model source, bad types).
  static std::optional<Request> from_json(const obs::Json& j, std::string* err);
  [[nodiscard]] obs::Json to_json() const;
};

/// Terminal states of a request. `Degraded` is the anytime result: a best
/// incumbent returned at the deadline (or after an exhausted in-solver
/// recovery ladder) together with a sound bound gap — degraded, not wrong.
enum class ResponseStatus : std::uint8_t {
  Optimal,     ///< proven optimum
  Degraded,    ///< feasible incumbent + sound bound, optimality not proven
  Timeout,     ///< budget expired with no incumbent to return
  Infeasible,
  Unbounded,
  Error,       ///< request-scoped failure (parse, solver numerical, exception)
  Rejected,    ///< never ran: shed / queue_full / draining / lint
  Preempted,   ///< drain stopped it; `checkpoint` resumes it
  Compiled,    ///< "compile" op succeeded; `fingerprint`/`cache` identify it
};

[[nodiscard]] const char* to_string(ResponseStatus s);

/// One lifecycle step (state name + milliseconds since admission) — the
/// per-request trace the response carries back.
struct LifecycleEvent {
  std::string state;
  double at_ms = 0.0;
};

/// The outcome of one solve on the wire: the one record a response and each
/// sweep scenario share, filled by the service's one Solution-to-outcome
/// rule. Field names mirror ExplorationResult's accessors, so responses and
/// library results diff in one vocabulary.
struct Outcome {
  ResponseStatus status = ResponseStatus::Error;
  bool ok = false;  ///< Optimal or Degraded (a usable architecture came back)

  bool has_objective = false;
  double objective = 0.0;
  double bound = 0.0;  ///< best proven bound in the model's own sense
  double gap = 0.0;    ///< |objective - bound|; 0 when proven optimal

  bool degraded = false;

  /// Writes the outcome keys into `j` (objective/bound/gap only with an
  /// objective).
  void write(obs::Json& j) const;
};

/// Per-scenario outcome of a "sweep" response.
struct ScenarioResult : Outcome {
  std::string name;
  bool warm = false;  ///< root LP warm-started from the previous basis
  double solve_seconds = 0.0;

  [[nodiscard]] obs::Json to_json() const;
};

struct Response : Outcome {
  std::string id;
  std::int64_t degraded_nodes = 0;
  std::int64_t nodes = 0;
  int attempts = 0;    ///< solve attempts consumed (1 = no retries needed)
  std::string reason;  ///< Rejected/Error detail ("shed", "lint", message…)

  std::string checkpoint;  ///< written checkpoint path (Preempted)
  bool resumable = false;

  // --- compiled-pipeline fields (set by compile/solve_compiled/sweep) ---
  /// "hit" when the compiled artifact came from the service cache, "miss"
  /// when this request paid the encode; empty for classic explore requests.
  std::string cache;
  std::uint64_t fingerprint = 0;  ///< CompiledModel content fingerprint
  std::int64_t warm_solves = 0;   ///< sweep scenarios solved warm-started
  std::int64_t cold_solves = 0;   ///< sweep scenarios solved cold
  std::vector<ScenarioResult> scenarios;  ///< per-scenario results ("sweep")

  double queue_ms = 0.0;
  double solve_seconds = 0.0;
  double total_ms = 0.0;
  std::vector<LifecycleEvent> lifecycle;

  [[nodiscard]] obs::Json to_json() const;
};

}  // namespace archex::serve

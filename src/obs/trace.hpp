/// \file trace.hpp
/// The solver's search-event vocabulary and the per-solve event view. Events
/// are recorded as instants in the recorder's per-worker buffers
/// (obs/span.hpp); SpanProfiler::trace_since turns one solve's share of the
/// recording into a time-sorted Trace, exported as JSONL here and as Chrome
/// instant events by SpanProfiler::write_chrome_trace.
///
/// Event semantics and the export schemas are documented in
/// docs/observability.md; tools/validate_trace.py checks emitted files
/// against them in CI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace archex::obs {

/// What happened. Values are part of the JSONL schema (exported by name).
enum class EventType : std::uint8_t {
  SolveStart,   ///< solve entry; value = number of workers
  Phase,        ///< phase start (from its span); detail = Phase
  NodeOpen,     ///< node dequeued for processing; value = parent bound
  NodeClose,    ///< node finished; detail = NodeOutcome, value = node bound
  Bound,        ///< global best-bound improvement; value = new bound
  Incumbent,    ///< incumbent improvement; value = new objective
  Steal,        ///< node stolen; id = node id, value = victim worker id
  Refactor,     ///< simplex basis refactorization (from its span)
  DualRepair,   ///< dual reoptimization fell back to primal repair
  ColdRestart,  ///< dual reoptimization fell back to a cold solve
  Recover,      ///< numerical-recovery ladder step; detail = RecoverRung
  Checkpoint,   ///< search state checkpointed; value = open-node count
  SolveEnd,     ///< solve exit; value = final objective (or NaN); keep last
};
inline constexpr std::int32_t kEventTypes = static_cast<std::int32_t>(EventType::SolveEnd) + 1;

/// NodeClose detail: how the node was disposed of.
enum class NodeOutcome : std::uint8_t {
  Branched = 0,    ///< fractional, two children created
  Integer = 1,     ///< LP solution integral (incumbent candidate)
  Infeasible = 2,  ///< node LP infeasible
  Pruned = 3,      ///< parent bound already past the cutoff (pre-LP)
  Cutoff = 4,      ///< node bound past the cutoff (post-LP)
  Limit = 5,       ///< LP stopped at a limit (or unbounded root)
  Requeued = 6,    ///< quarantined after a numerical failure, re-enqueued
  Abandoned = 7,   ///< recovery ladder exhausted; parent bound inherited
};

/// Recover detail: which rung of the numerical-recovery ladder ran.
enum class RecoverRung : std::uint8_t {
  Tighten = 0,  ///< tightened-tolerance refactorization + warm reoptimize
  Cold = 1,     ///< cold primal restart
  Requeue = 2,  ///< node quarantined for a bounded cold retry
  Abandon = 3,  ///< retries exhausted; bound conservatively inherited
};

/// Phase detail for EventType::Phase, in the order of the phase spans
/// (SpanName::Presolve..MilpExtract) it is derived from.
enum class Phase : std::uint8_t {
  Presolve = 0,
  RootLp = 1,
  Heuristic = 2,
  Tree = 3,
  Extract = 4,
};

[[nodiscard]] const char* to_string(EventType t);
[[nodiscard]] const char* to_string(NodeOutcome o);
[[nodiscard]] const char* to_string(RecoverRung r);
[[nodiscard]] const char* to_string(Phase p);

/// One event of a solve's Trace.
struct TraceEvent {
  double t = 0.0;        ///< seconds since solve start (monotonic clock)
  double value = 0.0;    ///< event-specific payload (see EventType)
  std::int64_t id = -1;  ///< node id where meaningful, else -1
  std::int32_t worker = 0;
  EventType type = EventType::SolveStart;
  std::uint8_t detail = 0;  ///< NodeOutcome / Phase / RecoverRung discriminant
};

/// One solve's events, time-sorted (SpanProfiler::trace_since).
struct Trace {
  std::vector<TraceEvent> events;
  std::int64_t dropped = 0;  ///< records lost to full buffers during the solve

  [[nodiscard]] bool empty() const { return events.empty(); }
  [[nodiscard]] std::size_t count(EventType t) const;
  [[nodiscard]] int num_workers() const;

  /// One JSON object per line; schema in docs/observability.md.
  void write_jsonl(std::ostream& os) const;
};

/// Appends the type-specific keys of one event (`,"node":7,...`, each with
/// a leading comma; nothing for key-less types): the body shared by the
/// JSONL lines and the Chrome instants' args.
void append_event_fields(std::string& out, EventType type, std::int64_t id, double value,
                         std::uint8_t detail);

}  // namespace archex::obs

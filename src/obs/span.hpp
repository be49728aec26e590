/// \file span.hpp
/// The recorder: per-worker single-writer buffers holding one record type
/// for both hierarchical spans (scoped RAII timing regions) and instant
/// search events (node open/close, incumbents, steals, ...). One thread
/// writes each buffer and exports read it after the workers joined, so the
/// hot path is a few stores and a clock read — no locks, no atomics.
///
/// Zero-cost when disabled: a ScopedSpan over a null buffer is one pointer
/// test in its constructor and one in its destructor, and an event site is
/// one pointer test. One drop policy: a buffer reserves its capacity up
/// front, touches only what it records, appends until full, then counts and
/// drops the newest record (surfaced per solve as `milp.records_dropped`).
///
/// Names are interned to ids: the span names (`SpanName`), then the event
/// types (`event_id`), are pre-interned in enum order, so hot paths use the
/// enum values without a profiler pointer and one `name_of` table names
/// both kinds; dynamic names (per-pattern encode spans) intern once, at
/// encode time, under a mutex the hot path never touches.
///
/// Exports (schemas in docs/observability.md): Chrome trace-event JSON with
/// spans and events on one timeline (`write_chrome_trace`), one solve's
/// time-sorted events (`trace_since`, JSONL via Trace::write_jsonl), and the
/// raw `collect()` report.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace archex::obs {

/// Fixed span names, pre-interned by every SpanProfiler in this order so the
/// enum value *is* the name id. Keep in sync with to_string(SpanName).
/// The branch & bound phase spans, Presolve..MilpExtract in obs::Phase
/// order, double as the trace's `phase` events.
enum class SpanName : std::int32_t {
  // Architecture pipeline (arch::Problem).
  Encode = 0,   ///< structural constraints (Problem constructor)
  Formulate,    ///< objective assembly
  Solve,        ///< the whole MILP solve (arch layer view)
  Extract,      ///< solution -> Architecture decode
  // Branch & bound phases (milp::solve_milp).
  Presolve,
  RootLp,
  Heuristic,
  Tree,
  MilpExtract,  ///< postsolve + incumbent extraction
  // Simplex / LU kernel hot paths (sampled, 1 pivot in 64).
  Ftran,
  BtranRow,
  PriceRow,
  Price,        ///< full pricing pass
  Refactor,     ///< basis refactorization (always recorded)
  kCount,       ///< sentinel, not a span
};

[[nodiscard]] const char* to_string(SpanName n);
[[nodiscard]] constexpr std::int32_t span_id(SpanName n) {
  return static_cast<std::int32_t>(n);
}
/// Event types are pre-interned right after the span names.
[[nodiscard]] constexpr std::int32_t event_id(EventType t) {
  return span_id(SpanName::kCount) + static_cast<std::int32_t>(t);
}
[[nodiscard]] constexpr bool is_event_id(std::int32_t name) {
  return name >= span_id(SpanName::kCount) && name < span_id(SpanName::kCount) + kEventTypes;
}
/// The event type of an event id (is_event_id(name) must hold).
[[nodiscard]] constexpr EventType event_type(std::int32_t name) {
  return static_cast<EventType>(name - span_id(SpanName::kCount));
}

/// One record: a closed span, or an instant event (`name` = event_id). 40
/// bytes, written by value.
struct Record {
  double t0 = 0.0;  ///< span start / event time: seconds since the profiler epoch
  double t1 = 0.0;  ///< span end; equals t0 for an event
  double value = 0.0;       ///< event payload (see EventType); 0 for a span
  std::int64_t id = -1;     ///< event node id where meaningful, else -1
  std::int32_t name = 0;    ///< interned name id
  std::int32_t worker = 0;
  std::int32_t depth = 0;   ///< nesting depth at open / emit time (0 = top level)
  std::uint8_t detail = 0;  ///< event discriminant (NodeOutcome / RecoverRung)

  [[nodiscard]] bool is_event() const { return is_event_id(name); }
};

/// Single-writer record sink for one worker thread. The owning thread is the
/// only writer; reads (snapshot / dropped) happen after the workers joined,
/// so no member needs atomicity. Spans are recorded at scope *exit*, so a
/// parent appears after its children in buffer order — collect() re-sorts.
class SpanBuffer {
 public:
  /// Arms the buffer. capacity == 0 leaves it disabled.
  void init(std::int32_t worker, std::size_t capacity,
            std::chrono::steady_clock::time_point epoch);

  [[nodiscard]] bool enabled() const { return capacity_ != 0; }
  [[nodiscard]] std::int32_t worker() const { return worker_; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  /// Every record (spans and events) in append order.
  [[nodiscard]] const std::vector<Record>& spans() const { return records_; }

  /// Seconds since the profiler epoch.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Called by ScopedSpan only (owning thread). Opens a nesting level.
  std::int32_t enter() { return depth_++; }
  /// Closes the level opened by the matching enter() and records the span;
  /// when full, the newest record is dropped and counted instead.
  void exit_record(std::int32_t name, double t0, std::int32_t depth) {
    --depth_;
    if (records_.size() < capacity_) {
      records_.push_back({t0, now(), 0.0, -1, name, worker_, depth, 0});
    } else {
      ++dropped_;
    }
  }

  /// Records an instant event (owning thread); same drop policy. A no-op on
  /// a disabled buffer.
  void emit(EventType type, std::int64_t id = -1, double value = 0.0,
            std::uint8_t detail = 0) {
    if (records_.size() < capacity_) {
      const double t = now();
      records_.push_back({t, t, value, id, event_id(type), worker_, depth_, detail});
    } else if (enabled()) {
      ++dropped_;
    }
  }

 private:
  std::vector<Record> records_;
  std::size_t capacity_ = 0;
  std::int64_t dropped_ = 0;
  std::int32_t depth_ = 0;
  std::int32_t worker_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
};

/// RAII span over a (nullable) SpanBuffer. A null or disabled buffer makes
/// both constructor and destructor a single pointer test — no clock read —
/// which is what keeps profiling-off solves at uninstrumented speed.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, std::int32_t name) : buf_(buf) {
    if (buf_ != nullptr) {
      if (!buf_->enabled()) {
        buf_ = nullptr;
        return;
      }
      name_ = name;
      depth_ = buf_->enter();
      t0_ = buf_->now();
    }
  }
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early; destruction then records nothing.
  void stop() {
    if (buf_ == nullptr) return;
    buf_->exit_record(name_, t0_, depth_);
    buf_ = nullptr;
  }

 private:
  SpanBuffer* buf_;
  double t0_ = 0.0;
  std::int32_t name_ = 0;
  std::int32_t depth_ = 0;
};

/// The recorder: owns the per-worker buffers and the interned name table.
/// Buffer 0
/// belongs to the calling (main) thread — in this codebase the encoder, the
/// root phase and pool worker 0 all run on it, so the single-writer rule
/// holds. arm_workers() must be called before worker threads spawn (the
/// branch & bound does); buffer pointers are stable thereafter.
class SpanProfiler {
 public:
  explicit SpanProfiler(std::size_t capacity_per_worker = 1 << 16);

  /// Interns a dynamic span name (per-pattern spans). Mutex-guarded; call at
  /// setup/encode time, never from a pivot loop. Idempotent per name, and
  /// never returns an event id.
  std::int32_t intern(std::string_view name);
  /// Name of an interned id ("?" for an unknown id). Call after the workers
  /// joined (export time).
  [[nodiscard]] const std::string& name_of(std::int32_t id) const;

  /// Ensures buffers exist for workers [0, n). Buffer 0 exists from
  /// construction. Not thread-safe against concurrent span recording — call
  /// before spawning the threads that will write the new buffers.
  void arm_workers(int n);
  /// Worker w's buffer, or null when never armed.
  [[nodiscard]] SpanBuffer* buffer(int worker);
  /// The main-thread buffer (worker 0).
  [[nodiscard]] SpanBuffer* main() { return buffer(0); }
  [[nodiscard]] int num_workers() const;

  /// Total records dropped to buffer overflow across all workers.
  [[nodiscard]] std::int64_t dropped() const;
  /// Drop count accumulated since the previous take_dropped() call. The
  /// branch & bound feeds this delta into the per-solve
  /// `milp.records_dropped` counter, so a profiler reused across solves (the
  /// lazy algorithm) does not double-report. Call after workers joined.
  std::int64_t take_dropped();

  /// A point in the recording: the time and every armed buffer's length.
  struct Mark {
    double t = 0.0;
    std::vector<std::size_t> sizes;
  };
  /// Call when no worker is writing (before spawn / after join).
  [[nodiscard]] Mark mark() const;
  /// The events recorded since `m` as one time-sorted Trace, timed in
  /// seconds since `m.t`: every instant, plus each phase span as a `phase`
  /// event and each refactor span as a `refactor` event, both at the span's
  /// start. `dropped` is left 0 for the caller to fill. Call after join.
  [[nodiscard]] Trace trace_since(const Mark& m) const;

  /// Snapshot of every buffer, merged and sorted by (t0, depth, worker):
  /// a parent precedes its children, and concurrent workers interleave in
  /// start-time order. Does not reset the buffers.
  struct Report {
    std::vector<Record> records;
    std::int64_t dropped = 0;
  };
  [[nodiscard]] Report collect() const;

  /// Writes the Chrome trace-event JSON (`{"traceEvents": [...]}`) for the
  /// current contents: one `ph:"X"` complete event per span and one
  /// thread-scoped `ph:"i"` instant per event (ts/dur in microseconds, pid
  /// 1, tid = worker; an instant's args are its JSONL keys) plus `ph:"M"`
  /// thread-name metadata. Loadable in Perfetto / chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;

 private:
  mutable std::mutex mu_;  ///< guards names_ and buffers_ growth
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;  ///< stable pointers
  std::size_t capacity_;
  std::int64_t reported_dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace archex::obs

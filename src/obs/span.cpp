#include "obs/span.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"

namespace archex::obs {

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::Encode: return "encode";
    case SpanName::Formulate: return "formulate";
    case SpanName::Solve: return "solve";
    case SpanName::Extract: return "extract";
    case SpanName::Presolve: return "presolve";
    case SpanName::RootLp: return "root_lp";
    case SpanName::Heuristic: return "heuristic";
    case SpanName::Tree: return "tree";
    case SpanName::MilpExtract: return "milp_extract";
    case SpanName::Ftran: return "ftran";
    case SpanName::BtranRow: return "btran_row";
    case SpanName::PriceRow: return "price_row";
    case SpanName::Price: return "price";
    case SpanName::Refactor: return "refactor";
    case SpanName::kCount: break;
  }
  return "?";
}

void SpanBuffer::init(std::int32_t worker, std::size_t capacity,
                      std::chrono::steady_clock::time_point epoch) {
  worker_ = worker;
  capacity_ = capacity;
  epoch_ = epoch;
  records_.clear();
  records_.reserve(capacity);
  dropped_ = 0;
  depth_ = 0;
}

SpanProfiler::SpanProfiler(std::size_t capacity_per_worker)
    : capacity_(capacity_per_worker), epoch_(std::chrono::steady_clock::now()) {
  names_.reserve(static_cast<std::size_t>(span_id(SpanName::kCount) + kEventTypes) + 8);
  for (std::int32_t i = 0; i < span_id(SpanName::kCount); ++i) {
    names_.emplace_back(to_string(static_cast<SpanName>(i)));
  }
  for (std::int32_t i = 0; i < kEventTypes; ++i) {
    names_.emplace_back(to_string(static_cast<EventType>(i)));
  }
  arm_workers(1);  // buffer 0: the calling thread
}

std::int32_t SpanProfiler::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (names_[i] == name && !is_event_id(id)) return id;
  }
  names_.emplace_back(name);
  return static_cast<std::int32_t>(names_.size() - 1);
}

const std::string& SpanProfiler::name_of(std::int32_t id) const {
  static const std::string unknown = "?";
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= names_.size()) return unknown;
  return names_[static_cast<std::size_t>(id)];
}

void SpanProfiler::arm_workers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (buffers_.size() < static_cast<std::size_t>(n)) {
    auto buf = std::make_unique<SpanBuffer>();
    buf->init(static_cast<std::int32_t>(buffers_.size()), capacity_, epoch_);
    buffers_.push_back(std::move(buf));
  }
}

SpanBuffer* SpanProfiler::buffer(int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || static_cast<std::size_t>(worker) >= buffers_.size()) {
    return nullptr;
  }
  return buffers_[static_cast<std::size_t>(worker)].get();
}

int SpanProfiler::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(buffers_.size());
}

std::int64_t SpanProfiler::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& b : buffers_) total += b->dropped();
  return total;
}

std::int64_t SpanProfiler::take_dropped() {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& b : buffers_) total += b->dropped();
  const std::int64_t delta = total - reported_dropped_;
  reported_dropped_ = total;
  return delta;
}

SpanProfiler::Mark SpanProfiler::mark() const {
  std::lock_guard<std::mutex> lock(mu_);
  Mark m;
  m.t = std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  for (const auto& b : buffers_) m.sizes.push_back(b->spans().size());
  return m;
}

Trace SpanProfiler::trace_since(const Mark& m) const {
  Trace trace;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t b = 0; b < buffers_.size(); ++b) {
      const std::vector<Record>& recs = buffers_[b]->spans();
      for (std::size_t k = b < m.sizes.size() ? m.sizes[b] : 0; k < recs.size(); ++k) {
        const Record& r = recs[k];
        TraceEvent e;
        e.t = r.t0 - m.t;
        e.worker = r.worker;
        if (r.is_event()) {
          e.type = event_type(r.name);
          e.value = r.value;
          e.id = r.id;
          e.detail = r.detail;
        } else if (r.name == span_id(SpanName::Refactor)) {
          e.type = EventType::Refactor;
        } else if (r.name >= span_id(SpanName::Presolve) &&
                   r.name <= span_id(SpanName::MilpExtract)) {
          e.type = EventType::Phase;  // the phase spans run in Phase order
          e.detail = static_cast<std::uint8_t>(r.name - span_id(SpanName::Presolve));
        } else {
          continue;
        }
        trace.events.push_back(e);
      }
    }
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.t < b.t; });
  return trace;
}

SpanProfiler::Report SpanProfiler::collect() const {
  Report r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->spans().size();
    r.records.reserve(total);
    for (const auto& b : buffers_) {
      r.records.insert(r.records.end(), b->spans().begin(), b->spans().end());
      r.dropped += b->dropped();
    }
  }
  // Parent spans close after their children, so raw buffer order is
  // exit-ordered; (t0, depth, worker) restores tree order — a parent strictly
  // precedes its children (same t0 ties break toward the shallower span) and
  // spans from concurrent workers interleave by start time.
  std::stable_sort(r.records.begin(), r.records.end(), [](const Record& a, const Record& b) {
    if (a.t0 != b.t0) return a.t0 < b.t0;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.worker < b.worker;
  });
  return r;
}

void SpanProfiler::write_chrome_trace(std::ostream& os) const {
  const Report r = collect();
  os << "{\"traceEvents\":[";
  const int workers = num_workers();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"archex\"}}";
  for (int w = 0; w < workers; ++w) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << w
       << ",\"args\":{\"name\":\"worker " << w << "\"}}";
  }
  std::string fields;
  for (const Record& rec : r.records) {
    // Trace-event timestamps are microseconds.
    os << ",\n{\"name\":" << json_quote(name_of(rec.name)) << ",\"cat\":\"archex\",";
    if (rec.is_event()) {
      fields.clear();
      append_event_fields(fields, event_type(rec.name),
                          rec.id, rec.value, rec.detail);
      os << "\"ph\":\"i\",\"s\":\"t\",\"ts\":" << json_number(rec.t0 * 1e6)
         << ",\"pid\":1,\"tid\":" << rec.worker << ",\"args\":{"
         << (fields.empty() ? "" : fields.c_str() + 1) << "}}";
    } else {
      os << "\"ph\":\"X\",\"ts\":" << json_number(rec.t0 * 1e6)
         << ",\"dur\":" << json_number((rec.t1 - rec.t0) * 1e6)
         << ",\"pid\":1,\"tid\":" << rec.worker << ",\"args\":{\"depth\":" << rec.depth
         << "}}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_dropped\":"
     << r.dropped << "}}\n";
}

}  // namespace archex::obs

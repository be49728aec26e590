#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"

namespace archex::obs {

const char* to_string(EventType t) {
  switch (t) {
    case EventType::SolveStart: return "solve_start";
    case EventType::Phase: return "phase";
    case EventType::NodeOpen: return "node_open";
    case EventType::NodeClose: return "node_close";
    case EventType::Bound: return "bound";
    case EventType::Incumbent: return "incumbent";
    case EventType::Steal: return "steal";
    case EventType::Refactor: return "refactor";
    case EventType::DualRepair: return "dual_repair";
    case EventType::ColdRestart: return "cold_restart";
    case EventType::Recover: return "recover";
    case EventType::Checkpoint: return "checkpoint";
    case EventType::SolveEnd: return "solve_end";
  }
  return "unknown";
}

const char* to_string(NodeOutcome o) {
  switch (o) {
    case NodeOutcome::Branched: return "branched";
    case NodeOutcome::Integer: return "integer";
    case NodeOutcome::Infeasible: return "infeasible";
    case NodeOutcome::Pruned: return "pruned";
    case NodeOutcome::Cutoff: return "cutoff";
    case NodeOutcome::Limit: return "limit";
    case NodeOutcome::Requeued: return "requeued";
    case NodeOutcome::Abandoned: return "abandoned";
  }
  return "unknown";
}

const char* to_string(RecoverRung r) {
  switch (r) {
    case RecoverRung::Tighten: return "tighten";
    case RecoverRung::Cold: return "cold";
    case RecoverRung::Requeue: return "requeue";
    case RecoverRung::Abandon: return "abandon";
  }
  return "unknown";
}

const char* to_string(Phase p) {
  switch (p) {
    case Phase::Presolve: return "presolve";
    case Phase::RootLp: return "root_lp";
    case Phase::Heuristic: return "heuristic";
    case Phase::Tree: return "tree";
    case Phase::Extract: return "extract";
  }
  return "unknown";
}

std::size_t Trace::count(EventType t) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [t](const TraceEvent& e) { return e.type == t; }));
}

int Trace::num_workers() const {
  int max_worker = -1;
  for (const TraceEvent& e : events) max_worker = std::max(max_worker, e.worker);
  return max_worker + 1;
}

void append_event_fields(std::string& out, EventType type, std::int64_t id, double value,
                         std::uint8_t detail) {
  const auto node = [id] { return ",\"node\":" + std::to_string(id); };
  switch (type) {
    case EventType::SolveStart:
      out += ",\"workers\":" + std::to_string(static_cast<int>(value));
      break;
    case EventType::Phase:
      out += ",\"phase\":\"" + std::string(to_string(static_cast<Phase>(detail))) + '"';
      break;
    case EventType::NodeOpen:
      out += node() + ",\"parent_bound\":" + json_number(value);
      break;
    case EventType::NodeClose:
      out += node() + ",\"outcome\":\"" + to_string(static_cast<NodeOutcome>(detail)) +
             "\",\"bound\":" + json_number(value);
      break;
    case EventType::Bound:
      out += ",\"bound\":" + json_number(value);
      break;
    case EventType::Incumbent:
      out += node() + ",\"objective\":" + json_number(value);
      break;
    case EventType::Steal:
      out += node() + ",\"victim\":" + std::to_string(static_cast<int>(value));
      break;
    case EventType::Refactor:
    case EventType::DualRepair:
    case EventType::ColdRestart:
      break;
    case EventType::Recover:
      out += node() + ",\"rung\":\"" + to_string(static_cast<RecoverRung>(detail)) + '"';
      break;
    case EventType::Checkpoint:
      out += ",\"open\":" + std::to_string(static_cast<long long>(value));
      break;
    case EventType::SolveEnd:
      out += ",\"objective\":" + json_number(value);
      break;
  }
}

void Trace::write_jsonl(std::ostream& os) const {
  std::string line;
  for (const TraceEvent& e : events) {
    line = "{\"t\":" + json_number(e.t) + ",\"type\":\"" + to_string(e.type) +
           "\",\"worker\":" + std::to_string(e.worker);
    append_event_fields(line, e.type, e.id, e.value, e.detail);
    line += "}\n";
    os << line;
  }
}

}  // namespace archex::obs

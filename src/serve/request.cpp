#include "serve/request.hpp"

#include <cstdio>
#include <utility>

#include "domains/epn.hpp"

namespace archex::serve {

using obs::Json;

std::optional<ScenarioSpec> ScenarioSpec::from_json(const Json& j,
                                                    std::string* err) {
  auto fail = [&](const std::string& why) -> std::optional<ScenarioSpec> {
    if (err != nullptr) *err = why;
    return std::nullopt;
  };
  if (!j.is_object()) return fail("scenario must be a JSON object");
  ScenarioSpec s;
  s.name = j.get_string("name");
  if (const Json* scales = j.find("cost_scale"); scales != nullptr) {
    if (!scales->is_object()) return fail("'cost_scale' must be an object");
    for (const auto& [comp, v] : scales->as_object()) {
      if (!v.is_number()) return fail("'cost_scale." + comp + "' must be a number");
      s.cost_scale[comp] = v.as_number();
    }
  }
  s.edge_cost_scale = j.get_number("edge_cost_scale", 1.0);
  if (const Json* un = j.find("unavailable"); un != nullptr) {
    if (!un->is_array()) return fail("'unavailable' must be an array");
    for (const Json& v : un->as_array()) {
      if (!v.is_string()) return fail("'unavailable' entries must be strings");
      s.unavailable.push_back(v.as_string());
    }
  }
  if (const Json* rhs = j.find("rhs"); rhs != nullptr) {
    if (!rhs->is_object()) return fail("'rhs' must be an object");
    for (const auto& [row, v] : rhs->as_object()) {
      if (!v.is_number()) return fail("'rhs." + row + "' must be a number");
      s.rhs[row] = v.as_number();
    }
  }
  return s;
}

Json ScenarioSpec::to_json() const {
  Json j;
  j.obj();  // a default scenario still serializes as {}
  if (!name.empty()) j["name"] = name;
  if (!cost_scale.empty()) {
    Json scales;
    for (const auto& [comp, v] : cost_scale) scales[comp] = v;
    j["cost_scale"] = std::move(scales);
  }
  if (edge_cost_scale != 1.0) j["edge_cost_scale"] = edge_cost_scale;
  if (!unavailable.empty()) {
    Json::Array arr;
    for (const std::string& c : unavailable) arr.emplace_back(c);
    j["unavailable"] = Json(std::move(arr));
  }
  if (!rhs.empty()) {
    Json rows;
    for (const auto& [row, v] : rhs) rows[row] = v;
    j["rhs"] = std::move(rows);
  }
  return j;
}

std::optional<Request> Request::from_json(const Json& j, std::string* err) {
  auto fail = [&](const std::string& why) -> std::optional<Request> {
    if (err != nullptr) *err = why;
    return std::nullopt;
  };
  if (!j.is_object()) return fail("request must be a JSON object");
  Request r;
  r.id = j.get_string("id");
  if (r.id.empty()) return fail("missing or empty 'id'");
  r.op = j.get_string("op");
  if (r.op == "explore") r.op.clear();  // canonical spelling of the default
  const bool compiled_op =
      r.op == "compile" || r.op == "solve_compiled" || r.op == "sweep";
  if (!r.op.empty() && !compiled_op) {
    return fail("unknown op '" + r.op + "'");
  }
  r.lp_file = j.get_string("lp_file");
  r.lp = j.get_string("lp");
  r.domain = j.get_string("domain");
  const int sources = static_cast<int>(!r.lp_file.empty()) +
                      static_cast<int>(!r.lp.empty()) +
                      static_cast<int>(!r.domain.empty());
  if (sources != 1) {
    return fail("exactly one of 'lp_file', 'lp', 'domain' must be set");
  }
  if (!r.domain.empty() && r.domain != "epn" && r.domain != "rpl") {
    return fail("unknown domain '" + r.domain + "' (expected 'epn' or 'rpl')");
  }
  r.lazy = j.get_bool("lazy", false);
  r.scale = j.get_string("scale");
  if (!r.scale.empty()) {
    if (r.domain != "epn") return fail("'scale' is only valid with domain 'epn'");
    if (!domains::epn::scale_config(r.scale)) {
      return fail("unknown scale '" + r.scale +
                  "' (expected 'tiny', 'small' or 'paper')");
    }
  }
  if (compiled_op) {
    if (r.domain.empty()) {
      return fail("op '" + r.op + "' requires a 'domain' source");
    }
    // Explore-only keys fail loudly: the compiled path has no lazy loop,
    // fault plan, checkpoint or retry ladder, and ignoring them would report
    // success for a run that never did what was asked.
    if (r.lazy) return fail("op '" + r.op + "' does not support 'lazy'");
    for (const char* key : {"inject", "checkpoint", "resume", "retries"}) {
      if (j.find(key) != nullptr) {
        return fail("op '" + r.op + "' does not support '" + key + "'");
      }
    }
    if (const Json* sc = j.find("scenario"); sc != nullptr) {
      std::string serr;
      auto parsed = ScenarioSpec::from_json(*sc, &serr);
      if (!parsed.has_value()) return fail("'scenario': " + serr);
      r.scenario = std::move(*parsed);
    }
    if (const Json* sw = j.find("sweep"); sw != nullptr) {
      if (!sw->is_array()) return fail("'sweep' must be an array");
      for (const Json& sc : sw->as_array()) {
        std::string serr;
        auto parsed = ScenarioSpec::from_json(sc, &serr);
        if (!parsed.has_value()) return fail("'sweep': " + serr);
        r.sweep.push_back(std::move(*parsed));
      }
    }
    if (r.op == "sweep" && r.sweep.empty()) {
      return fail("op 'sweep' requires a non-empty 'sweep' array");
    }
  }
  // Removed time keys fail loudly: ignoring them, as unknown keys are,
  // would silently run an old client's request without a bound.
  for (const char* removed : {"deadline_ms", "time_limit_s"}) {
    if (j.find(removed) != nullptr) {
      return fail("'" + std::string(removed) + "' was removed; use 'budget_ms'");
    }
  }
  r.budget_ms = j.get_number("budget_ms", 0.0);
  r.threads = static_cast<int>(j.get_number("threads", 1.0));
  r.max_nodes = static_cast<std::int64_t>(j.get_number("max_nodes", 0.0));
  r.retries = static_cast<int>(j.get_number("retries", -1.0));
  r.seed = static_cast<std::uint64_t>(j.get_number("seed", 0.0));
  r.droppable = j.get_bool("droppable", false);
  r.lint = j.get_bool("lint", false);
  r.inject = j.get_string("inject");
  r.checkpoint = j.get_string("checkpoint");
  r.resume = j.get_bool("resume", false);
  r.preemptible = j.get_bool("preemptible", true);
  if (r.threads < 1 || r.threads > 64) return fail("'threads' out of range");
  if (r.budget_ms < 0) return fail("'budget_ms' must be >= 0");
  return r;
}

Json Request::to_json() const {
  Json j;
  j["id"] = id;
  if (!op.empty()) j["op"] = op;
  if (!lp_file.empty()) j["lp_file"] = lp_file;
  if (!lp.empty()) j["lp"] = lp;
  if (!domain.empty()) j["domain"] = domain;
  if (lazy) j["lazy"] = true;
  if (!scale.empty()) j["scale"] = scale;
  if (op == "solve_compiled") j["scenario"] = scenario.to_json();
  if (!sweep.empty()) {
    Json::Array arr;
    arr.reserve(sweep.size());
    for (const ScenarioSpec& s : sweep) arr.push_back(s.to_json());
    j["sweep"] = Json(std::move(arr));
  }
  if (budget_ms > 0) j["budget_ms"] = budget_ms;
  if (threads != 1) j["threads"] = threads;
  if (max_nodes > 0) j["max_nodes"] = max_nodes;
  if (retries >= 0) j["retries"] = retries;
  if (seed != 0) j["seed"] = static_cast<double>(seed);
  if (droppable) j["droppable"] = true;
  if (lint) j["lint"] = true;
  if (!inject.empty()) j["inject"] = inject;
  if (!checkpoint.empty()) j["checkpoint"] = checkpoint;
  if (resume) j["resume"] = true;
  if (!preemptible) j["preemptible"] = false;
  return j;
}

const char* to_string(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::Optimal: return "optimal";
    case ResponseStatus::Degraded: return "degraded";
    case ResponseStatus::Timeout: return "timeout";
    case ResponseStatus::Infeasible: return "infeasible";
    case ResponseStatus::Unbounded: return "unbounded";
    case ResponseStatus::Error: return "error";
    case ResponseStatus::Rejected: return "rejected";
    case ResponseStatus::Preempted: return "preempted";
    case ResponseStatus::Compiled: return "compiled";
  }
  return "unknown";
}

void Outcome::write(Json& j) const {
  j["status"] = to_string(status);
  j["ok"] = ok;
  if (has_objective) {
    j["objective"] = objective;
    j["bound"] = bound;
    j["gap"] = gap;
  }
  j["degraded"] = degraded;
}

Json ScenarioResult::to_json() const {
  Json j;
  j["name"] = name;
  write(j);
  j["warm"] = warm;
  j["solve_seconds"] = solve_seconds;
  return j;
}

Json Response::to_json() const {
  Json j;
  j["id"] = id;
  write(j);
  if (degraded_nodes > 0) j["degraded_nodes"] = degraded_nodes;
  if (nodes > 0) j["nodes"] = nodes;
  if (attempts > 0) j["attempts"] = attempts;
  if (!reason.empty()) j["reason"] = reason;
  if (!checkpoint.empty()) {
    j["checkpoint"] = checkpoint;
    j["resumable"] = resumable;
  }
  if (!cache.empty()) {
    j["cache"] = cache;
    // Hex keeps the full 64 bits exact (a JSON number would round through
    // double); fixed width so lines diff and sort cleanly.
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    j["fingerprint"] = std::string(buf);
  }
  if (warm_solves + cold_solves > 0) {
    j["warm_solves"] = warm_solves;
    j["cold_solves"] = cold_solves;
  }
  if (!scenarios.empty()) {
    Json::Array arr;
    arr.reserve(scenarios.size());
    for (const ScenarioResult& s : scenarios) arr.push_back(s.to_json());
    j["scenarios"] = Json(std::move(arr));
  }
  j["queue_ms"] = queue_ms;
  j["solve_seconds"] = solve_seconds;
  j["total_ms"] = total_ms;
  if (!lifecycle.empty()) {
    Json::Array events;
    events.reserve(lifecycle.size());
    for (const LifecycleEvent& e : lifecycle) {
      Json ev;
      ev["state"] = e.state;
      ev["ms"] = e.at_ms;
      events.push_back(std::move(ev));
    }
    j["lifecycle"] = Json(std::move(events));
  }
  return j;
}

}  // namespace archex::serve

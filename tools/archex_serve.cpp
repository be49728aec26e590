/// \file archex_serve.cpp
/// The exploration daemon: newline-delimited JSON requests on stdin, one
/// JSON response per line on stdout (interleaved in completion order —
/// correlate by `id`). A thin shell over serve::ExplorationService; all
/// lifecycle policy lives in the library. docs/serving.md documents the
/// protocol.
///
/// Control ops besides requests:
///   {"op":"metrics"}  -> {"op":"metrics","prometheus":"..."}
///   {"op":"ping"}     -> {"op":"pong"}
///   {"op":"drain"}    -> same as SIGTERM, then exits
///
/// Compiled-pipeline ops (docs/pipeline.md) parse as ordinary requests:
///   {"op":"compile","id":...,"domain":"epn"}
///       -> encode once, cache by content fingerprint, report "hit"/"miss"
///   {"op":"solve_compiled","id":...,"domain":"epn","scenario":{...}}
///       -> solve one scenario against the cached artifact
///   {"op":"sweep","id":...,"domain":"epn","sweep":[{...},...]}
///       -> solve a scenario family, warm-starting each solve from the
///          previous optimal basis; per-scenario results + warm/cold counts
///
/// SIGTERM (or EOF after `drain`) triggers the graceful drain: queued
/// requests get explicit `rejected`/`drained` responses, in-flight solves
/// are preempted and checkpoint, and the final line names the resumable
/// checkpoint files:
///   {"op":"shutdown","reason":"sigterm","shed":N,"preempted":N,
///    "checkpoints":[...]}

#include <csignal>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "service_flags.hpp"

namespace {

volatile std::sig_atomic_t g_term = 0;

void on_term(int) { g_term = 1; }

std::mutex g_out_mu;

void emit(const archex::obs::Json& j) {
  const std::string line = j.dump();
  std::lock_guard<std::mutex> lock(g_out_mu);
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using archex::serve::ExplorationService;
  using archex::obs::Json;
  using archex::serve::Request;
  using archex::serve::Response;
  using archex::serve::ServiceOptions;

  ServiceOptions opts;
  std::vector<std::string> args;
  if (!archex::serve::parse_service_flags(argc, argv, opts, args) ||
      !args.empty()) {
    return archex::serve::service_usage(
        "archex_serve",
        "reads NDJSON requests on stdin, writes NDJSON responses on stdout\n");
  }

  // No SA_RESTART: SIGTERM must interrupt the blocking stdin read so the
  // main loop can fall through to the drain.
  struct sigaction sa = {};
  sa.sa_handler = on_term;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  ExplorationService service(opts);
  std::vector<std::thread> writers;  // one waiter per in-flight request
  bool drain_requested = false;

  std::string line;
  while (g_term == 0 && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::string err;
    const auto doc = Json::parse(line, &err);
    if (!doc) {
      Json e;
      e["op"] = "error";
      e["reason"] = "bad json: " + err;
      emit(e);
      continue;
    }
    const std::string op = doc->get_string("op");
    if (op == "ping") {
      Json pong;
      pong["op"] = "pong";
      emit(pong);
      continue;
    }
    if (op == "metrics") {
      Json m;
      m["op"] = "metrics";
      m["prometheus"] = service.prometheus();
      emit(m);
      continue;
    }
    if (op == "drain") {
      drain_requested = true;
      break;
    }
    auto req = Request::from_json(*doc, &err);
    if (!req) {
      Json e;
      e["op"] = "error";
      e["id"] = doc->get_string("id");
      e["reason"] = err;
      emit(e);
      continue;
    }
    std::future<Response> fut = service.submit(std::move(*req));
    writers.emplace_back(
        [f = std::move(fut)]() mutable { emit(f.get().to_json()); });
  }

  const bool terminating = g_term != 0 || drain_requested;
  if (terminating) {
    // Drain: shed the queue with explicit rejections, preempt in-flight
    // solves (they checkpoint), then report what is resumable.
    const ExplorationService::DrainReport rep = service.drain();
    for (std::thread& w : writers) {
      if (w.joinable()) w.join();
    }
    Json s;
    s["op"] = "shutdown";
    s["reason"] = drain_requested ? "drain" : "sigterm";
    s["shed"] = static_cast<std::int64_t>(rep.shed);
    s["preempted"] = static_cast<std::int64_t>(rep.preempted);
    Json::Array cks;
    for (const std::string& ck : rep.checkpoints) cks.push_back(Json(ck));
    s["checkpoints"] = Json(std::move(cks));
    emit(s);
    return 0;
  }

  // EOF: finish everything already admitted, then exit cleanly.
  service.close();
  for (std::thread& w : writers) {
    if (w.joinable()) w.join();
  }
  Json s;
  s["op"] = "shutdown";
  s["reason"] = "eof";
  emit(s);
  return 0;
}

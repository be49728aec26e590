/// \file archex_batch.cpp
/// Batch driver: feeds a file of NDJSON exploration requests through an
/// ExplorationService worker pool and prints one response per line in
/// *request order* (deterministic output for diffing), plus a summary on
/// stderr. Exit code 0 unless any request ended in `error`. Lines may be
/// classic explore requests or the compiled-pipeline ops ("compile",
/// "solve_compiled", "sweep" — docs/pipeline.md); the service routes by
/// "op", so mixed batches work.
///
///   archex_batch [--workers=N] [--queue=N] [--retries=N]
///                [--checkpoint-dir=PATH] [--backoff-ms=X] requests.ndjson
///
/// "-" reads requests from stdin.

#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace {

bool parse_flag(const std::string& arg, const char* name, std::string& out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: archex_batch [--workers=N] [--queue=N] [--retries=N]\n"
               "                    [--checkpoint-dir=PATH] [--backoff-ms=X]\n"
               "                    [--compiled-cache=N]\n"
               "                    requests.ndjson  ('-' = stdin)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using archex::serve::ExplorationService;
  using archex::obs::Json;
  using archex::serve::Request;
  using archex::serve::Response;
  using archex::serve::ResponseStatus;
  using archex::serve::ServiceOptions;

  ServiceOptions opts;
  std::string input;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    try {
      if (parse_flag(arg, "workers", v)) opts.workers = std::stoi(v);
      else if (parse_flag(arg, "queue", v)) opts.queue_capacity = std::stoul(v);
      else if (parse_flag(arg, "retries", v)) opts.default_retries = std::stoi(v);
      else if (parse_flag(arg, "checkpoint-dir", v)) opts.checkpoint_dir = v;
      else if (parse_flag(arg, "backoff-ms", v)) opts.backoff_base_ms = std::stod(v);
      else if (parse_flag(arg, "compiled-cache", v)) opts.compiled_cache_capacity = std::stoul(v);
      else if (arg.rfind("--", 0) == 0) return usage();
      else if (input.empty()) input = arg;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (input.empty()) return usage();

  std::ifstream file;
  std::istream* in = &std::cin;
  if (input != "-") {
    file.open(input);
    if (!file) {
      std::fprintf(stderr, "archex_batch: cannot open '%s'\n", input.c_str());
      return 2;
    }
    in = &file;
  }

  ExplorationService service(opts);
  std::vector<std::string> ids;
  std::vector<std::future<Response>> futures;
  std::string line;
  int line_no = 0;
  int schema_errors = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string err;
    const auto doc = Json::parse(line, &err);
    auto req = doc ? Request::from_json(*doc, &err)
                   : std::optional<Request>{};
    if (!req) {
      std::fprintf(stderr, "archex_batch: line %d: %s\n", line_no,
                   err.c_str());
      ++schema_errors;
      continue;
    }
    ids.push_back(req->id);
    futures.push_back(service.submit(std::move(*req)));
  }

  int errors = schema_errors;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response r = futures[i].get();
    if (r.status == ResponseStatus::Error) ++errors;
    if (r.ok) ++ok;
    std::puts(r.to_json().dump().c_str());
  }
  std::fflush(stdout);
  std::fprintf(stderr, "archex_batch: %zu request(s), %zu ok, %d error(s)\n",
               futures.size(), ok, errors);
  return errors == 0 ? 0 : 1;
}

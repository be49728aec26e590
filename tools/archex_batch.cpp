/// \file archex_batch.cpp
/// Batch driver: feeds a file of NDJSON exploration requests through an
/// ExplorationService worker pool and prints one response per line in
/// *request order* (deterministic output for diffing), plus a summary on
/// stderr. Exit code 0 unless any request ended in `error`. Lines may be
/// classic explore requests or the compiled-pipeline ops ("compile",
/// "solve_compiled", "sweep" — docs/pipeline.md); the service routes by
/// "op", so mixed batches work.
///
///   archex_batch [service flags] requests.ndjson
///
/// "-" reads requests from stdin; the service flags are those of
/// archex_serve (service_flags.hpp).

#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "serve/service.hpp"
#include "service_flags.hpp"

int main(int argc, char** argv) {
  using archex::serve::ExplorationService;
  using archex::obs::Json;
  using archex::serve::Request;
  using archex::serve::Response;
  using archex::serve::ResponseStatus;
  using archex::serve::ServiceOptions;

  ServiceOptions opts;
  std::vector<std::string> args;
  if (!archex::serve::parse_service_flags(argc, argv, opts, args) ||
      args.size() != 1) {
    return archex::serve::service_usage(
        "archex_batch",
        "                    requests.ndjson  ('-' = stdin)\n");
  }
  const std::string& input = args.front();

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

/// \file service_flags.hpp
/// The ServiceOptions flags of the two service shells (archex_serve,
/// archex_batch): one parser and one usage text for both.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace archex::serve {

/// Prints "usage: <prog> <the service flags>" and then `tail` to stderr;
/// returns the usage exit code, 2.
inline int service_usage(const char* prog, const char* tail) {
  std::fprintf(stderr,
               "usage: %s [--workers=N] [--queue=N] [--retries=N]\n"
               "                    [--checkpoint-dir=PATH] [--backoff-ms=X]\n"
               "                    [--compiled-cache=N]\n%s",
               prog, tail);
  return 2;
}

/// Applies argv's `--name=value` service flags to `opts` and collects every
/// argument not starting with "--" into `positional`. Returns false on any
/// other "--" argument or a malformed value.
inline bool parse_service_flags(int argc, char** argv, ServiceOptions& opts,
                                std::vector<std::string>& positional) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string name = arg.substr(2, eq - 2);
    const std::string v = arg.substr(eq + 1);
    try {
      if (name == "workers") opts.workers = std::stoi(v);
      else if (name == "queue") opts.queue_capacity = std::stoul(v);
      else if (name == "retries") opts.default_retries = std::stoi(v);
      else if (name == "checkpoint-dir") opts.checkpoint_dir = v;
      else if (name == "backoff-ms") opts.backoff_base_ms = std::stod(v);
      else if (name == "compiled-cache") opts.compiled_cache_capacity = std::stoul(v);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

}  // namespace archex::serve

// The benchmark's measuring program; perfbench/run.py drives it.
//
//   pbtool info                       build facts, one JSON line
//   pbtool serve  --workload ... --port ... --server-pid ... [--trace 1]
//   pbtool verify --zone ... --edited ... --bughunt ... [--trace 1]
//
// serve and verify print one JSON line: correct, attempted, failed,
// metrics and info. They refuse to measure an unoptimized or sanitized
// build (exit 3).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/serve.h"
#include "perfbench/src/verify.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string BuildFacts() {
  return std::string("{\"compiler\": \"") + __VERSION__ + "\", \"optimized\": " +
         (kOptimized ? "true" : "false") + ", \"sanitized\": " + (kSanitized ? "true" : "false") +
         "}";
}

int Usage() {
  std::fprintf(stderr, "usage: pbtool info | serve --flag value ... | verify --flag value ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  if (command == "info") {
    std::printf("%s\n", BuildFacts().c_str());
    return 0;
  }
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Usage();
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr, "refusing to measure: this build is %s\n",
                 kSanitized ? "sanitized" : "not optimized");
    return 3;
  }
  auto get = [&](const std::string& key) { return flags.count(key) ? flags[key] : std::string(); };
  pb::Record record;
  bool ok = false;
  if (command == "serve") {
    pb::ServeArgs args;
    args.workload = get("workload");
    args.seed = std::strtoull(get("seed").c_str(), nullptr, 10);
    args.seconds = std::atof(get("seconds").c_str());
    args.port = static_cast<uint16_t>(std::atoi(get("port").c_str()));
    args.server_pid = static_cast<pid_t>(std::atoi(get("server-pid").c_str()));
    args.server_log = get("server-log");
    args.zone = get("zone");
    args.edited = get("edited");
    args.live_zone = get("live-zone");
    std::istringstream cpus(get("cpus"));
    for (std::string cpu; std::getline(cpus, cpu, ',');) {
      args.cpus.push_back(std::atoi(cpu.c_str()));
    }
    args.trace = get("trace") == "1";
    args.spans = get("spans");
    if (args.port == 0 || args.server_pid <= 0 || args.cpus.empty() || args.seconds <= 0) {
      return Usage();
    }
    ok = pb::RunServe(args, &record);
  } else if (command == "verify") {
    pb::VerifyArgs args;
    args.seconds = std::atof(get("seconds").c_str());
    if (!get("min-rounds").empty()) {
      args.min_rounds = std::atoi(get("min-rounds").c_str());
    }
    args.zone = get("zone");
    args.edited = get("edited");
    args.bughunt = get("bughunt");
    args.store_root = get("store-root");
    args.trace = get("trace") == "1";
    args.spans = get("spans");
    if (args.store_root.empty() || args.min_rounds < 1) {
      return Usage();
    }
    ok = pb::RunVerify(args, &record);
  } else {
    return Usage();
  }
  if (!ok) {
    return 1;
  }
  std::printf("%s\n", record.ToJson().c_str());
  return 0;
}

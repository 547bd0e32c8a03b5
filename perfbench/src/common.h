// Small helpers shared by the benchmark's subcommands: clocks, order
// statistics, zone loading, the allocation counter, and the JSON result
// object every subcommand prints as its last line.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "src/dns/zone.h"
#include "src/support/status.h"

namespace pb {

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }
// The values, space-separated, for the record.
std::string JoinValues(const std::vector<double>& values);

dnsv::Result<dnsv::ZoneConfig> LoadZone(const std::string& path);

// operator new calls made by the calling thread so far. Counts only in the
// traced binary, which links the counting hook; elsewhere it stays 0.
uint64_t ThreadAllocs();

// Metrics and facts of one subcommand run, printed as one JSON line.
struct Record {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;  // strings: build facts, layering, validity notes

  // Counts `n` failed ops and keeps `why` once among the reasons.
  void Fail(const std::string& why, int64_t n = 1);
  // Marks the record invalid (info["valid"]) and keeps `why` among the reasons.
  void Invalidate(const std::string& why);
  std::string ToJson() const;
};

}  // namespace pb

#endif  // PERFBENCH_SRC_COMMON_H_

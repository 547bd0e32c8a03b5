// The serve workloads: an out-of-process load generator against the shipped
// dns_server, plus (traced runs) an in-process replay of the same packets
// that times every stage of ServePacket from outside.
#ifndef PERFBENCH_SRC_SERVE_H_
#define PERFBENCH_SRC_SERVE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace pb {

struct ServeArgs {
  std::string workload;  // serve-miss | serve-hot | serve-reload
  uint64_t seed = 1;
  double seconds = 10;
  uint16_t port = 0;
  pid_t server_pid = 0;
  std::string server_log;  // the server's stderr, where SIGUSR1 writes stats
  std::string zone;        // kitchen-sink, as served first
  std::string edited;      // kitchen-sink with one record changed
  std::string live_zone;   // the file the server reloads on SIGHUP
  std::vector<int> cpus;   // generator cores, one thread per core
  bool trace = false;
  std::string spans;       // traced runs write their spans here
};

// Runs the workload's phases against the server and, when tracing, the
// in-process replay. Fills `record`; returns false on a setup error.
bool RunServe(const ServeArgs& args, Record* record);

}  // namespace pb

#endif  // PERFBENCH_SRC_SERVE_H_

// Traced runs of the serve workloads: an in-process replay of the
// workload's own packets that calls the serving layers' public functions in
// ServePacket's order, one span per call, and then times the same packet
// through ServePacket on its own.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workload.h"
#include "src/dns/zone.h"

namespace pb {

// Replays `w`'s stream on a compiled shard with a 4096-entry packet cache,
// flipping between zones[0] and zones[1] every `reload_every` packets when it
// is nonzero (as serve-reload's server does). `miss` supplies fresh keys for
// the full-cache insert probe. Adds the serve-side per-layer metrics to
// `record` and writes the spans to `spans_path`.
bool TraceServe(const Workload& w, const Workload& miss, const std::vector<dnsv::ZoneConfig>& zones,
                int reload_every, uint64_t seed, const std::string& spans_path, Record* record);

// One traced call: name, interval, the span that caused it (-1 for a root)
// and the request it belongs to.
struct Span {
  uint32_t request = 0;
  const char* name = "";
  int parent = -1;  // index into the span list
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace pb

#endif  // PERFBENCH_SRC_TRACE_H_

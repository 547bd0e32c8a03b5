// The serve workloads' traffic: seeded query shapes over the kitchen-sink
// zone, the packet streams built from them, and the reference answers every
// received packet is checked against.
//
// A shape is one (name, qtype, EDNS) question. serve-miss draws shapes whose
// first label is a fresh random label, so no name ever repeats; serve-hot and
// serve-reload draw a fixed vocabulary by Zipf(1.0) rank. Reference answers
// come from the interpreter backend (the reference semantics) with the packet
// cache off, computed once per shape and zone. For fresh-label shapes the
// label bytes are substituted into the reference at the offsets where the
// sample label appeared; that substitution model is itself checked against
// the interpreter on further random labels before any traffic is sent.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dns/rr.h"
#include "src/dns/zone.h"
#include "src/support/status.h"

namespace pb {

// Response classes of the engine, for the per-class engine timings.
enum class Klass : uint8_t { kAnswer, kCname, kWildcard, kReferral, kNxdomain, kNodata, kAdditional };
inline constexpr int kNumKlasses = 7;
const char* KlassName(Klass klass);

inline constexpr size_t kLabelLen = 12;
inline constexpr uint16_t kEdnsPayload = 1232;

// SplitMix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

struct Shape {
  std::string name;  // presentation form; starts with the placeholder label when fresh
  dnsv::RrType qtype = dnsv::RrType::kA;
  bool edns = false;
  bool fresh = false;      // first label is replaced per packet
  bool wildcard = false;   // resolved through the *.dyn wildcard
  Klass klass = Klass::kAnswer;  // filled from the reference answer
  std::vector<uint8_t> query;    // encoded query, ID 0
};

// The reference answer to one shape under one zone. `offsets` lists where
// the fresh label's bytes sit in `wire` (empty for fixed shapes).
struct Reference {
  std::vector<uint8_t> wire;
  std::vector<size_t> offsets;
};

// What the load generator needs to check one answer.
struct PacketInfo {
  uint32_t shape = 0;
  char label[kLabelLen] = {};
};

enum class Traffic { kMiss, kHot };

class Workload {
 public:
  // Builds shapes for `traffic` from `seed` and computes the reference
  // answers under every zone in `zones` (zones[0] is the one served first).
  static dnsv::Result<Workload> Make(Traffic traffic, uint64_t seed,
                                     const std::vector<dnsv::ZoneConfig>& zones);

  Traffic traffic() const { return traffic_; }
  const std::vector<Shape>& shapes() const { return shapes_; }
  const Reference& reference(size_t zone, uint32_t shape) const { return refs_[zone][shape]; }

  // Writes the next packet of a stream into `out` (capacity >= 512) and
  // returns its size. `rng` is the stream's own generator; `counter` is a
  // value unique to this packet across every stream of the run (it makes
  // serve-miss labels distinct). A `watch` packet is always shape 0, a
  // wildcard A question: its answer carries the record the edited zone
  // changes.
  size_t NextPacket(Rng* rng, uint64_t counter, uint16_t id, uint8_t* out, PacketInfo* info,
                    bool watch = false) const;

  // Whether `answer` equals the reference for `info` under `zone`, ignoring
  // the two ID bytes.
  bool Matches(size_t zone, const PacketInfo& info, const uint8_t* answer, size_t size) const;

 private:
  Traffic traffic_ = Traffic::kMiss;
  std::vector<Shape> shapes_;
  std::vector<std::vector<Reference>> refs_;  // [zone][shape]
  std::vector<double> zipf_cdf_;              // hot: over shapes_.size() / 2 names
};

}  // namespace pb

#endif  // PERFBENCH_SRC_WORKLOAD_H_

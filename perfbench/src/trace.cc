#include "perfbench/src/trace.h"

#include <cstdio>
#include <memory>

#include "src/dns/wire.h"
#include "src/engine/engine.h"
#include "src/server/cache.h"
#include "src/server/serve.h"
#include "src/server/server.h"

namespace pb {
namespace {

constexpr int kMissReplayPackets = 20000;
constexpr int kHotReplayPackets = 100000;
// The replay first serves a fifth as many packets unrecorded, so its caches
// are as warm as the live server's after its warm-up phase.
constexpr int kWarmupShare = 5;
// A packet whose traced or untraced pass took longer than this was
// preempted; it is left out of the sums (and counted).
constexpr int64_t kOutlierNs = 1'000'000;
constexpr int kCreateRepeats = 5;
constexpr int kReloadRepeats = 8;
constexpr int kClassShapes = 48;
constexpr int kClassRepeats = 5;
constexpr size_t kCacheEntries = 4096;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::unique_ptr<dnsv::AuthoritativeServer> Shard(const dnsv::ZoneConfig& zone) {
  return std::move(dnsv::AuthoritativeServer::Create(dnsv::EngineVersion::kGolden, zone,
                                                     dnsv::BackendKind::kCompiled))
      .value();
}

// engine.query_ns.<class>: Query alone, on the vocabulary's shapes of each
// response class (the same probe set in every workload).
void ClassTimings(const Workload& hot, dnsv::AuthoritativeServer* shard, Record* record) {
  std::vector<std::vector<double>> samples(kNumKlasses);
  std::vector<int> shapes_used(kNumKlasses);
  for (const Shape& shape : hot.shapes()) {
    int k = static_cast<int>(shape.klass);
    if (shape.edns || shapes_used[k] >= kClassShapes) {
      continue;
    }
    ++shapes_used[k];
    dnsv::WireQuery query = dnsv::ParseWireQuery(shape.query).value();
    for (int r = 0; r < kClassRepeats; ++r) {
      int64_t t0 = NowNs();
      dnsv::QueryResult result = shard->Query(query.qname, query.qtype);
      samples[k].push_back(static_cast<double>(NowNs() - t0));
      if (result.panicked) {
        record->Fail("engine panicked on " + shape.name);
      }
    }
  }
  for (int k = 0; k < kNumKlasses; ++k) {
    record->metrics[std::string("engine.query_ns.") + KlassName(static_cast<Klass>(k))] =
        Median(samples[k]);
  }
}

// server.cache_insert_ns: PacketCache::Insert into a full cache.
void InsertTimings(const Workload& miss, uint64_t seed, Record* record) {
  dnsv::PacketCache cache(kCacheEntries);
  Rng rng(seed + 99);
  uint8_t buf[512];
  PacketInfo info;
  std::vector<uint8_t> wire = miss.reference(0, 0).wire;
  std::vector<double> samples;
  for (uint64_t i = 0; i < 3 * kCacheEntries; ++i) {
    size_t size = miss.NextPacket(&rng, i, 0, buf, &info);
    dnsv::WireQuery query = dnsv::ParseWireQuery(buf, size).value();
    dnsv::CacheKey key;
    if (!dnsv::BuildCacheKey(query, dnsv::kMaxUdpPayload, &key)) {
      record->Fail("cache key refused a workload query");
      continue;
    }
    int64_t t0 = NowNs();
    cache.Insert(key, 1, 3600, wire, nullptr);
    if (i >= 2 * kCacheEntries) {  // the cache is full by now
      samples.push_back(static_cast<double>(NowNs() - t0));
    }
  }
  record->metrics["server.cache_insert_ns"] = Median(samples);
}

// engine.create_ms and server.reload_call_ms: building a shard, and the
// return of DnsServer::Reload on a running server.
void ReloadTimings(const std::vector<dnsv::ZoneConfig>& zones, Record* record) {
  std::vector<double> create;
  for (int i = 0; i < kCreateRepeats; ++i) {
    int64_t t0 = NowNs();
    std::unique_ptr<dnsv::AuthoritativeServer> shard = Shard(zones[static_cast<size_t>(i) % 2]);
    create.push_back(Ms(NowNs() - t0));
  }
  record->metrics["engine.create_ms"] = Median(create);

  dnsv::ServerConfig config;
  config.udp_workers = 2;
  config.backend = dnsv::BackendKind::kCompiled;
  config.enable_tcp = false;
  dnsv::Result<std::unique_ptr<dnsv::DnsServer>> started = dnsv::DnsServer::Start(config, zones[0]);
  if (!started.ok()) {
    record->Fail("in-process server did not start: " + started.error());
    return;
  }
  std::vector<double> reload;
  for (int i = 1; i <= kReloadRepeats; ++i) {
    int64_t t0 = NowNs();
    dnsv::Status status = started.value()->Reload(zones[static_cast<size_t>(i) % 2]);
    reload.push_back(Ms(NowNs() - t0));
    if (!status.ok()) {
      record->Fail("in-process reload failed: " + status.message());
    }
  }
  started.value()->Stop();
  record->metrics["server.reload_call_ms"] = Median(reload);
}

}  // namespace

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) {
    return true;
  }
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "id,request,name,parent,start_ns,end_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%zu,%u,%s,%d,%lld,%lld\n", i, s.request, s.name, s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

bool TraceServe(const Workload& w, const Workload& miss, const std::vector<dnsv::ZoneConfig>& zones,
                int reload_every, uint64_t seed, const std::string& spans_path, Record* record) {
  const int packets = w.traffic() == Traffic::kMiss ? kMissReplayPackets : kHotReplayPackets;
  std::unique_ptr<dnsv::AuthoritativeServer> shard = Shard(zones[0]);
  dnsv::PacketCache traced_cache(kCacheEntries);
  dnsv::PacketCache serve_cache(kCacheEntries);
  dnsv::ServerStats stats;
  uint64_t generation = 1;
  size_t zone = 0;
  Rng rng(seed * 7 + 3);
  uint8_t buf[512];
  PacketInfo info;

  std::vector<Span> spans;
  spans.reserve(static_cast<size_t>(packets) * 7);
  enum { kParse, kProbe, kQuery, kEncode, kInsert, kNumStages };
  static const char* const kStageNames[] = {"dns.parse", "server.cache_probe", "engine.query",
                                           "dns.encode", "server.cache_insert"};
  int64_t stage_ns[kNumStages] = {};
  int64_t request_ns = 0, serve_ns = 0;
  int64_t misses = 0, query_allocs = 0, serve_allocs = 0, outliers = 0, counted = 0;
  int64_t divergences = 0;  // packets where the two passes disagreed on hit vs miss

  const int warmup = packets / kWarmupShare;
  for (int i = -warmup; i < packets; ++i) {
    const bool recorded = i >= 0;
    if (reload_every > 0 && i > -warmup && (i + warmup) % reload_every == 0) {
      zone ^= 1;
      ++generation;
      shard = Shard(zones[zone]);
    }
    uint32_t request = static_cast<uint32_t>(i + warmup);
    size_t size = w.NextPacket(&rng, static_cast<uint64_t>(i + warmup), static_cast<uint16_t>(i),
                               buf, &info);

    // Traced pass: the serving layers' public calls in ServePacket's order.
    size_t first_span = spans.size();
    int64_t stage[kNumStages] = {};
    bool traced_hit = false;
    std::vector<uint8_t> traced_wire;
    int64_t packet_query_allocs = 0, packet_serve_allocs = 0;
    auto traced = [&] {
      spans.push_back({request, "request", -1, NowNs(), 0});
      int parent = static_cast<int>(spans.size()) - 1;
      auto child = [&](int s, int64_t a, int64_t b) {
        spans.push_back({request, kStageNames[s], parent, a, b});
        stage[s] = b - a;
      };
      int64_t a = NowNs();
      dnsv::Result<dnsv::WireQuery> query = dnsv::ParseWireQuery(buf, size);
      int64_t b = NowNs();
      child(kParse, a, b);
      if (!query.ok()) {
        record->Fail("workload packet did not parse");
        return;
      }
      size_t effective = dnsv::EffectivePayloadLimit(query.value().edns, dnsv::kMaxUdpPayload);
      dnsv::CacheKey key;
      bool cacheable = dnsv::BuildCacheKey(query.value(), effective, &key);
      traced_hit = cacheable && traced_cache.Lookup(key, generation, query.value().id,
                                                    &traced_wire, nullptr);
      int64_t c = NowNs();
      child(kProbe, b, c);
      if (!traced_hit) {
        uint64_t allocs = ThreadAllocs();
        dnsv::QueryResult result = shard->Query(query.value().qname, query.value().qtype);
        packet_query_allocs = static_cast<int64_t>(ThreadAllocs() - allocs);
        int64_t d = NowNs();
        child(kQuery, c, d);
        dnsv::Result<std::vector<uint8_t>> encoded =
            dnsv::EncodeWireResponse(query.value(), result.response, effective);
        int64_t e = NowNs();
        child(kEncode, d, e);
        if (!encoded.ok() || result.panicked) {
          record->Fail("engine or encoder failed on a workload packet");
          return;
        }
        traced_wire = std::move(encoded).value();
        uint8_t rcode = traced_wire[3] & 0xF;
        bool truncated = (traced_wire[2] & 0x02) != 0;
        if (cacheable && !truncated && (rcode == 0 || rcode == 3)) {
          uint32_t ttl = dnsv::MinimumResponseTtl(traced_wire);
          if (ttl > 0) {
            traced_cache.Insert(key, generation, ttl, traced_wire, nullptr);
          }
        }
        child(kInsert, e, NowNs());
      }
      spans[static_cast<size_t>(parent)].end_ns = NowNs();
    };
    // Untraced pass: the same packet through ServePacket alone.
    dnsv::ServeOutcome outcome;
    int64_t serve_span = 0;
    int64_t allocs_before = 0;
    auto untraced = [&] {
      allocs_before = static_cast<int64_t>(ThreadAllocs());
      int64_t t0 = NowNs();
      outcome = dnsv::ServePacket(shard.get(), buf, size, dnsv::kMaxUdpPayload, &stats,
                                  dnsv::ServeContext{&serve_cache, generation});
      int64_t t1 = NowNs();
      packet_serve_allocs = static_cast<int64_t>(ThreadAllocs()) - allocs_before;
      spans.push_back({request, "server.serve_packet", -1, t0, t1});
      serve_span = t1 - t0;
    };
    // Alternate the order so neither pass always runs on warm caches.
    if (i % 2 == 0) {
      traced();
      untraced();
    } else {
      untraced();
      traced();
    }
    if (!w.Matches(zone, info, traced_wire.data(), traced_wire.size()) ||
        !w.Matches(zone, info, outcome.wire.data(), outcome.wire.size())) {
      record->Fail("replayed answer differs from the reference");
    }
    if (!recorded) {
      spans.resize(first_span);
      continue;
    }
    divergences += outcome.cache_hit != traced_hit ? 1 : 0;
    misses += traced_hit ? 0 : 1;
    query_allocs += packet_query_allocs;
    serve_allocs += packet_serve_allocs;
    int64_t request_span = 0;
    for (size_t s = first_span; s < spans.size(); ++s) {
      if (spans[s].parent == -1 && std::string(spans[s].name) == "request") {
        request_span = spans[s].end_ns - spans[s].start_ns;
      }
    }
    if (request_span > kOutlierNs || serve_span > kOutlierNs) {
      ++outliers;
      continue;
    }
    ++counted;
    request_ns += request_span;
    serve_ns += serve_span;
    for (int s = 0; s < kNumStages; ++s) {
      stage_ns[s] += stage[s];
    }
  }

  // Dropping a shard frees every label it interned while serving; a worker
  // pays this on its packet path when a reload replaces its shard.
  int64_t released = NowNs();
  shard.reset();
  record->metrics["engine.shard_release_ms"] = Ms(NowNs() - released);

  double n = static_cast<double>(std::max<int64_t>(counted, 1));
  double stages_total = 0;
  for (int s = 0; s < kNumStages; ++s) {
    stages_total += static_cast<double>(stage_ns[s]);
  }
  record->metrics["dns.parse_ns"] = static_cast<double>(stage_ns[kParse]) / n;
  record->metrics["server.cache_probe_ns"] = static_cast<double>(stage_ns[kProbe]) / n;
  record->metrics["engine.query_ns"] = static_cast<double>(stage_ns[kQuery]) / n;
  record->metrics["dns.encode_ns"] = static_cast<double>(stage_ns[kEncode]) / n;
  record->metrics["server.serve_packet_ns"] = static_cast<double>(serve_ns) / n;
  record->metrics["server.serve_allocs"] = static_cast<double>(serve_allocs) / packets;
  record->metrics["engine.allocs_per_query"] =
      static_cast<double>(query_allocs) / static_cast<double>(std::max<int64_t>(misses, 1));
  double residual = 1.0 - stages_total / static_cast<double>(std::max<int64_t>(serve_ns, 1));
  record->metrics["server.breakdown_residual"] = residual;
  record->metrics["trace.overhead_frac"] =
      static_cast<double>(request_ns) / static_cast<double>(std::max<int64_t>(serve_ns, 1)) - 1.0;
  record->attempted += packets + warmup;
  record->info["replay_packets"] = std::to_string(packets);
  record->info["replay_misses"] = std::to_string(misses);
  record->info["replay_outliers"] = std::to_string(outliers);
  record->info["replay_cache_divergences"] = std::to_string(divergences);
  if (std::abs(residual) > 0.10) {
    record->Invalidate("serve spans account for ServePacket only to within " +
                       std::to_string(residual));
  }
  if (divergences > 0) {
    record->Invalidate("the span replay's cache diverged from ServePacket's");
  }

  dnsv::Result<Workload> hot_made = w.traffic() == Traffic::kHot
                                        ? dnsv::Result<Workload>::Error("unused")
                                        : Workload::Make(Traffic::kHot, seed, {zones[0]});
  const Workload& hot = w.traffic() == Traffic::kHot ? w : hot_made.value();
  ClassTimings(hot, Shard(zones[0]).get(), record);
  InsertTimings(miss, seed, record);
  ReloadTimings(zones, record);
  if (!WriteSpans(spans_path, spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return false;
  }
  return true;
}

}  // namespace pb

#include "perfbench/src/workload.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/dns/wire.h"
#include "src/engine/engine.h"
#include "src/server/serve.h"

namespace pb {

using dnsv::Result;
using dnsv::RrType;

namespace {

constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
constexpr size_t kHotNames = 1000;     // x2 EDNS variants = 2000 keys, below the 4096-entry cache
constexpr int kSubstitutionChecks = 16;  // extra interpreter samples per fresh-label shape

// The random-subdomain families of serve-miss (and the random part of the
// hot vocabulary): the label sits under the wildcard, under the delegation,
// or where nothing exists.
struct Family {
  const char* suffix;  // relative to the origin; "" is the apex
  RrType qtype;
  bool wildcard;
};
constexpr Family kFamilies[] = {
    {"dyn", RrType::kA, true},      // wildcard A answer
    {"dyn", RrType::kMx, true},     // wildcard MX with additional records
    {"dyn", RrType::kAaaa, true},   // NODATA at a wildcard match
    {"sub", RrType::kA, false},     // referral
    {"", RrType::kA, false},        // NXDOMAIN under the apex
    {"ent", RrType::kA, false},     // NXDOMAIN under the empty non-terminal
};
constexpr size_t kNumFamilies = sizeof(kFamilies) / sizeof(kFamilies[0]);

// Fixed kitchen-sink questions that cover the plain-answer, CNAME, NODATA,
// additional and referral classes in the hot vocabulary.
struct FixedName {
  const char* name;  // relative to the origin; "@" is the apex
  RrType qtype;
};
constexpr FixedName kFixedNames[] = {
    {"www", RrType::kA},       {"ns1", RrType::kA},      {"ns2", RrType::kA},
    {"mail", RrType::kA},      {"www", RrType::kTxt},    {"ns1", RrType::kAaaa},
    {"leaf.ent", RrType::kA},  {"@", RrType::kSoa},      {"@", RrType::kNs},
    {"alias", RrType::kA},     {"chain", RrType::kA},    {"alias", RrType::kTxt},
    {"chain", RrType::kMx},    {"@", RrType::kMx},       {"www", RrType::kAaaa},
    {"mail", RrType::kMx},     {"ent", RrType::kA},      {"www", RrType::kMx},
    {"sub", RrType::kA},       {"ns1.sub", RrType::kA},  {"sub", RrType::kNs},
};

void RandomLabel(Rng* rng, size_t len, char* out) {
  for (size_t i = 0; i < len; ++i) {
    out[i] = kAlphabet[rng->Below(36)];
  }
}

// Six seeded characters, then the counter in base 36: distinct counters give
// distinct labels, so serve-miss never repeats a name.
void FreshLabel(Rng* rng, uint64_t counter, char* out) {
  RandomLabel(rng, kLabelLen / 2, out);
  for (size_t i = kLabelLen; i > kLabelLen / 2; --i) {
    out[i - 1] = kAlphabet[counter % 36];
    counter /= 36;
  }
}

std::string Join(const std::string& relative, const std::string& origin) {
  if (relative.empty() || relative == "@") {
    return origin;
  }
  return relative + "." + origin;
}

// The query's first label starts after the 12-byte header and its length byte.
constexpr size_t kLabelOffset = 13;

Result<std::vector<uint8_t>> Serve(dnsv::AuthoritativeServer* server,
                                   const std::vector<uint8_t>& query) {
  dnsv::ServeOutcome outcome =
      dnsv::ServePacket(server, query.data(), query.size(), dnsv::kMaxUdpPayload, nullptr);
  if (outcome.parse_error || outcome.servfail_fallback || outcome.not_implemented ||
      outcome.badvers || outcome.truncated) {
    return Result<std::vector<uint8_t>>::Error("reference answer is an error or truncated");
  }
  uint8_t rcode = outcome.wire[3] & 0xF;
  if (rcode != static_cast<uint8_t>(dnsv::Rcode::kNoError) &&
      rcode != static_cast<uint8_t>(dnsv::Rcode::kNxDomain)) {
    return Result<std::vector<uint8_t>>::Error("reference answer has rcode " +
                                               std::to_string(rcode));
  }
  outcome.wire[0] = 0;
  outcome.wire[1] = 0;
  return std::move(outcome.wire);
}

Klass Classify(const Shape& shape, const std::vector<uint8_t>& wire) {
  dnsv::WireQuery echoed;
  Result<dnsv::ResponseView> view = dnsv::ParseWireResponse(wire, &echoed);
  DNSV_CHECK_MSG(view.ok(), "reference answer does not parse");
  const dnsv::ResponseView& v = view.value();
  if (v.rcode == dnsv::Rcode::kNxDomain) {
    return Klass::kNxdomain;
  }
  if (!v.aa) {
    return Klass::kReferral;
  }
  for (const dnsv::RrView& rr : v.answer) {
    if (rr.type == RrType::kCname) {
      return Klass::kCname;
    }
  }
  if (v.answer.empty()) {
    return Klass::kNodata;
  }
  if (!v.additional.empty()) {
    return Klass::kAdditional;
  }
  return shape.wildcard ? Klass::kWildcard : Klass::kAnswer;
}

}  // namespace

const char* KlassName(Klass klass) {
  switch (klass) {
    case Klass::kAnswer: return "answer";
    case Klass::kCname: return "cname";
    case Klass::kWildcard: return "wildcard";
    case Klass::kReferral: return "referral";
    case Klass::kNxdomain: return "nxdomain";
    case Klass::kNodata: return "nodata";
    case Klass::kAdditional: return "additional";
  }
  return "?";
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

Result<Workload> Workload::Make(Traffic traffic, uint64_t seed,
                                const std::vector<dnsv::ZoneConfig>& zones) {
  Workload w;
  w.traffic_ = traffic;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  std::string origin = zones.at(0).origin.ToString();
  const std::string placeholder(kLabelLen, 'a');

  struct Question {
    std::string name;
    RrType qtype;
    bool fresh;
    bool wildcard;
  };
  std::vector<Question> questions;
  if (traffic == Traffic::kMiss) {
    for (const Family& f : kFamilies) {
      questions.push_back({Join(placeholder + (f.suffix[0] ? "." : "") + f.suffix, origin),
                           f.qtype, true, f.wildcard});
    }
  } else {
    std::vector<Question> fixed;
    for (const FixedName& f : kFixedNames) {
      fixed.push_back({Join(f.name, origin), f.qtype, false, false});
    }
    char label[8];
    auto random_name = [&](const Family& f) {
      RandomLabel(&rng, sizeof(label), label);
      std::string first(label, sizeof(label));
      return Question{Join(first + (f.suffix[0] ? "." : "") + f.suffix, origin), f.qtype, false,
                      f.wildcard};
    };
    // Rank 1 is a wildcard A name: it carries the record the edited zone
    // changes. Below it the ranks cycle through the six random families and
    // the fixed names, so which response classes are hot does not depend on
    // the seed; the seed picks the labels.
    questions.push_back(random_name(kFamilies[0]));
    size_t next_fixed = 0;
    for (size_t r = 1; questions.size() < kHotNames; ++r) {
      size_t slot = r % (kNumFamilies + 1);
      if (slot == kNumFamilies && next_fixed < fixed.size()) {
        questions.push_back(fixed[next_fixed++]);
      } else {
        questions.push_back(random_name(kFamilies[slot % kNumFamilies]));
      }
    }
    double total = 0;
    for (size_t r = 1; r <= questions.size(); ++r) {
      total += 1.0 / static_cast<double>(r);
      w.zipf_cdf_.push_back(total);
    }
    for (double& c : w.zipf_cdf_) {
      c /= total;
    }
  }

  for (const Question& q : questions) {
    for (bool edns : {false, true}) {
      Result<dnsv::DnsName> name = dnsv::DnsName::Parse(q.name);
      if (!name.ok()) {
        return Result<Workload>::Error("bad workload name " + q.name + ": " + name.error());
      }
      dnsv::WireQuery query;
      query.qname = name.value();
      query.qtype = q.qtype;
      query.edns.present = edns;
      query.edns.udp_payload = kEdnsPayload;
      Shape shape;
      shape.name = q.name;
      shape.qtype = q.qtype;
      shape.edns = edns;
      shape.fresh = q.fresh;
      shape.wildcard = q.wildcard;
      shape.query = dnsv::EncodeWireQuery(query);
      if (q.fresh && std::memcmp(shape.query.data() + kLabelOffset, placeholder.data(),
                                 kLabelLen) != 0) {
        return Result<Workload>::Error("placeholder label not at the expected offset");
      }
      w.shapes_.push_back(std::move(shape));
    }
  }

  Rng sample_rng(seed ^ 0x5eed5eed5eed5eedULL);
  for (const dnsv::ZoneConfig& zone : zones) {
    Result<std::unique_ptr<dnsv::AuthoritativeServer>> created =
        dnsv::AuthoritativeServer::Create(dnsv::EngineVersion::kGolden, zone,
                                          dnsv::BackendKind::kInterp);
    if (!created.ok()) {
      return Result<Workload>::Error("reference server: " + created.error());
    }
    dnsv::AuthoritativeServer* server = created.value().get();
    std::vector<Reference> refs;
    for (const Shape& shape : w.shapes_) {
      Reference ref;
      std::vector<uint8_t> query = shape.query;
      char label[kLabelLen];
      if (shape.fresh) {
        RandomLabel(&sample_rng, kLabelLen, label);
        std::memcpy(query.data() + kLabelOffset, label, kLabelLen);
      }
      Result<std::vector<uint8_t>> wire = Serve(server, query);
      if (!wire.ok()) {
        return Result<Workload>::Error(shape.name + ": " + wire.error());
      }
      ref.wire = std::move(wire).value();
      if (shape.fresh) {
        auto it = ref.wire.begin();
        while ((it = std::search(it, ref.wire.end(), label, label + kLabelLen)) !=
               ref.wire.end()) {
          ref.offsets.push_back(static_cast<size_t>(it - ref.wire.begin()));
          it += kLabelLen;
        }
      }
      refs.push_back(std::move(ref));
    }
    w.refs_.push_back(std::move(refs));

    // Check the substitution model on fresh labels before trusting it.
    for (uint32_t s = 0; s < w.shapes_.size(); ++s) {
      if (!w.shapes_[s].fresh) {
        continue;
      }
      for (int k = 0; k < kSubstitutionChecks; ++k) {
        PacketInfo info;
        info.shape = s;
        RandomLabel(&sample_rng, kLabelLen, info.label);
        std::vector<uint8_t> query = w.shapes_[s].query;
        std::memcpy(query.data() + kLabelOffset, info.label, kLabelLen);
        Result<std::vector<uint8_t>> wire = Serve(server, query);
        if (!wire.ok() || !w.Matches(w.refs_.size() - 1, info, wire.value().data(),
                                     wire.value().size())) {
          return Result<Workload>::Error("label substitution does not reproduce the reference for " +
                                         w.shapes_[s].name);
        }
      }
    }
  }
  for (uint32_t s = 0; s < w.shapes_.size(); ++s) {
    w.shapes_[s].klass = Classify(w.shapes_[s], w.refs_[0][s].wire);
  }
  return w;
}

size_t Workload::NextPacket(Rng* rng, uint64_t counter, uint16_t id, uint8_t* out,
                            PacketInfo* info, bool watch) const {
  if (watch) {
    info->shape = 0;
  } else if (traffic_ == Traffic::kMiss) {
    info->shape = static_cast<uint32_t>(rng->Below(shapes_.size()));
  } else {
    double u = rng->Uniform();
    size_t rank = static_cast<size_t>(std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
                                      zipf_cdf_.begin());
    rank = std::min(rank, zipf_cdf_.size() - 1);
    info->shape = static_cast<uint32_t>(rank * 2 + rng->Below(2));
  }
  const Shape& shape = shapes_[info->shape];
  std::memcpy(out, shape.query.data(), shape.query.size());
  out[0] = static_cast<uint8_t>(id >> 8);
  out[1] = static_cast<uint8_t>(id & 0xFF);
  if (shape.fresh) {
    FreshLabel(rng, counter, info->label);
    std::memcpy(out + kLabelOffset, info->label, kLabelLen);
  }
  return shape.query.size();
}

bool Workload::Matches(size_t zone, const PacketInfo& info, const uint8_t* answer,
                       size_t size) const {
  const Reference& ref = refs_[zone][info.shape];
  if (size != ref.wire.size()) {
    return false;
  }
  size_t pos = 2;  // the ID is the client's, not the reference's
  for (size_t offset : ref.offsets) {
    if (std::memcmp(answer + pos, ref.wire.data() + pos, offset - pos) != 0 ||
        std::memcmp(answer + offset, info.label, kLabelLen) != 0) {
      return false;
    }
    pos = offset + kLabelLen;
  }
  return std::memcmp(answer + pos, ref.wire.data() + pos, size - pos) == 0;
}

}  // namespace pb

#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank), values.end());
  return values[rank];
}

dnsv::Result<dnsv::ZoneConfig> LoadZone(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return dnsv::Result<dnsv::ZoneConfig>::Error("cannot open zone file " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return dnsv::ParseZoneText(text.str());
}

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  for (double x : values) {
    out += (out.empty() ? "" : " ") + std::to_string(x);
  }
  return out;
}

void Record::Fail(const std::string& why, int64_t n) {
  if (n <= 0) {
    return;
  }
  failed += n;
  correct = false;
  std::string& reasons = info["failures"];
  if (reasons.find(why) == std::string::npos && reasons.size() < 2000) {
    reasons += (reasons.empty() ? "" : "; ") + why;
  }
}

void Record::Invalidate(const std::string& why) {
  std::string& valid = info["valid"];
  valid = (valid.empty() || valid == "true" ? "false: " : valid + "; ") + why;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Record::ToJson() const {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out += (first ? "" : ", ") + Quote(name) + ": " + buf;
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [name, value] : info) {
    out += (first ? "" : ", ") + Quote(name) + ": " + Quote(value);
    first = false;
  }
  return out + "}}";
}

}  // namespace pb

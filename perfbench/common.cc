#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

void Report::Fail(const std::string& why, uint64_t operations) {
  failed += operations;
  notes.push_back("FAILED: " + why);
}

SpeedMeter::SpeedMeter()
    : table_(1u << 18), words_(1u << 14), work_(1u << 14) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint32_t& w : words_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = static_cast<uint32_t>(x);
  }
}

double SpeedMeter::Measure() {
  const Clock::time_point start = Clock::now();
  // Part 1: random read-modify-write over a 1 MiB table (cache misses,
  // branches), then an integer sort.
  uint32_t acc = 0;
  for (int round = 0; round < 8; ++round) {
    std::fill(table_.begin(), table_.end(), 0u);
    for (uint32_t w : words_) {
      uint32_t h = w;
      for (int step = 0; step < 6; ++step) {
        h = h * 0x01000193u ^ (h >> 15);
        uint32_t& slot = table_[h & (table_.size() - 1)];
        if ((slot & 1u) == 0) slot += h; else acc += slot;
      }
    }
    std::copy(words_.begin(), words_.end(), work_.begin());
    for (uint32_t& w : work_) w ^= acc;
    std::sort(work_.begin(), work_.end());
    acc += work_[work_.size() / 2];
  }
  // Part 2: short decimal strings (no heap allocation of their own) counted
  // in a node-based hash table, looked up again, then sorted.
  std::vector<std::string> keys;
  keys.reserve(12000);
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 12000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back(std::to_string(x % 1000003));
  }
  std::unordered_map<std::string, int> counts;
  for (const std::string& k : keys) ++counts[k];
  for (int round = 0; round < 4; ++round) {
    for (const std::string& k : keys) acc += static_cast<uint32_t>(counts[k]);
  }
  std::sort(keys.begin(), keys.end());
  sink_ = acc + static_cast<uint32_t>(keys.front().size());
  const double ms = MsSince(start);
  samples_ms_.push_back(ms);
  return ms;
}

double SpeedMeter::MedianFactor() const {
  if (samples_ms_.empty()) return 1.0;
  return kReferenceMs / Median(samples_ms_);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t RelationHash(const anmat::Relation& relation) {
  uint64_t h = Fnv1a("");
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    h = Fnv1a(relation.schema().column(c).name, h);
    h = Fnv1a("\x1f", h);
  }
  for (anmat::RowId r = 0; r < relation.num_rows(); ++r) {
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      h = Fnv1a(relation.cell(r, c), h);
      h = Fnv1a("\x1f", h);
    }
    h = Fnv1a("\x1e", h);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench

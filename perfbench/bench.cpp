#include "bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/rng.h"

namespace tamperbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t Options::sized(std::size_t full, std::size_t floor) const {
  const auto n = static_cast<std::size_t>(std::llround(static_cast<double>(full) * scale));
  return std::max(n, floor);
}

void Result::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  std::cerr << "tamperbench: check failed: " << why << '\n';
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;  // JSON has no NaN/Inf; never emitted by design
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Result::print() const {
  std::string info = "{\"info\": {";
  for (auto it = info_.begin(); it != info_.end(); ++it)
    info += (it == info_.begin() ? "" : ", ") + quoted(it->first) + ": " + number(it->second);
  std::cout << info << "}}\n";

  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (auto it = metrics_.begin(); it != metrics_.end(); ++it) {
    line += (it == metrics_.begin() ? "" : ", ") + quoted(it->first) +
            ": {\"value\": " + number(it->second.value) +
            ", \"unit\": " + quoted(it->second.unit) + "}";
  }
  std::cout << line << "}}" << std::endl;
}

namespace {

double status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0) return std::strtod(line.c_str() + field.size() + 1, nullptr);
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_kib("VmHWM") * 1024.0 / 1e6; }

void trim_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void reset_peak_rss() {
  trim_heap();
  // "5" resets the VmHWM high-water mark to the current RSS (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

world::TrafficConfig traffic_config(std::uint64_t seed, bool keep_raw) {
  world::TrafficConfig config;
  config.seed = tamper::common::mix64(seed ^ 0x7aff1cULL);
  config.keep_raw_inbound = keep_raw;
  return config;
}

std::vector<world::LabeledConnection> generate(const world::World& world, std::uint64_t seed,
                                               std::size_t count, bool keep_raw) {
  world::TrafficGenerator generator(world, traffic_config(seed, keep_raw));
  std::vector<world::LabeledConnection> conns;
  conns.reserve(count);
  generator.generate(count, [&conns](world::LabeledConnection&& c) {
    conns.push_back(std::move(c));
  });
  return conns;
}

std::vector<capture::ConnectionSample> samples_in_capture_order(
    std::vector<world::LabeledConnection>&& conns) {
  std::vector<std::size_t> order(conns.size());
  std::iota(order.begin(), order.end(), 0);
  const auto first_ts = [&conns](std::size_t i) {
    const auto& pkts = conns[i].sample.packets;
    return pkts.empty() ? conns[i].sample.observation_end_sec : pkts.front().ts_sec;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return first_ts(a) < first_ts(b); });
  std::vector<capture::ConnectionSample> samples;
  samples.reserve(conns.size());
  for (const std::size_t i : order) samples.push_back(std::move(conns[i].sample));
  conns.clear();
  return samples;
}

}  // namespace tamperbench

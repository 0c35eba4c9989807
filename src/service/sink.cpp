#include "service/sink.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

namespace tamper::service {

namespace fs = std::filesystem;

namespace {

/// Prefix of a spool entry still being written. spool_files() lists only
/// names starting with "report-", so these are never replayed or counted.
constexpr const char* kSpoolTempPrefix = "tmp-";

}  // namespace

bool FileSink::deliver(const std::string& payload) {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << payload;
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

ReportEmitter::ReportEmitter(Sink& sink, RetryPolicy policy, std::string spool_dir,
                             std::uint64_t seed, std::function<void(double)> sleep_fn)
    : sink_(sink),
      policy_(policy),
      spool_dir_(std::move(spool_dir)),
      rng_(common::mix64(seed ^ 0x5e11ba0cf0f5ULL)),
      sleep_fn_(std::move(sleep_fn)) {
  if (!sleep_fn_) {
    sleep_fn_ = [](double seconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    };
  }
  if (!spool_dir_.empty()) {
    std::error_code ec;
    fs::create_directories(spool_dir_, ec);
    // A temp entry is a spool write a previous process died inside: never
    // renamed into place, so never a report. Drop it.
    for (const auto& entry : fs::directory_iterator(spool_dir_, ec)) {
      if (entry.path().filename().string().rfind(kSpoolTempPrefix, 0) == 0)
        fs::remove(entry.path(), ec);
    }
    // Resume the sequence past any reports spooled by a previous process so
    // replay order stays oldest-first across restarts.
    common::MutexLock lock(mu_);
    for (const std::string& name : spool_files()) {
      const auto digits = name.find_last_of('-');
      if (digits != std::string::npos)
        spool_seq_ = std::max<std::uint64_t>(
            spool_seq_, std::strtoull(name.c_str() + digits + 1, nullptr, 10) + 1);
    }
  }
}

bool ReportEmitter::emit(const std::string& payload) {
  {
    common::MutexLock lock(mu_);
    ++stats_.reports;
  }
  if (try_deliver(payload)) {
    {
      common::MutexLock lock(mu_);
      ++stats_.delivered;
    }
    replay_spool();
    return true;
  }
  spool(payload);
  return false;
}

bool ReportEmitter::try_deliver(const std::string& payload) {
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      {
        common::MutexLock lock(mu_);
        ++stats_.retries;
      }
      sleep_fn_(backoff_delay(attempt));  // backoff happens outside the lock
    }
    {
      common::MutexLock lock(mu_);
      ++stats_.attempts;
    }
    try {
      if (sink_.deliver(payload)) return true;
    } catch (...) {
      // A throwing sink is just a failing sink.
    }
  }
  return false;
}

double ReportEmitter::backoff_delay(int attempt) {
  double delay = policy_.initial_backoff_s;
  for (int i = 1; i < attempt; ++i) delay *= policy_.backoff_multiplier;
  delay = std::min(delay, policy_.max_backoff_s);
  const double jitter = policy_.jitter_fraction * delay;
  return std::max(0.0, delay + rng_.uniform(-jitter, jitter));
}

void ReportEmitter::spool(const std::string& payload) {
  if (spool_dir_.empty()) {
    common::MutexLock lock(mu_);
    ++stats_.lost;
    return;
  }
  std::uint64_t seq = 0;
  {
    common::MutexLock lock(mu_);
    seq = spool_seq_++;
  }
  char name[32];
  std::snprintf(name, sizeof name, "report-%012llu",
                static_cast<unsigned long long>(seq));
  // Written under a temp name spool_files() ignores, then renamed into
  // place: a crash mid-write leaves a temp entry (dropped by the next
  // constructor), never a truncated report-N that replay would deliver.
  const fs::path path = fs::path(spool_dir_) / name;
  const fs::path tmp = fs::path(spool_dir_) / (kSpoolTempPrefix + std::string(name));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  const bool written = out && (out << payload).flush();
  out.close();
  std::error_code ec;
  if (written) fs::rename(tmp, path, ec);
  if (!written || ec) {
    fs::remove(tmp, ec);
    common::MutexLock lock(mu_);
    ++stats_.lost;
    return;
  }
  {
    common::MutexLock lock(mu_);
    ++stats_.spooled;
  }
  // Enforce the spool cap by evicting oldest-first: under sustained sink
  // failure the freshest aggregates are the ones worth replaying, and disk
  // usage must stay bounded (the overload contract). Each eviction is
  // counted — data loss by policy, never silent.
  if (policy_.max_spool_depth > 0) {
    std::vector<std::string> names = spool_files();
    for (std::size_t i = 0; names.size() - i > policy_.max_spool_depth; ++i) {
      fs::remove(fs::path(spool_dir_) / names[i], ec);
      common::MutexLock lock(mu_);
      ++stats_.spool_dropped;
    }
  }
}

void ReportEmitter::replay_spool() {
  if (spool_dir_.empty()) return;
  for (const std::string& name : spool_files()) {
    const fs::path path = fs::path(spool_dir_) / name;
    // Sized once and read in one call, as load_checkpoint does. file_size
    // also refuses what is not a regular file, such as a directory.
    std::error_code ec;
    std::ifstream in(path, std::ios::binary);
    const std::uintmax_t size = fs::file_size(path, ec);
    std::string payload;
    if (!ec) payload.resize(static_cast<std::size_t>(size));
    if (ec || !in || !in.read(payload.data(), static_cast<std::streamsize>(payload.size()))) {
      // An unreadable spool entry is data loss: a previous pass accepted
      // the report into the spool and this one cannot deliver it. Count it
      // and quarantine it (rename bad-*) so one poisoned entry cannot stall
      // every future replay pass at the same spot.
      {
        common::MutexLock lock(mu_);
        ++stats_.spool_replay_failures;
      }
      fs::rename(path, fs::path(spool_dir_) / ("bad-" + name), ec);
      if (ec) fs::remove_all(path, ec);
      continue;
    }
    in.close();
    // One direct attempt per spooled report — the spool is already the
    // fallback, so a failure just leaves the file for the next replay.
    {
      common::MutexLock lock(mu_);
      ++stats_.attempts;
    }
    bool ok = false;
    try {
      ok = sink_.deliver(payload);
    } catch (...) {
    }
    if (!ok) return;
    {
      common::MutexLock lock(mu_);
      ++stats_.delivered;
      ++stats_.spool_replayed;
    }
    fs::remove(path, ec);
  }
}

std::size_t ReportEmitter::spool_depth() const { return spool_files().size(); }

std::vector<std::string> ReportEmitter::spool_files() const {
  std::vector<std::string> names;
  if (spool_dir_.empty()) return names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(spool_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("report-", 0) == 0) names.push_back(name);
  }
  // Replay order is the embedded sequence number, not the lexical name.
  // Zero-padding keeps the two aligned only until the width overflows or a
  // foreign spool feeds unpadded names; oldest-first is a correctness
  // property, so sort numerically (name as tie-break for malformed digits).
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) {
              const auto seq = [](const std::string& n) {
                return std::strtoull(n.c_str() + n.find_last_of('-') + 1, nullptr, 10);
              };
              const unsigned long long sa = seq(a), sb = seq(b);
              return sa != sb ? sa < sb : a < b;
            });
  return names;
}

}  // namespace tamper::service

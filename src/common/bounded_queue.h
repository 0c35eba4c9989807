// Bounded MPSC queue with an explicit backpressure contract.
//
// The streaming service puts this between capture (producers) and analysis
// (one worker): a load spike must translate into either producer blocking
// or accounted shedding — never unbounded memory. Two policies:
//
//   * kBlock — push() waits for space (or for close()).
//   * kShed  — push() never waits. When full it sheds one item, preferring
//     queued items the `shed_first` predicate marks as low-value (the
//     service marks embryonic single-SYN samples, the shape a flood leaves
//     behind) so real connections survive overload. Every shed is counted
//     and the service folds the counts into DegradedStats.
//
// Hand-off cost is paid per batch, not per item:
//
//   * The consumer drains with pop_batch(), which moves up to kMaxBatch
//     items under one lock acquisition into a container the consumer owns.
//   * A push wakes the consumer only when a consumer is waiting on an empty
//     queue; a consumer busy with its last batch is never signalled.
//   * A producer blocked on a full queue is woken only when a pop lifts the
//     free space to a quarter of the capacity (the wake watermark), not
//     after every pop, so a blocked producer costs one wake per
//     quarter-queue instead of one per item. At the watermark every blocked
//     producer is woken: waking one could let it push a few last items and
//     leave the others asleep while the consumer empties the queue, which
//     never crosses the watermark again. close() also wakes everyone.
//
// Items a consumer has popped are no longer this queue's: size() counts
// only what is still queued. A consumer that holds a batch must add what it
// holds wherever "admitted, not yet processed" is the question (the service
// does, see SupervisedService::backlog).
//
// Locking: one Mutex guards all mutable state; the capability annotations
// below make that discipline compile-time checked under Clang
// -Wthread-safety (see common/thread_annotations.h).
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tamper::common {

enum class QueuePolicy : std::uint8_t {
  kBlock,  ///< push blocks until space is available
  kShed,   ///< push sheds (low-value-first) instead of blocking
};

/// Cumulative queue counters (namespace-scope so non-template consumers —
/// Pipeline::record_queue_stats — can take them without the element type).
struct BoundedQueueStats {
  std::uint64_t pushed = 0;            ///< items accepted into the queue
  std::uint64_t popped = 0;
  std::uint64_t shed_low_value = 0;    ///< sheds chosen by shed_first
  std::uint64_t shed_other = 0;        ///< sheds with no low-value candidate
  std::uint64_t push_waits = 0;        ///< kBlock: pushes that had to wait
  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_low_value + shed_other;
  }
};

template <typename T>
class BoundedQueue {
 public:
  using Stats = BoundedQueueStats;

  /// Most items one pop_batch() moves.
  static constexpr std::size_t kMaxBatch = 256;

  BoundedQueue(std::size_t capacity, QueuePolicy policy,
               std::function<bool(const T&)> shed_first = {})
      : capacity_(capacity == 0 ? 1 : capacity),
        wake_free_(std::max<std::size_t>(1, capacity_ / 4)),
        policy_(policy),
        shed_first_(std::move(shed_first)) {}

  /// Returns false only when the queue is closed (item not enqueued).
  bool push(T item) TAMPER_EXCLUDES(mu_) {
    UniqueLock lock(mu_);
    if (closed_) return false;
    if (policy_ == QueuePolicy::kBlock) {
      if (items_.size() >= capacity_) {
        ++stats_.push_waits;
        while (!closed_ && items_.size() >= capacity_) not_full_.wait(lock);
        if (closed_) return false;
      }
    } else if (items_.size() >= capacity_) {
      shed_one(std::move(item));
      return true;  // the queue was full, so no consumer is waiting
    }
    items_.push_back(std::move(item));
    ++stats_.pushed;
    if (waiting_consumers_ > 0) not_empty_.notify_one();
    return true;
  }

  /// Move up to `max` (at most kMaxBatch) items, oldest first, onto the back
  /// of `out`. Waits up to `timeout` for the first item, never for more.
  /// Returns the number moved: 0 on timeout, or once the queue is closed and
  /// drained.
  template <typename Rep, typename Period>
  std::size_t pop_batch(std::deque<T>& out, std::chrono::duration<Rep, Period> timeout,
                        std::size_t max = kMaxBatch) TAMPER_EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    UniqueLock lock(mu_);
    ++waiting_consumers_;
    while (!closed_ && items_.empty()) {
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    --waiting_consumers_;
    // A producer only ever blocks on a full queue, so every blocked producer
    // is asleep from before the free space last rose through the watermark:
    // waking all of them at that crossing wakes each one.
    const bool below_watermark = capacity_ - items_.size() < wake_free_;
    const std::size_t n = std::min({items_.size(), max, kMaxBatch});
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    stats_.popped += n;
    if (below_watermark && capacity_ - items_.size() >= wake_free_) not_full_.notify_all();
    return n;
  }

  /// Non-blocking pop of one item.
  std::optional<T> try_pop() {
    std::deque<T> one;
    if (pop_batch(one, std::chrono::seconds(0), 1) == 0) return std::nullopt;
    return std::move(one.front());
  }

  /// Reject future pushes and wake all waiters; queued items stay poppable.
  void close() TAMPER_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const TAMPER_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t size() const TAMPER_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] Stats stats() const TAMPER_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  /// Called with the lock held and the queue full: make room for `incoming`
  /// by shedding the lowest-value item (queued low-value first, then the
  /// incoming item if it is itself low-value, then the oldest queued item).
  void shed_one(T incoming) TAMPER_REQUIRES(mu_) {
    if (shed_first_) {
      for (auto it = items_.begin(); it != items_.end(); ++it) {
        if (shed_first_(*it)) {
          items_.erase(it);
          ++stats_.shed_low_value;
          items_.push_back(std::move(incoming));
          ++stats_.pushed;
          return;
        }
      }
      if (shed_first_(incoming)) {
        ++stats_.shed_low_value;  // incoming itself is the low-value victim
        return;
      }
    }
    items_.pop_front();
    ++stats_.shed_other;
    items_.push_back(std::move(incoming));
    ++stats_.pushed;
  }

  const std::size_t capacity_;
  const std::size_t wake_free_;  ///< free slots that wake blocked producers
  const QueuePolicy policy_;
  const std::function<bool(const T&)> shed_first_;

  mutable Mutex mu_;
  std::condition_variable_any not_empty_;
  std::condition_variable_any not_full_;
  std::deque<T> items_ TAMPER_GUARDED_BY(mu_);
  Stats stats_ TAMPER_GUARDED_BY(mu_);
  std::size_t waiting_consumers_ TAMPER_GUARDED_BY(mu_) = 0;
  bool closed_ TAMPER_GUARDED_BY(mu_) = false;
};

}  // namespace tamper::common

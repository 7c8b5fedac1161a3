// A minimal bounded MPMC queue for pipeline handoff.
//
// The streaming scan→aggregate pipeline uses it to hand each finished
// per-server ScanResult (by index) from the scanner tasks to the
// aggregating consumer as soon as it completes, instead of barriering
// on the whole cluster scan. The bound provides backpressure: scanners
// stall rather than letting decode work pile up unboundedly ahead of
// the consumer.
//
// close() ends the stream: blocked producers give up (push returns
// false), and consumers drain the remaining items before pop() starts
// returning nullopt. Pipelines with an exact item count (the
// aggregator knows how many servers will report) never need it, but
// open-ended producers — an online checker feeding changelog batches —
// use close() as the shutdown signal instead of a poison value.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/annotations.h"
#include "common/mutex.h"

namespace faultyrank {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full and open. Returns true once the
  /// value is enqueued; false (dropping the value) if the queue is or
  /// becomes closed while waiting.
  bool push(T value) {
    {
      MutexLock lock(mutex_);
      while (items_.size() >= capacity_ && !closed_) not_full_.wait(lock);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty and open. Returns the next item,
  /// or nullopt once the queue is closed and drained.
  [[nodiscard]] std::optional<T> pop() {
    std::optional<T> value;
    {
      MutexLock lock(mutex_);
      while (items_.empty() && !closed_) not_empty_.wait(lock);
      if (items_.empty()) return std::nullopt;  // closed and drained
      value.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Idempotent. Wakes every blocked producer (their push fails) and
  /// consumer (pop drains what is left, then reports end-of-stream).
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::deque<T> items_ FR_GUARDED_BY(mutex_);
  bool closed_ FR_GUARDED_BY(mutex_) = false;
  CondVar not_empty_;
  CondVar not_full_;
};

}  // namespace faultyrank

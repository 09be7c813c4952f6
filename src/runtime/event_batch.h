#ifndef SASE_RUNTIME_EVENT_BATCH_H_
#define SASE_RUNTIME_EVENT_BATCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/event.h"

namespace sase {

/// Unit of cross-thread handoff between the dispatcher (producer side) and a
/// shard worker. Batching amortizes the queue synchronization: one ring-slot
/// exchange moves `events.size()` events, so the per-event cost of the
/// cross-thread hop shrinks with the batch size. A batch carries events of
/// exactly one input stream; the dispatcher cuts a batch when the stream
/// switches.
struct EventBatch {
  /// Lowercased FROM-stream name the events belong to; empty = the default
  /// input (QueryEngine::OnEvent vs OnStreamEvent).
  std::string stream;

  std::vector<EventPtr> events;

  /// Per-stream clocks: after processing `events` the worker advances each
  /// listed stream's negation watermark to the given timestamp, releasing
  /// deferred tail-negation matches even on shards whose partitions went
  /// quiet (their own events would otherwise be the only clock). Empty = no
  /// clock update.
  std::vector<std::pair<std::string, Timestamp>> clocks;
  /// Whether the clocks also prune expired operator state, a sweep of every
  /// plan's scan partitions and negation keys (QueryEngine::OnWatermark).
  /// Only quiesce points set it: between them a clock just releases
  /// deferrals, and a busy worker's own events prune its state.
  bool prune = false;

  /// Global dispatch index this batch certifies fully processed: once the
  /// worker acknowledges the batch, every record it can still emit triggers
  /// strictly after this index (the merger's safety bound). 0 = no claim.
  uint64_t progress_hi = 0;

  /// End-of-stream marker: the worker flushes its engine and acknowledges.
  bool flush = false;

  /// Sampled-trace bookkeeping (obs::TraceCollector). Each entry marks
  /// `events[index]` as carrying a live trace: the worker splits the batch
  /// around it and stamps ring/operator spans. Empty (the overwhelmingly
  /// common case, even with tracing on) = process the batch wholesale.
  struct TracedEvent {
    uint64_t trace_id = 0;
    size_t index = 0;
    uint64_t global = 0;
  };
  std::vector<TracedEvent> traced;

  /// MonotonicNs() at ring enqueue; 0 when observability is off. The worker
  /// turns it into the ring-wait latency sample (and the "ring" trace span).
  uint64_t enqueue_ns = 0;
};

/// Adaptive wait used by both ring endpoints: spin briefly (the common case
/// under load is a near-immediate slot), then yield, then sleep so an idle
/// runtime does not burn a core per shard.
class Backoff {
 public:
  void Pause() {
    if (spins_ < kSpinLimit) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  void Reset() { spins_ = 0; }

 private:
  static constexpr int kSpinLimit = 64;
  int spins_ = 0;
};

/// Bounded single-producer/single-consumer ring buffer.
///
/// The dispatcher thread is the only pusher and the owning shard worker the
/// only popper, so the ring needs no locks: `tail_` is written by the
/// producer with release ordering and read by the consumer with acquire
/// (and symmetrically for `head_`), which also publishes the slot contents.
/// A full ring applies backpressure to the dispatcher — the stream source
/// slows down instead of queues growing without bound.
template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  /// Producer: attempts to enqueue; false when full. `item` is only moved
  /// from on success.
  bool TryPush(T&& item) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer: blocks (backoff) until enqueued.
  void Push(T&& item) {
    Backoff backoff;
    while (!TryPush(std::move(item))) backoff.Pause();
  }

  /// Consumer: attempts to dequeue; false when empty.
  bool TryPop(T* out) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: blocks until an item arrives; false once the ring is closed
  /// AND drained (the shutdown signal for worker loops).
  bool Pop(T* out) {
    Backoff backoff;
    while (true) {
      if (TryPop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) return TryPop(out);
      backoff.Pause();
    }
  }

  void Close() { closed_.store(true, std::memory_order_release); }

  /// Re-arms a closed ring so a new consumer thread can attach (a shard
  /// rebuild drains and joins a worker, then restarts it on the same ring).
  /// Only legal when the previous consumer has exited and the ring is empty.
  void Reopen() { closed_.store(false, std::memory_order_release); }

  size_t capacity() const { return mask_ + 1; }
  /// Racy size estimate, for stats only.
  size_t ApproxSize() const {
    return static_cast<size_t>(tail_.load(std::memory_order_relaxed) -
                               head_.load(std::memory_order_relaxed));
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer cursor
  std::atomic<bool> closed_{false};
};

}  // namespace sase

#endif  // SASE_RUNTIME_EVENT_BATCH_H_

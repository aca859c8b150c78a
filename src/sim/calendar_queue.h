// Calendar-queue event engine: an O(1) amortized alternative to the binary
// heap in engine.h for cycle-stamped simulation events.
//
// Design (classic calendar / timing-wheel queue, adapted to integer cycles):
//   * A power-of-two array of buckets, each `width_` cycles wide. An event at
//     time t lands in bucket (t / width_) & mask_ when t falls within one
//     "lap" of the wheel ahead of the current cycle. Buckets stay sorted by
//     (time, seq) with a drained-prefix offset, so draining a cycle is a
//     contiguous prefix walk, never a re-scan.
//   * Far-future events (beyond one lap) and past events (a schedule below
//     the current cycle, allowed for API parity with EventQueue) overflow
//     into a binary min-heap ordered by (time, seq). When the wheel runs
//     dry, the next lap's worth of overflow migrates into the buckets, so
//     far-future events drain through the O(1) path lap by lap.
//   * The events of the cycle currently being drained sit in `ready_`, a
//     (time, seq)-sorted FIFO lane; same-cycle schedules append to it.
//   * The wheel resizes automatically: the bucket count grows with the
//     pending event count, and reserve(count, horizon) derives the bucket
//     width from a known schedule span so the whole horizon fits in one lap
//     up front.
//
// Ordering contract: pops come out in exactly the same (time, insertion-seq)
// order as EventQueue (engine.h) — equal-time events pop FIFO. Every pop
// resolves the head by an explicit (time, seq) comparison between the ready
// lane and the overflow heap, so the order is independent of resize or
// migration timing. EventQueue is the reference the tests and
// bench_engine_micro check this queue against.
//
// Merging with an outside stream. A caller that keeps some events outside
// the queue (the router's arrival lane, sim/packet_source.h) takes a seq
// range for them with reserve_seqs() at the point where it would have
// scheduled them, and merges by testing head_before() against its own
// head. Events scheduled later number after the range, so the merged
// (time, seq) order is the one a single queue fed everything would pop.
// The drain cursor may then run ahead of the outside stream; schedules
// below it take the overflow heap, and pop() still compares heads.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace spal::sim {

template <typename Event>
class CalendarQueue {
 public:
  explicit CalendarQueue(std::size_t bucket_hint = 0) {
    resize_wheel(clamp_buckets(bucket_hint));
  }

  /// Sizes the wheel for an expected total event count, and — when the
  /// caller knows it — a time horizon the bucket width is derived from so
  /// every pre-scheduled event lands in the wheel rather than the overflow
  /// heap. Cleared buckets keep their capacity, so size for the events the
  /// queue will actually hold.
  void reserve(std::size_t expected_events, std::uint64_t horizon = 0) {
    const std::size_t target = clamp_buckets(expected_events / kLoadFactor);
    if (target > buckets_.size()) rebuild(target);
    if (horizon > cur_) {
      const std::uint64_t span = horizon - cur_;
      const std::uint64_t fit_width =
          std::bit_ceil(span / buckets_.size() + 1);
      if (fit_width > width_) {
        width_ = fit_width;
        rebuild(buckets_.size());
      }
    }
    ready_.reserve(64);
  }

  void schedule(std::uint64_t time, Event event) {
    place(Entry{time, next_seq_++, std::move(event)});
    ++size_;
    const std::size_t stored = wheel_count_ + heap_.size();
    if (stored > buckets_.size() * kLoadFactor * 2 &&
        buckets_.size() < kMaxBuckets) {
      rebuild(clamp_buckets(stored / kLoadFactor));
    }
    if (ready_pos_ >= ready_.size() && wheel_count_ > 0) advance();
  }

  /// Takes the next `count` seqs for events the caller keeps outside the
  /// queue and returns the first; event k of the range orders as if it had
  /// been scheduled here with seq first + k.
  std::uint64_t reserve_seqs(std::uint64_t count) {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Earliest pending event time; callers must check empty() first (the
  /// same contract as EventQueue — asserted in debug builds; an empty-queue
  /// call would otherwise return the kNoEvent sentinel here but index out
  /// of bounds in pop()).
  std::uint64_t next_time() const {
    assert(!empty() && "CalendarQueue::next_time() on empty queue");
    std::uint64_t t = kNoEvent;
    if (ready_pos_ < ready_.size()) t = ready_[ready_pos_].time;
    if (!heap_.empty()) t = std::min(t, heap_.front().time);
    return t;
  }

  /// Whether the earliest pending event orders before an outside event
  /// (time, seq), such as one whose seq reserve_seqs() handed out; callers
  /// check empty().
  bool head_before(std::uint64_t time, std::uint64_t seq) const {
    assert(!empty() && "CalendarQueue::head_before() on empty queue");
    const Entry& head = head_in_heap() ? heap_.front() : ready_[ready_pos_];
    return head.time != time ? head.time < time : head.seq < seq;
  }

  /// Pops the earliest event ((time, seq) order); callers check empty().
  std::pair<std::uint64_t, Event> pop() {
    assert(!empty() && "CalendarQueue::pop() on empty queue");
    Entry entry = head_in_heap() ? pop_heap_entry() : std::move(ready_[ready_pos_++]);
    --size_;
    // Keep the drain cursor monotone so later schedules classify against
    // the true simulation clock even through heap-only stretches.
    cur_ = std::max(cur_, entry.time);
    if (ready_pos_ >= ready_.size()) {
      if (wheel_count_ > 0) {
        advance();
      } else if (!heap_.empty()) {
        migrate();
      }
    }
    return {entry.time, std::move(entry.event)};
  }

 private:
  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
  static constexpr std::size_t kMinBuckets = 1u << 10;
  static constexpr std::size_t kMaxBuckets = 1u << 21;
  /// Target resident entries per bucket. Denser buckets mean far fewer
  /// bucket-vector allocations and a smaller wheel to zero and scan; the
  /// sorted-insert cost stays tiny at this size.
  static constexpr std::size_t kLoadFactor = 8;

  struct Entry {
    std::uint64_t time;
    std::uint64_t seq;
    Event event;
  };

  static bool heap_after(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  static std::size_t clamp_buckets(std::size_t hint) {
    return std::bit_ceil(std::clamp(hint, kMinBuckets, kMaxBuckets));
  }

  std::uint64_t slot_of(std::uint64_t time) const { return time / width_; }

  /// Whether the overflow heap, rather than the ready lane, holds the
  /// earliest pending entry. The wheel never does: whenever the lane drains
  /// with entries left in the wheel, advance() refills it.
  bool head_in_heap() const {
    if (heap_.empty()) return false;
    if (ready_pos_ >= ready_.size()) return true;
    return heap_after(ready_[ready_pos_], heap_.front());
  }

  /// Files one entry into the ready lane, the wheel, or the overflow heap.
  void place(Entry entry) {
    if (entry.time == cur_) {
      // Same-cycle burst: the new seq is the largest outstanding and the
      // ready lane never holds times above cur_, so a plain append keeps
      // it (time, seq)-sorted.
      if (ready_pos_ >= ready_.size()) {
        ready_.clear();
        ready_pos_ = 0;
      }
      ready_.push_back(std::move(entry));
      return;
    }
    if (entry.time < cur_ || slot_of(entry.time) - slot_of(cur_) >= buckets_.size()) {
      push_overflow(std::move(entry));
      return;
    }
    insert_in_bucket(std::move(entry));
  }

  void push_overflow(Entry entry) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  }

  /// Sorted insert: after every entry with time <= t (the new seq is the
  /// largest, so this is exactly the (time, seq) position). The drained
  /// prefix of the bucket only holds times below cur_ < t, so the insertion
  /// point never lands inside it.
  void insert_in_bucket(Entry entry) {
    const std::size_t b = static_cast<std::size_t>(slot_of(entry.time)) & mask_;
    auto& bucket = buckets_[b];
    // One allocation straight to the target load instead of 1-2-4-8 growth.
    if (bucket.capacity() == 0) bucket.reserve(kLoadFactor);
    const auto pos =
        std::upper_bound(bucket.begin(), bucket.end(), entry.time,
                         [](std::uint64_t t, const Entry& e) { return t < e.time; });
    bucket.insert(pos, std::move(entry));
    if (bucket_pos_[b] < bucket.size()) {
      bucket_min_[b] = bucket[bucket_pos_[b]].time;
    }
    ++wheel_count_;
  }

  Entry pop_heap_entry() {
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  /// Moves the drain cursor to the earliest wheel cycle and loads that
  /// cycle's events (plus any co-timed overflow entries) into the ready
  /// lane. Precondition: ready drained, wheel_count_ > 0.
  void advance() {
    ready_.clear();
    ready_pos_ = 0;
    const std::uint64_t cur_slot = slot_of(cur_);
    std::uint64_t next = kNoEvent;
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
      const std::uint64_t m = bucket_min_[(cur_slot + k) & mask_];
      if (m == kNoEvent) continue;
      if (slot_of(m) == cur_slot + k) {  // earliest event of this lap
        next = m;
        break;
      }
      next = std::min(next, m);  // whole lap empty: jump to a later lap
    }
    cur_ = next;
    // Overflow entries stamped exactly at the new cycle pop before the
    // wheel's (they were scheduled while the cycle lay beyond the horizon,
    // i.e. with strictly smaller seqs — and the merge below makes the order
    // robust even across resizes, where the horizon moves non-monotonically).
    while (!heap_.empty() && heap_.front().time == cur_) {
      ready_.push_back(pop_heap_entry());
    }
    const std::size_t pulled = ready_.size();
    const std::size_t b = static_cast<std::size_t>(slot_of(cur_)) & mask_;
    auto& bucket = buckets_[b];
    std::size_t& pos = bucket_pos_[b];
    while (pos < bucket.size() && bucket[pos].time == cur_) {
      ready_.push_back(std::move(bucket[pos]));
      ++pos;
      --wheel_count_;
    }
    if (pos >= bucket.size()) {
      bucket.clear();
      pos = 0;
      bucket_min_[b] = kNoEvent;
    } else {
      bucket_min_[b] = bucket[pos].time;
    }
    std::inplace_merge(
        ready_.begin(), ready_.begin() + static_cast<std::ptrdiff_t>(pulled),
        ready_.end(), [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  }

  /// The wheel ran dry but the overflow heap has not: jump the cursor to
  /// the heap's earliest time, move everything due at or before it into the
  /// ready lane (heap pops arrive (time, seq)-sorted), and stage the next
  /// lap of overflow into the now-empty buckets so the drain continues on
  /// the O(1) path. Precondition: ready drained, wheel_count_ == 0.
  void migrate() {
    ready_.clear();
    ready_pos_ = 0;
    cur_ = std::max(cur_, heap_.front().time);
    while (!heap_.empty() && heap_.front().time <= cur_) {
      ready_.push_back(pop_heap_entry());
    }
    const std::uint64_t lap_end_slot = slot_of(cur_) + buckets_.size();
    while (!heap_.empty() && slot_of(heap_.front().time) < lap_end_slot) {
      // Ascending (time, seq) pops append in sorted order per bucket.
      Entry entry = pop_heap_entry();
      const std::size_t b =
          static_cast<std::size_t>(slot_of(entry.time)) & mask_;
      bucket_min_[b] = std::min(bucket_min_[b], entry.time);
      buckets_[b].push_back(std::move(entry));
      ++wheel_count_;
    }
  }

  /// Re-files every wheel + overflow entry under a new bucket count.
  /// Buckets are redistributed and re-sorted by (time, seq); the in-flight
  /// ready lane is untouched (its cycle is already resolved). Entries at
  /// exactly cur_ go to the heap, not the lane — the lane may already hold
  /// later seqs, and the pop merge orders heap copies correctly.
  void rebuild(std::size_t new_buckets) {
    std::vector<Entry> pending;
    pending.reserve(wheel_count_ + heap_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      auto& bucket = buckets_[b];
      for (std::size_t i = bucket_pos_[b]; i < bucket.size(); ++i) {
        pending.push_back(std::move(bucket[i]));
      }
    }
    for (Entry& e : heap_) pending.push_back(std::move(e));
    heap_.clear();
    resize_wheel(new_buckets);
    wheel_count_ = 0;
    for (Entry& e : pending) {
      if (e.time <= cur_) {
        push_overflow(std::move(e));
      } else if (slot_of(e.time) - slot_of(cur_) >= buckets_.size()) {
        push_overflow(std::move(e));
      } else {
        const std::size_t b =
            static_cast<std::size_t>(slot_of(e.time)) & mask_;
        buckets_[b].push_back(std::move(e));
        ++wheel_count_;
      }
    }
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      auto& bucket = buckets_[b];
      if (bucket.empty()) continue;
      std::sort(bucket.begin(), bucket.end(),
                [](const Entry& a, const Entry& c) {
                  return a.time != c.time ? a.time < c.time : a.seq < c.seq;
                });
      bucket_min_[b] = bucket.front().time;
    }
  }

  void resize_wheel(std::size_t new_buckets) {
    // Keep existing bucket-vector capacity where possible (callers have
    // already drained the entries).
    const std::size_t keep = std::min(buckets_.size(), new_buckets);
    for (std::size_t b = 0; b < keep; ++b) buckets_[b].clear();
    buckets_.resize(new_buckets);
    bucket_min_.assign(new_buckets, kNoEvent);
    bucket_pos_.assign(new_buckets, 0);
    mask_ = new_buckets - 1;
  }

  std::vector<std::vector<Entry>> buckets_;  ///< each (time, seq)-sorted
  std::vector<std::uint64_t> bucket_min_;  ///< undrained min; kNoEvent if none
  std::vector<std::size_t> bucket_pos_;    ///< drained-prefix offset
  std::size_t mask_ = 0;
  std::uint64_t width_ = 1;       ///< cycles per bucket (power of two)
  std::uint64_t cur_ = 0;         ///< cycle the ready lane belongs to
  std::vector<Entry> ready_;      ///< (time, seq)-sorted drain lane
  std::size_t ready_pos_ = 0;
  std::vector<Entry> heap_;       ///< overflow min-heap on (time, seq)
  std::size_t wheel_count_ = 0;   ///< undrained entries filed in buckets_
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace spal::sim

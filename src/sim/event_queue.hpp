// Pending-event set for the discrete-event kernel: a binary min-heap of
// 16-byte (time, key) entries over a recycled callback-slot array.
//
// Dispatch order is (time, then scheduling sequence), which keeps every run
// bit-for-bit reproducible for a given seed — the property the evaluation
// methodology (thesis §4.3) relies on when averaging repeated runs.
//
// Hot-path design (DESIGN.md "Pooled event kernel"):
//  * Actions are InlineFunction callbacks — captures up to kActionCapacity
//    bytes live inside the slot, so schedule/pop never touch the heap for
//    the per-hop lambdas that dominate a simulation.
//  * Callbacks live in a recycled slot array; heap entries reference slots
//    by (index, generation). A cancelled or fired slot bumps its
//    generation, which invalidates every outstanding EventId for it —
//    cancellation needs no hash lookup, just one array access and a
//    generation compare. (FR-DRB arms a watchdog per in-flight message and
//    cancels it on ACK, so cancel must be cheap.)
//  * Cancellation is lazy (tombstones): stale entries are purged when they
//    surface at the top, maintaining the invariant "a non-empty heap has a
//    live top" — empty() and next_time() are truly const queries.
//  * Batched same-time dispatch: begin_batch()/next_batch_action() drain
//    every event sharing the earliest timestamp into a reusable scratch
//    buffer in key order, eliminating the per-event top-purge/sift in the
//    common "many NIC injections at one tick" pattern. Mid-batch cancels
//    are honoured: each entry's slot generation is re-checked at execution
//    time, not at drain time.
#pragma once

#include <cstdint>
#include <vector>

#include "util/inline_function.hpp"
#include "util/types.hpp"

namespace prdrb {

/// Opaque handle used to cancel a scheduled event (e.g. FR-DRB watchdogs).
/// Id 0 is never issued and may be used as a "no event" sentinel. Ids are
/// monotonically increasing in scheduling order.
using EventId = std::uint64_t;

/// Inline capture budget for event actions. 48 bytes covers every kernel
/// lambda in the packet pipeline (pooled-handle captures are ≤ 24 bytes);
/// larger captures transparently spill to one heap allocation.
inline constexpr std::size_t kActionCapacity = 48;

/// One pending event: absolute time plus the EventId key that locates (and
/// version-checks) the callback slot. Ties on `time` break on `key`, i.e.
/// scheduling order.
struct EventEntry {
  SimTime time;
  std::uint64_t key;
};

inline bool event_entry_less(const EventEntry& a, const EventEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.key < b.key;
}

class EventQueue {
 public:
  using Action = InlineFunction<kActionCapacity>;

  /// Schedule `action` at absolute time `when`. Returns a cancellation id.
  /// `when` must not be NaN (it would silently corrupt the heap ordering
  /// invariant); throws std::invalid_argument.
  EventId schedule(SimTime when, Action action);

  /// Cancel a pending event. Cancelling an id that already fired, was
  /// already cancelled, or was never issued is a true no-op (the slot
  /// generation no longer matches). The heap entry stays behind as a lazy
  /// tombstone, bounded by size(); entries already drained into the current
  /// dispatch batch are skipped at execution time.
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain, including the
  /// undispatched remainder of the current batch.
  bool empty() const { return live() == 0; }

  /// Pending entries, live + tombstoned + undispatched batch remainder.
  std::size_t size() const {
    return heap_.size() + (batch_.size() - batch_pos_);
  }

  /// Live (non-cancelled) pending events.
  std::size_t live() const { return size() - tombstones_; }

  /// Number of cancelled-but-not-yet-purged entries (bounded by size()).
  std::size_t pending_cancellations() const { return tombstones_; }

  /// Time of the earliest live event; kTimeInfinity when empty. During
  /// batch dispatch the undispatched remainder reports the batch time.
  SimTime next_time() const;

  /// Pop and return the earliest live event. Precondition: !empty(), and
  /// no batch in progress (the run loop uses the batch API instead).
  struct Fired {
    SimTime time;
    Action action;
  };
  Fired pop();

  // --- batched same-time dispatch -----------------------------------
  // Usage (Simulator::run_until):
  //   const SimTime t = q.begin_batch();      // drains all events at t
  //   EventQueue::Action a;
  //   while (q.next_batch_action(a)) a();     // key-ordered, skip stale
  //
  // Events scheduled at time t *during* the batch land in the heap and
  // form the next batch at the same time — their sequence numbers are
  // strictly larger than every drained entry's, so the overall execution
  // order is identical to per-event pop().

  /// Drain every event sharing the earliest live timestamp into the batch
  /// buffer (key-ordered). Returns that timestamp. Precondition: !empty()
  /// and the previous batch fully consumed.
  SimTime begin_batch();

  /// Move the next live batched action into `out`; false when the batch is
  /// exhausted. Entries cancelled since the drain are skipped here (their
  /// slot generation no longer matches).
  bool next_batch_action(Action& out);

 private:
  // An EventId packs (sequence << kSlotBits) | slot. The sequence number is
  // globally monotonic, so ids order by scheduling time; the low bits locate
  // the callback slot. 2^24 concurrent pending events and 2^40 total
  // scheduled events per queue are far beyond any simulation this repo runs
  // (asserted in schedule()).
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  /// Min-heap comparator over the 16-byte entries: equal times tie-break on
  /// the key's high-bits sequence, i.e. FIFO scheduling order.
  struct EntryGreater {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      return event_entry_less(b, a);
    }
  };

  /// One recyclable callback cell. `key` stamps the occupant's EventId
  /// (0 = vacant); a heap entry or cancellation handle is stale exactly
  /// when its key no longer matches — one load and one compare, no hash
  /// lookup.
  struct Slot {
    Action action;
    std::uint64_t key = 0;
  };

  /// Retire a slot: invalidate outstanding ids and recycle the cell.
  void retire(std::uint32_t slot);

  /// Drop tombstoned entries from the top of the heap so the top is live.
  void purge_top();

  /// Pop the heap's top entry (std::pop_heap), live or stale.
  void heap_remove_top();

  std::vector<EventEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t tombstones_ = 0;
  std::uint64_t next_seq_ = 1;

  std::vector<EventEntry> batch_;  // same-time dispatch scratch (reused)
  std::size_t batch_pos_ = 0;
  SimTime batch_time_ = 0;
};

}  // namespace prdrb

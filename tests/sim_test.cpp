// Discrete-event kernel tests: EventQueue ordering, cancellation and
// tombstone bounds, batched same-time dispatch, a differential fuzz against
// an ordered-set reference model, steady-state allocation-freedom under the
// operator-new interposer, and the Simulator run loop.
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  const EventId id = q.schedule(2.0, [&] { fired += 100; });
  q.schedule(3.0, [&] { ++fired; });
  q.cancel(id);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceIsHarmless) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireLeavesNoTombstone) {
  // Regression: cancelling an id whose event already fired used to park a
  // tombstone in the cancelled set forever (nothing ever purged it).
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().action();  // the event fires
  q.cancel(id);      // FR-DRB-style late cancel must be a true no-op
  EXPECT_EQ(q.pending_cancellations(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TombstoneSetStaysBoundedUnderChurn) {
  // Watchdog churn: schedule, fire, then cancel the fired id — repeated.
  // The tombstone set must stay bounded (here: empty) instead of growing
  // by one entry per iteration.
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    const EventId id = q.schedule(static_cast<SimTime>(i), [] {});
    q.pop().action();
    q.cancel(id);
  }
  EXPECT_EQ(q.pending_cancellations(), 0u);

  // Pending cancels do tombstone, but purge on pop reclaims them.
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  for (EventId id : ids) q.cancel(id);
  EXPECT_LE(q.pending_cancellations(), 100u);
  EXPECT_TRUE(q.empty());  // purges everything
  EXPECT_EQ(q.pending_cancellations(), 0u);
}

TEST(EventQueue, CancelOfUnknownIdIsIgnored) {
  EventQueue q;
  q.cancel(0);     // the "no event" sentinel
  q.cancel(999);   // never issued
  EXPECT_EQ(q.pending_cancellations(), 0u);
  const EventId id = q.schedule(1.0, [] {});
  q.cancel(id + 1);  // not issued yet
  EXPECT_EQ(q.pending_cancellations(), 0u);
  q.pop();
}

TEST(EventQueue, NextTimeReflectsEarliestLiveEvent) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, ConstQueriesAreConstAndConsistent) {
  // empty()/next_time()/size()/pending_cancellations() are const queries:
  // calling them through a const ref must compile and must not change any
  // observable state (regression for the old purge-on-read empty()).
  EventQueue q;
  const EventQueue& cq = q;
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(cq.next_time(), kTimeInfinity);
  q.schedule(2.0, [] {});
  const EventId mid = q.schedule(3.0, [] {});
  q.cancel(mid);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(cq.empty());
    EXPECT_DOUBLE_EQ(cq.next_time(), 2.0);
    EXPECT_EQ(cq.size(), 2u);
    EXPECT_EQ(cq.live(), 1u);
    EXPECT_EQ(cq.pending_cancellations(), 1u);
  }
}

TEST(EventQueue, TombstonesNeverExceedSize) {
  // Adversarial churn: interleave schedules, mid-heap cancels, and pops.
  // The tombstone count must stay bounded by the heap size at every step.
  EventQueue q;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      ids.push_back(q.schedule(static_cast<SimTime>((round * 37 + i * 11) % 97),
                               [] {}));
    }
    // Cancel every third outstanding id (some already fired: true no-ops).
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    ASSERT_LE(q.pending_cancellations(), q.size());
    for (int i = 0; i < 10 && !q.empty(); ++i) {
      q.pop();
      ASSERT_LE(q.pending_cancellations(), q.size());
    }
  }
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.pending_cancellations(), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SlotReuseDoesNotConfuseStaleIds) {
  // A slot freed by fire/cancel is recycled for later events; a stale id
  // kept from the earlier occupant must not cancel the new one.
  EventQueue q;
  const EventId old_id = q.schedule(1.0, [] {});
  q.pop();  // fires; slot is recycled
  int fired = 0;
  q.schedule(2.0, [&] { ++fired; });  // reuses the slot
  q.cancel(old_id);                   // stale handle: must be a no-op
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventIdsAreMonotonic) {
  // Ids order by scheduling time — the property the heap tie-break (and
  // deterministic replay of simultaneous events) is built on.
  EventQueue q;
  EventId prev = 0;
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.schedule(1.0, [] {});
    EXPECT_GT(id, prev);
    prev = id;
    if (i % 2 == 0) q.pop();  // slot recycling must not break monotonicity
  }
}

TEST(EventQueue, NaNScheduleThrowsAndCorruptsNothing) {
  // A NaN timestamp compares false against everything: it would silently
  // break the heap ordering invariant. It must be rejected before any state
  // changes.
  EventQueue q;
  q.schedule(1e-6, [] {});
  EXPECT_THROW(q.schedule(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(-std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_EQ(q.live(), 1u) << "failed schedule must not leak a slot";
  EXPECT_EQ(q.pop().time, 1e-6);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Batched same-time dispatch

TEST(BatchDispatch, DrainsSameTimeRunInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2e-6, [&] { order.push_back(99); });  // later time: not drained
  for (int i = 0; i < 8; ++i) {
    q.schedule(1e-6, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.begin_batch(), 1e-6);
  EventQueue::Action a;
  while (q.next_batch_action(a)) a();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(q.live(), 1u);
  EXPECT_EQ(q.next_time(), 2e-6);
}

TEST(BatchDispatch, MidBatchCancelIsHonoured) {
  EventQueue q;
  std::vector<int> order;
  EventId victim = 0;
  q.schedule(1e-6, [&] {
    order.push_back(0);
    q.cancel(victim);  // cancels an entry already drained into this batch
  });
  q.schedule(1e-6, [&] { order.push_back(1); });
  victim = q.schedule(1e-6, [&] { order.push_back(2); });
  q.begin_batch();
  EventQueue::Action a;
  while (q.next_batch_action(a)) a();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending_cancellations(), 0u) << "batch tombstone not consumed";
}

TEST(BatchDispatch, SameTimeSelfSchedulingFormsNextBatch) {
  // An action scheduling at its own timestamp must run at that time, after
  // the whole current batch — the order per-event pop() would produce.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1e-6, [&] {
    order.push_back(0);
    sim.schedule_at(1e-6, [&] { order.push_back(2); });
  });
  sim.schedule_at(1e-6, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 1e-6);
  EXPECT_EQ(sim.events_executed(), 3u);
}

// ---------------------------------------------------------------------------
// Differential fuzz against a reference model

/// Reference pending-event set: (time, id) pairs in a std::set, erased
/// eagerly on cancel. EventIds grow with scheduling order, so the set's
/// order is exactly the queue's (time, sequence) dispatch contract.
class ReferenceQueue {
 public:
  void schedule(SimTime when, EventId id, int marker) {
    order_.emplace(when, id);
    pending_.emplace(id, Entry{when, marker});
  }

  /// Erase a pending id; fired, cancelled and unknown ids are no-ops.
  void cancel(EventId id) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    order_.erase({it->second.when, id});
    pending_.erase(it);
  }

  /// Scheduled time of a pending id; kTimeInfinity when not pending.
  SimTime time_of(EventId id) const {
    const auto it = pending_.find(id);
    return it == pending_.end() ? kTimeInfinity : it->second.when;
  }

  bool empty() const { return order_.empty(); }
  std::size_t size() const { return order_.size(); }
  SimTime next_time() const {
    return empty() ? kTimeInfinity : order_.begin()->first;
  }

  /// Remove the earliest entry and return its (time, marker).
  std::pair<SimTime, int> pop() {
    const EventId id = order_.begin()->second;
    order_.erase(order_.begin());
    const auto it = pending_.find(id);
    const std::pair<SimTime, int> fired{it->second.when, it->second.marker};
    pending_.erase(it);
    return fired;
  }

 private:
  struct Entry {
    SimTime when;
    int marker;
  };
  std::set<std::pair<SimTime, EventId>> order_;
  std::map<EventId, Entry> pending_;
};

using Fired = std::vector<std::pair<SimTime, int>>;

/// Schedule one marker-recording event on both the queue and the model.
EventId schedule_both(EventQueue& q, ReferenceQueue& ref, Fired& fired,
                      SimTime when, int marker) {
  const EventId id = q.schedule(when, [&fired, when, marker] {
    fired.emplace_back(when, marker);
  });
  ref.schedule(when, id, marker);
  return id;
}

TEST(SchedulerDifferential, FuzzedScheduleCancelPopMatchExactly) {
  std::mt19937_64 rng(0xC0FFEEu);
  for (int trial = 0; trial < 8; ++trial) {
    EventQueue q;
    ReferenceQueue ref;
    Fired fired;
    std::vector<EventId> ids;
    int next_marker = 0;
    double base = 0.0;

    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t roll = rng() % 100;
      if (roll < 55) {
        // Schedule: clustered times with deliberate exact duplicates and the
        // occasional far-future outlier.
        SimTime when = base + static_cast<double>(rng() % 16) * 0.25e-6;
        if (rng() % 20 == 0) when = base + 1e3;
        if (rng() % 50 == 0) when = base;  // exact tie
        const EventId id = schedule_both(q, ref, fired, when, next_marker++);
        ASSERT_TRUE(ids.empty() || id > ids.back()) << "ids not monotonic";
        ids.push_back(id);
        base += static_cast<double>(rng() % 3) * 0.1e-6;
      } else if (roll < 75) {
        if (ids.empty()) continue;
        // Cancel a random id — live, fired or already cancelled — or one
        // that was never issued (same sequence, neighbouring slot): every
        // non-pending id must be a no-op.
        const EventId victim =
            rng() % 8 == 0 ? ids.back() + 1 : ids[rng() % ids.size()];
        q.cancel(victim);
        ref.cancel(victim);
      } else if (roll < 90) {
        if (q.empty()) continue;
        auto f = q.pop();
        f.action();
        const auto want = ref.pop();
        ASSERT_EQ(f.time, want.first);
        ASSERT_EQ(fired.back(), want);
      } else {
        if (q.empty()) continue;
        const SimTime t = q.begin_batch();
        ASSERT_EQ(t, ref.next_time());
        EventQueue::Action a;
        while (q.next_batch_action(a)) {
          a();
          ASSERT_EQ(fired.back(), ref.pop());
        }
        ASSERT_GT(ref.next_time(), t) << "batch left events at its time";
      }
      ASSERT_EQ(q.live(), ref.size()) << "live counts diverged at op " << op;
      ASSERT_EQ(q.empty(), ref.empty());
      ASSERT_EQ(q.next_time(), ref.next_time());
      ASSERT_LE(q.pending_cancellations(), q.size());
    }
    while (!q.empty()) {
      auto f = q.pop();
      f.action();
      ASSERT_EQ(fired.back(), ref.pop()) << "trial " << trial;
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(q.pending_cancellations(), 0u);
  }
}

// Tie-heavy regime: 10k+ events packed onto <= 8 distinct timestamps per
// round, with pre-drain cancels and mid-batch cancels that may hit entries
// already drained into the running batch.
TEST(SchedulerDifferential, TieHeavyClusteredTimestampsMatchExactly) {
  std::mt19937_64 rng(0xBEEFu);
  EventQueue q;
  ReferenceQueue ref;
  Fired fired;
  std::vector<EventId> live_ids;
  int next_marker = 0;
  int batch_member_cancels = 0;

  double base = 0.0;
  for (int round = 0; round < 10; ++round) {
    // 1200 events per round, all landing on 8 distinct ticks.
    for (int i = 0; i < 1200; ++i) {
      live_ids.push_back(schedule_both(
          q, ref, fired, base + static_cast<double>(rng() % 8) * 1e-6,
          next_marker++));
    }
    // Pre-drain cancels: ~15 % of everything still tracked.
    for (std::size_t i = 0; i < live_ids.size() / 7; ++i) {
      const EventId victim = live_ids[rng() % live_ids.size()];
      q.cancel(victim);
      ref.cancel(victim);
    }
    // Drain all 8 ticks batch-wise; every 16th action cancels a random id.
    while (!q.empty()) {
      const SimTime t = q.begin_batch();
      ASSERT_EQ(t, ref.next_time());
      EventQueue::Action a;
      int step = 0;
      while (q.next_batch_action(a)) {
        a();
        ASSERT_EQ(fired.back(), ref.pop());
        if (++step % 16 == 0) {
          const EventId victim = live_ids[rng() % live_ids.size()];
          if (ref.time_of(victim) == t) ++batch_member_cancels;
          q.cancel(victim);
          ref.cancel(victim);
        }
      }
      ASSERT_GT(ref.next_time(), t);
      ASSERT_EQ(q.live(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
    }
    live_ids.clear();
    base += 1.0;
  }
  ASSERT_GT(next_marker, 10000) << "meant to be a 10k+ event stress";
  EXPECT_GT(batch_member_cancels, 0) << "no cancel hit a drained batch entry";
  EXPECT_EQ(q.pending_cancellations(), 0u);
}

// ---------------------------------------------------------------------------
// Allocation-freedom (operator-new interposer, test_util.hpp)

TEST(Allocations, BatchDispatchScratchIsReusedAllocationFree) {
  EventQueue q;
  std::uint64_t sink = 0;
  auto round = [&](int r) {
    for (int i = 0; i < 16; ++i) {  // 16 events sharing one timestamp
      q.schedule(static_cast<SimTime>(r), [&sink, i] {
        sink += static_cast<std::uint64_t>(i);
      });
    }
    while (!q.empty()) {
      q.begin_batch();
      EventQueue::Action a;
      while (q.next_batch_action(a)) a();
    }
  };
  int r = 0;
  for (; r < 4000; ++r) round(r);
  test::AllocationScope scope;
  for (int measured = 0; measured < 500; ++measured) round(r++);
  EXPECT_EQ(scope.count(), 0u) << "batch dispatch allocated";
  EXPECT_GT(sink, 0u);
}

TEST(InlineFunction, LargeCapturesSpillToHeapAndStillRun) {
  // Captures beyond the inline budget must still work (single allocation,
  // std::function-equivalent semantics).
  std::array<std::uint64_t, 32> big{};  // 256 bytes > kActionCapacity
  big[0] = 7;
  big[31] = 11;
  std::uint64_t sum = 0;
  EventQueue::Action a{[big, &sum] { sum = big[0] + big[31]; }};
  EventQueue::Action b{std::move(a)};  // relocating a heap-backed action
  b();
  EXPECT_EQ(sum, 18u);
}

TEST(InlineFunction, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(41);
  int seen = 0;
  EventQueue::Action a{[p = std::move(p), &seen] { seen = *p + 1; }};
  EventQueue::Action b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_in(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(i * 0.1, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  SimTime t = -1;
  sim.schedule_in(1.0, [&] {
    sim.schedule_in(0.0, [&] { t = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(SchedulerNames, ExpectedPendingEventsScalesWithTopologyAndLoad) {
  const auto mesh = make_topology("mesh-8x8").value_or_throw();
  const auto tree = make_topology("tree-256").value_or_throw();
  ScenarioSpec sc;  // default synthetic workload
  const std::size_t small = expected_pending_events(*mesh, sc);
  EXPECT_GT(small, 0u);
  // Offered load scales the per-entity estimate (until the clamp).
  sc.synthetic().rate_bps = 10e9;
  EXPECT_GT(expected_pending_events(*mesh, sc), small);
  // More entities → more expected pending events, same workload.
  EXPECT_GT(expected_pending_events(*tree, sc),
            expected_pending_events(*mesh, sc));
  // Trace replays use a fixed per-entity allowance, independent of rate.
  ScenarioSpec tr;
  tr.trace().app = "sweep3d";
  EXPECT_EQ(expected_pending_events(*mesh, tr),
            static_cast<std::size_t>(8 * (mesh->num_nodes() +
                                          mesh->num_routers())));
}

}  // namespace
}  // namespace prdrb

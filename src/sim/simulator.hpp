// Discrete-event simulator clock and run loop.
//
// This replaces the OPNET Modeler engine used in the thesis: components
// schedule callbacks (state-machine transitions) on a shared queue, and the
// kernel advances virtual time from event to event. The run loop dispatches
// in same-timestamp batches (see EventQueue's batch API): all events at the
// earliest time are drained once and executed in scheduling order, which is
// provably the same order the per-event loop produced — events a batch
// action schedules at the current time carry strictly larger sequence
// numbers and simply form the next batch at the same timestamp.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace prdrb {

/// Kept only for benchmark/workload.cpp: the event queue has one backend.
enum class SchedulerKind : std::uint8_t { kBinaryHeap };

/// Kept only for benchmark/workload.cpp.
constexpr SchedulerKind default_scheduler() {
  return SchedulerKind::kBinaryHeap;
}

class Simulator {
 public:
  Simulator() = default;

  /// Kept only for benchmark/workload.cpp; ignores both arguments.
  explicit Simulator(SchedulerKind, std::size_t = 0) {}

  SimTime now() const { return now_; }

  /// Schedule an action `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, EventQueue::Action action);

  /// Schedule an action at an absolute time (>= now()).
  EventId schedule_at(SimTime when, EventQueue::Action action);

  void cancel(EventId id) { queue_.cancel(id); }

  /// Run events until the queue drains or `horizon` is reached (exclusive).
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime horizon = kTimeInfinity);

  /// Run until the queue drains completely.
  std::uint64_t run() { return run_until(kTimeInfinity); }

  /// True when no live events remain.
  bool idle() const { return queue_.empty(); }

  /// The underlying pending-event set (tombstone/occupancy introspection).
  const EventQueue& queue() const { return queue_; }

  std::uint64_t events_executed() const { return executed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace prdrb

// Outside-in layer probes for the PR-DRB benchmark.
//
// Every probe is a forwarding decorator over one of the library's public
// interfaces (Topology, RoutingPolicy, RouterMonitor, NetworkObserver): it
// calls the wrapped object with the same arguments and returns its result
// unchanged, timing the call on the way through. Nothing inside the
// library is instrumented, so a traced run executes exactly the events of
// a bare one (the benchmark checks the ScenarioResult bit for bit).
//
// Per-hop calls are too frequent to keep as spans; each boundary keeps a
// call count, a self-time total and a log-bucket histogram of per-call self
// time. Self time excludes time spent in nested probed calls (a DRB
// expansion inside on_ack calls Topology::msp_candidates; that time is
// charged to the topology, not to routing). Coarse phases (set-up steps,
// run slices, export) are recorded as full spans.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/histogram.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "routing/policy.hpp"

namespace prdrb::bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-call self time of one probed boundary.
struct Boundary {
  /// Quarter-octave buckets over nanoseconds: bucket 4*k+m covers
  /// [2^k * (1 + m/4), 2^k * (1 + (m+1)/4)).
  static constexpr int kBuckets = 4 * 40;

  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  std::array<std::uint64_t, kBuckets> hist{};

  void record(std::int64_t ns) {
    ++calls;
    self_ns += ns;
    ++hist[static_cast<std::size_t>(bucket_of(ns))];
  }

  static int bucket_of(std::int64_t ns) {
    if (ns < 1) return 0;
    const auto v = static_cast<std::uint64_t>(ns);
    const int k = std::bit_width(v) - 1;
    const int m = k >= 2 ? static_cast<int>((v >> (k - 2)) & 3u)
                         : static_cast<int>((v << (2 - k)) & 3u);
    return std::min(4 * k + m, kBuckets - 1);
  }

  /// Upper edge of the bucket holding the p-quantile (p in (0,1]); 0 when
  /// no call was recorded.
  double quantile_ns(double p) const {
    if (calls == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, p * static_cast<double>(calls)));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += hist[static_cast<std::size_t>(b)];
      if (seen >= rank) {
        return static_cast<double>(std::uint64_t{1} << (b / 4)) *
               (1.0 + (b % 4 + 1) / 4.0);
      }
    }
    return 0;
  }
};

/// A coarse phase with its full extent.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Nesting-aware call clock shared by every probe of one traced run.
class CallClock {
 public:
  CallClock() { stack_.reserve(16); }

  void enter() { stack_.push_back({now_ns(), 0}); }

  void exit(Boundary& b) {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t total = now_ns() - f.start;
    b.record(total - f.child);
    if (stack_.empty()) {
      outermost_ns_ += total;
    } else {
      stack_.back().child += total;
    }
  }

  /// Wall time spent inside probed calls (outermost extents only).
  std::int64_t outermost_ns() const { return outermost_ns_; }

 private:
  struct Frame {
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Frame> stack_;
  std::int64_t outermost_ns_ = 0;
};

/// Times one call into `b` for the lifetime of the scope.
class Timed {
 public:
  Timed(CallClock& clock, Boundary& b) : clock_(clock), b_(b) {
    clock_.enter();
  }
  ~Timed() { clock_.exit(b_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  CallClock& clock_;
  Boundary& b_;
};

/// Everything a traced run records.
struct LayerTrace {
  CallClock clock;
  Boundary minimal_ports;
  Boundary msp_candidates;
  Boundary select_port;
  Boundary choose_path;
  Boundary on_ack;
  Boundary cfd_on_transmit;
  Boundary observer;
  LatencyHistogram port_wait;
  std::vector<Span> spans;
  std::int64_t sampling_ns = 0;  // queue-depth sampling between slices
  std::size_t pending_peak = 0;
  std::int64_t queue_bytes_peak = 0;
};

class TimedTopology final : public Topology {
 public:
  TimedTopology(const Topology& inner, LayerTrace& t) : in_(inner), t_(t) {}

  int num_nodes() const override { return in_.num_nodes(); }
  int num_routers() const override { return in_.num_routers(); }
  int radix(RouterId r) const override { return in_.radix(r); }
  PortTarget neighbor(RouterId r, int port) const override {
    return in_.neighbor(r, port);
  }
  RouterId node_router(NodeId n) const override { return in_.node_router(n); }
  void minimal_ports(RouterId r, NodeId target,
                     std::vector<int>& out) const override {
    Timed s(t_.clock, t_.minimal_ports);
    in_.minimal_ports(r, target, out);
  }
  int distance(NodeId a, NodeId b) const override {
    return in_.distance(a, b);
  }
  int deterministic_choice(RouterId r, NodeId src, NodeId dst,
                           int n) const override {
    return in_.deterministic_choice(r, src, dst, n);
  }
  LinkClass link_class(RouterId r, int port) const override {
    return in_.link_class(r, port);
  }
  void msp_candidates(NodeId src, NodeId dst, int ring,
                      std::vector<MspCandidate>& out) const override {
    Timed s(t_.clock, t_.msp_candidates);
    in_.msp_candidates(src, dst, ring, out);
  }
  NodeId nonminimal_intermediate(NodeId src, NodeId dst,
                                 std::uint64_t salt) const override {
    return in_.nonminimal_intermediate(src, dst, salt);
  }
  std::string name() const override { return in_.name(); }

 private:
  const Topology& in_;
  LayerTrace& t_;
};

class TimedPolicy final : public RoutingPolicy {
 public:
  TimedPolicy(RoutingPolicy& inner, LayerTrace& t) : in_(inner), t_(t) {}

  void attach(Network& net) override {
    RoutingPolicy::attach(net);
    in_.attach(net);
  }
  int select_port(RouterId r, const Packet& p,
                  std::span<const int> candidates) override {
    Timed s(t_.clock, t_.select_port);
    return in_.select_port(r, p, candidates);
  }
  PathChoice choose_path(NodeId src, NodeId dst, SimTime now) override {
    Timed s(t_.clock, t_.choose_path);
    return in_.choose_path(src, dst, now);
  }
  void on_ack(NodeId at, const Packet& ack, SimTime now) override {
    Timed s(t_.clock, t_.on_ack);
    in_.on_ack(at, ack, now);
  }
  void on_message_sent(NodeId src, NodeId dst, std::uint64_t message_id,
                       const PathChoice& path, SimTime now) override {
    in_.on_message_sent(src, dst, message_id, path, now);
  }
  bool wants_acks() const override { return in_.wants_acks(); }
  std::string name() const override { return in_.name(); }

 private:
  RoutingPolicy& in_;
  LayerTrace& t_;
};

class TimedMonitor final : public RouterMonitor {
 public:
  TimedMonitor(RouterMonitor& inner, LayerTrace& t) : in_(inner), t_(t) {}

  void on_transmit(Network& net, RouterId r, int port, Packet& head,
                   SimTime wait, const std::deque<Packet*>& queue) override {
    Timed s(t_.clock, t_.cfd_on_transmit);
    in_.on_transmit(net, r, port, head, wait, queue);
  }

 private:
  RouterMonitor& in_;
  LayerTrace& t_;
};

class TimedObserver final : public NetworkObserver {
 public:
  TimedObserver(NetworkObserver& inner, LayerTrace& t) : in_(inner), t_(t) {}

  void on_packet_delivered(const Packet& p, SimTime now) override {
    Timed s(t_.clock, t_.observer);
    in_.on_packet_delivered(p, now);
  }
  void on_message_delivered(NodeId src, NodeId dst, std::int64_t bytes,
                            SimTime inject_time, SimTime now) override {
    Timed s(t_.clock, t_.observer);
    in_.on_message_delivered(src, dst, bytes, inject_time, now);
  }
  void on_port_wait(RouterId r, int port, SimTime wait,
                    SimTime now) override {
    t_.port_wait.record(wait);
    Timed s(t_.clock, t_.observer);
    in_.on_port_wait(r, port, wait, now);
  }
  void on_message_injected(NodeId src, NodeId dst, std::int64_t bytes,
                           SimTime now) override {
    Timed s(t_.clock, t_.observer);
    in_.on_message_injected(src, dst, bytes, now);
  }
  void on_packet_forwarded(const Packet& p, RouterId r,
                           SimTime now) override {
    Timed s(t_.clock, t_.observer);
    in_.on_packet_forwarded(p, r, now);
  }

 private:
  NetworkObserver& in_;
  LayerTrace& t_;
};

/// The benchmark's own view of the data packets: how many were offered
/// (fragments of every message that enters the network) and the latency
/// of each delivered one, for an exact percentile. Attached to bare and
/// traced runs alike.
class PacketLedger final : public NetworkObserver {
 public:
  explicit PacketLedger(std::int32_t packet_bytes)
      : packet_bytes_(packet_bytes) {}

  void on_message_injected(NodeId src, NodeId dst, std::int64_t bytes,
                           SimTime) override {
    if (src == dst) return;  // local messages never enter the network
    const std::int64_t b = std::max<std::int64_t>(bytes, 1);
    offered_ += static_cast<std::uint64_t>((b + packet_bytes_ - 1) /
                                           packet_bytes_);
  }
  void on_packet_delivered(const Packet& p, SimTime now) override {
    latencies_.push_back(now - p.inject_time);
  }

  std::uint64_t offered() const { return offered_; }
  std::uint64_t delivered() const { return latencies_.size(); }

  /// Nearest-rank p-quantile of the delivered packets' latency (seconds).
  double latency_quantile(double p) {
    if (latencies_.empty()) return 0;
    const auto n = latencies_.size();
    auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p * static_cast<double>(n))));
    rank = std::min(rank, n);
    std::nth_element(latencies_.begin(),
                     latencies_.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     latencies_.end());
    return latencies_[rank - 1];
  }

 private:
  std::int32_t packet_bytes_;
  std::uint64_t offered_ = 0;
  std::vector<double> latencies_;
};

}  // namespace prdrb::bench

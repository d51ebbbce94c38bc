// Property-style tests of the network timing model and the CFD selection
// logic, parameterized over distances, sizes and configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/cfd.hpp"
#include "core/pr_drb.hpp"
#include "net/flow_ledger.hpp"
#include "routing/drb.hpp"
#include "routing/oblivious.hpp"
#include "test_util.hpp"
#include "util/random.hpp"

namespace prdrb {
namespace {

using test::Harness;

// ---------------------------------------------------------------------------
// VCT latency model: e2e = serialization + wire + hops*(router+wire) +
// final router delay, for any hop count and packet size (uncontended).

struct TimingCase {
  int src_x;
  int dst_x;
  std::int32_t bytes;
};

class VctTimingProperty : public ::testing::TestWithParam<TimingCase> {};

TEST_P(VctTimingProperty, UncontendedLatencyMatchesModel) {
  const auto c = GetParam();
  NetConfig cfg;
  cfg.packet_bytes = c.bytes;
  auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 8, 1);
  h.net->send_message(c.src_x, c.dst_x, c.bytes);
  h.sim.run();
  ASSERT_EQ(h.metrics->packets_delivered(), 1u);
  const int hops = std::abs(c.dst_x - c.src_x) ;
  const double expected = cfg.serialization_time(c.bytes) + cfg.wire_delay_s +
                          hops * (cfg.router_delay_s + cfg.wire_delay_s) +
                          cfg.router_delay_s;
  EXPECT_NEAR(h.metrics->packet_latency().overall_mean(), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VctTimingProperty,
    ::testing::Values(TimingCase{0, 1, 1024}, TimingCase{0, 7, 1024},
                      TimingCase{0, 3, 256}, TimingCase{7, 0, 4096},
                      TimingCase{2, 5, 64}));

TEST(VctTiming, CutThroughBeatsStoreAndForwardScaling) {
  // Cut-through: latency grows by (router+wire) per hop, NOT by a full
  // serialization per hop.
  NetConfig cfg;
  auto run = [&](NodeId dst) {
    auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 8, 1);
    h.net->send_message(0, dst, 1024);
    h.sim.run();
    return h.metrics->packet_latency().overall_mean();
  };
  const double one = run(1);
  const double seven = run(7);
  const double per_hop = (seven - one) / 6.0;
  EXPECT_NEAR(per_hop, cfg.router_delay_s + cfg.wire_delay_s, 1e-12);
  EXPECT_LT(per_hop, cfg.serialization_time(1024) / 4);
}

TEST(VctTiming, BandwidthScalesSerialization) {
  NetConfig fast;
  fast.link_bandwidth_bps = 4e9;
  NetConfig slow;
  slow.link_bandwidth_bps = 1e9;
  auto run = [](NetConfig cfg) {
    auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 4, 1);
    h.net->send_message(0, 1, 1024);
    h.sim.run();
    return h.metrics->packet_latency().overall_mean();
  };
  EXPECT_LT(run(fast), run(slow));
  // Serialization dominates; fixed wire/router delays pull the ratio a bit
  // below the 4x bandwidth ratio.
  EXPECT_NEAR(run(slow) / run(fast), 4.0, 0.25);
}

// ---------------------------------------------------------------------------
// ACK generation policy

TEST(AckGating, ObliviousPoliciesGenerateNoAcks) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  for (int i = 0; i < 10; ++i) h.net->send_message(0, 5, 1024);
  h.sim.run();
  // 10 data packets only; an ACK per message would double the count at the
  // destination NIC's receive counter? ACKs are consumed by on_ack, not
  // counted as received data — check the *source* received nothing.
  EXPECT_EQ(h.net->nic(0).packets_received, 0u);
}

TEST(AckGating, AcksCanBeDisabledGlobally) {
  NetConfig cfg;
  cfg.acks_enabled = false;
  auto* drb = new DrbPolicy;
  auto h = Harness::make<Mesh2D>(cfg, drb, 4, 4);
  for (int i = 0; i < 10; ++i) h.net->send_message(0, 5, 1024);
  h.sim.run();
  const Metapath* mp = drb->find_metapath(0, 5);
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(mp->acks_received, 0u);
}

TEST(AckGating, DrbReceivesOneAckPerMessage) {
  auto* drb = new DrbPolicy;
  auto h = Harness::make<Mesh2D>(NetConfig{}, drb, 4, 4);
  for (int i = 0; i < 10; ++i) h.net->send_message(0, 5, 1024);
  h.net->send_message(0, 5, 5000);  // 5 fragments, still one ACK
  h.sim.run();
  const Metapath* mp = drb->find_metapath(0, 5);
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(mp->acks_received, 11u);
}

// ---------------------------------------------------------------------------
// CongestionDetector selection logic

/// Route a synthetic output queue through `ledger` port 0 the way Network
/// does: `head` is enqueued first, then `queue`, then `head` departs.
void enqueue_then_depart(FlowLedger& ledger, Packet& head,
                         std::vector<Packet>& queue) {
  ledger.push(0, head);
  for (Packet& p : queue) ledger.push(0, p);
  ledger.pop(0, head);
}

TEST(Cfd, TopContributorsSelectedFirst) {
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  // Build a synthetic congested queue: flow (1,9) has 3 packets, (2,9) one.
  auto mk = [](NodeId s, NodeId d, std::int32_t bytes) {
    Packet p;
    p.source = s;
    p.destination = d;
    p.size_bytes = bytes;
    return p;
  };
  std::vector<Packet> backing;
  backing.reserve(3);
  backing.push_back(mk(1, 9, 1024));
  backing.push_back(mk(2, 9, 1024));
  backing.push_back(mk(1, 9, 1024));

  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);

  Packet head = mk(1, 9, 1024);
  FlowLedger ledger(1);
  enqueue_then_depart(ledger, head, backing);
  cfd.detect(net, 0, 0, head, /*wait=*/5e-6, ledger, 0);
  ASSERT_GE(head.contending.size(), 2u);
  EXPECT_EQ(head.contending[0], (ContendingFlow{1, 9}));  // biggest share
  EXPECT_EQ(head.congested_router, 0);
  EXPECT_EQ(cfd.detections(), 1u);
}

TEST(Cfd, AcksAreNeverMonitored) {
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-9;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  Packet ack;
  ack.type = PacketType::kAck;
  ack.source = 1;
  ack.destination = 2;
  ack.size_bytes = 64;
  FlowLedger ledger(1);
  std::vector<Packet> queue;
  enqueue_then_depart(ledger, ack, queue);
  cfd.detect(net, 0, 0, ack, 1e-3, ledger, 0);
  EXPECT_EQ(cfd.detections(), 0u);
  EXPECT_TRUE(ack.contending.empty());
}

TEST(Cfd, RouterBasedCooldownLimitsAckStorm) {
  CongestionDetector cfd(NotificationMode::kRouterBased);
  cfd.set_notify_cooldown(1.0);  // effectively once per simulation
  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  FlowLedger ledger(1);
  std::vector<Packet> queue;
  Packet head;
  head.source = 1;
  head.destination = 9;
  head.size_bytes = 1024;
  for (int i = 0; i < 5; ++i) {
    Packet h2 = head;
    enqueue_then_depart(ledger, h2, queue);
    cfd.detect(net, 0, 0, h2, 5e-6, ledger, 0);
  }
  EXPECT_EQ(cfd.detections(), 5u);
  EXPECT_EQ(cfd.predictive_acks(), 1u);  // cooldown suppressed the rest
  sim.run();
}

TEST(Cfd, PredictiveBitSetOnRouterBasedNotification) {
  CongestionDetector cfd(NotificationMode::kRouterBased);
  Simulator sim;
  Mesh2D mesh(4, 4);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  FlowLedger ledger(1);
  std::vector<Packet> queue;
  Packet head;
  head.source = 1;
  head.destination = 9;
  head.size_bytes = 1024;
  enqueue_then_depart(ledger, head, queue);
  cfd.detect(net, 0, 0, head, 5e-6, ledger, 0);
  EXPECT_TRUE(head.predictive_bit);
  sim.run();
}

TEST(Cfd, MaxContendingFlowsRespected) {
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  Simulator sim;
  Mesh2D mesh(8, 8);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  cfg.max_contending_flows = 3;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);
  std::vector<Packet> backing;
  backing.reserve(10);
  for (NodeId s = 0; s < 10; ++s) {
    Packet p;
    p.source = s;
    p.destination = 63;
    p.size_bytes = 1024;
    backing.push_back(p);
  }
  Packet head;
  head.source = 20;
  head.destination = 63;
  head.size_bytes = 1024;
  FlowLedger ledger(1);
  enqueue_then_depart(ledger, head, backing);
  cfd.detect(net, 0, 0, head, 5e-6, ledger, 0);
  // Eleven equal shares: the cap bites, and ties keep queue order with the
  // departing packet's own flow first.
  ASSERT_EQ(head.contending.size(), 3u);
  EXPECT_EQ(head.contending[0], (ContendingFlow{20, 63}));
  EXPECT_EQ(head.contending[1], (ContendingFlow{0, 63}));
  EXPECT_EQ(head.contending[2], (ContendingFlow{1, 63}));
}

// ---------------------------------------------------------------------------
// FlowLedger vs the full output-queue rescan it replaced

struct ReferenceShare {
  ContendingFlow flow;
  std::int64_t bytes = 0;
};

/// The CFD contender selection as a rescan of {head, queue...}: bytes per
/// flow, stable-sorted largest first. Returns every share (sorted); `out`
/// gets the first `max_flows`.
std::vector<ReferenceShare> reference_select(const Packet& head,
                                             const std::deque<Packet*>& queue,
                                             int max_flows,
                                             std::vector<ContendingFlow>& out) {
  std::vector<ReferenceShare> shares;
  auto account = [&](const Packet& p) {
    if (p.is_ack()) return;
    const ContendingFlow f{p.source, p.destination};
    for (ReferenceShare& s : shares) {
      if (s.flow == f) {
        s.bytes += p.size_bytes;
        return;
      }
    }
    shares.push_back(ReferenceShare{f, p.size_bytes});
  };
  account(head);
  for (const Packet* p : queue) account(*p);

  std::stable_sort(shares.begin(), shares.end(),
                   [](const ReferenceShare& a, const ReferenceShare& b) {
                     return a.bytes > b.bytes;
                   });
  out.clear();
  for (const ReferenceShare& s : shares) {
    if (static_cast<int>(out.size()) >= max_flows) break;
    out.push_back(s.flow);
  }
  return shares;
}

/// True when two of the shares that decide a top-`k` pick have equal bytes.
bool tie_decides(const std::vector<ReferenceShare>& shares, int k) {
  const std::size_t n =
      std::min(shares.size(), static_cast<std::size_t>(k) + 1);
  for (std::size_t i = 1; i < n; ++i) {
    if (shares[i].bytes == shares[i - 1].bytes) return true;
  }
  return false;
}

TEST(CfdLedger, RandomizedPushPopMatchesQueueRescan) {
  constexpr int kPorts = 3;
  for (const int k : {1, 2, 8}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      // Start just below 2^32 so the enqueue sequence wraps mid-run.
      FlowLedger ledger(kPorts, 0xFFFFFFFFu - 300);
      std::deque<Packet> cells;  // address-stable packet storage
      std::vector<Packet*> spare;
      std::array<std::deque<Packet*>, kPorts> queues;
      Rng rng(seed * 1000 + static_cast<std::uint64_t>(k));
      std::vector<ContendingFlow> got, want;
      int compared = 0, over_k = 0, ties = 0;
      bool wrapped = false;
      std::uint32_t last_seq = 0;

      auto depart = [&](int port) {
        std::deque<Packet*>& q = queues[static_cast<std::size_t>(port)];
        Packet* head = q.front();
        q.pop_front();
        ledger.pop(port, *head);
        if (!head->is_ack()) {
          ledger.top(port, *head, k, got);
          const auto shares = reference_select(*head, q, k, want);
          ASSERT_EQ(got, want) << "k=" << k << " seed=" << seed
                               << " after " << compared << " checks";
          ++compared;
          if (shares.size() > static_cast<std::size_t>(k)) ++over_k;
          if (tie_decides(shares, k)) ++ties;
        }
        spare.push_back(head);
      };

      for (int step = 0; step < 6000; ++step) {
        const int port = static_cast<int>(rng.next_below(kPorts));
        std::deque<Packet*>& q = queues[static_cast<std::size_t>(port)];
        // Grow queues early, then hover, so both deep and shallow queues
        // get popped.
        const std::uint64_t push_odds = step < 3000 ? 60 : 50;
        if (q.empty() || rng.next_below(100) < push_odds) {
          Packet* p;
          if (spare.empty()) {
            p = &cells.emplace_back();
          } else {
            p = spare.back();
            spare.pop_back();
            *p = Packet{};
          }
          p->source = static_cast<NodeId>(rng.next_below(12));
          p->destination = static_cast<NodeId>(20 + rng.next_below(2));
          p->type = rng.next_below(10) == 0 ? PacketType::kAck
                                            : PacketType::kData;
          // Mostly equal sizes so byte ties are common.
          p->size_bytes = rng.next_below(8) == 0 ? 512 : 1024;
          q.push_back(p);
          ledger.push(port, *p);
          if (!p->is_ack()) {
            if (p->queue_seq < last_seq) wrapped = true;
            last_seq = p->queue_seq;
          }
        } else {
          depart(port);
        }
      }
      for (int port = 0; port < kPorts; ++port) {
        while (!queues[static_cast<std::size_t>(port)].empty()) depart(port);
      }
      EXPECT_EQ(ledger.live(), 0u);
      EXPECT_TRUE(wrapped);
      EXPECT_GT(compared, 1000);
      EXPECT_GT(over_k, 100) << "k=" << k;
      EXPECT_GT(ties, 100) << "k=" << k;
    }
  }
}

/// Runs the real CongestionDetector and checks each of its selections
/// against a rescan of the raw queue the network hands the monitor.
class RescanCheckingMonitor final : public RouterMonitor {
 public:
  explicit RescanCheckingMonitor(NotificationMode mode) : cfd(mode) {}

  void on_transmit(Network& net, RouterId r, int port, Packet& head,
                   SimTime wait, const std::deque<Packet*>& queue) override {
    const std::uint64_t before = cfd.detections();
    cfd.on_transmit(net, r, port, head, wait, queue);
    if (cfd.detections() == before) return;
    const int k = net.config().max_contending_flows;
    const auto shares = reference_select(head, queue, k, want_);
    ++detections;
    if (cfd.last_selection() != want_) ++mismatches;
    if (shares.size() > static_cast<std::size_t>(k)) ++over_k;
    if (tie_decides(shares, k)) ++ties;
  }

  CongestionDetector cfd;
  std::uint64_t detections = 0, mismatches = 0, over_k = 0, ties = 0;

 private:
  std::vector<ContendingFlow> want_;
};

TEST(CfdLedger, HotspotSelectionsMatchQueueRescan) {
  for (const NotificationMode mode :
       {NotificationMode::kDestinationBased, NotificationMode::kRouterBased}) {
    NetConfig cfg;
    cfg.router_contention_threshold_s = 1e-6;
    cfg.max_contending_flows = 4;
    auto* policy = new PrDrbPolicy(
        DrbConfig{}, PrDrbConfig{.similarity = 0.8, .notification = mode});
    auto h = Harness::make<Mesh2D>(cfg, policy, 4, 4);
    RescanCheckingMonitor mon(mode);
    h.net->set_monitor(&mon);
    // Every other terminal floods terminal 5: equal 1 KiB packets and a
    // few multi-packet messages.
    for (int round = 0; round < 12; ++round) {
      for (NodeId s = 0; s < 16; ++s) {
        if (s == 5) continue;
        h.net->send_message(s, 5, round % 4 == 0 ? 3000 : 1024);
      }
    }
    h.sim.run();
    const char* name =
        mode == NotificationMode::kRouterBased ? "router" : "destination";
    EXPECT_GT(mon.detections, 100u) << name;
    EXPECT_EQ(mon.mismatches, 0u) << name;
    EXPECT_GT(mon.over_k, 0u) << name;
    EXPECT_GT(mon.ties, 0u) << name;
    EXPECT_EQ(h.net->flow_ledger().live(), 0u) << name;
  }
}

TEST(CfdLedger, MonitorMustBeSetBeforeTraffic) {
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  CongestionDetector cfd;
  h.net->set_monitor(&cfd);  // idle network: fine
  h.net->send_message(0, 5, 1024);
  EXPECT_THROW(h.net->set_monitor(nullptr), std::logic_error);
  h.sim.run();
  h.net->set_monitor(nullptr);  // drained again: fine
}

// ---------------------------------------------------------------------------
// Allocation-freedom of the hot path (operator-new interposer, test_util.hpp)

TEST(Allocations, EventQueueSteadyStateIsAllocationFree) {
  // After warm-up, schedule+pop with an inline-sized capture must never
  // touch the allocator: actions live in recycled slots, heap entries in a
  // vector that has reached its high-water capacity.
  EventQueue q;
  std::uint64_t sink = 0;
  for (int i = 0; i < 4096; ++i) {
    q.schedule(static_cast<SimTime>(i), [&sink, i] {
      sink += static_cast<std::uint64_t>(i);
    });
  }
  while (!q.empty()) q.pop().action();

  test::AllocationScope scope;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 4; ++i) {
      q.schedule(static_cast<SimTime>(round * 4 + i), [&sink, i] {
        sink += static_cast<std::uint64_t>(i);
      });
    }
    while (!q.empty()) q.pop().action();
  }
  EXPECT_EQ(scope.count(), 0u) << "steady-state schedule/pop allocated";
  EXPECT_GT(sink, 0u);
}

TEST(Allocations, NetworkSteadyStateHopsAreAllocationFree) {
  // Drive the same workload twice through one network. The second pass
  // reuses pooled packets, recycled event slots and warmed queues, so the
  // only remaining allocations are per-message bookkeeping (rx-reassembly
  // map nodes and ACK metapath stats) — bounded by messages, not by hops
  // or events.
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  const int kMessages = 400;
  auto run_pass = [&] {
    for (int i = 0; i < kMessages; ++i) {
      const NodeId src = static_cast<NodeId>(i % 16);
      const NodeId dst = static_cast<NodeId>((i * 7 + 5) % 16);
      h.net->send_message(src, dst, 1024);
    }
    h.sim.run();
  };
  run_pass();  // warm-up: pool fills, queues and heap reach steady capacity

  const std::uint64_t events_before = h.sim.events_executed();
  test::AllocationScope scope;
  run_pass();
  const std::uint64_t events = h.sim.events_executed() - events_before;
  ASSERT_GT(events, static_cast<std::uint64_t>(4 * kMessages));
  // Per-hop/per-event cost must be nil: allow only the per-message nodes.
  EXPECT_LT(scope.count(), static_cast<std::uint64_t>(4 * kMessages))
      << "events in pass: " << events;
  EXPECT_EQ(h.net->packet_pool().outstanding(), 0u);
}

TEST(Allocations, CfdDetectionSteadyStateIsAllocationFree) {
  // The same two-pass drive and per-message bound with the CFD attached,
  // on a hot spot of 4-packet messages: ledger entries come from recycled
  // arena chunks and the selection reuses its scratch. Detections outnumber
  // the bound, so even one allocation per detection would fail it.
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-7;
  auto h = Harness::make<Mesh2D>(cfg, new DeterministicPolicy, 4, 4);
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  h.net->set_monitor(&cfd);
  const int kMessages = 400;
  auto run_pass = [&] {
    for (int i = 0; i < kMessages; ++i) {
      // Every terminal but 5 sends to 5.
      const NodeId src = static_cast<NodeId>(i % 15 < 5 ? i % 15 : i % 15 + 1);
      h.net->send_message(src, 5, 4 * 1024);
    }
    h.sim.run();
  };
  run_pass();  // warm-up: pool, ledger arena and scratch reach capacity

  const std::uint64_t detections_before = cfd.detections();
  test::AllocationScope scope;
  run_pass();
  const std::uint64_t detections = cfd.detections() - detections_before;
  ASSERT_GT(detections, static_cast<std::uint64_t>(4 * kMessages));
  EXPECT_LT(scope.count(), static_cast<std::uint64_t>(4 * kMessages))
      << "detections in pass: " << detections;
  EXPECT_EQ(h.net->flow_ledger().live(), 0u);
}

TEST(Cfd, HeaderTruncationIsCountedWhenTheCapBites) {
  // A header already at max_contending_flows drops further (distinct)
  // flows; every drop must show up in both the CFD stat and the network's
  // truncation counter so the loss of prediction accuracy is observable.
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  Simulator sim;
  Mesh2D mesh(8, 8);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  cfg.max_contending_flows = 2;
  DeterministicPolicy pol;
  Network net(sim, mesh, cfg, pol);

  auto congested_queue = [](NodeId first_src) {
    std::vector<Packet> backing;
    for (NodeId s = first_src; s < first_src + 3; ++s) {
      Packet p;
      p.source = s;
      p.destination = 63;
      p.size_bytes = 1024;
      backing.push_back(p);
    }
    return backing;
  };

  Packet head;
  head.source = 20;
  head.destination = 63;
  head.size_bytes = 1024;

  auto run = [&](NodeId first_src) {
    std::vector<Packet> backing = congested_queue(first_src);
    FlowLedger ledger(1);
    enqueue_then_depart(ledger, head, backing);
    cfd.detect(net, 0, 0, head, 5e-6, ledger, 0);
  };
  run(0);  // fills the header to the cap of 2
  EXPECT_EQ(head.contending.size(), 2u);
  EXPECT_EQ(cfd.truncated_flows(), 0u);
  run(30);  // new flows, zero free slots: the non-duplicate one is dropped
  // The selection picks 2 flows: the head's own (already in the header,
  // deduplicated) and one new queue flow — which the full header drops.
  EXPECT_EQ(head.contending.size(), 2u);
  EXPECT_EQ(cfd.truncated_flows(), 1u);
  EXPECT_EQ(net.header_truncations(), 1u);
}

}  // namespace
}  // namespace prdrb

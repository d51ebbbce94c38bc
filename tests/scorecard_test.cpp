// Predictive-efficacy scorecard tests (obs/scorecard):
//   - LatencyHistogram::merge is exact (merged percentiles == single-pass)
//   - attribution keys deliveries by traffic class and route kind
//   - ledger splits latency before vs during multipath and tracks intervals
//   - episode state machine: cold (SDB miss) vs warm (SDB hit), false opens,
//     finalize() closing open state
//   - merge() equals a single-pass scorecard, byte-for-byte in JSON
//   - attached runs leave ScenarioResults untouched; exports are
//     byte-identical across repeats
//   - the delivery fold is allocation-free in steady state (interposer)
#include <cstdint>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "experiment/scenario.hpp"
#include "metrics/histogram.hpp"
#include "net/packet.hpp"
#include "obs/json.hpp"
#include "obs/scorecard.hpp"
#include "routing/metapath.hpp"
#include "test_util.hpp"

namespace prdrb {
namespace {

using obs::Scorecard;
using Class = Scorecard::TrafficClass;
using Route = Scorecard::RouteKind;
using Phase = Scorecard::Phase;

// ---------------------------------------------------------------------------
// LatencyHistogram::merge exactness

TEST(HistogramMerge, MergedPercentilesEqualSinglePass) {
  std::mt19937_64 rng(42);
  LatencyHistogram a, b, single;
  // Two disjoint streams spanning the full bucket range, including samples
  // that clamp into the edge buckets on both sides.
  for (int i = 0; i < 5000; ++i) {
    const double v = 1e-9 * std::pow(10.0, (rng() % 9000) / 1000.0);
    a.record(v);
    single.record(v);
  }
  for (int i = 0; i < 3000; ++i) {
    const double v = 50e-9 + static_cast<double>(rng() % 1000) * 1e-6;
    b.record(v);
    single.record(v);
  }
  a.merge(b);
  ASSERT_EQ(a.count(), single.count());
  for (int bucket = 0; bucket < LatencyHistogram::kNumBuckets; ++bucket) {
    ASSERT_EQ(a.bucket_count(bucket), single.bucket_count(bucket))
        << "bucket " << bucket;
  }
  // Buckets equal => every percentile query is bit-identical, but assert the
  // contract as stated anyway, across the whole quantile range.
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    ASSERT_EQ(a.percentile(p), single.percentile(p)) << "p=" << p;
  }
}

TEST(HistogramMerge, MergeWithEmptyIsIdentity) {
  LatencyHistogram h, empty;
  h.record(3e-6);
  h.record(9e-6);
  const SimTime p50 = h.p50();
  h.merge(empty);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.p50(), p50);
  empty.merge(h);  // merging into an empty histogram adopts the stream
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.p50(), p50);
}

// ---------------------------------------------------------------------------
// Attribution keying (direct hook calls)

Packet data_packet(NodeId src, NodeId dst, std::int32_t msp) {
  Packet p;
  p.type = PacketType::kData;
  p.source = src;
  p.destination = dst;
  p.size_bytes = 1024;
  p.msp_index = msp;
  return p;
}

TEST(ScorecardAttribution, ClassAndRouteKeying) {
  Scorecard sc;
  // Direct minimal path (msp 0).
  sc.on_delivered(data_packet(1, 2, 0), 10e-6);
  EXPECT_EQ(sc.histogram(Class::kData, Route::kDirect, Phase::kEndToEnd)
                .count(),
            1u);
  // Alternative MSP with no predictive install active.
  sc.on_delivered(data_packet(1, 2, 1), 12e-6);
  EXPECT_EQ(sc.histogram(Class::kData, Route::kAlternative, Phase::kEndToEnd)
                .count(),
            1u);
  // After an SDB hit installs a solution, alternatives count as predicted.
  sc.on_sdb_hit(1, 2, 3, 14e-6);
  sc.on_delivered(data_packet(1, 2, 2), 16e-6);
  EXPECT_EQ(sc.histogram(Class::kData, Route::kPredicted, Phase::kEndToEnd)
                .count(),
            1u);
  // ACKs echo the acknowledged msp_index but always ride the direct path.
  Packet ack = data_packet(2, 1, 1);
  ack.type = PacketType::kAck;
  sc.on_delivered(ack, 18e-6);
  EXPECT_EQ(sc.histogram(Class::kAck, Route::kDirect, Phase::kEndToEnd)
                .count(),
            1u);
  EXPECT_EQ(sc.histogram(Class::kAck, Route::kAlternative, Phase::kEndToEnd)
                .count(),
            0u);
  Packet pack = data_packet(2, 1, -1);
  pack.type = PacketType::kPredictiveAck;
  sc.on_delivered(pack, 19e-6);
  EXPECT_EQ(sc.histogram(Class::kPredictiveAck, Route::kDirect,
                         Phase::kEndToEnd)
                .count(),
            1u);
  EXPECT_EQ(sc.deliveries(), 5u);
  // ACK flows never enter the ledger: only the (1,2) data flow exists.
  EXPECT_EQ(sc.flows(), 1u);
}

TEST(ScorecardAttribution, PhaseTimersLandInTheirCells) {
  Scorecard sc;
  Packet p = data_packet(3, 4, 0);
  p.inject_time = 0;
  p.inject_wait = 2e-6;
  p.path_latency = 3e-6;
  p.transmit_time = 1e-6;
  p.stall_wait = 0.5e-6;
  sc.on_delivered(p, 8e-6);
  const auto upper_of = [&](Phase ph) {
    return sc.histogram(Class::kData, Route::kDirect, ph).p50();
  };
  // One sample per phase; the percentile reports the sample's bucket upper
  // bound, which sits within one log bucket (x10^(1/8) ~ 1.34) of the value.
  const struct {
    Phase phase;
    double value;
  } expected[] = {{Phase::kEndToEnd, 8e-6},
                  {Phase::kInjectWait, 2e-6},
                  {Phase::kQueueing, 3e-6},
                  {Phase::kTransmit, 1e-6},
                  {Phase::kStall, 0.5e-6}};
  for (const auto& e : expected) {
    const auto& hist = sc.histogram(Class::kData, Route::kDirect, e.phase);
    ASSERT_EQ(hist.count(), 1u) << Scorecard::phase_name(e.phase);
    EXPECT_GE(upper_of(e.phase), e.value) << Scorecard::phase_name(e.phase);
    EXPECT_LE(upper_of(e.phase), e.value * 1.34)
        << Scorecard::phase_name(e.phase);
  }
}

// ---------------------------------------------------------------------------
// Ledger: multipath intervals and before/during latency split

TEST(ScorecardLedger, MultipathIntervalsAndBeforeDuringSplit) {
  Scorecard sc;
  // Two deliveries before any metapath expansion.
  sc.on_delivered(data_packet(0, 5, 0), 4e-6);
  sc.on_delivered(data_packet(0, 5, 0), 8e-6);
  // Expansion to 2 paths at t=1ms, back to 1 at t=3ms: 2ms of multipath.
  sc.on_metapath_open(0, 5, 2, 1e-3);
  sc.on_delivered(data_packet(0, 5, 1), 1.5e-3);
  sc.on_metapath_close(0, 5, 1, 3e-3);
  sc.on_delivered(data_packet(0, 5, 0), 3.5e-3);
  sc.finalize(4e-3);
  EXPECT_EQ(sc.metapath_opens(), 1u);
  EXPECT_EQ(sc.metapath_closes(), 1u);
  EXPECT_DOUBLE_EQ(sc.time_in_multipath(), 2e-3);

  const auto doc = obs::json_parse(sc.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->number_at("ledger.multipath_s"), 2e-3);
  const obs::JsonValue* flows = doc->find_path("ledger.top_flows");
  ASSERT_TRUE(flows && flows->is_array());
  ASSERT_EQ(flows->size(), 1u);
  const obs::JsonValue& f = flows->items()[0];
  EXPECT_DOUBLE_EQ(f.number_at("src"), 0);
  EXPECT_DOUBLE_EQ(f.number_at("dst"), 5);
  // 3 deliveries while single-path, 1 during the multipath interval.
  EXPECT_DOUBLE_EQ(f.number_at("before.packets"), 3);
  EXPECT_DOUBLE_EQ(f.number_at("during.packets"), 1);
  EXPECT_DOUBLE_EQ(f.number_at("packets.direct"), 3);
  EXPECT_DOUBLE_EQ(f.number_at("packets.alternative"), 1);
  EXPECT_DOUBLE_EQ(f.number_at("bytes.direct"), 3 * 1024);
}

// ---------------------------------------------------------------------------
// Episode state machine

TEST(ScorecardEpisodes, ColdAndWarmLifecycleWithFalseOpen) {
  Scorecard sc;
  // COLD: the SDB missed, DRB opens paths gradually, calms through Medium.
  sc.on_sdb_miss(0, 9, 1e-3);
  sc.on_metapath_open(0, 9, 2, 1.1e-3);
  sc.on_delivered(data_packet(0, 9, 1), 1.2e-3);
  sc.on_zone(0, 9, Zone::kHigh, Zone::kMedium, 2e-3);
  EXPECT_EQ(sc.cold_episodes(), 1u);
  EXPECT_EQ(sc.warm_episodes(), 0u);

  // WARM: the SDB hit and installed 3 paths wholesale... but the flow still
  // needed a gradual open before calming — a false open.
  sc.on_sdb_hit(0, 9, 3, 5e-3);
  sc.on_delivered(data_packet(0, 9, 2), 5.2e-3);
  sc.on_metapath_open(0, 9, 4, 5.5e-3);
  sc.on_zone(0, 9, Zone::kHigh, Zone::kMedium, 6e-3);
  EXPECT_EQ(sc.warm_episodes(), 1u);
  EXPECT_EQ(sc.false_opens(), 1u);

  // Second warm episode with no gradual opens: clean hit.
  sc.on_sdb_hit(0, 9, 3, 8e-3);
  sc.on_delivered(data_packet(0, 9, 2), 8.1e-3);
  sc.on_zone(0, 9, Zone::kHigh, Zone::kMedium, 8.5e-3);
  EXPECT_EQ(sc.warm_episodes(), 2u);
  EXPECT_EQ(sc.false_opens(), 1u);

  sc.finalize(10e-3);
  const auto doc = obs::json_parse(sc.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->number_at("episodes.cold.count"), 1);
  EXPECT_DOUBLE_EQ(doc->number_at("episodes.warm.count"), 2);
  EXPECT_DOUBLE_EQ(doc->number_at("episodes.false_opens"), 1);
  EXPECT_DOUBLE_EQ(doc->number_at("episodes.false_open_rate"), 0.5);
  EXPECT_DOUBLE_EQ(doc->number_at("sdb.hits"), 2);
  EXPECT_DOUBLE_EQ(doc->number_at("sdb.misses"), 1);
  // Cold episode: 1 ms; warm: (1.0 + 0.5) / 2 = 0.75 ms mean duration.
  EXPECT_NEAR(doc->number_at("episodes.cold.mean_duration_us"), 1000, 1e-6);
  EXPECT_NEAR(doc->number_at("episodes.warm.mean_duration_us"), 750, 1e-6);
  EXPECT_NEAR(doc->number_at("episodes.convergence_ratio"), 0.75, 1e-9);
}

TEST(ScorecardEpisodes, HitUpgradesColdAndLowResolvesEverything) {
  Scorecard sc;
  // A miss starts a cold episode; a later hit in the same congestion phase
  // closes it and opens a warm one.
  sc.on_sdb_miss(2, 3, 1e-3);
  sc.on_sdb_hit(2, 3, 2, 2e-3);
  EXPECT_EQ(sc.cold_episodes(), 1u);
  // Falling to Low ends the warm episode and disarms the install, so the
  // next alternative delivery counts as plain DRB again.
  sc.on_zone(2, 3, Zone::kMedium, Zone::kLow, 3e-3);
  EXPECT_EQ(sc.warm_episodes(), 1u);
  sc.on_delivered(data_packet(2, 3, 1), 3.5e-3);
  EXPECT_EQ(sc.histogram(Class::kData, Route::kAlternative, Phase::kEndToEnd)
                .count(),
            1u);
  EXPECT_EQ(sc.histogram(Class::kData, Route::kPredicted, Phase::kEndToEnd)
                .count(),
            0u);
}

TEST(ScorecardEpisodes, FinalizeClosesOpenIntervalsAndEpisodes) {
  Scorecard sc;
  sc.on_sdb_miss(1, 7, 1e-3);
  sc.on_metapath_open(1, 7, 2, 1.5e-3);
  EXPECT_EQ(sc.cold_episodes(), 0u) << "episode still open";
  EXPECT_DOUBLE_EQ(sc.time_in_multipath(), 0.0) << "interval still open";
  sc.finalize(4e-3);
  EXPECT_EQ(sc.cold_episodes(), 1u);
  EXPECT_DOUBLE_EQ(sc.time_in_multipath(), 2.5e-3);
  // finalize() resolved all scratch state: running it again changes nothing.
  const std::string once = sc.to_json();
  sc.finalize(9e-3);
  EXPECT_EQ(sc.to_json(), once);
}

// ---------------------------------------------------------------------------
// merge(): equals a single-pass scorecard

void feed_flow_a(Scorecard& sc) {
  sc.on_sdb_miss(0, 5, 1e-3);
  sc.on_metapath_open(0, 5, 2, 1.2e-3);
  sc.on_delivered(data_packet(0, 5, 1), 1.4e-3);
  sc.on_zone(0, 5, Zone::kHigh, Zone::kMedium, 2e-3);
  sc.on_metapath_close(0, 5, 1, 2.5e-3);
  sc.on_delivered(data_packet(0, 5, 0), 3e-3);
}

void feed_flow_b(Scorecard& sc) {
  sc.on_sdb_hit(1, 6, 3, 1e-3);
  sc.on_delivered(data_packet(1, 6, 2), 1.3e-3);
  sc.on_sdb_save(1, 6, 3, 1.9e-3);
  sc.on_zone(1, 6, Zone::kHigh, Zone::kMedium, 2e-3);
  sc.on_sdb_empty_probe(1, 6, 2.2e-3);
  sc.on_delivered(data_packet(1, 6, 0), 2.4e-3);
}

TEST(ScorecardMerge, MergeMatchesSinglePassByteForByte) {
  Scorecard a, b, single;
  feed_flow_a(a);
  feed_flow_a(single);
  feed_flow_b(b);
  feed_flow_b(single);
  a.finalize(4e-3);
  b.finalize(4e-3);
  single.finalize(4e-3);
  a.merge(b);
  EXPECT_EQ(a.to_json(), single.to_json());
  EXPECT_EQ(a.deliveries(), 4u);
  EXPECT_EQ(a.flows(), 2u);
  EXPECT_EQ(a.sdb_hits(), 1u);
  EXPECT_EQ(a.sdb_misses(), 1u);
  EXPECT_EQ(a.sdb_saves(), 1u);
  EXPECT_EQ(a.sdb_empty_probes(), 1u);
}

TEST(ScorecardMerge, MergeIntoEmptyReproducesTheSource) {
  Scorecard src, dst;
  feed_flow_a(src);
  feed_flow_b(src);
  src.finalize(4e-3);
  dst.merge(src);
  EXPECT_EQ(dst.to_json(), src.to_json());
}

// ---------------------------------------------------------------------------
// Scenario integration: zero-cost contract and export determinism

ScenarioSpec contended_spec() {
  ScenarioSpec sc;
  sc.topology = "mesh-4x4";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().rate_bps = 600e6;
  sc.synthetic().bursts = 2;
  sc.synthetic().burst_len = 0.5e-3;
  sc.synthetic().gap_len = 0.5e-3;
  sc.synthetic().duration = 2e-3;
  sc.seed = 11;
  sc.bin_width = 0.5e-3;
  return sc;
}

TEST(ScorecardScenario, AttachedRunLeavesResultsUntouched) {
  const ScenarioSpec detached = contended_spec();
  for (const std::string policy : {"pr-drb", "pr-fr-drb"}) {
    const ScenarioResult plain = run_scenario(policy, detached);
    ScenarioSpec spec = contended_spec();
    obs::Scorecard scorecard;
    spec.sinks.scorecard = &scorecard;
    const ScenarioResult observed = run_scenario(policy, spec);
    // Defaulted operator== — every field, full time series, exact doubles.
    EXPECT_EQ(plain, observed) << policy;
    // The fold sees every delivery, data and ACK alike, so it can never
    // undercount the metrics-counted data packets.
    EXPECT_GE(scorecard.deliveries(),
              static_cast<std::uint64_t>(plain.packets))
        << policy;
    EXPECT_GT(scorecard.deliveries(), 0u);
    EXPECT_TRUE(obs::json_valid(scorecard.to_json())) << policy;
  }
}

TEST(ScorecardScenario, ExportIsByteIdenticalAcrossRepeatsAndBackends) {
  const auto run_once = [] {
    ScenarioSpec spec = contended_spec();
    obs::Scorecard scorecard;
    spec.sinks.scorecard = &scorecard;
    run_scenario("pr-drb", spec);
    return scorecard.to_json();
  };
  const std::string heap1 = run_once();
  const std::string heap2 = run_once();
  EXPECT_EQ(heap1, heap2) << "repeat runs must export identically";
  EXPECT_TRUE(obs::json_valid(heap1));
}

// ---------------------------------------------------------------------------
// Allocation-freedom (operator-new interposer, test_util.hpp)

TEST(Allocations, DeliveryFoldSteadyStateIsAllocationFree) {
  Scorecard sc;
  // Warm-up: create the flow records (one map node each) and touch every
  // cell this traffic will use.
  for (NodeId src = 0; src < 8; ++src) {
    sc.on_sdb_hit(src, src + 8, 2, 1e-6);
    sc.on_delivered(data_packet(src, src + 8, 1), 2e-6);
    sc.on_delivered(data_packet(src, src + 8, 0), 3e-6);
  }
  Packet ack = data_packet(8, 0, -1);
  ack.type = PacketType::kAck;
  sc.on_delivered(ack, 4e-6);

  test::AllocationScope scope;
  for (int i = 0; i < 20000; ++i) {
    const NodeId src = static_cast<NodeId>(i % 8);
    sc.on_delivered(data_packet(src, src + 8, i % 3), 5e-6 + i * 1e-9);
    sc.on_delivered(ack, 6e-6 + i * 1e-9);
    sc.on_metapath_open(src, src + 8, 3, 7e-6 + i * 1e-9);
    sc.on_metapath_close(src, src + 8, 2, 8e-6 + i * 1e-9);
    sc.on_sdb_save(src, src + 8, 2, 9e-6 + i * 1e-9);
  }
  EXPECT_EQ(scope.count(), 0u)
      << "scorecard hot-path hooks allocated in steady state";
  EXPECT_EQ(sc.deliveries(), 17u + 40000u);
}

}  // namespace
}  // namespace prdrb

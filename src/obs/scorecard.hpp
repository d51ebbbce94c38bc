// Predictive-efficacy scorecard: hop-level latency attribution plus a
// metapath/SDB outcome ledger with streaming (windowed) aggregation.
//
// The counter registry answers "how much, globally"; telemetry answers
// "where"; the tracer answers "what happened to this packet". None of them
// answer the paper's own claim — that saved solutions (SDB hits) and
// predictive metapath opening demonstrably cut contention latency. The
// scorecard does, with three cooperating parts:
//
//   1. latency attribution — per-packet phase timers (injection-queue wait,
//      per-hop queueing, transmission, credit-stall) folded AT DELIVERY into
//      fixed-size log-bucket histograms keyed by traffic class and by the
//      route the packet rode (direct minimal path, DRB alternative, or an
//      alternative opened by a predictive SDB install). Memory is O(bins):
//      nothing is retained per packet.
//   2. metapath lifecycle ledger — one record per (src,dst) flow: metapath
//      opens/closes, time spent in multipath state, packets and bytes per
//      route kind, and delivered latency before vs during multipath
//      intervals.
//   3. prediction scorecard — congestion-episode accounting. Entering the
//      High zone starts an episode, tagged WARM when the SDB hit (saved
//      paths installed wholesale) and COLD when it missed (gradual DRB
//      opening); calming to Medium (or falling to Low) ends it. Comparing
//      warm against cold episodes of the same run yields hit efficacy,
//      false-open rate (warm episodes that still needed gradual opens) and
//      warm-vs-cold convergence time.
//
// Hooks ride the zero-cost unbound-pointer pattern of obs/telemetry.hpp:
// every site in Network / DrbPolicy / PredictiveEngine sits behind a
// single-branch `if (scorecard_)` guard, and the per-packet phase fields
// are only written under that guard — a detached run's event counts,
// traces and throughput are untouched. All recorded state is virtual-time
// only and exports are deterministically ordered, so attached output is
// byte-identical at any --jobs.
//
// Output: "prdrb-scorecard-v1" JSON, written by bench::BenchMain
// (--scorecard-out) and prdrb_sim, merged across runs with merge() (exact:
// histogram folds are bucket-wise, see LatencyHistogram::merge), rendered
// by tools/prdrb_report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "metrics/histogram.hpp"
#include "util/types.hpp"

namespace prdrb {
struct Packet;
enum class Zone : std::uint8_t;
}  // namespace prdrb

namespace prdrb::obs {

class Scorecard {
 public:
  /// Traffic classes the attribution histograms are keyed by.
  enum class TrafficClass : std::uint8_t { kData, kAck, kPredictiveAck };
  /// Route kinds: the direct minimal path, a DRB alternative MSP, or an
  /// alternative while a predictively-installed solution was active for
  /// the flow.
  enum class RouteKind : std::uint8_t { kDirect, kAlternative, kPredicted };
  /// Latency phases attributed per delivered packet.
  enum class Phase : std::uint8_t {
    kEndToEnd,    // creation at the source NIC -> delivery
    kInjectWait,  // wait in the source NIC's injection queue
    kQueueing,    // accumulated per-hop output-queue wait (LU module)
    kTransmit,    // accumulated serialization time across hops
    kStall,       // share of queueing spent credit-stalled at a hop head
  };

  static constexpr int kNumClasses = 3;
  static constexpr int kNumRoutes = 3;
  static constexpr int kNumPhases = 5;
  /// Flows beyond this cap still aggregate into the ledger totals; only the
  /// per-flow records are bounded (largest-traffic flows win at export).
  static constexpr std::size_t kTopFlows = 16;

  static const char* class_name(TrafficClass c);
  static const char* route_name(RouteKind r);
  static const char* phase_name(Phase p);

  // --- delivery fold (Network::deliver, behind `if (scorecard_)`) ---
  /// Fold a delivered packet's phase timers into the attribution histograms
  /// and its flow's ledger record. O(bins) state, nothing retained per
  /// packet.
  void on_delivered(const Packet& p, SimTime now);

  // --- metapath lifecycle (DrbPolicy::expand/shrink) ---
  void on_metapath_open(NodeId src, NodeId dst, int open_paths, SimTime now);
  void on_metapath_close(NodeId src, NodeId dst, int open_paths, SimTime now);

  // --- zone transitions (DrbPolicy::on_ack) ---
  void on_zone(NodeId src, NodeId dst, Zone previous, Zone current,
               SimTime now);

  // --- SDB outcomes (PredictiveEngine) ---
  void on_sdb_hit(NodeId src, NodeId dst, int paths, SimTime now);
  void on_sdb_miss(NodeId src, NodeId dst, SimTime now);
  void on_sdb_save(NodeId src, NodeId dst, int paths, SimTime now);
  void on_sdb_empty_probe(NodeId src, NodeId dst, SimTime now);

  /// Close out open multipath intervals and unresolved episodes at end of
  /// run (`now` = final virtual time). Call once, after Simulator::run().
  void finalize(SimTime now);

  /// Fold another scorecard into this one (bucket-wise histogram adds,
  /// per-flow record sums). Exact and order-deterministic: merging partial
  /// scorecards in submission order yields byte-identical exports.
  void merge(const Scorecard& other);

  // --- introspection (tests) ---
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t sdb_hits() const { return hits_; }
  std::uint64_t sdb_misses() const { return misses_; }
  std::uint64_t sdb_saves() const { return saves_; }
  std::uint64_t sdb_empty_probes() const { return empty_probes_; }
  std::uint64_t metapath_opens() const { return opens_; }
  std::uint64_t metapath_closes() const { return closes_; }
  std::uint64_t cold_episodes() const { return cold_episodes_; }
  std::uint64_t warm_episodes() const { return warm_episodes_; }
  std::uint64_t false_opens() const { return false_opens_; }
  double time_in_multipath() const { return multipath_time_; }
  std::size_t flows() const { return flows_.size(); }
  const LatencyHistogram& histogram(TrafficClass c, RouteKind r,
                                    Phase p) const {
    return cells_[cell_index(c, r, p)].hist;
  }

  // --- export ---
  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Write "prdrb-scorecard-v1" JSON to `path`; false on IO failure.
  bool write_file(const std::string& path) const;

 private:
  struct Cell {
    LatencyHistogram hist;
    double seconds = 0;  // sum of the phase across samples
  };

  /// Per-flow ledger record plus the episode scratch state. The scratch
  /// fields (multipath_since, episode, ...) are run-local and always
  /// resolved by finalize(); merge() only sums the ledger fields.
  struct FlowRecord {
    // lifecycle ledger
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
    double multipath_time = 0;  // seconds spent with >1 open path
    std::uint64_t packets[kNumRoutes] = {};
    std::uint64_t bytes[kNumRoutes] = {};
    double latency_before = 0;  // delivered e2e sum while single-path
    std::uint64_t n_before = 0;
    double latency_during = 0;  // delivered e2e sum while multipath
    std::uint64_t n_during = 0;

    // run-local scratch (not merged)
    SimTime multipath_since = -1;  // <0: currently single-path
    bool install_active = false;   // SDB solution installed this episode
    std::uint8_t episode = 0;      // 0 none, 1 cold, 2 warm
    SimTime episode_start = 0;
    std::uint64_t episode_opens = 0;  // gradual opens inside the episode
    double episode_lat = 0;           // delivered e2e sum inside the episode
    std::uint64_t episode_n = 0;
  };

  static std::size_t cell_index(TrafficClass c, RouteKind r, Phase p) {
    return (static_cast<std::size_t>(c) * kNumRoutes +
            static_cast<std::size_t>(r)) *
               kNumPhases +
           static_cast<std::size_t>(p);
  }
  static std::uint64_t flow_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
  }

  FlowRecord& flow(NodeId src, NodeId dst) {
    return flows_[flow_key(src, dst)];
  }
  void record_phase(TrafficClass c, RouteKind r, Phase p, SimTime seconds);
  void end_episode(FlowRecord& f, SimTime now);

  Cell cells_[kNumClasses * kNumRoutes * kNumPhases];
  // std::map: deterministic iteration order for exports and merges without
  // a sort pass; flow count is bounded by distinct (src,dst) pairs.
  std::map<std::uint64_t, FlowRecord> flows_;

  std::uint64_t deliveries_ = 0;
  std::uint64_t opens_ = 0;
  std::uint64_t closes_ = 0;
  double multipath_time_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t saves_ = 0;
  std::uint64_t empty_probes_ = 0;

  std::uint64_t cold_episodes_ = 0;
  std::uint64_t warm_episodes_ = 0;
  std::uint64_t false_opens_ = 0;
  double cold_time_ = 0;
  double warm_time_ = 0;
  double cold_latency_ = 0;  // delivered e2e sums inside episodes
  std::uint64_t cold_n_ = 0;
  double warm_latency_ = 0;
  std::uint64_t warm_n_ = 0;
  LatencyHistogram cold_duration_;  // episode durations, seconds
  LatencyHistogram warm_duration_;
};

}  // namespace prdrb::obs

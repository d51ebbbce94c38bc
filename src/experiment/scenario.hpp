// Experiment harness: configuration-driven construction and execution of
// complete simulation scenarios (topology + policy + workload + metrics).
//
// This is the library-level API the per-figure bench binaries and the
// examples are built on: name a topology ("mesh-8x8", "tree-64", ...), a
// policy ("drb", "pr-drb@router", ...) and a workload (synthetic pattern or
// application trace), run it, and read back the thesis metrics (§4.2).
//
// One scenario type serves both workload families: ScenarioSpec carries the
// shared knobs (topology, seed, bin width, network/DRB/PR-DRB configs,
// watch list, observability sinks) and a std::variant<SyntheticWorkload,
// TraceWorkload> for the part that differs.
// run_scenario() is the single entry point; run_synthetic()/run_trace()
// remain as thin forwarding wrappers.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/pr_drb.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"
#include "traffic/bursty.hpp"
#include "traffic/pattern.hpp"
#include "util/parsed.hpp"

namespace prdrb {

/// DRB thresholds used across the evaluation scenarios; chosen relative to
/// the ~4.3 us uncontended packet latency of the 2 Gb/s / 1024 B setup
/// (Tables 4.2/4.3).
DrbConfig default_drb_config();

/// Optional observability sinks for a scenario run (DESIGN.md
/// "Observability"). All pointers are borrowed: the caller owns the tracer
/// and the registry and reads them back after the run. When `tracer` is
/// non-null it is attached as an additional network observer and to every
/// control-plane hook (DRB reactions, predictive engine, CFD). When
/// `counters` is non-null the network/routing/sim counters and gauges are
/// registered and a CounterSampler snapshots them every `sample_interval`
/// of virtual time. Gauges registered by a run probe run-local state; when
/// the run finishes they are frozen (final value captured, probe dropped),
/// so the registry stays safe to query and export afterwards.
///
/// Spatial telemetry and post-mortem sinks (same borrowed-pointer rules):
/// a non-null `telemetry` is bound to the network (link busy/stall series,
/// per-router queue depth) and pull-sampled on the counter cadence; the run
/// unbinds it on exit so it stays safe to export afterwards. A non-null
/// `recorder` ring receives every control-plane event (CFD, metapath,
/// SDB, stalls). `watchdog_window > 0` arms a run-local stall watchdog: if
/// no packet is delivered for that many virtual seconds while work is
/// pending (or the run ends starved), it dumps ring + router snapshot +
/// event-queue stats exactly once to `watchdog_stream` (stderr when null),
/// and the JSON dump is copied into `*watchdog_dump` when provided (empty
/// string = never fired). All periodic observers share ONE sampler chain,
/// preserving the chain-termination protocol.
struct ObsSinks {
  obs::Tracer* tracer = nullptr;
  obs::CounterRegistry* counters = nullptr;
  SimTime sample_interval = 1e-3;
  obs::NetTelemetry* telemetry = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  /// Predictive-efficacy scorecard (obs/scorecard.hpp): bound to the
  /// network's phase-timer/delivery sites and to the DRB + predictive
  /// control-plane hooks; finalized (open intervals and episodes closed at
  /// the final virtual time) when the run ends.
  obs::Scorecard* scorecard = nullptr;
  /// Bounded-memory streaming telemetry (obs/stream.hpp): bound to the
  /// network's transmit/stall sites and to the DRB + predictive open/close
  /// hooks; its window clock rolls on the sampler cadence (one extra probe
  /// on the SAME chain: no event-count drift vs a counters/telemetry run)
  /// and a "prdrb-stream-v1" NDJSON snapshot is emitted roughly every
  /// `stream_interval` of virtual time. Finalized (summary line emitted,
  /// hooks detached) when the run ends.
  obs::StreamTelemetry* stream = nullptr;
  SimTime stream_interval = 10e-3;
  SimTime watchdog_window = 0;  // 0 = watchdog disabled
  std::ostream* watchdog_stream = nullptr;  // nullptr = stderr
  std::string* watchdog_dump = nullptr;     // out: "prdrb-flightdump-v1"
};

/// A policy plus its router-side monitor (PR variants) and typed views.
struct PolicyBundle {
  std::unique_ptr<RoutingPolicy> policy;
  std::unique_ptr<CongestionDetector> monitor;  // only for PR-DRB variants
  DrbPolicy* drb = nullptr;                     // non-null for the DRB family
  PredictiveEngine* engine = nullptr;           // non-null for PR variants
};

/// Factory over the evaluated policy set: "deterministic", "random",
/// "cyclic", "adaptive", "drb", "fr-drb", "pr-drb", "pr-fr-drb". PR
/// variants accept an "@router" suffix selecting router-based notification
/// (§3.4.1) instead of the default destination-based scheme. Unknown names
/// come back as a ParseError with the nearest known policy suggested.
Parsed<PolicyBundle> make_policy(const std::string& name,
                                 DrbConfig drb = default_drb_config(),
                                 std::uint64_t seed = 7);

/// Topology factory: "mesh-WxH", "torus-WxH", "cube-n", "tree-N" (N in
/// {16,32,64,256}) or explicit "kary-K-N". Unknown or malformed names come
/// back as a ParseError with the nearest known shape suggested.
Parsed<std::unique_ptr<Topology>> make_topology(const std::string& name);

/// Everything a finished scenario reports.
struct ScenarioResult {
  std::string policy;
  double global_latency = 0;    // Eq. 4.2, seconds
  double mean_latency = 0;      // plain packet mean
  double peak_bin_latency = 0;  // highest time-series bin mean
  double map_peak = 0;          // latency-surface peak
  double map_mean = 0;          // mean over active routers
  double exec_time = 0;         // trace runs only; -1 if the trace wedged
  double delivery_ratio = 0;
  double p50_latency = 0;       // packet-latency percentiles
  double p95_latency = 0;
  double p99_latency = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;  // kernel events executed (deterministic)
  std::uint64_t expansions = 0;
  std::uint64_t installs = 0;
  std::uint64_t trend_triggers = 0;
  std::size_t patterns_saved = 0;
  std::size_t patterns_reused = 0;
  std::uint64_t max_reuse = 0;
  std::vector<std::pair<double, double>> series;       // (time, avg latency)
  std::vector<double> router_map;                      // avg contention per router
  std::vector<std::pair<RouterId, std::vector<std::pair<double, double>>>>
      router_series;                                   // watched routers

  /// Exact (bit-wise on doubles) comparison; the parallel sweep executor's
  /// determinism contract is stated in terms of this equality.
  bool operator==(const ScenarioResult&) const = default;
};

/// Synthetic-traffic workload (Tables 4.2/4.3 style).
struct SyntheticWorkload {
  /// Pattern name from traffic/pattern.hpp, or "hotspot-cross" /
  /// "hotspot-double" for the §4.5 mesh layouts.
  std::string pattern = "perfect-shuffle";
  double rate_bps = 400e6;
  SimTime duration = 30e-3;
  /// Bursty structure (§2.2.3): `bursts` bursts of `burst_len` separated by
  /// `gap_len`; 0 bursts = continuous injection.
  int bursts = 6;
  SimTime burst_len = 3e-3;
  SimTime gap_len = 2e-3;
  double noise_rate_bps = 0;  // uniform background load on all nodes
};

/// Application-trace workload (§4.8 style).
struct TraceWorkload {
  std::string app = "pop";
  TraceScale scale;
};

/// One complete scenario: the fields every run shares, plus the workload
/// variant. Default-constructed specs hold a SyntheticWorkload.
struct ScenarioSpec {
  std::string topology = "tree-64";
  std::uint64_t seed = 11;
  SimTime bin_width = 1e-3;
  NetConfig net;
  DrbConfig drb = default_drb_config();
  PrDrbConfig prdrb;  // notification mode is overridden by "@router" names
  std::optional<SchedulerKind> sched;  ///< kept only for benchmark/workload.cpp
  std::vector<RouterId> watch;  // routers whose series to record
  ObsSinks sinks;  // optional tracer / counter-registry attachments
  /// Solution-database warm start / persistence (predictive policies only;
  /// ignored by policies without a PredictiveEngine). `sdb_in` is imported
  /// into the engine's database before the run ("prdrb-sdb-v1" or legacy
  /// text); `sdb_out` receives the deterministic export after the run —
  /// byte-identical across repeats and --jobs values.
  std::string sdb_in;
  std::string sdb_out;
  std::variant<SyntheticWorkload, TraceWorkload> workload;

  bool is_synthetic() const {
    return std::holds_alternative<SyntheticWorkload>(workload);
  }

  /// Workload accessors. The mutable overloads switch the variant to the
  /// requested alternative when it holds the other one (starting from the
  /// defaults), so building a spec is one field assignment per knob; the
  /// const overloads require the matching alternative.
  SyntheticWorkload& synthetic() {
    if (!is_synthetic()) workload.emplace<SyntheticWorkload>();
    return std::get<SyntheticWorkload>(workload);
  }
  const SyntheticWorkload& synthetic() const {
    return std::get<SyntheticWorkload>(workload);
  }
  TraceWorkload& trace() {
    if (is_synthetic()) workload.emplace<TraceWorkload>();
    return std::get<TraceWorkload>(workload);
  }
  const TraceWorkload& trace() const {
    return std::get<TraceWorkload>(workload);
  }
};

/// Kept only for benchmark/workload.cpp (the Simulator ignores it).
/// Deterministic estimate of the scenario's peak pending-event count: every
/// node and router keeps a few events in flight (NIC injection ticks,
/// per-hop arrivals, FR-DRB watchdogs), and synthetic injection scales that
/// per-entity count with the offered load — rate_bps over a ~50 us pipeline
/// window, clamped to [1, 64] so degenerate rates cannot dominate the
/// topology term.
std::size_t expected_pending_events(const Topology& topo,
                                    const ScenarioSpec& spec);

/// Run one scenario under one policy — the single execution entry point;
/// dispatches on the workload alternative.
ScenarioResult run_scenario(const std::string& policy_name,
                            const ScenarioSpec& spec);

/// Thin forwarding wrappers over run_scenario(), kept so call sites read as
/// before; the spec must hold the matching workload.
ScenarioResult run_synthetic(const std::string& policy_name,
                             const ScenarioSpec& spec);
ScenarioResult run_trace(const std::string& policy_name,
                         const ScenarioSpec& spec);

/// Percentage improvement of `value` over `baseline` (positive = better).
/// A zero or non-finite baseline (or non-finite value) is a degenerate
/// comparison: it returns 0 and warns on stderr instead of emitting
/// inf/NaN into bench tables.
double improvement_pct(double baseline, double value);

// --- multi-seed replication (thesis §4.3: "executing multiple instances of
//     the simulation with a different set of random seeds" and averaging
//     to obtain statistically valid results) ---

/// Summary statistics over replicated runs.
struct Replication {
  int runs = 0;
  double mean = 0;
  double stddev = 0;  // sample standard deviation
  double min = 0;
  double max = 0;

  /// Half-width of the ~95 % confidence interval (1.96 * stddev / sqrt(n)).
  double ci95() const;
};

Replication summarize(const std::vector<double>& values);

/// Run a scenario `runs` times with derived seeds and return the per-run
/// results (seed = spec.seed + i).
std::vector<ScenarioResult> run_synthetic_replicated(
    const std::string& policy_name, ScenarioSpec spec, int runs);

/// Replication summary of one metric extracted from replicated runs.
template <typename Metric>
Replication replicate_metric(const std::vector<ScenarioResult>& results,
                             Metric&& metric) {
  std::vector<double> values;
  values.reserve(results.size());
  for (const ScenarioResult& r : results) values.push_back(metric(r));
  return summarize(values);
}

}  // namespace prdrb

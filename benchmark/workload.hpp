// The benchmark's workloads and the two ways it executes them.
//
// compose() rebuilds run_scenario() from the library's public pieces
// (make_topology, make_policy, Network, MetricsCollector, TrafficGenerator
// or TracePlayer, Simulator) so set-up and run can be timed apart; given a
// LayerTrace it also wraps every probed interface (probes.hpp) and runs the
// simulator in run_until slices to sample queue depth. run_observed() goes
// through run_scenario() itself, because the observability sinks can only
// be attached there.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "probes.hpp"

namespace prdrb::bench {

/// One workload: a scenario family and the input instances a run
/// simulates. Instances differ only in their scenario seed; the median of
/// the simulated metrics over them keeps a run's figures steady on
/// scenarios whose outcome is sensitive to the seed (a hot spot under
/// PR-DRB).
struct Workload {
  std::string name;
  std::vector<ScenarioSpec> instances;  // run_scenario() twins, no sinks
  bool observed = false;  // timed through run_observed() with sinks
  SimTime slice = 10e-6;  // traced runs: queue-depth sampling interval
};

/// Every workload measures PR-DRB with destination-based notification.
inline constexpr const char* kPolicy = "pr-drb";

/// Input instances per workload; instance i of seed s uses scenario seed
/// s * kInstances + i, so distinct seeds never share an instance.
inline constexpr std::size_t kInstances = 8;

/// Names accepted by make_workload(), in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The named workload with its kInstances inputs drawn from `seed`;
/// nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

struct RunOutcome {
  ScenarioResult result;
  std::uint64_t offered = 0;    // data packets offered to the network
  std::uint64_t delivered = 0;  // data packets delivered
  double p99_latency = 0;       // exact nearest-rank p99, seconds
  SimTime drained_at = 0;       // virtual time of the last event
  std::uint64_t traffic_messages = 0;
  std::uint64_t trace_messages = 0;
  double setup_s = 0;  // host seconds from make_topology to the first event
  double wall_s = 0;   // host seconds from the first event to drain
  // Control-plane and network counters read after the run.
  std::uint64_t cfd_detections = 0;
  std::uint64_t cfd_predictive_acks = 0;
  std::uint64_t cfd_truncated_flows = 0;
  std::uint64_t drb_contractions = 0;
  std::uint64_t sdb_lookups = 0;
  std::uint64_t sdb_hits = 0;
  std::uint64_t header_truncations = 0;
};

/// Build instance `i` of `w` and, when `run` is set, execute it to drain.
/// A non-null `trace` wraps Topology, RoutingPolicy, RouterMonitor and the
/// metrics observer in timing decorators and records the coarse phases as
/// spans.
RunOutcome compose(const Workload& w, std::size_t i, LayerTrace* trace,
                   bool run = true);

struct ObservedRun {
  ScenarioResult result;
  double run_s = 0;     // run_scenario() with counter, stream and scorecard
  double export_s = 0;  // writing the three exports
  std::uint64_t export_bytes = 0;
  std::string export_error;  // empty when every export parsed
};

/// run_scenario() on instance `i` of `w` with counter, stream and
/// scorecard sinks, then write their exports into `out_dir` and, when
/// `validate`, parse them back ("prdrb-counters-v1", "prdrb-stream-v1",
/// "prdrb-scorecard-v1").
ObservedRun run_observed(const Workload& w, std::size_t i,
                         const std::string& out_dir, bool validate);

}  // namespace prdrb::bench

#include "experiment/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "metrics/collector.hpp"
#include "net/dragonfly.hpp"
#include "net/kary_ntree.hpp"
#include "net/mesh2d.hpp"
#include "net/mesh_nd.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "routing/adaptive.hpp"
#include "routing/oblivious.hpp"
#include "routing/ugal.hpp"
#include "sim/simulator.hpp"
#include "trace/player.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/source.hpp"

namespace prdrb {

DrbConfig default_drb_config() {
  DrbConfig cfg;
  cfg.threshold_low = 8e-6;
  cfg.threshold_high = 15e-6;
  cfg.max_paths = 4;  // §4.6.3
  return cfg;
}

namespace {

const std::vector<std::string_view> kPolicyNames{
    "deterministic", "random",  "cyclic",  "adaptive", "minimal",
    "valiant",       "ugal-l",  "drb",     "fr-drb",   "pr-drb",
    "pr-fr-drb"};

/// Concrete exemplars of every topology family, for typo suggestions.
const std::vector<std::string_view> kTopologyNames{
    "mesh-8x8", "torus-8x8", "cube-4",   "tree-16",  "tree-32",
    "tree-64",  "tree-256",  "kary-4-3", "dragonfly-4:9:2:4"};

/// Strict non-negative integer parse for topology extents (std::stoi would
/// throw, which is exactly what the Parsed contract removes).
std::optional<int> parse_extent(std::string_view s) {
  if (s.empty() || s.size() > 6) return std::nullopt;
  int v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + (c - '0');
  }
  return v;
}

ParseError policy_error(const std::string& name, bool router_based) {
  ParseError e;
  e.input = name;
  e.kind = "policy";
  e.message = "unknown policy";
  const std::string base =
      router_based ? name.substr(0, name.size() - 7) : name;
  e.suggestion = nearest_name(base, kPolicyNames);
  if (!e.suggestion.empty() && router_based) e.suggestion += "@router";
  return e;
}

ParseError topology_error(const std::string& name, std::string message) {
  ParseError e;
  e.input = name;
  e.kind = "topology";
  e.message = std::move(message);
  e.suggestion = nearest_name(name, kTopologyNames);
  return e;
}

}  // namespace

Parsed<PolicyBundle> make_policy(const std::string& name, DrbConfig drb,
                                 std::uint64_t seed) {
  PolicyBundle b;
  const bool router_based = name.ends_with("@router");
  const std::string base =
      router_based ? name.substr(0, name.size() - 7) : name;
  const NotificationMode mode = router_based
                                    ? NotificationMode::kRouterBased
                                    : NotificationMode::kDestinationBased;
  PrDrbConfig pcfg;
  pcfg.notification = mode;
  if (base == "deterministic") {
    b.policy = std::make_unique<DeterministicPolicy>();
  } else if (base == "random") {
    b.policy = std::make_unique<RandomPolicy>(seed);
  } else if (base == "cyclic") {
    b.policy = std::make_unique<CyclicPolicy>();
  } else if (base == "adaptive") {
    b.policy = std::make_unique<AdaptivePolicy>();
  } else if (base == "minimal") {
    b.policy = std::make_unique<MinimalPolicy>();
  } else if (base == "valiant") {
    b.policy = std::make_unique<ValiantPolicy>(seed);
  } else if (base == "ugal-l") {
    b.policy = std::make_unique<UgalPolicy>(UgalPolicy::Config{}, seed);
  } else if (base == "drb") {
    auto p = std::make_unique<DrbPolicy>(drb, seed);
    b.drb = p.get();
    b.policy = std::move(p);
  } else if (base == "fr-drb") {
    auto p = std::make_unique<FrDrbPolicy>(drb, FrDrbConfig{}, seed);
    b.drb = p.get();
    b.policy = std::move(p);
  } else if (base == "pr-drb") {
    auto p = std::make_unique<PrDrbPolicy>(drb, pcfg, seed);
    b.drb = p.get();
    b.engine = &p->engine();
    b.policy = std::move(p);
    b.monitor = std::make_unique<CongestionDetector>(mode);
  } else if (base == "pr-fr-drb") {
    auto p = std::make_unique<PrFrDrbPolicy>(drb, FrDrbConfig{}, pcfg, seed);
    b.drb = p.get();
    b.engine = &p->engine();
    b.policy = std::move(p);
    b.monitor = std::make_unique<CongestionDetector>(mode);
  } else {
    return policy_error(name, router_based);
  }
  return b;
}

Parsed<std::unique_ptr<Topology>> make_topology(const std::string& name) {
  using Result = Parsed<std::unique_ptr<Topology>>;
  // "mesh-AxB" / "torus-AxB" build the 2D model; three or more extents
  // ("mesh-4x4x4") build the N-dimensional variant.
  auto parse_extents =
      [&](std::size_t prefix) -> std::optional<std::vector<int>> {
    std::vector<int> dims;
    std::size_t pos = prefix;
    while (pos < name.size()) {
      const auto x = name.find('x', pos);
      const std::string_view tok =
          x == std::string::npos
              ? std::string_view(name).substr(pos)
              : std::string_view(name).substr(pos, x - pos);
      const auto extent = parse_extent(tok);
      if (!extent || *extent < 1) return std::nullopt;
      dims.push_back(*extent);
      if (x == std::string::npos) break;
      pos = x + 1;
    }
    if (dims.size() < 2) return std::nullopt;
    return dims;
  };
  auto build_grid = [&](std::size_t prefix, bool wrap) -> Result {
    const auto dims = parse_extents(prefix);
    if (!dims) return topology_error(name, "bad topology extents");
    if (dims->size() == 2) {
      return std::unique_ptr<Topology>(
          std::make_unique<Mesh2D>((*dims)[0], (*dims)[1], wrap));
    }
    return std::unique_ptr<Topology>(
        std::make_unique<MeshND>(*dims, wrap));
  };
  auto tree = [](int k, int n) -> Result {
    return std::unique_ptr<Topology>(std::make_unique<KAryNTree>(k, n));
  };
  if (name.starts_with("mesh-")) return build_grid(5, false);
  if (name.starts_with("torus-")) return build_grid(6, true);
  if (name.starts_with("cube-")) {
    // "cube-n": the n-dimensional hypercube (2-ary n-cube).
    const auto n = parse_extent(std::string_view(name).substr(5));
    if (!n || *n < 1 || *n > 20) {
      return topology_error(name, "bad hypercube dimension");
    }
    return std::unique_ptr<Topology>(std::make_unique<MeshND>(
        std::vector<int>(static_cast<std::size_t>(*n), 2),
        /*wraparound=*/false));
  }
  if (name == "tree-16") return tree(2, 4);
  if (name == "tree-32") return tree(2, 5);
  if (name == "tree-64") return tree(4, 3);
  if (name == "tree-256") return tree(4, 4);
  if (name.starts_with("kary-")) {
    const auto dash = name.find('-', 5);
    if (dash == std::string::npos) {
      return topology_error(name, "bad k-ary n-tree spec");
    }
    const auto k = parse_extent(std::string_view(name).substr(5, dash - 5));
    const auto n = parse_extent(std::string_view(name).substr(dash + 1));
    if (!k || !n || *k < 2 || *n < 1) {
      return topology_error(name, "bad k-ary n-tree spec");
    }
    return tree(*k, *n);
  }
  if (name.starts_with("dragonfly-")) {
    // "dragonfly-a:g:h:p": a routers/group, g groups, h global links per
    // router, p terminals per router (Kim et al.'s canonical parameters).
    std::vector<int> v;
    std::size_t pos = 10;
    while (pos <= name.size()) {
      const auto colon = name.find(':', pos);
      const std::string_view tok =
          colon == std::string::npos
              ? std::string_view(name).substr(pos)
              : std::string_view(name).substr(pos, colon - pos);
      const auto field = parse_extent(tok);
      if (!field) {
        return topology_error(name,
                              "bad dragonfly spec (want dragonfly-a:g:h:p)");
      }
      v.push_back(*field);
      if (colon == std::string::npos) break;
      pos = colon + 1;
    }
    if (v.size() != 4) {
      return topology_error(name,
                            "bad dragonfly spec (want dragonfly-a:g:h:p)");
    }
    const int a = v[0], g = v[1], h = v[2], p = v[3];
    if (a < 2 || g < 2 || h < 1 || p < 1) {
      return topology_error(
          name, "dragonfly needs a >= 2, g >= 2, h >= 1, p >= 1");
    }
    if ((a * h) % (g - 1) != 0) {
      return topology_error(name,
                            "dragonfly global links must spread evenly "
                            "over the other groups: a*h mod (g-1) == 0");
    }
    return std::unique_ptr<Topology>(std::make_unique<Dragonfly>(a, g, h, p));
  }
  return topology_error(name, "unknown topology");
}

double improvement_pct(double baseline, double value) {
  // A baseline of 0 (e.g. a run that delivered no packets) or a non-finite
  // input would poison every bench table built on top of this; report the
  // degenerate comparison once and call it "no improvement".
  if (!(baseline > 0) || !std::isfinite(baseline) || !std::isfinite(value)) {
    std::cerr << "[prdrb] improvement_pct: degenerate baseline/value ("
              << baseline << ", " << value << "); reporting 0 %\n";
    return 0.0;
  }
  return 100.0 * (baseline - value) / baseline;
}

double Replication::ci95() const {
  return runs > 1 ? 1.96 * stddev / std::sqrt(static_cast<double>(runs)) : 0.0;
}

Replication summarize(const std::vector<double>& values) {
  Replication r;
  r.runs = static_cast<int>(values.size());
  if (values.empty()) return r;
  r.min = values.front();
  r.max = values.front();
  double sum = 0;
  for (double v : values) {
    sum += v;
    r.min = std::min(r.min, v);
    r.max = std::max(r.max, v);
  }
  r.mean = sum / static_cast<double>(r.runs);
  if (r.runs > 1) {
    double sq = 0;
    for (double v : values) sq += (v - r.mean) * (v - r.mean);
    r.stddev = std::sqrt(sq / static_cast<double>(r.runs - 1));
  }
  return r;
}

// run_synthetic_replicated lives in experiment/runner.cpp: replication is a
// sweep and goes through the parallel executor.

namespace {

void fill_common(ScenarioResult& r, const MetricsCollector& m,
                 const PolicyBundle& b, int num_routers,
                 const std::vector<RouterId>& watch) {
  r.global_latency = m.global_average_latency();
  r.mean_latency = m.packet_latency().overall_mean();
  r.peak_bin_latency = m.latency_series().peak_mean();
  r.map_peak = m.contention_map().peak();
  r.map_mean = m.contention_map().mean_over_active();
  r.delivery_ratio = m.delivery_ratio();
  r.packets = m.packets_delivered();
  r.p50_latency = m.latency_histogram().p50();
  r.p95_latency = m.latency_histogram().p95();
  r.p99_latency = m.latency_histogram().p99();
  if (b.drb) r.expansions = b.drb->total_expansions();
  if (b.engine) {
    r.installs = b.engine->installs();
    r.trend_triggers = b.engine->trend_triggers();
    r.patterns_saved = b.engine->db().size();
    r.patterns_reused = b.engine->db().reused_patterns();
    r.max_reuse = b.engine->db().max_reuse();
  }
  for (std::size_t i = 0; i < m.latency_series().bins(); ++i) {
    r.series.emplace_back(m.latency_series().bin_time(i),
                          m.latency_series().bin_mean(i));
  }
  r.router_map.resize(static_cast<std::size_t>(num_routers));
  for (RouterId router = 0; router < num_routers; ++router) {
    r.router_map[static_cast<std::size_t>(router)] =
        m.contention_map().average(router);
  }
  for (RouterId router : watch) {
    const TimeSeries* s = m.router_series(router);
    if (!s) continue;
    std::vector<std::pair<double, double>> pts;
    for (std::size_t i = 0; i < s->bins(); ++i) {
      pts.emplace_back(s->bin_time(i), s->bin_mean(i));
    }
    r.router_series.emplace_back(router, std::move(pts));
  }
}

/// Applies the scenario's PR config to the policy name's notification mode.
PolicyBundle build_policy(const std::string& name, const DrbConfig& drb,
                          const PrDrbConfig& pcfg, std::uint64_t seed) {
  const bool router_based = name.ends_with("@router");
  const std::string base =
      router_based ? name.substr(0, name.size() - 7) : name;
  PrDrbConfig cfg = pcfg;
  cfg.notification = router_based ? NotificationMode::kRouterBased
                                  : NotificationMode::kDestinationBased;
  PolicyBundle b;
  if (base == "pr-drb") {
    auto p = std::make_unique<PrDrbPolicy>(drb, cfg, seed);
    b.drb = p.get();
    b.engine = &p->engine();
    b.policy = std::move(p);
    b.monitor = std::make_unique<CongestionDetector>(cfg.notification);
    return b;
  }
  if (base == "pr-fr-drb") {
    auto p = std::make_unique<PrFrDrbPolicy>(drb, FrDrbConfig{}, cfg, seed);
    b.drb = p.get();
    b.engine = &p->engine();
    b.policy = std::move(p);
    b.monitor = std::make_unique<CongestionDetector>(cfg.notification);
    return b;
  }
  return make_policy(name, drb, seed).value_or_throw();
}

/// Run-local observability state created by attach_sinks. Declaration order
/// is destruction order in reverse: the sampler (whose destructor freezes
/// the registry's gauges) goes before the fallback registry it may use.
struct RunProbes {
  std::unique_ptr<obs::CounterRegistry> own_registry;  // sampler-chain driver
  std::unique_ptr<obs::CounterSampler> sampler;
  std::unique_ptr<obs::StallWatchdog> watchdog;

  /// End-of-run teardown: watchdog finalize (catches true deadlock — no
  /// events means the poll chain drained before the window elapsed), dump
  /// hand-off, telemetry unbind. Must run after Simulator::run() and before
  /// the network is destroyed.
  void finalize(const ObsSinks& sinks, SimTime now) {
    if (watchdog) {
      watchdog->finalize();
      if (sinks.watchdog_dump) *sinks.watchdog_dump = watchdog->dump_json();
    }
    if (sinks.telemetry) sinks.telemetry->unbind();
    // Close open multipath intervals and unresolved congestion episodes at
    // the final virtual time so exports never carry dangling state.
    if (sinks.scorecard) sinks.scorecard->finalize(now);
    // Emit the trailing "summary" NDJSON line and detach the stream hooks.
    if (sinks.stream) sinks.stream->finalize(now);
  }
};

/// Wires the optional observability sinks into a freshly built run: the
/// tracer onto the observer list and every control-plane hook, the counter
/// registry onto the network/routing/sim gauges, telemetry/flight-recorder
/// onto the network and control plane, and one periodic sampler chain that
/// multiplexes counter sampling, telemetry sampling and the watchdog poll.
RunProbes attach_sinks(Simulator& sim, Network& net, PolicyBundle& b,
                       const ObsSinks& sinks) {
  RunProbes probes;
  if (sinks.tracer) {
    net.add_observer(sinks.tracer);
    if (b.drb) b.drb->set_tracer(sinks.tracer);
    if (b.engine) b.engine->set_tracer(sinks.tracer);
    if (b.monitor) b.monitor->set_tracer(sinks.tracer);
  }
  if (sinks.recorder) {
    net.bind_flight_recorder(sinks.recorder);
    if (b.drb) b.drb->set_recorder(sinks.recorder);
    if (b.engine) b.engine->set_recorder(sinks.recorder);
    if (b.monitor) b.monitor->set_recorder(sinks.recorder);
  }
  if (sinks.telemetry) net.bind_telemetry(sinks.telemetry);
  if (sinks.scorecard) {
    net.bind_scorecard(sinks.scorecard);
    if (b.drb) b.drb->set_scorecard(sinks.scorecard);
    if (b.engine) b.engine->set_scorecard(sinks.scorecard);
  }
  if (sinks.stream) {
    // Pin the window width to the sampler cadence BEFORE binding so the
    // roll probe fires at timestamps the chain already visits; snapshots
    // land every ceil(stream_interval / cadence) windows.
    const SimTime cadence = sinks.sample_interval;
    const double per = sinks.stream_interval / cadence;
    sinks.stream->configure_cadence(
        cadence, per > 1 ? static_cast<std::size_t>(std::llround(
                               std::ceil(per - 1e-9)))
                         : 1);
    net.bind_stream(sinks.stream);
    if (b.drb) b.drb->set_stream(sinks.stream);
    if (b.engine) b.engine->set_stream(sinks.stream);
  }

  const bool wants_chain = sinks.counters || sinks.telemetry ||
                           sinks.stream || sinks.watchdog_window > 0;
  if (!wants_chain) return probes;

  if (sinks.counters) {
    obs::CounterRegistry& reg = *sinks.counters;
    net.bind_counters(reg);
    reg.gauge("sim.events", [&sim] {
      return static_cast<double>(sim.events_executed());
    });
    // Cancelled-but-unpurged heap entries (FR-DRB watchdogs cancelled on
    // ACK linger here until they surface at the heap top).
    const EventQueue* q = &sim.queue();
    reg.gauge("sim.sched.tombstones", [q] {
      return static_cast<double>(q->pending_cancellations());
    });
    if (b.drb) {
      DrbPolicy* drb = b.drb;
      reg.gauge("routing.expansions", [drb] {
        return static_cast<double>(drb->total_expansions());
      });
      reg.gauge("routing.contractions", [drb] {
        return static_cast<double>(drb->total_contractions());
      });
    }
    if (b.engine) {
      PredictiveEngine* eng = b.engine;
      reg.gauge("routing.sdb.installs", [eng] {
        return static_cast<double>(eng->installs());
      });
      reg.gauge("routing.sdb.size", [eng] {
        return static_cast<double>(eng->db().size());
      });
      reg.gauge("routing.sdb.lookups", [eng] {
        return static_cast<double>(eng->db().lookups());
      });
      reg.gauge("routing.sdb.hits", [eng] {
        return static_cast<double>(eng->db().hits());
      });
      // Degenerate probes (empty signatures) are counted apart so the
      // hit-rate derived from lookups/hits is not skewed by them.
      reg.gauge("routing.sdb.empty_probes", [eng] {
        return static_cast<double>(eng->db().empty_probes());
      });
      // Solutions dropped by the capacity bound (PrDrbConfig::sdb_capacity;
      // stays 0 while the database is unbounded).
      reg.gauge("routing.sdb.evictions", [eng] {
        return static_cast<double>(eng->db().evictions());
      });
    }
    if (b.monitor) {
      CongestionDetector* mon = b.monitor.get();
      reg.gauge("routing.cfd.detections", [mon] {
        return static_cast<double>(mon->detections());
      });
    }
    // Out-of-domain timestamp clamps across every series in this run
    // (registry metrics + spatial telemetry). Registered here — not in the
    // registry constructor — so a bare registry contains exactly what its
    // owner created.
    obs::CounterRegistry* regp = &reg;
    obs::NetTelemetry* tel = sinks.telemetry;
    reg.gauge("metrics.timeseries.clamped", [regp, tel] {
      return static_cast<double>(regp->timeseries_clamped() +
                                 (tel ? tel->clamped() : 0));
    });
  } else {
    // Telemetry/watchdog without a caller registry: the sampler chain still
    // needs a registry to drive, so own an empty one.
    probes.own_registry = std::make_unique<obs::CounterRegistry>();
  }

  obs::CounterRegistry& chain_reg =
      sinks.counters ? *sinks.counters : *probes.own_registry;
  probes.sampler = std::make_unique<obs::CounterSampler>(sim, chain_reg);
  if (sinks.telemetry) probes.sampler->attach_telemetry(sinks.telemetry);
  if (sinks.watchdog_window > 0) {
    probes.watchdog = std::make_unique<obs::StallWatchdog>(
        net, sim, sinks.recorder, sinks.watchdog_window);
    if (sinks.watchdog_stream) {
      probes.watchdog->set_stream(sinks.watchdog_stream);
    }
    obs::StallWatchdog* wd = probes.watchdog.get();
    probes.sampler->add_probe(sinks.sample_interval,
                              [wd](SimTime now) { wd->poll(now); });
  }
  if (sinks.stream) {
    obs::StreamTelemetry* st = sinks.stream;
    probes.sampler->add_probe(sinks.sample_interval,
                              [st](SimTime now) { st->roll(now); });
  }
  probes.sampler->start(sinks.sample_interval);
  return probes;
}

}  // namespace

std::size_t expected_pending_events(const Topology& topo,
                                    const ScenarioSpec& sc) {
  const std::size_t entities = static_cast<std::size_t>(topo.num_nodes()) +
                               static_cast<std::size_t>(topo.num_routers());
  double per_entity = 8.0;  // trace replays: compute/comm phases in flight
  if (sc.is_synthetic()) {
    const double packet_bits =
        std::max(1.0, 8.0 * static_cast<double>(sc.net.packet_bytes));
    const double inflight =
        sc.synthetic().rate_bps * 50e-6 / packet_bits;  // ~50 us pipeline
    per_entity = std::clamp(inflight, 1.0, 64.0);
  }
  return static_cast<std::size_t>(static_cast<double>(entities) * per_entity);
}

ScenarioResult run_scenario(const std::string& policy_name,
                            const ScenarioSpec& sc) {
  auto topo = make_topology(sc.topology).value_or_throw();
  Simulator sim;
  auto bundle = build_policy(policy_name, sc.drb, sc.prdrb, 7);
  Network net(sim, *topo, sc.net, *bundle.policy);
  MetricsCollector metrics(topo->num_nodes(), topo->num_routers(),
                           sc.bin_width);
  for (RouterId r : sc.watch) metrics.watch_router(r);
  net.set_observer(&metrics);
  if (bundle.monitor) net.set_monitor(bundle.monitor.get());
  if (bundle.engine && !sc.sdb_in.empty()) {
    // Warm start (thesis §5.2 "static variation"): pre-load solutions
    // exported by a prior run before any traffic flows.
    std::ifstream in(sc.sdb_in, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open solution database: " +
                               sc.sdb_in);
    }
    bundle.engine->db().import_text(in);
  }
  RunProbes probes = attach_sinks(sim, net, bundle, sc.sinks);

  ScenarioResult r;
  r.policy = policy_name;

  if (sc.is_synthetic()) {
    const SyntheticWorkload& w = sc.synthetic();
    std::unique_ptr<DestinationPattern> pattern;
    std::vector<NodeId> nodes;
    if (w.pattern == "hotspot-cross" || w.pattern == "hotspot-double") {
      auto* mesh = dynamic_cast<Mesh2D*>(topo.get());
      if (!mesh) {
        throw std::invalid_argument("hot-spot layouts require a mesh/torus");
      }
      auto hp = std::make_unique<HotspotPattern>(
          w.pattern == "hotspot-cross" ? make_mesh_cross_hotspot(*mesh, 8)
                                       : make_mesh_double_hotspot(*mesh));
      nodes = hp->sources();
      pattern = std::move(hp);
    } else if (w.pattern == "adversarial-group") {
      // Group-shift permutation: every terminal targets its peer in the
      // next group, funnelling all minimal traffic of a group onto the q
      // parallel global channels toward its successor.
      auto* df = dynamic_cast<Dragonfly*>(topo.get());
      if (!df) {
        throw std::invalid_argument(
            "the adversarial-group pattern requires a dragonfly topology");
      }
      pattern = std::make_unique<GroupShiftPattern>(df->num_nodes(),
                                                    df->a() * df->p());
    } else {
      pattern = make_pattern(w.pattern, topo->num_nodes());
    }

    TrafficConfig tc;
    tc.rate_bps = w.rate_bps;
    tc.message_bytes = sc.net.packet_bytes;
    tc.stop = w.duration;

    std::unique_ptr<BurstSchedule> schedule;
    if (w.bursts > 0) {
      schedule = std::make_unique<BurstSchedule>(0.5e-3, w.burst_len,
                                                 w.gap_len, w.bursts);
    }
    TrafficGenerator gen(sim, net, *pattern, tc, sc.seed, nodes,
                         schedule.get());
    gen.start();

    std::unique_ptr<UniformPattern> noise_pattern;
    std::unique_ptr<TrafficGenerator> noise;
    if (w.noise_rate_bps > 0) {
      noise_pattern = std::make_unique<UniformPattern>(topo->num_nodes());
      TrafficConfig nc = tc;
      nc.rate_bps = w.noise_rate_bps;
      noise = std::make_unique<TrafficGenerator>(sim, net, *noise_pattern,
                                                 nc, sc.seed + 1);
      noise->start();
    }

    sim.run();  // drains: generation stops at w.duration
    probes.finalize(sc.sinks, sim.now());
  } else {
    const TraceWorkload& w = sc.trace();
    const TraceProgram prog =
        make_app_trace(w.app, topo->num_nodes(), w.scale);
    TracePlayer player(sim, net, prog);
    player.start();
    sim.run();
    probes.finalize(sc.sinks, sim.now());
    r.exec_time = player.finished() ? player.execution_time() : -1.0;
  }

  r.events = sim.events_executed();
  fill_common(r, metrics, bundle, topo->num_routers(), sc.watch);
  if (bundle.engine && !sc.sdb_out.empty()) {
    // Deterministic sorted export (binary mode: no platform newline
    // translation) — byte-identical across runs, jobs and schedulers.
    std::ofstream out(sc.sdb_out, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot write solution database: " +
                               sc.sdb_out);
    }
    bundle.engine->db().export_text(out);
  }
  return r;
}

ScenarioResult run_synthetic(const std::string& policy_name,
                             const ScenarioSpec& sc) {
  assert(sc.is_synthetic() && "run_synthetic needs a SyntheticWorkload");
  return run_scenario(policy_name, sc);
}

ScenarioResult run_trace(const std::string& policy_name,
                         const ScenarioSpec& sc) {
  assert(!sc.is_synthetic() && "run_trace needs a TraceWorkload");
  return run_scenario(policy_name, sc);
}

}  // namespace prdrb

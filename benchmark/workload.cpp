#include "workload.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "metrics/collector.hpp"
#include "net/mesh2d.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "sim/simulator.hpp"
#include "trace/player.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/source.hpp"
#include "util/random.hpp"

namespace prdrb::bench {

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Times a coarse phase into `trace->spans`; a no-op on bare runs.
class Phase {
 public:
  Phase(LayerTrace* trace, const char* name)
      : trace_(trace), name_(name), start_(trace ? now_ns() : 0) {}
  ~Phase() {
    if (trace_) trace_->spans.push_back({name_, start_, now_ns()});
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  LayerTrace* trace_;
  const char* name_;
  std::int64_t start_;
};

/// ScenarioResult assembly exactly as run_scenario() performs it; the
/// benchmark's correctness gate compares the two bit for bit.
void fill_result(ScenarioResult& r, const MetricsCollector& m,
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

/// Traced runs advance in `slice`-wide run_until() steps and sample the
/// pending-event count and the deepest output queue between them.
void run_sliced(Simulator& sim, const Network& net, SimTime slice,
                LayerTrace& trace) {
  SimTime horizon = 0;
  while (!sim.idle()) {
    horizon += slice;
    {
      Phase p(&trace, "run_slice");
      sim.run_until(horizon);
    }
    const std::int64_t t0 = now_ns();
    trace.pending_peak = std::max(trace.pending_peak, sim.queue().size());
    for (RouterId r = 0; r < net.num_routers(); ++r) {
      for (const OutputPort& port : net.router(r).ports) {
        trace.queue_bytes_peak =
            std::max(trace.queue_bytes_peak, port.queue_bytes);
      }
    }
    trace.sampling_ns += now_ns() - t0;
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "hotspot-deep", "uniform-large", "bursty-observed", "trace-lammps"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  ScenarioSpec spec;
  if (name == "hotspot-deep") {
    // Continuous over-subscription of the cross hot spot: output queues
    // grow for the whole run, which is where contending-flow detection
    // rescans deep queues on every above-threshold transmit.
    spec.topology = "mesh-16x16";
    SyntheticWorkload& s = spec.synthetic();
    s.pattern = "hotspot-cross";
    s.rate_bps = 800e6;
    s.duration = 25e-3;
    s.bursts = 0;
    w.slice = 100e-6;
  } else if (name == "uniform-large") {
    // The largest mesh: many source-destination pairs open metapaths, so
    // Mesh2D::msp_candidates is hot while the solution database stays
    // empty; largest network and working set.
    spec.topology = "mesh-32x32";
    SyntheticWorkload& s = spec.synthetic();
    s.pattern = "uniform";
    s.rate_bps = 600e6;
    s.duration = 0.2e-3;
    s.bursts = 0;
    w.slice = 2e-6;
  } else if (name == "bursty-observed") {
    // Repeated hot-spot bursts make the predictive engine save and reuse
    // solutions; the uniform background noise carries the seed.
    spec.topology = "mesh-8x8";
    SyntheticWorkload& s = spec.synthetic();
    s.pattern = "hotspot-cross";
    s.rate_bps = 1200e6;
    s.bursts = 10;
    s.burst_len = 3e-3;
    s.gap_len = 2e-3;
    s.duration = 0.5e-3 + s.bursts * (s.burst_len + s.gap_len);
    s.noise_rate_bps = 100e6;
    w.observed = true;
    w.slice = 25e-6;
  } else if (name == "trace-lammps") {
    // Closed loop on the fat-tree.
    spec.topology = "tree-64";
    TraceWorkload& t = spec.trace();
    t.app = "lammps-comb";
    t.scale.iterations = 32;
    w.slice = 20e-6;
  } else {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < kInstances; ++i) {
    spec.seed = seed * kInstances + i;
    if (!spec.is_synthetic()) {
      // The application generators take no seed: the seed sets the
      // simulated compute speed within +-2 %, which shifts how the
      // communication phases of different ranks overlap.
      Rng rng(spec.seed);
      spec.trace().scale.compute_scale = 0.98 + 0.04 * rng.next_double();
    }
    w.instances.push_back(spec);
  }
  return w;
}

RunOutcome compose(const Workload& w, std::size_t i, LayerTrace* trace,
                   bool run) {
  const ScenarioSpec& sc = w.instances.at(i);
  RunOutcome out;
  const std::int64_t setup_start = now_ns();

  std::unique_ptr<Topology> topo;
  {
    Phase p(trace, "experiment.make_topology");
    topo = make_topology(sc.topology).value_or_throw();
  }
  Simulator sim(sc.sched.value_or(default_scheduler()),
                expected_pending_events(*topo, sc));
  PolicyBundle bundle;
  {
    Phase p(trace, "experiment.make_policy");
    bundle = make_policy(kPolicy, sc.drb, 7).value_or_throw();
  }

  std::optional<TimedTopology> timed_topo;
  std::optional<TimedPolicy> timed_policy;
  if (trace) {
    timed_topo.emplace(*topo, *trace);
    timed_policy.emplace(*bundle.policy, *trace);
  }
  std::optional<Network> net_storage;
  {
    Phase p(trace, "net.network_ctor");
    net_storage.emplace(
        sim, trace ? static_cast<const Topology&>(*timed_topo) : *topo,
        sc.net,
        trace ? static_cast<RoutingPolicy&>(*timed_policy) : *bundle.policy);
  }
  Network& net = *net_storage;

  MetricsCollector metrics(topo->num_nodes(), topo->num_routers(),
                           sc.bin_width);
  for (RouterId r : sc.watch) metrics.watch_router(r);
  std::optional<TimedObserver> timed_observer;
  std::optional<TimedMonitor> timed_monitor;
  if (trace) {
    timed_observer.emplace(metrics, *trace);
    net.set_observer(&*timed_observer);
  } else {
    net.set_observer(&metrics);
  }
  PacketLedger ledger(sc.net.packet_bytes);
  net.add_observer(&ledger);
  if (bundle.monitor) {
    if (trace) {
      timed_monitor.emplace(*bundle.monitor, *trace);
      net.set_monitor(&*timed_monitor);
    } else {
      net.set_monitor(bundle.monitor.get());
    }
  }

  ScenarioResult& r = out.result;
  r.policy = kPolicy;

  // Workload sources, built the way run_scenario() builds them for the
  // patterns the benchmark uses.
  std::unique_ptr<DestinationPattern> pattern;
  std::vector<NodeId> nodes;
  std::unique_ptr<BurstSchedule> schedule;
  std::unique_ptr<TrafficGenerator> gen;
  std::unique_ptr<UniformPattern> noise_pattern;
  std::unique_ptr<TrafficGenerator> noise;
  std::optional<TraceProgram> prog;
  std::unique_ptr<TracePlayer> player;
  if (sc.is_synthetic()) {
    const SyntheticWorkload& s = sc.synthetic();
    if (s.pattern == "hotspot-cross") {
      auto* mesh = dynamic_cast<Mesh2D*>(topo.get());
      if (!mesh) throw std::invalid_argument("hotspot-cross needs a mesh");
      auto hp = std::make_unique<HotspotPattern>(
          make_mesh_cross_hotspot(*mesh, 8));
      nodes = hp->sources();
      pattern = std::move(hp);
    } else {
      pattern = make_pattern(s.pattern, topo->num_nodes());
    }
    TrafficConfig tc;
    tc.rate_bps = s.rate_bps;
    tc.message_bytes = sc.net.packet_bytes;
    tc.stop = s.duration;
    if (s.bursts > 0) {
      schedule = std::make_unique<BurstSchedule>(0.5e-3, s.burst_len,
                                                 s.gap_len, s.bursts);
    }
    gen = std::make_unique<TrafficGenerator>(sim, net, *pattern, tc, sc.seed,
                                             nodes, schedule.get());
    gen->start();
    if (s.noise_rate_bps > 0) {
      noise_pattern = std::make_unique<UniformPattern>(topo->num_nodes());
      TrafficConfig nc = tc;
      nc.rate_bps = s.noise_rate_bps;
      noise = std::make_unique<TrafficGenerator>(sim, net, *noise_pattern,
                                                 nc, sc.seed + 1);
      noise->start();
    }
  } else {
    const TraceWorkload& t = sc.trace();
    {
      Phase p(trace, "trace.make_app_trace");
      prog.emplace(make_app_trace(t.app, topo->num_nodes(), t.scale));
    }
    player = std::make_unique<TracePlayer>(sim, net, *prog);
    player->start();
  }
  out.setup_s = seconds_since(setup_start);
  if (!run) return out;

  const std::int64_t run_start = now_ns();
  if (trace) {
    run_sliced(sim, net, w.slice, *trace);
  } else {
    sim.run();
    out.drained_at = sim.now();
  }
  out.wall_s = seconds_since(run_start);

  if (player) {
    r.exec_time = player->finished() ? player->execution_time() : -1.0;
    out.trace_messages = player->messages_sent();
  }
  if (gen) out.traffic_messages = gen->messages_sent();
  if (noise) out.traffic_messages += noise->messages_sent();
  r.events = sim.events_executed();
  fill_result(r, metrics, bundle, topo->num_routers(), sc.watch);
  out.offered = ledger.offered();
  out.delivered = ledger.delivered();
  out.p99_latency = ledger.latency_quantile(0.99);
  if (bundle.monitor) {
    out.cfd_detections = bundle.monitor->detections();
    out.cfd_predictive_acks = bundle.monitor->predictive_acks();
    out.cfd_truncated_flows = bundle.monitor->truncated_flows();
  }
  if (bundle.drb) out.drb_contractions = bundle.drb->total_contractions();
  if (bundle.engine) {
    out.sdb_lookups = bundle.engine->db().lookups();
    out.sdb_hits = bundle.engine->db().hits();
  }
  out.header_truncations = net.header_truncations();
  return out;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Empty when `doc` is a JSON object whose "schema" is `schema`.
std::string check_schema(std::string_view doc, std::string_view schema,
                         const std::string& what) {
  const auto v = obs::json_parse(doc);
  if (!v || !v->is_object()) return what + " does not parse as JSON";
  if (v->string_at("schema") != schema) {
    return what + " schema is not " + std::string(schema);
  }
  return "";
}

std::string validate_exports(const std::string& counters,
                             const std::string& stream,
                             const std::string& scorecard) {
  std::string err = check_schema(read_file(counters), "prdrb-counters-v1",
                                 "counter export");
  if (!err.empty()) return err;
  err = check_schema(read_file(scorecard), "prdrb-scorecard-v1",
                     "scorecard export");
  if (!err.empty()) return err;
  std::istringstream lines(read_file(stream));
  std::string line;
  std::string last_kind;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    err = check_schema(line, "prdrb-stream-v1", "stream line");
    if (!err.empty()) return err;
    last_kind = obs::json_parse(line)->string_at("kind");
    ++n;
  }
  if (n < 2 || last_kind != "summary") {
    return "stream export lacks snapshots or its summary line";
  }
  return "";
}

}  // namespace

ObservedRun run_observed(const Workload& w, std::size_t i,
                         const std::string& out_dir, bool validate) {
  ObservedRun out;
  ScenarioSpec sc = w.instances.at(i);
  obs::CounterRegistry counters(sc.bin_width);
  obs::StreamTelemetry stream;
  obs::Scorecard scorecard;
  sc.sinks.counters = &counters;
  sc.sinks.stream = &stream;
  sc.sinks.scorecard = &scorecard;

  std::int64_t t = now_ns();
  out.result = run_scenario(kPolicy, sc);
  out.run_s = seconds_since(t);

  const std::string base = out_dir + "/" + w.name;
  const std::string counters_path = base + ".counters.json";
  const std::string stream_path = base + ".stream.ndjson";
  const std::string scorecard_path = base + ".scorecard.json";
  t = now_ns();
  const bool written = counters.write_file(counters_path) &&
                       stream.write_file(stream_path) &&
                       scorecard.write_file(scorecard_path);
  out.export_s = seconds_since(t);
  if (!written) {
    out.export_error = "an export could not be written to " + out_dir;
    return out;
  }
  for (const std::string* p : {&counters_path, &stream_path, &scorecard_path}) {
    out.export_bytes += std::filesystem::file_size(*p);
  }
  if (validate) {
    out.export_error =
        validate_exports(counters_path, stream_path, scorecard_path);
  }
  return out;
}

}  // namespace prdrb::bench

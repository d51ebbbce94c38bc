// prdrb_bench — one measuring process of the PR-DRB benchmark.
//
//   prdrb_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --part <p> --parts <P> --out-dir <dir>
//   prdrb_bench --selftest --out-dir <dir>
//
// run.py splits a benchmark run into P of these processes, run one after
// the other: part p simulates the workload instances i with i % P == p for
// about seconds / P. --trace 0 times bare runs for the end-to-end metrics;
// --trace 1 repeats bare and traced runs for the per-layer metrics. The
// process prints one JSON line with every raw sample:
//   {"correct", "attempted", "failed", "errors": [...],
//    "metrics": {name: {"unit", "samples": [...]}}}
// and run.py reduces the samples of all parts to medians. An operation is
// a data packet offered to the network; it fails when it is still
// undelivered at drain. The exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "workload.hpp"

namespace prdrb::bench {
namespace {

/// Raw samples and check outcomes of one measuring process.
struct Report {
  std::vector<std::string> order;  // metric names in first-sample order
  std::map<std::string, std::string> units;
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks

  bool correct() const { return errors.empty(); }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void sample(const std::string& name, double v, const std::string& unit) {
    if (!units.count(name)) order.push_back(name);
    units[name] = unit;
    samples[name].push_back(v);
  }
};

/// Set-up-only builds every end-to-end process adds, so setup_s rests on
/// many samples even when runs are long.
constexpr int kExtraSetups = 50;
/// Timed repetitions a process makes even when its time is already spent.
constexpr std::size_t kMinReps = 1;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Calls rep(0), rep(1), ... until `seconds` have passed and at least
/// `min_reps` calls were made.
void repeat_for(double seconds, std::size_t min_reps,
                const std::function<void(std::size_t)>& rep) {
  const std::int64_t start = now_ns();
  std::size_t j = 0;
  while (j < min_reps ||
         static_cast<double>(now_ns() - start) * 1e-9 < seconds) {
    rep(j++);
  }
}

/// Checks every run of a workload must pass: it drained with each offered
/// packet delivered (and, for a trace, without wedging).
void check_drained(Report& rep, const Workload& w, const RunOutcome& o) {
  rep.check(o.offered > 0, w.name + ": no packet was offered");
  rep.check(o.delivered == o.offered,
            w.name + ": " + std::to_string(o.offered - o.delivered) +
                " offered packets were never delivered");
  if (w.instances.front().is_synthetic()) {
    rep.check(o.result.delivery_ratio == 1.0,
              w.name + ": delivery_ratio is not 1");
  } else {
    rep.check(o.result.exec_time != -1.0, w.name + ": the trace wedged");
  }
}

/// Counts a run's packets into the report's operation tally.
void tally(Report& rep, const RunOutcome& o) {
  rep.attempted += o.offered;
  rep.failed += o.offered - std::min(o.offered, o.delivered);
}

/// With sinks attached only the sampler chain's own events may differ
/// from the bare run of the same instance.
void check_observed(Report& rep, const Workload& w, const ObservedRun& o,
                    const ScenarioResult& bare) {
  ScenarioResult masked = o.result;
  masked.events = bare.events;
  rep.check(masked == bare, w.name + ": sinks changed the simulated result");
  rep.check(o.export_error.empty(), w.name + ": " + o.export_error);
}

/// The instances this process simulates.
std::vector<std::size_t> my_instances(const Workload& w, std::size_t part,
                                      std::size_t parts) {
  std::vector<std::size_t> mine;
  for (std::size_t i = part; i < w.instances.size(); i += parts) {
    mine.push_back(i);
  }
  return mine;
}

/// Instance 0 (always in part 0) is checked against run_scenario() itself;
/// the reference run also warms caches and the allocator before timing.
std::optional<ScenarioResult> reference(const Workload& w,
                                        std::size_t part) {
  if (part != 0) return std::nullopt;
  return run_scenario(kPolicy, w.instances[0]);
}

void measure_end_to_end(Report& rep, const Workload& w, double seconds,
                        std::size_t part, std::size_t parts,
                        const std::string& out_dir) {
  const std::vector<std::size_t> mine = my_instances(w, part, parts);
  const std::size_t k = mine.size();
  const auto ref = reference(w, part);
  for (int j = 0; j < kExtraSetups; ++j) {
    rep.sample("setup_s",
               compose(w, mine[j % k], nullptr, /*run=*/false).setup_s, "s");
  }

  // The first run of each instance yields its simulated metrics; every
  // later run must reproduce its result.
  const bool synthetic = w.instances.front().is_synthetic();
  std::vector<RunOutcome> first;
  auto run_bare = [&](std::size_t c) {
    RunOutcome o = compose(w, mine[c], nullptr);
    check_drained(rep, w, o);
    tally(rep, o);
    if (ref && c == 0 && first.empty()) {
      rep.check(o.result == *ref,
                w.name + ": composed run differs from run_scenario");
    }
    if (c < first.size()) {
      rep.check(o.result == first[c].result,
                w.name + ": a rerun of an instance changed its result");
    }
    if (!w.observed) {
      rep.sample("wall_s", o.wall_s, "s");
      rep.sample("packets_per_s",
                 static_cast<double>(o.delivered) / o.wall_s, "1/s");
      rep.sample("setup_s", o.setup_s, "s");
    }
    if (c == first.size()) {
      rep.sample("sim_latency_us", o.result.global_latency * 1e6, "us");
      rep.sample("sim_p99_latency_us", o.p99_latency * 1e6, "us");
      rep.sample("sim_exec_ms",
                 (synthetic ? o.drained_at : o.result.exec_time) * 1e3, "ms");
      first.push_back(std::move(o));
    }
  };
  bool validate = true;
  auto run_observed_timed = [&](std::size_t c) {
    const ObservedRun o = run_observed(w, mine[c], out_dir, validate);
    validate = false;
    check_observed(rep, w, o, first[c].result);
    const double wall = o.run_s + o.export_s;
    rep.sample("wall_s", wall, "s");
    rep.sample("packets_per_s",
               static_cast<double>(first[c].delivered) / wall, "1/s");
    tally(rep, first[c]);
  };

  std::size_t observed_runs = 0;
  repeat_for(seconds, w.observed ? 2 * k : std::max(k, kMinReps),
             [&](std::size_t j) {
               if (!w.observed) {
                 run_bare(j % k);
               } else if (j % 2 == 0 && first.size() < k) {
                 // Observed workloads interleave the first bare run of each
                 // instance with the timed runs that carry sinks.
                 run_bare(first.size());
               } else {
                 run_observed_timed(observed_runs++ % first.size());
               }
             });
  rep.sample("peak_rss_mb", peak_rss_mb(), "MiB");
}

double span_seconds(const LayerTrace& t, std::string_view name) {
  std::int64_t ns = 0;
  for (const Span& s : t.spans) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

/// Samples the per-layer metrics of one traced repetition.
void sample_layers(Report& rep, const LayerTrace& t, const RunOutcome& o) {
  auto boundary = [&](const std::string& prefix, const Boundary& b,
                      bool quantiles) {
    rep.sample(prefix + ".calls", static_cast<double>(b.calls), "count");
    rep.sample(prefix + ".s", static_cast<double>(b.self_ns) * 1e-9, "s");
    if (quantiles) {
      rep.sample(prefix + ".ns_p50", b.quantile_ns(0.50), "ns");
      rep.sample(prefix + ".ns_p99", b.quantile_ns(0.99), "ns");
    }
  };
  auto count = [&](const std::string& name, std::uint64_t v) {
    rep.sample(name, static_cast<double>(v), "count");
  };
  const ScenarioResult& r = o.result;

  rep.sample("experiment.make_topology_s",
             span_seconds(t, "experiment.make_topology"), "s");
  rep.sample("experiment.make_policy_s",
             span_seconds(t, "experiment.make_policy"), "s");
  rep.sample("net.network_ctor_s", span_seconds(t, "net.network_ctor"), "s");
  rep.sample("trace.make_app_trace_s",
             span_seconds(t, "trace.make_app_trace"), "s");

  boundary("core.cfd.on_transmit", t.cfd_on_transmit, true);
  count("core.cfd.detections", o.cfd_detections);
  count("core.cfd.predictive_acks", o.cfd_predictive_acks);
  count("core.cfd.truncated_flows", o.cfd_truncated_flows);

  boundary("net.topology.msp_candidates", t.msp_candidates, true);
  boundary("net.topology.minimal_ports", t.minimal_ports, false);

  boundary("routing.select_port", t.select_port, false);
  boundary("routing.choose_path", t.choose_path, false);
  boundary("routing.on_ack", t.on_ack, false);
  count("routing.drb.expansions", r.expansions);
  count("routing.drb.contractions", o.drb_contractions);

  count("core.engine.installs", r.installs);
  count("core.engine.trend_triggers", r.trend_triggers);
  count("core.sdb.lookups", o.sdb_lookups);
  count("core.sdb.hits", o.sdb_hits);
  rep.sample("core.sdb.hit_ratio",
             o.sdb_lookups ? static_cast<double>(o.sdb_hits) /
                                 static_cast<double>(o.sdb_lookups)
                           : 0.0,
             "ratio");
  count("core.sdb.size", r.patterns_saved);

  count("sim.events", r.events);
  count("sim.pending_peak", t.pending_peak);
  rep.sample("sim_net.self_s",
             o.wall_s - static_cast<double>(t.clock.outermost_ns() +
                                            t.sampling_ns) *
                            1e-9,
             "s");

  rep.sample("net.port_wait_us.p50", t.port_wait.p50() * 1e6, "us");
  rep.sample("net.port_wait_us.p99", t.port_wait.p99() * 1e6, "us");
  rep.sample("net.queue_bytes_peak", static_cast<double>(t.queue_bytes_peak),
             "bytes");
  count("net.header_truncations", o.header_truncations);

  boundary("metrics.observer", t.observer, false);
  count("traffic.messages_sent", o.traffic_messages);
  count("trace.messages_sent", o.trace_messages);
  rep.sample("traced.wall_s", o.wall_s, "s");
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  obs::JsonWriter w;
  w.begin_object().field("schema", "prdrb-bench-spans-v1");
  w.key("spans").begin_array();
  for (const Span& s : spans) {
    w.begin_object()
        .field("name", s.name)
        .field("start_ns", s.start_ns)
        .field("end_ns", s.end_ns)
        .end_object();
  }
  w.end_array().end_object();
  obs::write_text_file(path, w.str());
}

void measure_layers(Report& rep, const Workload& w, double seconds,
                    std::size_t part, std::size_t parts,
                    const std::string& out_dir) {
  const std::vector<std::size_t> mine = my_instances(w, part, parts);
  const auto ref = reference(w, part);
  bool validate = true;
  std::vector<Span> spans;  // of the last traced repetition

  // Each repetition runs one instance bare and traced; the traced run must
  // reproduce the bare result bit for bit.
  repeat_for(seconds, kMinReps, [&](std::size_t j) {
    const std::size_t i = mine[j % mine.size()];
    const RunOutcome bare = compose(w, i, nullptr);
    check_drained(rep, w, bare);
    if (ref && j == 0) {
      rep.check(bare.result == *ref,
                w.name + ": composed run differs from run_scenario");
    }
    LayerTrace t;
    const RunOutcome traced = compose(w, i, &t);
    rep.check(traced.result == bare.result,
              w.name + ": traced run differs from the bare run");
    tally(rep, traced);
    sample_layers(rep, t, traced);
    rep.sample("sim.events_per_s",
               static_cast<double>(bare.result.events) / bare.wall_s, "1/s");
    rep.sample("trace_overhead", traced.wall_s / bare.wall_s, "ratio");
    spans = std::move(t.spans);

    double extra_events = 0, overhead_s = 0, export_s = 0, export_bytes = 0;
    if (w.observed) {
      const std::int64_t t0 = now_ns();
      run_scenario(kPolicy, w.instances[i]);
      const double bare_s = static_cast<double>(now_ns() - t0) * 1e-9;
      const ObservedRun o = run_observed(w, i, out_dir, validate);
      validate = false;
      check_observed(rep, w, o, bare.result);
      extra_events = static_cast<double>(o.result.events) -
                     static_cast<double>(bare.result.events);
      overhead_s = o.run_s - bare_s;
      export_s = o.export_s;
      export_bytes = static_cast<double>(o.export_bytes);
    }
    rep.sample("obs.extra_events", extra_events, "count");
    rep.sample("obs.run_overhead_s", overhead_s, "s");
    rep.sample("obs.export_s", export_s, "s");
    rep.sample("obs.export_bytes", export_bytes, "bytes");
  });
  write_spans(spans, out_dir + "/" + w.name + ".spans.json");
}

void print(const Report& rep) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("correct", rep.correct());
  w.field("attempted", rep.attempted);
  w.field("failed", rep.failed);
  w.key("errors").begin_array();
  for (const std::string& e : rep.errors) w.value(e);
  w.end_array();
  w.key("metrics").begin_object();
  for (const std::string& name : rep.order) {
    w.key(name).begin_object().field("unit", rep.units.at(name));
    w.key("samples").begin_array();
    for (double v : rep.samples.at(name)) w.value(v);
    w.end_array().end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << std::endl;
}

// --- the benchmark's own tests ---

bool valid_metric_name(const std::string& s) {
  static const std::regex re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(s, re);
}

int selftest(const std::string& out_dir) {
  Report rep;
  Workload mesh;
  mesh.name = "selftest-mesh";
  ScenarioSpec& m = mesh.instances.emplace_back();
  m.topology = "mesh-8x8";
  m.synthetic().pattern = "uniform";
  m.synthetic().rate_bps = 1000e6;
  m.synthetic().duration = 1e-3;
  m.synthetic().bursts = 0;

  Workload tree;
  tree.name = "selftest-tree";
  ScenarioSpec& t = tree.instances.emplace_back();
  t.topology = "tree-16";
  t.trace().app = "lammps-comb";
  t.trace().scale.iterations = 2;

  // Each decorator forwards exactly: bare, traced and run_scenario agree
  // bit for bit, and every probed boundary saw calls.
  for (const Workload* w : {&mesh, &tree}) {
    const ScenarioResult ref = run_scenario(kPolicy, w->instances[0]);
    const RunOutcome bare = compose(*w, 0, nullptr);
    LayerTrace lt;
    const RunOutcome traced = compose(*w, 0, &lt);
    rep.check(bare.result == ref, w->name + ": bare composition differs");
    rep.check(traced.result == ref, w->name + ": traced composition differs");
    check_drained(rep, *w, traced);
    const std::vector<std::pair<const char*, const Boundary*>> probes{
        {"minimal_ports", &lt.minimal_ports},
        {"msp_candidates", &lt.msp_candidates},
        {"select_port", &lt.select_port},
        {"choose_path", &lt.choose_path},
        {"on_ack", &lt.on_ack},
        {"cfd_on_transmit", &lt.cfd_on_transmit},
        {"observer", &lt.observer}};
    for (const auto& [name, b] : probes) {
      rep.check(b->calls > 0, w->name + ": no calls through " + name);
    }
    rep.check(lt.clock.outermost_ns() > 0 && lt.pending_peak > 0,
              w->name + ": traced run recorded no time or queue depth");
  }

  // Every workload builds its instances, and every metric of both modes,
  // from either part of a two-part run, has a valid name and a unit.
  for (const std::string& name : workload_names()) {
    const auto w = make_workload(name, 1);
    rep.check(w && w->instances.size() == kInstances,
              name + " does not build");
  }
  Workload bursty = *make_workload("bursty-observed", 3);
  bursty.instances.resize(2);
  for (ScenarioSpec& spec : bursty.instances) {
    spec.synthetic().bursts = 2;
    spec.synthetic().duration = 10.5e-3;
  }
  for (const Workload* w : {&mesh, &tree, &bursty}) {
    for (std::size_t part = 0; part < w->instances.size(); ++part) {
      Report e2e;
      Report layers;
      measure_end_to_end(e2e, *w, 0, part, w->instances.size(), out_dir);
      measure_layers(layers, *w, 0, part, w->instances.size(), out_dir);
      for (const Report* r : {&e2e, &layers}) {
        for (const std::string& e : r->errors) rep.check(false, e);
        for (const std::string& name : r->order) {
          rep.check(valid_metric_name(name) && !r->units.at(name).empty(),
                    w->name + ": metric '" + name +
                        "' has a bad name or no unit");
        }
      }
    }
  }
  for (const std::string& e : rep.errors) std::cout << "FAIL: " << e << '\n';
  std::cout << (rep.correct() ? "selftest passed" : "selftest FAILED")
            << std::endl;
  return rep.correct() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: prdrb_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --part <p> --parts <P> "
               "--out-dir <dir>\n"
               "       prdrb_bench --selftest --out-dir <dir>\n";
  return 2;
}

}  // namespace
}  // namespace prdrb::bench

int main(int argc, char** argv) {
  using namespace prdrb::bench;
  std::string workload;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long part = 0;
  long parts = 1;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      self = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--part" && has_value) {
      part = std::atol(argv[++i]);
    } else if (a == "--parts" && has_value) {
      parts = std::atol(argv[++i]);
    } else if (a == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  std::filesystem::create_directories(out_dir);
  if (self) return selftest(out_dir);

  const auto w = make_workload(workload, seed);
  if (!w || (trace != 0 && trace != 1) || !(seconds >= 0) || parts < 1 ||
      parts > static_cast<long>(kInstances) || part < 0 || part >= parts) {
    return usage();
  }
  Report rep;
  const auto p = static_cast<std::size_t>(part);
  const auto n = static_cast<std::size_t>(parts);
  if (trace) {
    measure_layers(rep, *w, seconds, p, n, out_dir);
  } else {
    measure_end_to_end(rep, *w, seconds, p, n, out_dir);
  }
  print(rep);
  return rep.correct() ? 0 : 1;
}

// prdrb_sim — command-line simulation driver over the experiment harness.
//
// Run any topology / policy / workload combination without writing code:
//
//   ./build/examples/prdrb_sim --topology mesh-8x8 --policy pr-drb \
//       --pattern hotspot-cross --rate 1000e6 --bursts 5 --seeds 3
//   ./build/examples/prdrb_sim --topology tree-64 --policy drb --app pop
//   ./build/examples/prdrb_sim --help
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "experiment/manifest.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "util/table.hpp"

using namespace prdrb;

namespace {

void usage() {
  std::cout <<
      R"(prdrb_sim — PR-DRB interconnection-network simulator

options (synthetic traffic):
  --topology <name>   mesh-WxH | torus-WxH | tree-{16,32,64,256} | kary-K-N |
                      dragonfly-A:G:H:P (A routers/group, G groups, H global
                      links/router, P terminals/router; default tree-64)
  --policy <name>     deterministic | random | cyclic | adaptive | minimal |
                      valiant | ugal-l | drb | fr-drb | pr-drb | pr-fr-drb
                      (append @router for router-based notification;
                      default pr-drb)
  --pattern <name>    uniform | bit-reversal | perfect-shuffle |
                      matrix-transpose | bit-complement | tornado |
                      neighbor | butterfly | hotspot-cross | hotspot-double |
                      adversarial-group (dragonfly only: next-group shift)
  --rate <bps>        per-node injection rate (default 400e6)
  --duration <s>      simulated seconds (default 10e-3)
  --bursts <n>        bursty injection: n bursts of --burst-len (default 0
                      = continuous)
  --burst-len <s>     burst length (default 2e-3)
  --gap <s>           gap between bursts (default 2e-3)
  --noise <bps>       uniform background load (default 0)
  --seeds <n>         replicated runs, reported mean ± 95% CI (default 1)
  --seed <v>          base seed (default 11)
  --jobs <n>          parallel sweep workers for replicated runs (default
                      PRDRB_JOBS env, else hardware concurrency; results
                      are identical at any worker count)

options (application trace; overrides --pattern):
  --app <name>        pop | nas-lu | nas-mg-{s,a,b} | nas-ft-{a,b} |
                      lammps-{chain,comb} | sweep3d | smg2000
  --iterations <n>    trace time steps (default 8)
  --bytes-scale <f>   message-volume multiplier (default 1.0)
  --compute-scale <f> compute-time multiplier (default 1.0)

solution database (DESIGN.md "Indexed solution database"):
  --sdb-in <path>       warm-start predictive policies from a previously
                        exported solution database ("prdrb-sdb-v1" or the
                        legacy headerless text) before any traffic flows
  --sdb-out <path>      export the base-seed run's solution database after
                        the run; deterministic sorted text, byte-identical
                        across repeats and --jobs values
  --sdb-capacity <n>    bound the database to n solutions with LRU
                        eviction (default 0 = unbounded)

observability (DESIGN.md "Observability"):
  --trace-out <path>    write a Chrome trace_event JSON (open in Perfetto)
                        of a serial, base-seed run
  --metrics-out <path>  export the counter registry (.csv -> CSV, else JSON)
  --telemetry-out <path> export link/router spatial telemetry (.csv -> CSV,
                        else "prdrb-telemetry-v1" JSON)
  --heatmap-out <path>  per-router heatmap (.pgm -> time x router image,
                        else topology-aware ASCII)
  --scorecard-out <path> predictive-efficacy scorecard: latency attribution,
                        metapath ledger and warm-vs-cold SDB episodes
                        ("prdrb-scorecard-v1" JSON) of a serial base-seed run
  --stream-out <path>   bounded-memory streaming telemetry: periodic
                        "prdrb-stream-v1" NDJSON snapshots (utilization
                        quantiles, congestion onsets, prediction lead times)
                        of a serial base-seed run, closed by a summary line
  --stream-interval <s> snapshot cadence in simulated seconds (default 10e-3;
                        rounded to the counter-sampling grid)
  --watchdog[=<s>]      arm the stall watchdog (default window 5e-3 virtual
                        seconds): dumps ring + router snapshot to stderr if
                        no packet is delivered for a window while work is
                        pending
  --watchdog-out <path> also write the flight-recorder dump JSON there
  --manifest-out <path> run-manifest path (default prdrb_sim.manifest.json)
  --no-manifest         do not write a manifest
)";
}

double num_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw std::invalid_argument("missing value");
  return std::stod(argv[++i]);
}

std::string str_arg(int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw std::invalid_argument("missing value");
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioSpec sc;
  sc.topology = "tree-64";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().duration = 10e-3;
  sc.synthetic().bursts = 0;
  std::string policy = "pr-drb";
  std::string app;
  TraceScale scale;
  int seeds = 1;
  std::string trace_out;
  std::string metrics_out;
  std::string telemetry_out;
  std::string heatmap_out;
  std::string scorecard_out;
  std::string stream_out;
  double stream_interval = 0;
  double watchdog = 0;
  std::string watchdog_out;
  std::string manifest_out = "prdrb_sim.manifest.json";
  bool write_manifest = true;
  const auto wall_start = std::chrono::steady_clock::now();

  try {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      // Accept "--flag=value" as well as "--flag value", like the bench
      // binaries do.
      std::string inline_val;
      bool has_inline = false;
      if (a.rfind("--", 0) == 0) {
        if (const auto eq = a.find('='); eq != std::string::npos) {
          inline_val = a.substr(eq + 1);
          a = a.substr(0, eq);
          has_inline = true;
        }
      }
      const auto sval = [&]() -> std::string {
        return has_inline ? inline_val : str_arg(argc, argv, i);
      };
      const auto nval = [&]() -> double {
        return has_inline ? std::stod(inline_val) : num_arg(argc, argv, i);
      };
      if (a == "--help" || a == "-h") {
        usage();
        return 0;
      } else if (a == "--topology") {
        sc.topology = sval();
      } else if (a == "--policy") {
        policy = sval();
      } else if (a == "--pattern") {
        sc.synthetic().pattern = sval();
      } else if (a == "--rate") {
        sc.synthetic().rate_bps = nval();
      } else if (a == "--duration") {
        sc.synthetic().duration = nval();
      } else if (a == "--bursts") {
        sc.synthetic().bursts = static_cast<int>(nval());
      } else if (a == "--burst-len") {
        sc.synthetic().burst_len = nval();
      } else if (a == "--gap") {
        sc.synthetic().gap_len = nval();
      } else if (a == "--noise") {
        sc.synthetic().noise_rate_bps = nval();
      } else if (a == "--seeds") {
        seeds = static_cast<int>(nval());
      } else if (a == "--jobs") {
        set_default_jobs(static_cast<int>(nval()));
      } else if (a == "--seed") {
        sc.seed = static_cast<std::uint64_t>(nval());
      } else if (a == "--app") {
        app = sval();
      } else if (a == "--iterations") {
        scale.iterations = static_cast<int>(nval());
      } else if (a == "--bytes-scale") {
        scale.bytes_scale = nval();
      } else if (a == "--compute-scale") {
        scale.compute_scale = nval();
      } else if (a == "--sdb-in") {
        sc.sdb_in = sval();
      } else if (a == "--sdb-out") {
        sc.sdb_out = sval();
      } else if (a == "--sdb-capacity") {
        sc.prdrb.sdb_capacity = static_cast<std::size_t>(nval());
      } else if (a == "--trace-out") {
        trace_out = sval();
      } else if (a == "--metrics-out") {
        metrics_out = sval();
      } else if (a == "--telemetry-out") {
        telemetry_out = sval();
      } else if (a == "--heatmap-out") {
        heatmap_out = sval();
      } else if (a == "--scorecard-out") {
        scorecard_out = sval();
      } else if (a == "--stream-out") {
        stream_out = sval();
      } else if (a == "--stream-interval") {
        stream_interval = nval();
      } else if (a == "--watchdog") {
        watchdog = has_inline ? std::stod(inline_val) : 5e-3;
        if (!(watchdog > 0)) watchdog = 5e-3;
      } else if (a == "--watchdog-out") {
        watchdog_out = sval();
      } else if (a == "--manifest-out") {
        manifest_out = sval();
      } else if (a == "--no-manifest") {
        write_manifest = false;
      } else {
        std::cerr << "unknown option: " << a << "\n";
        usage();
        return 2;
      }
    }

    // Validate the name-shaped flags up front so a typo yields one typed
    // error (with a nearest-name suggestion) instead of a mid-run throw.
    if (const auto parsed = make_topology(sc.topology); !parsed.ok()) {
      std::cerr << "error: " << parsed.error().what() << "\n";
      return 2;
    }
    if (const auto parsed = make_policy(policy); !parsed.ok()) {
      std::cerr << "error: " << parsed.error().what() << "\n";
      return 2;
    }
    RunManifest manifest("prdrb_sim");
    manifest.set_seed(sc.seed);
    manifest.add_config("topology", sc.topology);
    manifest.add_config("policy", policy);
    if (!sc.sdb_in.empty()) manifest.add_config("sdb_in", sc.sdb_in);
    if (!sc.sdb_out.empty()) manifest.add_config("sdb_out", sc.sdb_out);
    if (sc.prdrb.sdb_capacity > 0) {
      manifest.add_config(
          "sdb_capacity",
          static_cast<std::int64_t>(sc.prdrb.sdb_capacity));
    }
    const auto finish = [&](double) {
      const auto elapsed = std::chrono::steady_clock::now() - wall_start;
      manifest.set_wall_seconds(
          std::chrono::duration<double>(elapsed).count());
      manifest.set_jobs(default_jobs());
      if (write_manifest) manifest.write_file(manifest_out);
    };

    if (!app.empty()) {
      // Switching the workload alternative discards the synthetic knobs;
      // topology/seed/sinks live on the spec and carry over.
      sc.trace().app = app;
      sc.trace().scale = scale;
      // run_scenario on a trace workload is serial: the sinks can ride the
      // measured run itself.
      obs::Tracer tracer;
      obs::CounterRegistry counters(sc.bin_width);
      obs::NetTelemetry telemetry(sc.bin_width);
      obs::FlightRecorder recorder(512);
      obs::Scorecard scorecard;
      obs::StreamTelemetry stream;
      std::string dump;
      if (!trace_out.empty()) sc.sinks.tracer = &tracer;
      if (!metrics_out.empty()) sc.sinks.counters = &counters;
      if (!telemetry_out.empty() || !heatmap_out.empty()) {
        sc.sinks.telemetry = &telemetry;
      }
      if (!scorecard_out.empty()) sc.sinks.scorecard = &scorecard;
      if (!stream_out.empty()) {
        sc.sinks.stream = &stream;
        if (stream_interval > 0) sc.sinks.stream_interval = stream_interval;
      }
      if (watchdog > 0) {
        sc.sinks.recorder = &recorder;
        sc.sinks.watchdog_window = watchdog;
        sc.sinks.watchdog_dump = &dump;
      }
      const ScenarioResult r = run_scenario(policy, sc);
      if (!trace_out.empty()) tracer.write_file(trace_out);
      if (!metrics_out.empty()) counters.write_file(metrics_out);
      if (!telemetry_out.empty()) telemetry.write_file(telemetry_out);
      if (!heatmap_out.empty()) {
        telemetry.write_heatmap_file(
            heatmap_out, *make_topology(sc.topology).value_or_throw());
      }
      if (!scorecard_out.empty()) scorecard.write_file(scorecard_out);
      if (!stream_out.empty()) stream.write_file(stream_out);
      if (!watchdog_out.empty() && !dump.empty()) {
        obs::write_text_file(watchdog_out, dump);
      }
      manifest.add_config("app", app);
      manifest.add_result(r);
      finish(0);
      Table t({"metric", "value"});
      t.add_row({"policy", r.policy});
      t.add_row({"application", app});
      t.add_row({"execution time (ms)", Table::num(r.exec_time * 1e3, 5)});
      t.add_row({"global avg latency (us)",
                 Table::num(r.global_latency * 1e6, 5)});
      t.add_row({"contention map peak (us)", Table::num(r.map_peak * 1e6, 5)});
      t.add_row({"packets delivered", std::to_string(r.packets)});
      t.add_row({"path expansions", std::to_string(r.expansions)});
      t.add_row({"solution installs", std::to_string(r.installs)});
      t.add_row({"patterns saved", std::to_string(r.patterns_saved)});
      t.print(std::cout);
      return r.exec_time >= 0 ? 0 : 1;
    }

    const auto runs = run_synthetic_replicated(policy, sc, seeds);
    manifest.add_config("pattern", sc.synthetic().pattern);
    manifest.add_config("rate_bps", sc.synthetic().rate_bps);
    manifest.add_config("seeds", static_cast<std::int64_t>(seeds));
    for (const ScenarioResult& r : runs) manifest.add_result(r);
    // The replicated runs go through the parallel executor, so the
    // instrumented run is a separate serial probe at the base seed — its
    // trace bytes are independent of --jobs.
    if (!trace_out.empty() || !metrics_out.empty() || !telemetry_out.empty() ||
        !heatmap_out.empty() || !scorecard_out.empty() ||
        !stream_out.empty() || watchdog > 0) {
      ScenarioSpec probe = sc;
      // The replicated base-seed run already exported the database (only
      // the base seed writes it — workers must not race on the file).
      probe.sdb_out.clear();
      obs::Tracer tracer;
      obs::CounterRegistry counters(probe.bin_width);
      obs::NetTelemetry telemetry(probe.bin_width);
      obs::FlightRecorder recorder(512);
      obs::Scorecard scorecard;
      obs::StreamTelemetry stream;
      std::string dump;
      if (!trace_out.empty()) probe.sinks.tracer = &tracer;
      if (!metrics_out.empty()) probe.sinks.counters = &counters;
      if (!telemetry_out.empty() || !heatmap_out.empty()) {
        probe.sinks.telemetry = &telemetry;
      }
      if (!scorecard_out.empty()) probe.sinks.scorecard = &scorecard;
      if (!stream_out.empty()) {
        probe.sinks.stream = &stream;
        if (stream_interval > 0) {
          probe.sinks.stream_interval = stream_interval;
        }
      }
      if (watchdog > 0) {
        probe.sinks.recorder = &recorder;
        probe.sinks.watchdog_window = watchdog;
        probe.sinks.watchdog_dump = &dump;
      }
      run_scenario(policy, probe);
      if (!trace_out.empty()) tracer.write_file(trace_out);
      if (!metrics_out.empty()) counters.write_file(metrics_out);
      if (!telemetry_out.empty()) telemetry.write_file(telemetry_out);
      if (!heatmap_out.empty()) {
        telemetry.write_heatmap_file(
            heatmap_out, *make_topology(sc.topology).value_or_throw());
      }
      if (!scorecard_out.empty()) scorecard.write_file(scorecard_out);
      if (!stream_out.empty()) stream.write_file(stream_out);
      if (!watchdog_out.empty() && !dump.empty()) {
        obs::write_text_file(watchdog_out, dump);
      }
    }
    finish(0);
    const auto lat = replicate_metric(
        runs, [](const ScenarioResult& r) { return r.global_latency; });
    const auto peak = replicate_metric(
        runs, [](const ScenarioResult& r) { return r.map_peak; });
    Table t({"metric", "value"});
    t.add_row({"policy", runs.front().policy});
    t.add_row({"pattern", sc.synthetic().pattern});
    t.add_row({"seeds", std::to_string(seeds)});
    t.add_row({"global avg latency (us)",
               Table::num(lat.mean * 1e6, 5) + " ± " +
                   Table::num(lat.ci95() * 1e6, 3)});
    t.add_row({"contention map peak (us)",
               Table::num(peak.mean * 1e6, 5) + " ± " +
                   Table::num(peak.ci95() * 1e6, 3)});
    t.add_row({"packets delivered", std::to_string(runs.front().packets)});
    t.add_row({"delivery ratio",
               Table::num(runs.front().delivery_ratio, 6)});
    t.add_row({"path expansions", std::to_string(runs.front().expansions)});
    t.add_row({"solution installs", std::to_string(runs.front().installs)});
    t.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

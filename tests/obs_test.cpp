// Observability subsystem tests (DESIGN.md "Observability"):
//   - obs/json: escaping, deterministic number formatting, validation
//   - obs/tracer: Chrome trace_event document shape, disabled/limit
//     behaviour, and the determinism contract (two identical seeded runs
//     produce byte-identical traces)
//   - obs/counters: register/sample/export round-trip, simulator-driven
//     sampling that still lets Simulator::run() drain
//   - experiment/manifest: schema + per-policy summary arithmetic
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/manifest.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace prdrb {
namespace {

using obs::Counter;
using obs::CounterRegistry;
using obs::CounterSampler;
using obs::JsonWriter;
using obs::Tracer;

// --- obs/json ---

TEST(ObsJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(obs::json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(ObsJson, NumbersAreShortestRoundTripAndFinite) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(-3.0), "-3");
  // JSON has no inf/NaN: mapped to 0 rather than emitting invalid tokens.
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(ObsJson, WriterBuildsValidDocuments) {
  JsonWriter w;
  w.begin_object()
      .field("name", "trace \"x\"")
      .field("count", std::uint64_t{42})
      .field("ratio", 0.25)
      .field("ok", true)
      .key("list")
      .begin_array()
      .value(1)
      .value(2.5)
      .end_array()
      .end_object();
  EXPECT_TRUE(obs::json_valid(w.str())) << w.str();
  EXPECT_NE(w.str().find("\"count\":42"), std::string::npos);
}

TEST(ObsJson, RawNumberOrStringQuotesNonNumbers) {
  JsonWriter w;
  w.begin_object();
  w.key("a").raw_number_or_string("400000000");
  w.key("b").raw_number_or_string("1.5e-3");
  w.key("c").raw_number_or_string("mesh-8x8");
  w.key("d").raw_number_or_string("");
  w.end_object();
  EXPECT_TRUE(obs::json_valid(w.str())) << w.str();
  EXPECT_NE(w.str().find("\"a\":400000000"), std::string::npos);
  EXPECT_NE(w.str().find("\"b\":1.5e-3"), std::string::npos);
  EXPECT_NE(w.str().find("\"c\":\"mesh-8x8\""), std::string::npos);
}

TEST(ObsJson, ValidatorRejectsMalformedDocuments) {
  EXPECT_TRUE(obs::json_valid("{\"a\":[1,2,{\"b\":null}]}"));
  EXPECT_TRUE(obs::json_valid(" [true, false, -1.5e3] "));
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{\"a\":}"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}"));
  EXPECT_FALSE(obs::json_valid("[1 2]"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1} trailing"));
}

TEST(ObsJson, ParserBuildsNavigableDocuments) {
  const auto doc = obs::json_parse(
      "{\"schema\":\"t\",\"n\":-1.5e3,\"flag\":true,\"nil\":null,"
      "\"nested\":{\"deep\":{\"x\":7}},\"list\":[1,\"two\",false]}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->string_at("schema"), "t");
  EXPECT_DOUBLE_EQ(doc->number_at("n"), -1500.0);
  ASSERT_NE(doc->find("flag"), nullptr);
  EXPECT_TRUE(doc->find("flag")->as_bool());
  EXPECT_TRUE(doc->find("nil")->is_null());
  // Dotted-path navigation with fallbacks instead of throws.
  EXPECT_DOUBLE_EQ(doc->number_at("nested.deep.x"), 7.0);
  EXPECT_DOUBLE_EQ(doc->number_at("nested.deep.missing", -1.0), -1.0);
  EXPECT_EQ(doc->find_path("nested.nope"), nullptr);
  const obs::JsonValue* list = doc->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items().size(), 3u);
  EXPECT_EQ(list->items()[1].as_string(), "two");
  // Member order is preserved for deterministic re-emission.
  EXPECT_EQ(doc->members().front().first, "schema");
}

TEST(ObsJson, ParserDecodesEscapesIncludingSurrogatePairs) {
  const auto doc = obs::json_parse(
      "{\"s\":\"a\\\"b\\\\c\\n\",\"u\":\"\\u00e9\",\"sp\":\"\\ud83d\\ude00\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_at("s"), "a\"b\\c\n");
  EXPECT_EQ(doc->string_at("u"), "\xC3\xA9");          // é in UTF-8
  EXPECT_EQ(doc->string_at("sp"), "\xF0\x9F\x98\x80"); // 😀 in UTF-8
  // Lone surrogates are malformed, not silently emitted.
  EXPECT_FALSE(obs::json_parse("\"\\ud83d\"").has_value());
  EXPECT_FALSE(obs::json_parse("\"\\ude00\"").has_value());
  EXPECT_FALSE(obs::json_parse("{\"a\":1,}").has_value());
}

// --- obs/tracer ---

TEST(Tracer, EmitsChromeTraceDocument) {
  Tracer t;
  t.on_message_injected(3, 9, 1024, 1e-6);
  Packet p;
  p.source = 3;
  p.destination = 9;
  t.on_packet_forwarded(p, 5, 2e-6);
  t.on_packet_delivered(p, 4e-6);
  t.congestion_detected(5, 1, 6e-6, 4, 3e-6);
  t.predictive_ack(5, 3, 3.5e-6);
  t.metapath_open(3, 9, 2, 4e-6);
  t.solution_hit(3, 9, 3, 5e-6);
  t.solution_miss(3, 10, 5e-6);
  t.solution_save(3, 9, 3, 6e-6);
  t.metapath_close(3, 9, 1, 7e-6);
  EXPECT_EQ(t.events(), 10u);
  EXPECT_EQ(t.dropped(), 0u);

  const std::string doc = t.to_json();
  EXPECT_TRUE(obs::json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  // One event of each family, on its documented process.
  for (const char* name :
       {"inject", "hop", "deliver", "congestion", "predictive-ack", "mp-open",
        "mp-close", "sdb-hit", "sdb-miss", "sdb-save"}) {
    EXPECT_NE(doc.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  // process_name metadata makes the Perfetto tracks readable.
  EXPECT_NE(doc.find("process_name"), std::string::npos);

  t.clear();
  EXPECT_EQ(t.events(), 0u);
  EXPECT_TRUE(obs::json_valid(t.to_json()));
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(/*enabled=*/false);
  t.on_message_injected(0, 1, 64, 0);
  t.metapath_open(0, 1, 2, 0);
  EXPECT_EQ(t.events(), 0u);
  t.set_enabled(true);
  t.on_message_injected(0, 1, 64, 0);
  EXPECT_EQ(t.events(), 1u);
}

TEST(Tracer, MarkerAndLabelAreEscapedIntoValidJson) {
  // Regression test: marker/label text is caller-controlled; quotes,
  // backslashes and control characters must be escaped, not concatenated
  // raw into the document.
  Tracer t;
  t.set_label("run \"A\\B\"\nphase");
  EXPECT_EQ(t.label(), "run \"A\\B\"\nphase");
  t.marker("watchdog \"fired\"\t<>", 1e-6);
  EXPECT_EQ(t.events(), 1u);
  const std::string doc = t.to_json();
  EXPECT_TRUE(obs::json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"label\""), std::string::npos);
  EXPECT_NE(doc.find("watchdog \\\"fired\\\""), std::string::npos);

  // Disabled tracers record no markers.
  Tracer off(/*enabled=*/false);
  off.marker("x", 0);
  EXPECT_EQ(off.events(), 0u);
}

TEST(Tracer, LimitDropsDeterministically) {
  Tracer t;
  t.set_limit(3);
  for (int i = 0; i < 8; ++i) t.on_message_injected(i, i + 1, 64, i * 1e-6);
  // events() counts everything observed; stored = events() - dropped().
  EXPECT_EQ(t.events(), 8u);
  EXPECT_EQ(t.dropped(), 5u);
  EXPECT_TRUE(obs::json_valid(t.to_json()));
}

/// The acceptance contract: a seeded serial run traced twice produces
/// byte-identical Chrome-trace JSON.
TEST(Tracer, SeededRunsProduceByteIdenticalTraces) {
  const auto traced_run = [] {
    ScenarioSpec sc;
    sc.topology = "mesh-8x8";
    sc.synthetic().pattern = "hotspot-cross";
    sc.synthetic().rate_bps = 1200e6;
    sc.synthetic().duration = 3e-3;
    sc.synthetic().bursts = 1;
    sc.synthetic().burst_len = 2e-3;
    sc.seed = 11;
    Tracer tracer;
    sc.sinks.tracer = &tracer;
    run_synthetic("pr-drb", sc);
    return tracer.to_json();
  };
  const std::string a = traced_run();
  const std::string b = traced_run();
  ASSERT_GT(a.size(), 2u);
  EXPECT_TRUE(obs::json_valid(a));
  EXPECT_EQ(a, b);  // byte-identical
  // The hot-spot run exercises the control plane, not just the lifecycle.
  EXPECT_NE(a.find("\"name\":\"congestion\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"mp-open\""), std::string::npos);
}

// --- obs/counters ---

TEST(Counters, RegisterSampleExportRoundTrip) {
  CounterRegistry reg(1e-3);
  Counter& c = reg.counter("net.link.packets");
  double g = 1.5;
  reg.gauge("net.queue.bytes", [&g] { return g; });
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"net.link.packets",
                                                   "net.queue.bytes"}));
  // Re-registering returns the same cell.
  EXPECT_EQ(&reg.counter("net.link.packets"), &c);
  EXPECT_EQ(reg.size(), 2u);

  c.add(3);
  reg.sample(0.5e-3);
  c.increment();
  g = 2.5;
  reg.sample(1.5e-3);
  EXPECT_EQ(reg.samples_taken(), 2u);
  EXPECT_DOUBLE_EQ(reg.current("net.link.packets"), 4.0);
  EXPECT_DOUBLE_EQ(reg.current("net.queue.bytes"), 2.5);
  EXPECT_DOUBLE_EQ(reg.current("no.such.metric"), 0.0);

  const TimeSeries* s = reg.series("net.link.packets");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->bin_mean(0), 3.0);
  EXPECT_DOUBLE_EQ(s->bin_mean(1), 4.0);
  EXPECT_EQ(reg.series("no.such.metric"), nullptr);

  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("name,kind,bin_time_s,mean,count"),
            std::string::npos);
  EXPECT_NE(csv.str().find("net.link.packets,counter,"), std::string::npos);
  EXPECT_NE(csv.str().find("net.queue.bytes,gauge,"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("prdrb-counters-v1"), std::string::npos);
  EXPECT_NE(json.find("net.link.packets"), std::string::npos);
}

TEST(Counters, SamplerFollowsSimClockAndLetsTheRunDrain) {
  Simulator sim;
  CounterRegistry reg(1e-3);
  Counter& c = reg.counter("test.events");
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(i * 1e-3, [&c] { c.increment(); });
  }
  CounterSampler sampler(sim, reg);
  sampler.start(1e-3);
  sim.run();  // must terminate: the sampler stops when the queue drains
  EXPECT_GE(reg.samples_taken(), 5u);
  EXPECT_DOUBLE_EQ(reg.current("test.events"), 5.0);
}

/// End-of-run freeze contract: when the run finishes, gauges are evaluated
/// one final time and frozen, so the registry reports end-of-run values
/// (not the last periodic sample) and stays safe to query after the
/// run-local probes are gone — and the whole export is deterministic, at
/// any sweep worker count.
TEST(Counters, EndOfRunFreezeCapturesFinalValuesDeterministically) {
  const auto probe = [] {
    ScenarioSpec sc;
    sc.topology = "mesh-8x8";
    sc.synthetic().pattern = "hotspot-cross";
    sc.synthetic().rate_bps = 1200e6;
    sc.synthetic().duration = 3e-3;
    sc.synthetic().bursts = 1;
    sc.synthetic().burst_len = 2e-3;
    sc.seed = 11;
    auto reg = std::make_unique<CounterRegistry>(sc.bin_width);
    sc.sinks.counters = reg.get();
    sc.sinks.sample_interval = 0.7e-3;
    const ScenarioResult r = run_synthetic("pr-drb", sc);
    return std::pair<ScenarioResult, std::unique_ptr<CounterRegistry>>(
        r, std::move(reg));
  };
  const auto [r1, reg1] = probe();
  // The frozen sim.events gauge equals the run's final event count — the
  // freeze sampled it once more after the queue drained, not at the last
  // periodic tick.
  EXPECT_DOUBLE_EQ(reg1->current("sim.events"),
                   static_cast<double>(r1.events));
  EXPECT_GT(reg1->samples_taken(), 0u);

  const auto [r2, reg2] = probe();
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(reg1->samples_taken(), reg2->samples_taken());
  EXPECT_EQ(reg1->to_json(), reg2->to_json());  // byte-identical

  // The sweep executor's worker count is irrelevant to a serial probe.
  const int saved = default_jobs();
  set_default_jobs(8);
  const auto [r3, reg3] = probe();
  set_default_jobs(saved);
  EXPECT_EQ(reg1->to_json(), reg3->to_json());
}

/// End-to-end: a scenario run with a counter sink registers the documented
/// network/routing/sim metrics and samples them.
TEST(Counters, ScenarioRunPopulatesRegistry) {
  ScenarioSpec sc;
  sc.topology = "mesh-8x8";
  sc.synthetic().pattern = "hotspot-cross";
  sc.synthetic().rate_bps = 1200e6;
  sc.synthetic().duration = 3e-3;
  sc.synthetic().bursts = 1;
  sc.synthetic().burst_len = 2e-3;
  sc.seed = 11;
  CounterRegistry reg(sc.bin_width);
  sc.sinks.counters = &reg;
  sc.sinks.sample_interval = 0.5e-3;
  const ScenarioResult r = run_synthetic("pr-drb", sc);
  EXPECT_GT(r.packets, 0u);
  EXPECT_GT(r.events, 0u);

  for (const char* name :
       {"net.link.packets", "net.link.bytes", "net.ack.bytes",
        "net.header.overhead_bytes", "net.credit.stalls", "sim.events",
        "sim.sched.tombstones",
        "routing.expansions", "routing.sdb.installs", "routing.sdb.lookups",
        "routing.sdb.hits", "routing.sdb.empty_probes"}) {
    EXPECT_NE(reg.series(name), nullptr) << name;
  }
  EXPECT_GT(reg.samples_taken(), 0u);
  EXPECT_GT(reg.current("net.link.packets"), 0.0);
  EXPECT_GT(reg.current("net.link.bytes"), 0.0);
  // Events gauge was sampled up to the end of the run.
  EXPECT_GT(reg.current("sim.events"), 0.0);
  EXPECT_TRUE(obs::json_valid(reg.to_json()));
}

TEST(Counters, WriteFilePicksFormatByExtension) {
  CounterRegistry reg;
  reg.counter("a.b").add(2);
  reg.sample(0);
  const std::string csv_path = ::testing::TempDir() + "obs_counters.csv";
  const std::string json_path = ::testing::TempDir() + "obs_counters.json";
  ASSERT_TRUE(reg.write_file(csv_path));
  ASSERT_TRUE(reg.write_file(json_path));
  std::ifstream csv(csv_path);
  std::string first;
  std::getline(csv, first);
  EXPECT_EQ(first, "name,kind,bin_time_s,mean,count");
  std::ifstream json(json_path);
  std::stringstream body;
  body << json.rdbuf();
  EXPECT_TRUE(obs::json_valid(body.str()));
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

// --- experiment/manifest ---

TEST(Manifest, SchemaAndPolicySummaries) {
  RunManifest m("obs_test");
  m.set_seed(11);
  m.set_jobs(4);
  m.set_wall_seconds(2.0);
  m.add_config("topology", "mesh-8x8");
  m.add_config("rate_bps", 400e6);
  m.add_config("seeds", std::int64_t{3});

  ScenarioResult a;
  a.policy = "drb";
  a.global_latency = 10e-6;
  a.delivery_ratio = 1.0;
  a.packets = 100;
  a.events = 1000;
  ScenarioResult b = a;
  b.global_latency = 20e-6;
  b.packets = 50;
  b.events = 500;
  ScenarioResult c;
  c.policy = "pr-drb";
  c.global_latency = 5e-6;
  c.delivery_ratio = 1.0;
  c.packets = 100;
  c.events = 700;
  m.add_result(a);
  m.add_result(b);
  m.add_result(c);

  EXPECT_EQ(m.results_recorded(), 3u);
  EXPECT_EQ(m.total_events(), 2200u);
  EXPECT_DOUBLE_EQ(m.events_per_sec(), 1100.0);

  const std::string doc = m.to_json();
  EXPECT_TRUE(obs::json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"schema\":\"prdrb-manifest-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"tool\":\"obs_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\":11"), std::string::npos);
  EXPECT_NE(doc.find("\"jobs\":4"), std::string::npos);
  // Config numbers stay bare, strings stay quoted.
  EXPECT_NE(doc.find("\"topology\":\"mesh-8x8\""), std::string::npos);
  EXPECT_NE(doc.find("\"seeds\":3"), std::string::npos);
  // drb: mean latency of 10us and 20us -> 15us; packets summed.
  EXPECT_NE(doc.find("\"policy\":\"drb\""), std::string::npos);
  EXPECT_NE(doc.find("\"global_latency_us\":15"), std::string::npos);
  EXPECT_NE(doc.find("\"policy\":\"pr-drb\""), std::string::npos);
}

TEST(Manifest, WriteFileProducesParsableJson) {
  RunManifest m("obs_test");
  ScenarioResult r;
  r.policy = "drb";
  r.events = 10;
  m.add_result(r);
  const std::string path = ::testing::TempDir() + "obs_manifest.json";
  ASSERT_TRUE(m.write_file(path));
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_TRUE(obs::json_valid(body.str()));
  EXPECT_NE(body.str().find("prdrb-manifest-v1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prdrb

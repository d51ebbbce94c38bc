#include "experiment/report.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace prdrb {

namespace {

using obs::JsonValue;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Fraction change of `now` relative to `base`; 0 for degenerate baselines.
double rel(double base, double now) {
  if (!(base > 0) || !std::isfinite(base) || !std::isfinite(now)) return 0;
  return (now - base) / base;
}

std::string pct(double fraction) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << fraction * 100.0 << "%";
  return os.str();
}

// The two accepted schemas flatten to the same summary for checking.
struct CheckDoc {
  std::string schema;
  double events = 0;
  double events_per_sec = 0;
  bool has_rate = false;
  struct Policy {
    std::string name;
    double mean_latency_us = 0;
    double delivery_ratio = 0;
    double packets = 0;
  };
  std::vector<Policy> policies;
  // Optional solution-database lookup microbench section (bench-baseline
  // docs): linear-scan vs prefix-index per-lookup latency over one large
  // bucket, plus the minimum speedup the index must keep delivering.
  struct SdbLookup {
    bool present = false;
    double linear_ns = 0;
    double indexed_ns = 0;
    double min_speedup = 0;  // gate: linear_ns / indexed_ns must stay >= this
  };
  SdbLookup sdb_lookup;
  // Predictive-scorecard section (scorecard docs): did the SDB fire at all?
  struct Sdb {
    bool present = false;
    double hits = 0;
    double misses = 0;
    double deliveries = 0;
  };
  Sdb sdb;
  // Streaming-telemetry section (stream summary docs): the prediction
  // lead-time verdict. A positive data-class median means metapaths were
  // typically opened BEFORE the matched congestion onset.
  struct Stream {
    bool present = false;
    double lead_median_s = 0;  // signed data-class median lead
    double lead_pos = 0;
    double lead_neg = 0;
    double onsets = 0;
    double opens_predictive = 0;
  };
  Stream stream;
};

bool flatten(const JsonValue& doc, CheckDoc& out) {
  out.schema = doc.string_at("schema");
  if (out.schema == "prdrb-manifest-v1") {
    out.events = doc.number_at("events");
    out.events_per_sec = doc.number_at("events_per_sec");
    out.has_rate = out.events_per_sec > 0;
    if (const JsonValue* pols = doc.find("policies"); pols && pols->is_array()) {
      for (const JsonValue& p : pols->items()) {
        out.policies.push_back({p.string_at("policy"),
                                p.number_at("mean_latency_us"),
                                p.number_at("delivery_ratio"),
                                p.number_at("packets")});
      }
    }
    return true;
  }
  if (out.schema == "prdrb-bench-baseline-v1") {
    out.events = doc.number_at("end_to_end.events");
    out.events_per_sec = doc.number_at("end_to_end.after.events_per_sec");
    out.has_rate = out.events_per_sec > 0;
    if (const JsonValue* sdb = doc.find("sdb_lookup")) {
      out.sdb_lookup.present = true;
      out.sdb_lookup.linear_ns = sdb->number_at("linear_ns");
      out.sdb_lookup.indexed_ns = sdb->number_at("indexed_ns");
      out.sdb_lookup.min_speedup = sdb->number_at("min_speedup");
    }
    return true;
  }
  if (out.schema == "prdrb-scorecard-v1") {
    out.sdb.present = true;
    out.sdb.hits = doc.number_at("sdb.hits");
    out.sdb.misses = doc.number_at("sdb.misses");
    out.sdb.deliveries = doc.number_at("deliveries");
    return true;
  }
  if (out.schema == "prdrb-stream-v1") {
    out.stream.present = true;
    out.stream.lead_median_s = doc.number_at("lead.data.median_s");
    out.stream.lead_pos = doc.number_at("lead.data.pos");
    out.stream.lead_neg = doc.number_at("lead.data.neg");
    out.stream.onsets = doc.number_at("onsets_total");
    out.stream.opens_predictive = doc.number_at("opens.predictive");
    return true;
  }
  return false;
}

}  // namespace

bool parse_manifest(const std::string& text, ManifestInfo& out) {
  std::optional<JsonValue> doc = obs::json_parse(text);
  if (!doc || doc->string_at("schema") != "prdrb-manifest-v1") return false;
  out.tool = doc->string_at("tool");
  out.seed = static_cast<std::uint64_t>(doc->number_at("seed"));
  out.jobs = static_cast<int>(doc->number_at("jobs", 1));
  out.wall_s = doc->number_at("wall_s");
  out.events = doc->number_at("events");
  out.events_per_sec = doc->number_at("events_per_sec");
  out.policies.clear();
  if (const JsonValue* pols = doc->find("policies"); pols && pols->is_array()) {
    for (const JsonValue& p : pols->items()) {
      ManifestInfo::Policy pol;
      pol.name = p.string_at("policy");
      pol.runs = static_cast<int>(p.number_at("runs"));
      pol.global_latency_us = p.number_at("global_latency_us");
      pol.mean_latency_us = p.number_at("mean_latency_us");
      pol.delivery_ratio = p.number_at("delivery_ratio");
      pol.packets = p.number_at("packets");
      pol.events = p.number_at("events");
      out.policies.push_back(std::move(pol));
    }
  }
  return true;
}

std::vector<ManifestInfo> collect_reports(const std::string& dir,
                                          std::vector<std::string>* skipped) {
  std::vector<ManifestInfo> out;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".json") continue;
    paths.push_back(entry.path().string());
  }
  // directory_iterator order is unspecified; sort for deterministic reports.
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    ManifestInfo info;
    if (parse_manifest(read_file(p), info)) {
      info.path = p;
      out.push_back(std::move(info));
    } else if (skipped) {
      skipped->push_back(p);
    }
  }
  return out;
}

bool parse_scorecard(const std::string& text, ScorecardInfo& out) {
  std::optional<JsonValue> doc = obs::json_parse(text);
  if (!doc || doc->string_at("schema") != "prdrb-scorecard-v1") return false;
  out.deliveries = doc->number_at("deliveries");
  out.sdb_hits = doc->number_at("sdb.hits");
  out.sdb_misses = doc->number_at("sdb.misses");
  out.sdb_saves = doc->number_at("sdb.saves");
  out.sdb_empty_probes = doc->number_at("sdb.empty_probes");
  out.opens = doc->number_at("ledger.opens");
  out.closes = doc->number_at("ledger.closes");
  out.multipath_s = doc->number_at("ledger.multipath_s");
  out.flows = doc->number_at("ledger.flows");
  out.cold.count = doc->number_at("episodes.cold.count");
  out.cold.mean_duration_us = doc->number_at("episodes.cold.mean_duration_us");
  out.cold.mean_latency_us = doc->number_at("episodes.cold.mean_latency_us");
  out.warm.count = doc->number_at("episodes.warm.count");
  out.warm.mean_duration_us = doc->number_at("episodes.warm.mean_duration_us");
  out.warm.mean_latency_us = doc->number_at("episodes.warm.mean_latency_us");
  out.false_opens = doc->number_at("episodes.false_opens");
  out.false_open_rate = doc->number_at("episodes.false_open_rate");
  out.hit_efficacy_pct = doc->number_at("episodes.hit_efficacy_pct");
  out.convergence_ratio = doc->number_at("episodes.convergence_ratio");
  return true;
}

std::vector<ScorecardInfo> collect_scorecards(const std::string& dir) {
  std::vector<ScorecardInfo> out;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".json") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    ScorecardInfo info;
    if (parse_scorecard(read_file(p), info)) {
      info.path = p;
      out.push_back(std::move(info));
    }
  }
  return out;
}

bool parse_stream(const std::string& text, StreamInfo& out) {
  out.lines = 0;
  out.bad_lines = 0;
  std::optional<JsonValue> last;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    // Per-line tolerance: an interrupted writer leaves at most one torn
    // trailing line in an append-only stream, and a reader must not lose
    // the intact prefix over it.
    std::optional<JsonValue> doc = obs::json_parse(std::string(line));
    if (!doc || doc->string_at("schema") != "prdrb-stream-v1") {
      ++out.bad_lines;
      continue;
    }
    ++out.lines;
    last = std::move(doc);
  }
  if (!last) return false;
  out.t = last->number_at("t");
  out.window_s = last->number_at("window_s");
  out.windows = last->number_at("windows");
  out.links = last->number_at("links");
  out.busy_s = last->number_at("busy_s");
  out.stalls = last->number_at("stalls");
  out.packets = last->number_at("packets");
  out.util_p50 = last->number_at("util.p50");
  out.util_p95 = last->number_at("util.p95");
  out.util_p99 = last->number_at("util.p99");
  out.util_max = last->number_at("util.max");
  const auto read_class = [&](const char* name, StreamInfo::ClassTotals& c) {
    const std::string base = std::string("link_class.") + name + ".";
    c.links = last->number_at(base + "links");
    c.busy_s = last->number_at(base + "busy_s");
    c.stalls = last->number_at(base + "stalls");
    c.packets = last->number_at(base + "packets");
  };
  read_class("local", out.cls_local);
  read_class("global", out.cls_global);
  read_class("terminal", out.cls_terminal);
  out.onsets = last->number_at("onsets_total");
  out.opens_predictive = last->number_at("opens.predictive");
  out.opens_reactive = last->number_at("opens.reactive");
  out.state_bytes = last->number_at("state_bytes");
  out.leads.clear();
  if (const JsonValue* lead = last->find("lead"); lead && lead->is_object()) {
    for (const auto& [cls, v] : lead->members()) {
      StreamInfo::Lead l;
      l.cls = cls;
      l.pos = v.number_at("pos");
      l.neg = v.number_at("neg");
      l.median_s = v.number_at("median_s");
      l.pos_p95_s = v.number_at("pos_p95_s");
      l.predictive = v.number_at("predictive");
      out.leads.push_back(std::move(l));
    }
  }
  return true;
}

std::vector<StreamInfo> collect_streams(const std::string& dir) {
  std::vector<StreamInfo> out;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".json" && ext != ".ndjson") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    StreamInfo info;
    if (parse_stream(read_file(p), info)) {
      info.path = p;
      out.push_back(std::move(info));
    }
  }
  return out;
}

void write_markdown_report(std::ostream& os,
                           const std::vector<ManifestInfo>& manifests,
                           const std::vector<ScorecardInfo>& scorecards,
                           const std::vector<StreamInfo>& streams) {
  os << "# PR-DRB sweep report\n\n";
  os << "Manifests: " << manifests.size() << "\n";
  os << "Scorecards: " << scorecards.size() << "\n";
  os << "Streams: " << streams.size() << "\n\n";
  if (manifests.empty() && scorecards.empty() && streams.empty()) return;

  if (!manifests.empty()) {
  os << "## Runs\n\n";
  os << "| manifest | tool | seed | jobs | wall s | events | events/s |\n";
  os << "|---|---|---:|---:|---:|---:|---:|\n";
  for (const ManifestInfo& m : manifests) {
    os << "| " << std::filesystem::path(m.path).filename().string() << " | "
       << m.tool << " | " << m.seed << " | " << m.jobs << " | "
       << obs::json_number(m.wall_s) << " | "
       << static_cast<std::uint64_t>(m.events) << " | "
       << static_cast<std::uint64_t>(m.events_per_sec) << " |\n";
  }

  os << "\n## Policies\n\n";
  os << "| manifest | policy | runs | global lat (us) | mean lat (us) | "
        "delivery | packets |\n";
  os << "|---|---|---:|---:|---:|---:|---:|\n";
  for (const ManifestInfo& m : manifests) {
    const std::string file =
        std::filesystem::path(m.path).filename().string();
    for (const ManifestInfo::Policy& p : m.policies) {
      os << "| " << file << " | " << p.name << " | " << p.runs << " | "
         << obs::json_number(p.global_latency_us) << " | "
         << obs::json_number(p.mean_latency_us) << " | "
         << obs::json_number(p.delivery_ratio) << " | "
         << static_cast<std::uint64_t>(p.packets) << " |\n";
    }
  }

  // Cross-manifest best/worst latency per policy name: the headline a sweep
  // is usually after.
  struct Agg {
    std::string name;
    double best = 0, worst = 0, sum = 0;
    int n = 0;
  };
  std::vector<Agg> aggs;
  for (const ManifestInfo& m : manifests) {
    for (const ManifestInfo::Policy& p : m.policies) {
      Agg* a = nullptr;
      for (Agg& cand : aggs) {
        if (cand.name == p.name) {
          a = &cand;
          break;
        }
      }
      if (!a) {
        aggs.push_back(Agg{p.name, p.mean_latency_us, p.mean_latency_us, 0, 0});
        a = &aggs.back();
      }
      a->best = std::min(a->best, p.mean_latency_us);
      a->worst = std::max(a->worst, p.mean_latency_us);
      a->sum += p.mean_latency_us;
      ++a->n;
    }
  }
  if (!aggs.empty()) {
    os << "\n## Mean latency by policy (us, across manifests)\n\n";
    os << "| policy | entries | best | mean | worst |\n";
    os << "|---|---:|---:|---:|---:|\n";
    for (const Agg& a : aggs) {
      os << "| " << a.name << " | " << a.n << " | "
         << obs::json_number(a.best) << " | "
         << obs::json_number(a.n ? a.sum / a.n : 0) << " | "
         << obs::json_number(a.worst) << " |\n";
    }
  }
  }  // !manifests.empty()

  if (!scorecards.empty()) {
    os << "\n## Predictive scorecards\n\n";
    os << "| scorecard | deliveries | sdb hits | misses | saves | "
          "empty probes | mp opens | closes | multipath s | flows |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const ScorecardInfo& s : scorecards) {
      os << "| " << std::filesystem::path(s.path).filename().string() << " | "
         << static_cast<std::uint64_t>(s.deliveries) << " | "
         << static_cast<std::uint64_t>(s.sdb_hits) << " | "
         << static_cast<std::uint64_t>(s.sdb_misses) << " | "
         << static_cast<std::uint64_t>(s.sdb_saves) << " | "
         << static_cast<std::uint64_t>(s.sdb_empty_probes) << " | "
         << static_cast<std::uint64_t>(s.opens) << " | "
         << static_cast<std::uint64_t>(s.closes) << " | "
         << obs::json_number(s.multipath_s) << " | "
         << static_cast<std::uint64_t>(s.flows) << " |\n";
    }

    os << "\n## Warm vs cold SDB efficacy\n\n";
    os << "Warm = congestion episodes opened by an SDB hit (saved paths "
          "installed wholesale); cold = gradual DRB opening after a miss. "
          "Positive efficacy means warm episodes delivered lower latency; "
          "convergence < 1 means they calmed faster.\n\n";
    os << "| scorecard | cold eps | cold lat (us) | cold dur (us) | "
          "warm eps | warm lat (us) | warm dur (us) | efficacy % | "
          "convergence | false opens | false-open rate |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const ScorecardInfo& s : scorecards) {
      os << "| " << std::filesystem::path(s.path).filename().string() << " | "
         << static_cast<std::uint64_t>(s.cold.count) << " | "
         << obs::json_number(s.cold.mean_latency_us) << " | "
         << obs::json_number(s.cold.mean_duration_us) << " | "
         << static_cast<std::uint64_t>(s.warm.count) << " | "
         << obs::json_number(s.warm.mean_latency_us) << " | "
         << obs::json_number(s.warm.mean_duration_us) << " | "
         << obs::json_number(s.hit_efficacy_pct) << " | "
         << obs::json_number(s.convergence_ratio) << " | "
         << static_cast<std::uint64_t>(s.false_opens) << " | "
         << obs::json_number(s.false_open_rate) << " |\n";
    }
  }

  if (!streams.empty()) {
    os << "\n## Streaming telemetry\n\n";
    os << "| stream | sim t (s) | windows | links | util p50 | util p95 | "
          "util p99 | onsets | opens (pred/react) | state KiB |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const StreamInfo& s : streams) {
      os << "| " << std::filesystem::path(s.path).filename().string() << " | "
         << obs::json_number(s.t) << " | "
         << static_cast<std::uint64_t>(s.windows) << " | "
         << static_cast<std::uint64_t>(s.links) << " | "
         << obs::json_number(s.util_p50) << " | "
         << obs::json_number(s.util_p95) << " | "
         << obs::json_number(s.util_p99) << " | "
         << static_cast<std::uint64_t>(s.onsets) << " | "
         << static_cast<std::uint64_t>(s.opens_predictive) << "/"
         << static_cast<std::uint64_t>(s.opens_reactive) << " | "
         << obs::json_number(s.state_bytes / 1024.0) << " |\n";
    }

    // Per-link-class traffic split: on a dragonfly the interesting story is
    // how much load the (scarce) global channels carried versus the local
    // in-group links. Only rendered when some stream actually classified its
    // links beyond a single class.
    bool any_split = false;
    for (const StreamInfo& s : streams) {
      if (s.cls_global.links > 0 || s.cls_terminal.links > 0) {
        any_split = true;
        break;
      }
    }
    if (any_split) {
      os << "\n## Link-class traffic split\n\n";
      os << "Local = in-group links, global = inter-group channels (the "
            "dragonfly's scarce resource). Busy seconds and stalls "
            "concentrating on the global class are the adversarial-pattern "
            "signature that UGAL-style deroutes relieve.\n\n";
      os << "| stream | class | links | busy s | stalls | packets |\n";
      os << "|---|---|---:|---:|---:|---:|\n";
      for (const StreamInfo& s : streams) {
        const std::string file =
            std::filesystem::path(s.path).filename().string();
        const struct {
          const char* name;
          const StreamInfo::ClassTotals* c;
        } rows[] = {{"local", &s.cls_local},
                    {"global", &s.cls_global},
                    {"terminal", &s.cls_terminal}};
        for (const auto& row : rows) {
          if (!(row.c->links > 0)) continue;
          os << "| " << file << " | " << row.name << " | "
             << static_cast<std::uint64_t>(row.c->links) << " | "
             << obs::json_number(row.c->busy_s) << " | "
             << static_cast<std::uint64_t>(row.c->stalls) << " | "
             << static_cast<std::uint64_t>(row.c->packets) << " |\n";
        }
      }
    }

    os << "\n## Prediction lead time\n\n";
    os << "Positive lead = the metapath opened BEFORE the matched link's "
          "congestion onset (the predictive layer fired early); negative = "
          "the onset came first and the open trailed it. Medians are signed "
          "over both sides.\n\n";
    os << "| stream | class | pos | neg | median (us) | pos p95 (us) | "
          "predictive matches |\n";
    os << "|---|---|---:|---:|---:|---:|---:|\n";
    for (const StreamInfo& s : streams) {
      const std::string file =
          std::filesystem::path(s.path).filename().string();
      for (const StreamInfo::Lead& l : s.leads) {
        if (l.pos + l.neg == 0) continue;  // class never matched an onset
        os << "| " << file << " | " << l.cls << " | "
           << static_cast<std::uint64_t>(l.pos) << " | "
           << static_cast<std::uint64_t>(l.neg) << " | "
           << obs::json_number(l.median_s * 1e6) << " | "
           << obs::json_number(l.pos_p95_s * 1e6) << " | "
           << static_cast<std::uint64_t>(l.predictive) << " |\n";
      }
    }
  }
}

void write_json_report(std::ostream& os,
                       const std::vector<ManifestInfo>& manifests,
                       const std::vector<ScorecardInfo>& scorecards,
                       const std::vector<StreamInfo>& streams) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "prdrb-sweep-report-v1");
  w.field("manifests", static_cast<std::uint64_t>(manifests.size()));
  w.field("scorecards", static_cast<std::uint64_t>(scorecards.size()));
  w.field("streams", static_cast<std::uint64_t>(streams.size()));
  w.key("runs").begin_array();
  for (const ManifestInfo& m : manifests) {
    w.begin_object();
    w.field("file", std::filesystem::path(m.path).filename().string());
    w.field("tool", m.tool);
    w.field("seed", m.seed);
    w.field("jobs", m.jobs);
    w.field("wall_s", m.wall_s);
    w.field("events", m.events);
    w.field("events_per_sec", m.events_per_sec);
    w.key("policies").begin_array();
    for (const ManifestInfo::Policy& p : m.policies) {
      w.begin_object();
      w.field("policy", p.name);
      w.field("runs", p.runs);
      w.field("global_latency_us", p.global_latency_us);
      w.field("mean_latency_us", p.mean_latency_us);
      w.field("delivery_ratio", p.delivery_ratio);
      w.field("packets", p.packets);
      w.field("events", p.events);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("scorecard_runs").begin_array();
  for (const ScorecardInfo& s : scorecards) {
    w.begin_object();
    w.field("file", std::filesystem::path(s.path).filename().string());
    w.field("deliveries", s.deliveries);
    w.field("sdb_hits", s.sdb_hits);
    w.field("sdb_misses", s.sdb_misses);
    w.field("sdb_saves", s.sdb_saves);
    w.field("sdb_empty_probes", s.sdb_empty_probes);
    w.field("opens", s.opens);
    w.field("closes", s.closes);
    w.field("multipath_s", s.multipath_s);
    w.field("flows", s.flows);
    w.field("cold_episodes", s.cold.count);
    w.field("cold_mean_latency_us", s.cold.mean_latency_us);
    w.field("cold_mean_duration_us", s.cold.mean_duration_us);
    w.field("warm_episodes", s.warm.count);
    w.field("warm_mean_latency_us", s.warm.mean_latency_us);
    w.field("warm_mean_duration_us", s.warm.mean_duration_us);
    w.field("false_opens", s.false_opens);
    w.field("false_open_rate", s.false_open_rate);
    w.field("hit_efficacy_pct", s.hit_efficacy_pct);
    w.field("convergence_ratio", s.convergence_ratio);
    w.end_object();
  }
  w.end_array();
  w.key("stream_runs").begin_array();
  for (const StreamInfo& s : streams) {
    w.begin_object();
    w.field("file", std::filesystem::path(s.path).filename().string());
    w.field("lines", s.lines);
    w.field("bad_lines", s.bad_lines);
    w.field("t", s.t);
    w.field("window_s", s.window_s);
    w.field("windows", s.windows);
    w.field("links", s.links);
    w.field("busy_s", s.busy_s);
    w.field("stalls", s.stalls);
    w.field("packets", s.packets);
    w.field("util_p50", s.util_p50);
    w.field("util_p95", s.util_p95);
    w.field("util_p99", s.util_p99);
    w.field("util_max", s.util_max);
    w.key("link_class").begin_object();
    const struct {
      const char* name;
      const StreamInfo::ClassTotals* c;
    } cls_rows[] = {{"local", &s.cls_local},
                    {"global", &s.cls_global},
                    {"terminal", &s.cls_terminal}};
    for (const auto& row : cls_rows) {
      w.key(row.name).begin_object();
      w.field("links", row.c->links);
      w.field("busy_s", row.c->busy_s);
      w.field("stalls", row.c->stalls);
      w.field("packets", row.c->packets);
      w.end_object();
    }
    w.end_object();
    w.field("onsets", s.onsets);
    w.field("opens_predictive", s.opens_predictive);
    w.field("opens_reactive", s.opens_reactive);
    w.field("state_bytes", s.state_bytes);
    w.key("lead").begin_array();
    for (const StreamInfo::Lead& l : s.leads) {
      w.begin_object();
      w.field("class", l.cls);
      w.field("pos", l.pos);
      w.field("neg", l.neg);
      w.field("median_s", l.median_s);
      w.field("pos_p95_s", l.pos_p95_s);
      w.field("predictive", l.predictive);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << w.str() << '\n';
}

CheckResult check_documents(const JsonValue& older, const JsonValue& newer,
                            const CheckThresholds& t) {
  CheckResult result;
  auto add = [&](Finding::Level level, std::string msg) {
    result.findings.push_back(Finding{level, std::move(msg)});
  };
  const auto perf_level =
      t.perf_warn_only ? Finding::Level::kWarning : Finding::Level::kRegression;

  CheckDoc a, b;
  if (!flatten(older, a)) {
    add(Finding::Level::kRegression,
        "old document has unknown schema \"" + older.string_at("schema") +
            "\"");
    return result;
  }
  if (!flatten(newer, b)) {
    add(Finding::Level::kRegression,
        "new document has unknown schema \"" + newer.string_at("schema") +
            "\"");
    return result;
  }

  // Cross-policy throughput mode: the documents hold DIFFERENT policies on
  // the same workload (adversarial baselines), so same-run invariants like
  // event-count drift do not apply — the only question is whether the new
  // document's policy delivers enough more traffic than the old one's.
  if (t.min_packet_ratio > 0) {
    double pkts_a = 0, pkts_b = 0;
    std::string names_a, names_b;
    for (const CheckDoc::Policy& p : a.policies) {
      pkts_a += p.packets;
      names_a += (names_a.empty() ? "" : "+") + p.name;
    }
    for (const CheckDoc::Policy& p : b.policies) {
      pkts_b += p.packets;
      names_b += (names_b.empty() ? "" : "+") + p.name;
    }
    if (a.policies.empty() || b.policies.empty()) {
      add(Finding::Level::kRegression,
          "--min-packet-ratio needs two manifest documents with policy "
          "sections");
      return result;
    }
    if (!(pkts_a > 0)) {
      add(Finding::Level::kRegression,
          "baseline policy \"" + names_a + "\" delivered no packets; the "
          "ratio gate is meaningless");
      return result;
    }
    const double ratio = pkts_b / pkts_a;
    std::ostringstream msg;
    msg << "packet ratio \"" << names_b << "\" / \"" << names_a << "\" = "
        << obs::json_number(ratio) << " ("
        << static_cast<std::uint64_t>(pkts_b) << " / "
        << static_cast<std::uint64_t>(pkts_a) << " packets)";
    if (ratio < t.min_packet_ratio) {
      add(Finding::Level::kRegression,
          "packet ratio below " + obs::json_number(t.min_packet_ratio) +
              "x gate: " + msg.str());
    } else {
      add(Finding::Level::kInfo,
          msg.str() + " meets " + obs::json_number(t.min_packet_ratio) +
              "x gate");
    }
    return result;
  }

  // Determinism contract: seeded runs execute a bit-exact event count, so
  // any drift is a behaviour change — never downgraded to a warning.
  if (a.events > 0 && b.events > 0) {
    if (a.events != b.events) {
      add(Finding::Level::kRegression,
          "event count drift: " +
              std::to_string(static_cast<std::uint64_t>(a.events)) + " -> " +
              std::to_string(static_cast<std::uint64_t>(b.events)) +
              " (determinism contract: seeded runs are bit-exact)");
    } else {
      add(Finding::Level::kInfo,
          "event count unchanged (" +
              std::to_string(static_cast<std::uint64_t>(a.events)) + ")");
    }
  }

  if (a.has_rate && b.has_rate) {
    const double drop = -rel(a.events_per_sec, b.events_per_sec);
    const std::string msg =
        "events/sec " + std::to_string(static_cast<std::uint64_t>(
                            a.events_per_sec)) +
        " -> " + std::to_string(static_cast<std::uint64_t>(b.events_per_sec)) +
        " (" + pct(-drop) + ")";
    if (drop > t.max_rate_drop) {
      add(perf_level, "throughput drop beyond " + pct(t.max_rate_drop) + ": " +
                          msg);
    } else {
      add(Finding::Level::kInfo, msg);
    }
  }

  // Solution-database index gate (bench-baseline documents): the prefix
  // index must keep its speedup over the linear scan on the single-bucket
  // lookup model — a silent fallback to the linear path would pass every
  // correctness test (the two are byte-identical by contract) and only
  // show up here.
  if (b.sdb_lookup.present && b.sdb_lookup.indexed_ns > 0) {
    const double gate = a.sdb_lookup.present && a.sdb_lookup.min_speedup > 0
                            ? a.sdb_lookup.min_speedup
                            : 0;
    const double speedup = b.sdb_lookup.linear_ns / b.sdb_lookup.indexed_ns;
    std::ostringstream msg;
    msg << "sdb-lookup index speedup " << obs::json_number(speedup)
        << "x (linear " << obs::json_number(b.sdb_lookup.linear_ns)
        << " ns, indexed " << obs::json_number(b.sdb_lookup.indexed_ns)
        << " ns)";
    if (gate <= 0) {
      add(Finding::Level::kInfo, msg.str() + "; no baseline gate");
    } else if (speedup < gate) {
      add(perf_level, "sdb-lookup speedup below " + obs::json_number(gate) +
                          "x gate: " + msg.str());
    } else {
      add(Finding::Level::kInfo,
          msg.str() + " above " + obs::json_number(gate) + "x gate");
    }
  } else if (a.sdb_lookup.present && !b.sdb_lookup.present &&
             b.schema == "prdrb-bench-baseline-v1") {
    add(Finding::Level::kWarning,
        "sdb_lookup section missing from new document");
  }

  // Predictive-layer guard (scorecard documents): a run whose baseline had
  // SDB hits but that now reports zero means the predictive layer silently
  // stopped firing — always a hard regression, like event drift, regardless
  // of perf_warn_only.
  if (a.sdb.present && b.sdb.present) {
    if (a.sdb.hits > 0 && b.sdb.hits == 0) {
      add(Finding::Level::kRegression,
          "SDB hits dropped to zero (baseline had " +
              std::to_string(static_cast<std::uint64_t>(a.sdb.hits)) +
              "): the predictive layer stopped firing");
    } else {
      add(Finding::Level::kInfo,
          "SDB hits " +
              std::to_string(static_cast<std::uint64_t>(a.sdb.hits)) +
              " -> " +
              std::to_string(static_cast<std::uint64_t>(b.sdb.hits)) +
              " (misses " +
              std::to_string(static_cast<std::uint64_t>(a.sdb.misses)) +
              " -> " +
              std::to_string(static_cast<std::uint64_t>(b.sdb.misses)) + ")");
    }
  } else if (a.sdb.present != b.sdb.present) {
    add(Finding::Level::kWarning,
        std::string("only the ") + (a.sdb.present ? "old" : "new") +
            " document is a scorecard; SDB comparison skipped");
  }

  // Prediction lead-time guard (stream summaries): the paper's claim is
  // that PR-DRB opens metapaths BEFORE congestion onsets. A baseline whose
  // data-class median lead was positive going non-positive means the
  // predictive layer now trails congestion — a behaviour regression, never
  // downgraded by perf_warn_only.
  if (a.stream.present && b.stream.present) {
    const bool matched =
        a.stream.lead_pos + a.stream.lead_neg > 0 ||
        b.stream.lead_pos + b.stream.lead_neg > 0;
    std::ostringstream leads;
    leads << "prediction lead median "
          << obs::json_number(a.stream.lead_median_s * 1e6) << " -> "
          << obs::json_number(b.stream.lead_median_s * 1e6) << " us (pos/neg "
          << static_cast<std::uint64_t>(a.stream.lead_pos) << "/"
          << static_cast<std::uint64_t>(a.stream.lead_neg) << " -> "
          << static_cast<std::uint64_t>(b.stream.lead_pos) << "/"
          << static_cast<std::uint64_t>(b.stream.lead_neg) << ")";
    if (a.stream.lead_median_s > 0 && !(b.stream.lead_median_s > 0)) {
      add(Finding::Level::kRegression,
          "positive prediction lead time lost: " + leads.str() +
              " — metapaths now open after congestion onsets");
    } else if (matched) {
      add(Finding::Level::kInfo, leads.str());
    }
    if (a.stream.onsets > 0 || b.stream.onsets > 0) {
      add(Finding::Level::kInfo,
          "congestion onsets " +
              std::to_string(static_cast<std::uint64_t>(a.stream.onsets)) +
              " -> " +
              std::to_string(static_cast<std::uint64_t>(b.stream.onsets)) +
              " (predictive opens " +
              std::to_string(
                  static_cast<std::uint64_t>(a.stream.opens_predictive)) +
              " -> " +
              std::to_string(
                  static_cast<std::uint64_t>(b.stream.opens_predictive)) +
              ")");
    }
  } else if (a.stream.present != b.stream.present) {
    add(Finding::Level::kWarning,
        std::string("only the ") + (a.stream.present ? "old" : "new") +
            " document is a stream summary; lead-time comparison skipped");
  }

  // Per-policy metrics only exist for manifest-shaped documents.
  for (const CheckDoc::Policy& pa : a.policies) {
    const CheckDoc::Policy* pb = nullptr;
    for (const CheckDoc::Policy& cand : b.policies) {
      if (cand.name == pa.name) {
        pb = &cand;
        break;
      }
    }
    if (!pb) {
      add(Finding::Level::kWarning,
          "policy \"" + pa.name + "\" missing from new document");
      continue;
    }
    const double rise = rel(pa.mean_latency_us, pb->mean_latency_us);
    if (rise > t.max_latency_rise) {
      add(perf_level, "policy \"" + pa.name + "\" mean latency rose " +
                          pct(rise) + " (" +
                          obs::json_number(pa.mean_latency_us) + " -> " +
                          obs::json_number(pb->mean_latency_us) + " us)");
    }
    const double ddrop = pa.delivery_ratio - pb->delivery_ratio;
    if (ddrop > t.max_delivery_drop) {
      add(perf_level, "policy \"" + pa.name + "\" delivery ratio dropped " +
                          obs::json_number(pa.delivery_ratio) + " -> " +
                          obs::json_number(pb->delivery_ratio));
    }
  }
  for (const CheckDoc::Policy& pb : b.policies) {
    bool known = false;
    for (const CheckDoc::Policy& pa : a.policies) {
      if (pa.name == pb.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      add(Finding::Level::kInfo, "policy \"" + pb.name + "\" is new");
    }
  }
  return result;
}

void write_findings(std::ostream& os, const CheckResult& result) {
  for (const Finding& f : result.findings) {
    switch (f.level) {
      case Finding::Level::kRegression:
        os << "REGRESSION: ";
        break;
      case Finding::Level::kWarning:
        os << "warning: ";
        break;
      case Finding::Level::kInfo:
        os << "ok: ";
        break;
    }
    os << f.message << '\n';
  }
}

}  // namespace prdrb

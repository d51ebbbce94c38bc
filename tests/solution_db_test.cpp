// Solution-database unit and property tests: deterministic persistence,
// import hardening, the signature-drift regression, LRU eviction accounting,
// the prefix-filter index's byte-identity contract (differential fuzz vs the
// linear scan), and warm-started scenario determinism across repeats and
// sweep parallelism.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pr_drb.hpp"
#include "core/signature.hpp"
#include "core/solution_db.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "util/random.hpp"

namespace prdrb {
namespace {

// `base` selects a disjoint flow family, so signatures from different bases
// never match; `extra` appends that many unrelated flows to dilute Jaccard
// similarity in a controlled way.
FlowSignature make_sig(NodeId base, int nflows, int extra = 0,
                       NodeId extra_base = 5000) {
  std::vector<ContendingFlow> flows;
  for (int i = 0; i < nflows; ++i) {
    flows.push_back({base + i, base + 1000 + i});
  }
  for (int i = 0; i < extra; ++i) {
    flows.push_back({extra_base + i, extra_base + 1000 + i});
  }
  return FlowSignature::from(flows);
}

std::vector<Msp> make_paths(SimTime latency) {
  return {Msp{kInvalidNode, kInvalidNode, latency, 0},
          Msp{1, 2, latency * 1.5, 0}};
}

std::string export_string(const SolutionDatabase& db) {
  std::ostringstream os;
  db.export_text(os);
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- persistence ---------------------------------------------------------

TEST(SolutionDbPersist, ExportCarriesVersionHeaderAndCount) {
  SolutionDatabase db;
  db.save(0, 7, make_sig(0, 4), make_paths(5e-6), 5e-6, 0.8);
  db.save(3, 9, make_sig(100, 4), make_paths(6e-6), 6e-6, 0.8);
  const std::string text = export_string(db);
  EXPECT_EQ(text.substr(0, text.find('\n')), "prdrb-sdb-v1 2");
}

TEST(SolutionDbPersist, ExportImportExportIsByteIdentical) {
  SolutionDatabase db;
  // Enough (src, dst) pairs that the old unordered_map iteration order had
  // no chance of coinciding with the sorted one, plus multiple solutions
  // per pair and awkward doubles that need max_digits10 to round-trip.
  for (NodeId src = 0; src < 12; ++src) {
    for (NodeId dst = 20; dst < 24; ++dst) {
      db.save(src, dst, make_sig(src * 100 + dst, 5),
              make_paths((1.0 / 3.0) * 1e-6 * (src + 1)),
              (1.0 / 3.0) * 1e-6 * (src + 1), 0.8);
      db.save(src, dst, make_sig(src * 100 + dst + 3000, 6),
              make_paths(0.1e-6 * (dst + 1)), 0.1e-6 * (dst + 1), 0.8);
    }
  }
  const std::string first = export_string(db);

  SolutionDatabase copy;
  std::istringstream in(first);
  EXPECT_EQ(copy.import_text(in), db.size());
  EXPECT_EQ(copy.size(), db.size());
  EXPECT_EQ(export_string(copy), first);
}

TEST(SolutionDbPersist, ExportIsStableAcrossUnrelatedTraffic) {
  // Hits and probes against other pairs must not perturb the bytes.
  SolutionDatabase db;
  db.save(0, 7, make_sig(0, 6), make_paths(5e-6), 5e-6, 0.8);
  db.save(1, 7, make_sig(100, 6), make_paths(6e-6), 6e-6, 0.8);
  const std::string before = export_string(db);
  EXPECT_NE(db.lookup(0, 7, make_sig(0, 6), 0.8), nullptr);
  EXPECT_EQ(db.lookup(9, 9, make_sig(200, 6), 0.8), nullptr);
  EXPECT_EQ(export_string(db), before);
}

TEST(SolutionDbPersist, ImportAcceptsLegacyHeaderlessStream) {
  // The pre-v1 format: the same records, no magic/count line.
  std::istringstream in(
      "0 7 5.0000000000000004e-06 2 1 2 3 4 1 -1 -1 5.0000000000000004e-06\n"
      "1 8 4e-06 1 9 9 1 -1 -1 4e-06\n");
  SolutionDatabase db;
  EXPECT_EQ(db.import_text(in), 2u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.patterns_for(0, 7), 1u);
  EXPECT_EQ(db.patterns_for(1, 8), 1u);
}

TEST(SolutionDbPersist, EmptyStreamImportsNothing) {
  std::istringstream in("");
  SolutionDatabase db;
  EXPECT_EQ(db.import_text(in), 0u);
}

// --- import hardening ----------------------------------------------------

// The offending count must appear in the error: "implausible flow count
// 1152921504606846976 (limit 1048576)" tells the operator exactly what is
// corrupt, and the throw happens BEFORE std::vector(n) can touch memory.
TEST(SolutionDbHardening, RejectsImplausibleFlowCount) {
  std::istringstream in("0 7 5e-06 1152921504606846976 1 2 1 -1 -1 5e-06");
  SolutionDatabase db;
  try {
    db.import_text(in);
    FAIL() << "implausible flow count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("1152921504606846976"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("flow count"), std::string::npos);
  }
  EXPECT_EQ(db.size(), 0u);
}

TEST(SolutionDbHardening, RejectsNegativeFlowCount) {
  std::istringstream in("0 7 5e-06 -3 1 -1 -1 5e-06");
  SolutionDatabase db;
  try {
    db.import_text(in);
    FAIL() << "negative flow count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos)
        << e.what();
  }
}

TEST(SolutionDbHardening, RejectsImplausiblePathCount) {
  std::istringstream in("0 7 5e-06 1 1 2 8589934592 -1 -1 5e-06");
  SolutionDatabase db;
  try {
    db.import_text(in);
    FAIL() << "implausible path count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("8589934592"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("path count"), std::string::npos);
  }
}

TEST(SolutionDbHardening, RejectsImplausibleRecordCount) {
  std::istringstream in("prdrb-sdb-v1 999999999999999");
  SolutionDatabase db;
  try {
    db.import_text(in);
    FAIL() << "implausible record count was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record count"), std::string::npos)
        << e.what();
  }
}

TEST(SolutionDbHardening, RejectsTruncatedV1Stream) {
  std::istringstream in(
      "prdrb-sdb-v1 2\n"
      "0 7 5e-06 1 1 2 1 -1 -1 5e-06\n");
  SolutionDatabase db;
  try {
    db.import_text(in);
    FAIL() << "truncated v1 stream was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("1 of 2"), std::string::npos)
        << e.what();
  }
}

TEST(SolutionDbHardening, RejectsTrailingDataAfterDeclaredRecords) {
  std::istringstream in(
      "prdrb-sdb-v1 1\n"
      "0 7 5e-06 1 1 2 1 -1 -1 5e-06\n"
      "0 8 5e-06 1 1 2 1 -1 -1 5e-06\n");
  SolutionDatabase db;
  EXPECT_THROW(db.import_text(in), std::runtime_error);
}

// --- signature drift (bugfix regression) ---------------------------------

// save() used to overwrite the stored signature with each >=80%-similar
// update, so the key drifted away from the situation it was learned under:
// after absorbing update U, a probe P that still matched the ORIGINAL
// situation missed. The fix keeps the original signature; only paths and
// best_latency move.
TEST(SolutionDbDrift, UpdateKeepsOriginalSignature) {
  SolutionDatabase db;
  const FlowSignature original = make_sig(0, 10);
  db.save(0, 7, original, make_paths(10e-6), 10e-6, 0.8);

  // Update: the same 10 flows plus 2 strangers, J = 10/12 = 0.833 >= 0.8,
  // and a better latency — absorbed as an update of the stored solution.
  db.save(0, 7, make_sig(0, 10, /*extra=*/2), make_paths(8e-6), 8e-6, 0.8);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.updates(), 1u);

  // Probe: the same 10 flows plus 1 different stranger. Against the
  // original key J = 10/11 = 0.909 -> hit; against the drifted key the old
  // code computed J = 10/13 = 0.769 -> miss.
  const FlowSignature probe = make_sig(0, 10, /*extra=*/1,
                                       /*extra_base=*/7000);
  SavedSolution* hit = db.lookup(0, 7, probe, 0.8);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->signature, original);        // key did not drift
  EXPECT_DOUBLE_EQ(hit->best_latency, 8e-6);  // but the update landed
  EXPECT_EQ(hit->updates, 1u);
}

TEST(SolutionDbDrift, WorseLatencyDoesNotUpdate) {
  SolutionDatabase db;
  db.save(0, 7, make_sig(0, 10), make_paths(10e-6), 10e-6, 0.8);
  db.save(0, 7, make_sig(0, 10, 2), make_paths(20e-6), 20e-6, 0.8);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.updates(), 0u);
  SavedSolution* hit = db.lookup(0, 7, make_sig(0, 10), 0.8);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->best_latency, 10e-6);
}

// --- bounded memory / LRU ------------------------------------------------

TEST(SolutionDbEviction, LruOrderAndAccounting) {
  SolutionDatabase db;
  db.set_capacity(3);
  // Four mutually dissimilar situations on the same (src, dst) pair.
  db.save(0, 7, make_sig(0, 6), make_paths(1e-6), 1e-6, 0.8);     // s1
  db.save(0, 7, make_sig(100, 6), make_paths(2e-6), 2e-6, 0.8);   // s2
  db.save(0, 7, make_sig(200, 6), make_paths(3e-6), 3e-6, 0.8);   // s3
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.evictions(), 0u);

  // Touch s1: LRU order becomes s2, s3, s1.
  ASSERT_NE(db.lookup(0, 7, make_sig(0, 6), 0.8), nullptr);

  // s4 overflows the capacity; the victim is s2, not the oldest-by-
  // insertion s1 (use recency, not age).
  db.save(0, 7, make_sig(300, 6), make_paths(4e-6), 4e-6, 0.8);   // s4
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.evictions(), 1u);

  // Shrinking evicts immediately: s3 is now least recently used.
  db.set_capacity(2);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.evictions(), 2u);

  EXPECT_EQ(db.lookup(0, 7, make_sig(100, 6), 0.8), nullptr);  // s2 gone
  EXPECT_EQ(db.lookup(0, 7, make_sig(200, 6), 0.8), nullptr);  // s3 gone
  EXPECT_NE(db.lookup(0, 7, make_sig(0, 6), 0.8), nullptr);    // s1 kept
  EXPECT_NE(db.lookup(0, 7, make_sig(300, 6), 0.8), nullptr);  // s4 kept
}

TEST(SolutionDbEviction, CapacityZeroIsUnbounded) {
  SolutionDatabase db;
  for (int i = 0; i < 64; ++i) {
    db.save(0, 7, make_sig(i * 100, 6), make_paths(1e-6), 1e-6, 0.8);
  }
  EXPECT_EQ(db.size(), 64u);
  EXPECT_EQ(db.evictions(), 0u);
}

TEST(SolutionDbEviction, EngineConfigPlumbsCapacity) {
  PredictiveEngine engine(PrDrbConfig{.sdb_capacity = 2});
  EXPECT_EQ(engine.db().capacity(), 2u);
}

// --- indexed vs linear: differential fuzz --------------------------------

// The contract under test: with the prefix-filter index answering queries
// on one database and the plain linear scan on the other, an identical
// operation stream produces identical hit/miss decisions, identical chosen
// solutions, identical counters and byte-identical exports. The stream
// pushes buckets far past kIndexBuildThreshold so the indexed path really
// engages, and overlapping signatures from a small flow pool exercise the
// >=0.8 boundary both ways.
void run_differential_fuzz(std::uint64_t seed, std::size_t capacity,
                           std::uint64_t src_range = 3) {
  SolutionDatabase indexed;
  SolutionDatabase linear;
  linear.set_index_enabled(false);  // query path only; maintenance continues
  if (capacity > 0) {
    indexed.set_capacity(capacity);
    linear.set_capacity(capacity);
  }

  Rng rng(seed);
  for (int op = 0; op < 4000; ++op) {
    const auto src = static_cast<NodeId>(rng.next_below(src_range));
    const NodeId dst = 7;
    std::vector<ContendingFlow> flows;
    const int nflows = 3 + static_cast<int>(rng.next_below(10));
    for (int i = 0; i < nflows; ++i) {
      const auto f = static_cast<NodeId>(rng.next_below(40));
      flows.push_back({f, f + 1000});
    }
    const FlowSignature sig = FlowSignature::from(flows);
    // Occasionally probe at a stricter threshold than the index was built
    // for (still >= 0.8, still covered by the recall guarantee).
    const double ms = rng.next_below(8) == 0 ? 0.9 : 0.8;
    if (rng.next_below(2) == 0) {
      const SimTime lat = 1e-6 * (1 + static_cast<double>(rng.next_below(64)));
      auto paths = make_paths(lat);
      indexed.save(src, dst, sig, paths, lat, ms);
      linear.save(src, dst, sig, std::move(paths), lat, ms);
    } else {
      SavedSolution* a = indexed.lookup(src, dst, sig, ms);
      SavedSolution* b = linear.lookup(src, dst, sig, ms);
      ASSERT_EQ(a != nullptr, b != nullptr) << "op " << op;
      if (a) {
        EXPECT_EQ(a->signature, b->signature) << "op " << op;
        EXPECT_DOUBLE_EQ(a->best_latency, b->best_latency) << "op " << op;
      }
    }
  }

  // The fuzz is only meaningful if at least one bucket actually crossed
  // the lazy index-build threshold.
  std::size_t biggest = 0;
  for (NodeId src = 0; src < static_cast<NodeId>(src_range); ++src) {
    biggest = std::max(biggest, indexed.patterns_for(src, 7));
  }
  EXPECT_GE(biggest, SolutionDatabase::kIndexBuildThreshold);

  EXPECT_EQ(indexed.size(), linear.size());
  EXPECT_EQ(indexed.lookups(), linear.lookups());
  EXPECT_EQ(indexed.hits(), linear.hits());
  EXPECT_EQ(indexed.saves(), linear.saves());
  EXPECT_EQ(indexed.updates(), linear.updates());
  EXPECT_EQ(indexed.evictions(), linear.evictions());
  EXPECT_EQ(export_string(indexed), export_string(linear));
}

TEST(SolutionDbIndex, DifferentialFuzzUnbounded) {
  for (std::uint64_t seed : {11u, 29u, 101u}) {
    run_differential_fuzz(seed, /*capacity=*/0);
  }
}

TEST(SolutionDbIndex, DifferentialFuzzWithEviction) {
  // A bounded database must evict in lockstep too: LRU order depends only
  // on the operation stream, not on which lookup path served it. A single
  // bucket keeps its population above kIndexBuildThreshold, so evictions
  // hit an INDEXED bucket (postings removal + slot recycling under fire).
  for (std::uint64_t seed : {7u, 43u}) {
    run_differential_fuzz(seed, /*capacity=*/24, /*src_range=*/1);
  }
}

TEST(SolutionDbIndex, StricterThresholdStaysExact) {
  // min_similarity above the index threshold keeps the recall guarantee;
  // below it the implementation must fall back to the linear scan. Either
  // way the answer matches a never-indexed database.
  SolutionDatabase indexed;
  SolutionDatabase linear;
  linear.set_index_enabled(false);
  for (int i = 0; i < 40; ++i) {
    const FlowSignature sig = make_sig(i * 3, 8);  // overlapping families
    indexed.save(0, 7, sig, make_paths(1e-6), 1e-6, 0.8);
    linear.save(0, 7, sig, make_paths(1e-6), 1e-6, 0.8);
  }
  for (double ms : {0.5, 0.8, 0.95, 1.0}) {
    for (int i = 0; i < 40; ++i) {
      const FlowSignature probe = make_sig(i * 3, 8, /*extra=*/1);
      SavedSolution* a = indexed.lookup(0, 7, probe, ms);
      SavedSolution* b = linear.lookup(0, 7, probe, ms);
      ASSERT_EQ(a != nullptr, b != nullptr) << "ms " << ms << " i " << i;
      if (a) EXPECT_EQ(a->signature, b->signature);
    }
  }
}

// --- warm-started scenarios ----------------------------------------------

// End-to-end determinism of the --sdb-in/--sdb-out plumbing: a cold run
// exports a non-empty database, and warm runs seeded from it produce
// bit-identical ScenarioResults and byte-identical exports across repeats
// and sweep parallelism (the house invariant extended to the new
// persistence path).
class SolutionDbWarmStart : public ::testing::Test {
 protected:
  static ScenarioSpec base_spec() {
    ScenarioSpec sc;
    sc.topology = "mesh-8x8";
    sc.seed = 11;
    auto& w = sc.synthetic();
    w.pattern = "hotspot-cross";
    w.rate_bps = 1000e6;
    w.duration = 6e-3;
    w.bursts = 2;
    w.burst_len = 2e-3;
    w.gap_len = 1e-3;
    return sc;
  }

  static std::string tmp(const char* name) {
    return ::testing::TempDir() + name;
  }
};

TEST_F(SolutionDbWarmStart, ColdRunExportsWarmRunsAgree) {
  ScenarioSpec cold = base_spec();
  cold.sdb_out = tmp("sdb_cold.txt");
  const ScenarioResult cold_result = run_scenario("pr-drb", cold);
  ASSERT_GT(cold_result.patterns_saved, 0u);
  const std::string exported = slurp(cold.sdb_out);
  EXPECT_EQ(exported.substr(0, 12), "prdrb-sdb-v1");

  ScenarioSpec warm = base_spec();
  warm.sdb_in = cold.sdb_out;

  ScenarioSpec warm_a = warm;
  warm_a.sdb_out = tmp("sdb_warm_a.txt");
  const ScenarioResult r_a = run_scenario("pr-drb", warm_a);

  ScenarioSpec warm_b = warm;
  warm_b.sdb_out = tmp("sdb_warm_b.txt");
  const ScenarioResult r_b = run_scenario("pr-drb", warm_b);

  EXPECT_EQ(r_a, r_b);  // bit-wise ScenarioResult equality
  EXPECT_EQ(slurp(warm_a.sdb_out), slurp(warm_b.sdb_out));
  // The warm database starts non-empty, so the run ends with at least the
  // imported patterns.
  EXPECT_GE(r_a.patterns_saved, cold_result.patterns_saved);
}

TEST_F(SolutionDbWarmStart, ReplicatedSweepIsJobCountInvariant) {
  ScenarioSpec cold = base_spec();
  cold.sdb_out = tmp("sdb_sweep_cold.txt");
  ASSERT_GT(run_scenario("pr-drb", cold).patterns_saved, 0u);

  auto run_with_jobs = [&](int jobs, const char* out_name) {
    ScenarioSpec warm = base_spec();
    warm.sdb_in = cold.sdb_out;
    warm.sdb_out = tmp(out_name);  // only the base-seed replica writes it
    set_default_jobs(jobs);
    auto results = run_synthetic_replicated("pr-drb", warm, 4);
    set_default_jobs(0);  // restore env/hardware default
    return std::make_pair(std::move(results), slurp(tmp(out_name)));
  };

  const auto [serial, serial_bytes] = run_with_jobs(1, "sdb_sweep_j1.txt");
  const auto [wide, wide_bytes] = run_with_jobs(8, "sdb_sweep_j8.txt");
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], wide[i]) << "replica " << i;
  }
  EXPECT_EQ(serial_bytes, wide_bytes);
  EXPECT_EQ(serial_bytes.substr(0, 12), "prdrb-sdb-v1");
}

}  // namespace
}  // namespace prdrb

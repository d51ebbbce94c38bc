// Tests for the N-dimensional mesh/torus and for phase extraction.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "experiment/scenario.hpp"
#include "net/mesh_nd.hpp"
#include "routing/oblivious.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/generators.hpp"
#include "trace/player.hpp"

namespace prdrb {
namespace {

using test::Harness;

TEST(MeshND, CoordinateRoundTrip) {
  MeshND m({4, 3, 2});
  EXPECT_EQ(m.num_nodes(), 24);
  for (RouterId r = 0; r < m.num_routers(); ++r) {
    const int coords[3] = {m.coord(r, 0), m.coord(r, 1), m.coord(r, 2)};
    EXPECT_EQ(m.at(coords), r);
  }
  EXPECT_EQ(m.name(), "mesh-4x3x2");
}

struct NdCase {
  std::vector<int> dims;
  bool wrap;
};

// Printed as e.g. "torus 3x3x3" rather than raw bytes (the vector's heap
// pointer), so each case keeps one test ID from build to build.
void PrintTo(const NdCase& c, std::ostream* os) {
  *os << (c.wrap ? "torus " : "mesh ");
  for (std::size_t i = 0; i < c.dims.size(); ++i) {
    *os << (i ? "x" : "") << c.dims[i];
  }
}

class MeshNdProperty : public ::testing::TestWithParam<NdCase> {};

TEST_P(MeshNdProperty, NeighborSymmetry) {
  const auto& c = GetParam();
  MeshND m(c.dims, c.wrap);
  for (RouterId r = 0; r < m.num_routers(); ++r) {
    for (int p = 0; p < m.radix(r); ++p) {
      const PortTarget t = m.neighbor(r, p);
      if (!t.valid()) continue;
      const PortTarget back = m.neighbor(t.router, t.port);
      ASSERT_TRUE(back.valid());
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.port, p);
    }
  }
}

TEST_P(MeshNdProperty, MinimalRoutingReachesEverything) {
  const auto& c = GetParam();
  MeshND m(c.dims, c.wrap);
  std::vector<int> ports;
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    for (NodeId d = 0; d < m.num_nodes(); ++d) {
      RouterId at = m.node_router(s);
      int hops = 0;
      while (at != m.node_router(d)) {
        ports.clear();
        m.minimal_ports(at, d, ports);
        ASSERT_FALSE(ports.empty());
        const PortTarget t =
            m.neighbor(at, ports[static_cast<std::size_t>(hops) % ports.size()]);
        ASSERT_TRUE(t.valid());
        at = t.router;
        ASSERT_LE(++hops, m.distance(s, d));
      }
      EXPECT_EQ(hops, m.distance(s, d));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshNdProperty,
    ::testing::Values(NdCase{{4, 4, 4}, false}, NdCase{{3, 3, 3}, true},
                      NdCase{{2, 2, 2, 2}, false},  // 4D hypercube
                      NdCase{{5, 2}, false}, NdCase{{4, 3, 2}, true}));

TEST(MeshND, HypercubeDistanceIsHamming) {
  MeshND cube({2, 2, 2, 2});
  EXPECT_EQ(cube.distance(0b0000, 0b1111), 4);
  EXPECT_EQ(cube.distance(0b0101, 0b0110), 2);
}

TEST(MeshND, TorusWrapShortensDistance) {
  MeshND t({8, 8, 8}, true);
  // (0,0,0) -> (7,7,7): one wrap step per dimension.
  EXPECT_EQ(t.distance(0, t.num_nodes() - 1), 3);
  MeshND m({8, 8, 8}, false);
  EXPECT_EQ(m.distance(0, m.num_nodes() - 1), 21);
}

TEST(MeshND, PacketsFlowOn3dMesh) {
  Simulator sim;
  MeshND topo({4, 4, 4});
  NetConfig cfg;
  DeterministicPolicy policy;
  Network net(sim, topo, cfg, policy);
  MetricsCollector metrics(topo.num_nodes(), topo.num_routers());
  net.set_observer(&metrics);
  for (NodeId s = 0; s < 64; s += 3) net.send_message(s, 63 - s, 2048);
  sim.run();
  EXPECT_DOUBLE_EQ(metrics.delivery_ratio(), 1.0);
}

TEST(MeshND, DrbOpensPathsOn3dMesh) {
  Simulator sim;
  MeshND topo({4, 4, 4});
  NetConfig cfg;
  DrbPolicy policy;
  Network net(sim, topo, cfg, policy);
  // Synthetic High-zone ACKs drive metapath expansion; candidates must
  // exist in 3D too.
  policy.choose_path(0, 63, 0);
  for (int i = 0; i < 4; ++i) {
    Packet ack;
    ack.type = PacketType::kAck;
    ack.source = 63;
    ack.destination = 0;
    ack.msp_index = policy.open_paths(0, 63) - 1;
    ack.reported_e2e = 60e-6;
    policy.on_ack(0, ack, 0);
  }
  EXPECT_EQ(policy.open_paths(0, 63), 4);
}

TEST(MeshND, FactoryParsesMultiDimNames) {
  EXPECT_EQ(make_topology("mesh-4x4x4").value()->num_nodes(), 64);
  EXPECT_EQ(make_topology("torus-3x3x3").value()->name(), "torus-3x3x3");
  EXPECT_EQ(make_topology("cube-6").value()->num_nodes(), 64);
  const auto bad = make_topology("mesh-4");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, "topology");
  EXPECT_THROW(make_topology("mesh-4").value_or_throw(),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Phase extraction (§4.7.2)

TEST(PhaseExtraction, ExtractedPhaseIsReplayable) {
  const TraceProgram prog = make_pop(16, TraceScale{4, 1.0, 1.0});
  // Phase 1 is POP's barotropic solver phase.
  const TraceProgram solver = extract_phase(prog, 1);
  EXPECT_GT(solver.total_events(), 0u);
  EXPECT_LT(solver.total_events(), prog.total_events());
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  TracePlayer player(h.sim, *h.net, solver);
  player.start();
  h.sim.run();
  EXPECT_TRUE(player.finished()) << "extracted phase wedged";
}

TEST(PhaseExtraction, OccurrenceCapLimitsRepetitions) {
  const TraceProgram prog = make_pop(16, TraceScale{4, 1.0, 1.0});
  const TraceProgram one = extract_phase(prog, 1, 1);
  const TraceProgram all = extract_phase(prog, 1);
  EXPECT_LT(one.total_events(), all.total_events());
  // A single occurrence still replays.
  auto h = Harness::make<Mesh2D>(NetConfig{}, new DeterministicPolicy, 4, 4);
  TracePlayer player(h.sim, *h.net, one);
  player.start();
  h.sim.run();
  EXPECT_TRUE(player.finished());
}

TEST(PhaseExtraction, UnknownPhaseYieldsEmptyTrace) {
  const TraceProgram prog = make_pop(16, TraceScale{2, 1.0, 1.0});
  const TraceProgram none = extract_phase(prog, 999);
  EXPECT_EQ(none.total_events(), 0u);
}

TEST(PhaseExtraction, MarkersAreNotReplayed) {
  const TraceProgram prog = make_sweep3d(16, TraceScale{2, 1.0, 1.0});
  const TraceProgram oct0 = extract_phase(prog, 0);
  for (int r = 0; r < oct0.ranks(); ++r) {
    for (const TraceEvent& e : oct0.events(r)) {
      EXPECT_NE(e.op, TraceOp::kPhase);
    }
  }
}

}  // namespace
}  // namespace prdrb

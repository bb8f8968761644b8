//===- network_test.cpp - NetworkModel topologies and conservation --------===//
//
// Part of the earthcc project.
//
// The pluggable interconnect layer (earth/NetworkModel.h): parsing and
// diagnostics, the distribution mapping, the ideal model's equivalence to
// the historical constant-latency arithmetic, and — for every routed
// topology — traffic conservation: the words each link carried must equal
// the pair matrix of injected transfers pushed through route(), and the
// profiler's network view must agree with its per-site totals. The routed
// models' route table and link queues are checked against independent
// oracles (a fresh model's pure route walk; a deque FIFO), and the link
// statistics of real workloads are pinned by a golden file, because both
// engines share NetworkModel and the engine-equivalence sweep cannot see a
// change in it.
//
// Regenerate the golden after an intentional network-model change with:
//   EARTHCC_REGEN_GOLDEN=1 ./build/tests/network_test
//
//===----------------------------------------------------------------------===//

#include "earth/NetworkModel.h"
#include "support/CommProfiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <fstream>
#include <numeric>
#include <sstream>

using namespace earthcc;

#ifndef EARTHCC_GOLDEN_DIR
#error "EARTHCC_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

CostModel testCosts() { return CostModel(); }

const Topology RoutedTopologies[] = {Topology::Bus, Topology::Mesh2D,
                                     Topology::Torus2D, Topology::FatTree};

} // namespace

TEST(NetworkParseTest, NamesRoundTrip) {
  for (Topology T : {Topology::Ideal, Topology::Bus, Topology::Mesh2D,
                     Topology::Torus2D, Topology::FatTree}) {
    Topology Out = Topology::Ideal;
    EXPECT_TRUE(parseTopology(topologyName(T), Out)) << topologyName(T);
    EXPECT_EQ(Out, T);
    // Every name is listed in the choices string the diagnostics print.
    EXPECT_NE(std::string(topologyChoices()).find(topologyName(T)),
              std::string::npos);
  }
  for (Distribution D : {Distribution::Cyclic, Distribution::Block}) {
    Distribution Out = Distribution::Cyclic;
    EXPECT_TRUE(parseDistribution(distributionName(D), Out));
    EXPECT_EQ(Out, D);
    EXPECT_NE(std::string(distributionChoices()).find(distributionName(D)),
              std::string::npos);
  }
  Topology T = Topology::Ideal;
  EXPECT_FALSE(parseTopology("hypercube", T));
  EXPECT_FALSE(parseTopology("", T));
  Distribution D = Distribution::Cyclic;
  EXPECT_FALSE(parseDistribution("random", D));
}

TEST(PlaceIndexTest, CyclicAndBlock) {
  // Cyclic is the historical `index % nodes` mapping.
  for (uint64_t I = 0; I != 20; ++I)
    EXPECT_EQ(placeIndex(I, 4, Distribution::Cyclic, 8), I % 4);
  // Block maps runs of BlockSize consecutive indices to one node.
  EXPECT_EQ(placeIndex(0, 4, Distribution::Block, 8), 0u);
  EXPECT_EQ(placeIndex(7, 4, Distribution::Block, 8), 0u);
  EXPECT_EQ(placeIndex(8, 4, Distribution::Block, 8), 1u);
  EXPECT_EQ(placeIndex(31, 4, Distribution::Block, 8), 3u);
  EXPECT_EQ(placeIndex(32, 4, Distribution::Block, 8), 0u); // wraps
  // A zero block size must not divide by zero (clamped to 1).
  EXPECT_EQ(placeIndex(5, 4, Distribution::Block, 0), 1u);
}

TEST(IdealNetworkTest, MatchesHistoricalArithmetic) {
  CostModel C = testCosts();
  auto Net = createNetworkModel(Topology::Ideal, 4, C, 450.0, 160.0);
  EXPECT_EQ(Net->topology(), Topology::Ideal);
  EXPECT_EQ(Net->numNodes(), 4u);
  // Constant latency, load- and size-independent.
  EXPECT_DOUBLE_EQ(Net->transferDone(0, 1, 0, 1000.0), 1000.0 + C.NetDelay);
  EXPECT_DOUBLE_EQ(Net->transferDone(3, 2, 999, 1000.0), 1000.0 + C.NetDelay);
  // No links, no pair matrix: the profiler's json stays in the v1 shape.
  EXPECT_TRUE(Net->linkStats().empty());
  EXPECT_EQ(Net->transferWords(), nullptr);
  EXPECT_TRUE(Net->route(0, 1).empty());
  // transaction() reproduces the engines' historical inline formula.
  NetTransaction Tx = Net->transaction(2000.0, 0, 1, C.SUReadService, 0.0,
                                       /*FwdWords=*/0, /*BackWords=*/1);
  double Arrival = 2000.0 + C.NetDelay;
  EXPECT_DOUBLE_EQ(Tx.SuStart, Arrival); // idle SU starts at arrival
  EXPECT_DOUBLE_EQ(Tx.SuEnd, Arrival + C.SUReadService);
  EXPECT_DOUBLE_EQ(Tx.DoneAt, Tx.SuEnd + C.NetDelay);
  // The SU FIFO serializes: a second transaction arriving earlier than the
  // first one's service end queues behind it.
  NetTransaction Tx2 = Net->transaction(2000.0, 2, 1, C.SUReadService, 0.0,
                                        0, 1);
  EXPECT_DOUBLE_EQ(Tx2.SuStart, Tx.SuEnd);
}

TEST(RoutedNetworkTest, BusSerializesTransfers) {
  CostModel C = testCosts();
  auto Net = createNetworkModel(Topology::Bus, 4, C, 450.0, 100.0);
  // First transfer: departs immediately, holds the bus NetDelay + 2 words.
  double D1 = Net->transferDone(0, 1, 2, 1000.0);
  EXPECT_DOUBLE_EQ(D1, 1000.0 + C.NetDelay + 200.0);
  // Second transfer issued during the first one's occupancy queues.
  double D2 = Net->transferDone(2, 3, 2, 1000.0);
  EXPECT_DOUBLE_EQ(D2, D1 + C.NetDelay + 200.0);
  // Local delivery never touches the bus.
  EXPECT_DOUBLE_EQ(Net->transferDone(1, 1, 50, 5000.0), 5000.0);
  std::vector<NetLinkStats> Links = Net->linkStats();
  ASSERT_EQ(Links.size(), 1u);
  EXPECT_EQ(Links[0].Name, "bus");
  EXPECT_EQ(Links[0].Msgs, 2u);
  EXPECT_EQ(Links[0].Words, 4u);
  EXPECT_EQ(Links[0].MaxQueueDepth, 2u);
}

TEST(RoutedNetworkTest, GridRoutesAreMinimal) {
  CostModel C = testCosts();
  // 2x2 mesh: opposite corners are 2 hops apart.
  auto Mesh = createNetworkModel(Topology::Mesh2D, 4, C, 450.0, 160.0);
  EXPECT_EQ(Mesh->route(0, 3).size(), 2u);
  EXPECT_EQ(Mesh->route(0, 1).size(), 1u);
  EXPECT_TRUE(Mesh->route(2, 2).empty());
  // 4x4 mesh: 0 -> 15 is a 6-hop manhattan walk; the torus wraps it in 2.
  auto Mesh16 = createNetworkModel(Topology::Mesh2D, 16, C, 450.0, 160.0);
  EXPECT_EQ(Mesh16->route(0, 15).size(), 6u);
  auto Torus16 = createNetworkModel(Topology::Torus2D, 16, C, 450.0, 160.0);
  EXPECT_EQ(Torus16->route(0, 15).size(), 2u);
  EXPECT_EQ(Torus16->route(0, 3).size(), 1u); // wraparound beats 3 forward
}

TEST(RoutedNetworkTest, FatTreeRoutesClimbToLca) {
  CostModel C = testCosts();
  auto Net = createNetworkModel(Topology::FatTree, 16, C, 450.0, 160.0);
  // Siblings under one level-1 switch: one up, one down.
  EXPECT_EQ(Net->route(0, 3).size(), 2u);
  // Different level-1 switches: climb to the root and back.
  EXPECT_EQ(Net->route(0, 15).size(), 4u);
}

// The core conservation property: for every routed topology and machine
// size (including non-square and non-power-of-4 node counts), the per-link
// word totals must equal the injected pair matrix pushed through route().
TEST(RoutedNetworkTest, TrafficConservation) {
  CostModel C = testCosts();
  for (Topology Topo : RoutedTopologies) {
    for (unsigned N : {2u, 4u, 7u, 12u, 16u, 17u, 64u}) {
      auto Net = createNetworkModel(Topo, N, C, 450.0, 160.0);
      // Routes come from a fresh identical model, so the check stays
      // independent of the route table the loaded model fills.
      auto Fresh = createNetworkModel(Topo, N, C, 450.0, 160.0);
      std::vector<uint64_t> ExpectWords(size_t(N) * N, 0);
      std::vector<uint64_t> ExpectMsgs(size_t(N) * N, 0);
      // Deterministic pseudo-random transfer pattern (LCG).
      uint64_t Seed = 12345;
      double T = 0.0;
      for (int I = 0; I != 500; ++I) {
        Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
        unsigned From = (Seed >> 33) % N;
        unsigned To = (Seed >> 13) % N;
        uint64_t Words = (Seed >> 50) % 9;
        T += 100.0;
        double Done = Net->transferDone(From, To, Words, T);
        EXPECT_GE(Done, T);
        if (From != To) {
          ExpectWords[size_t(From) * N + To] += Words;
          ExpectMsgs[size_t(From) * N + To] += 1;
        }
      }
      std::string What = std::string(topologyName(Topo)) + "/" +
                         std::to_string(N) + "n";
      // Injected pair matrix == what the model recorded.
      const std::vector<uint64_t> *PW = Net->transferWords();
      ASSERT_NE(PW, nullptr) << What;
      EXPECT_EQ(*PW, ExpectWords) << What;
      // Push the pair matrix through route() and compare per link: every
      // word injected for (From, To) crosses exactly the links of its
      // route, and nothing else.
      std::vector<NetLinkStats> Links = Net->linkStats();
      std::vector<uint64_t> LinkWords(Links.size(), 0);
      std::vector<uint64_t> LinkMsgs(Links.size(), 0);
      for (unsigned From = 0; From != N; ++From)
        for (unsigned To = 0; To != N; ++To)
          for (unsigned L : Fresh->route(From, To)) {
            ASSERT_LT(L, Links.size()) << What;
            LinkWords[L] += ExpectWords[size_t(From) * N + To];
            LinkMsgs[L] += ExpectMsgs[size_t(From) * N + To];
          }
      for (size_t L = 0; L != Links.size(); ++L) {
        EXPECT_EQ(Links[L].Words, LinkWords[L])
            << What << " link " << Links[L].Name;
        EXPECT_EQ(Links[L].Msgs, LinkMsgs[L])
            << What << " link " << Links[L].Name;
      }
    }
  }
}

// The route table transferDone() follows must agree with the pure route()
// walk for every ordered pair, on every routed topology, including machine
// sizes that leave a partial grid row or an unfilled fat-tree switch. One
// transfer per pair on an idle network moves exactly one message over each
// link of its route; the expected links come from a fresh model. Two passes
// in different orders: the first fills the table, the second reads entries
// filled while other pairs were being added.
TEST(RoutedNetworkTest, RouteTableMatchesPureRoute) {
  CostModel C = testCosts();
  for (Topology Topo : RoutedTopologies) {
    for (unsigned N : {1u, 2u, 3u, 5u, 7u, 12u, 16u, 17u, 64u}) {
      std::string What = std::string(topologyName(Topo)) + "/" +
                         std::to_string(N) + "n";
      auto Net = createNetworkModel(Topo, N, C, 450.0, 160.0);
      auto Fresh = createNetworkModel(Topo, N, C, 450.0, 160.0);
      std::vector<uint64_t> Before(Net->linkStats().size(), 0);
      double T = 0.0;
      for (int Pass = 0; Pass != 2; ++Pass) {
        for (unsigned K = 0; K != N * N; ++K) {
          // Pass 0 walks pairs in row order, pass 1 in reverse.
          unsigned Idx = Pass == 0 ? K : N * N - 1 - K;
          unsigned From = Idx / N, To = Idx % N;
          std::vector<unsigned> Expect = Fresh->route(From, To);
          T += 1e9; // far apart: every link is idle again
          double Done = Net->transferDone(From, To, 3, T);
          EXPECT_EQ(Done == T, Expect.empty())
              << What << " " << From << "->" << To;
          std::vector<NetLinkStats> After = Net->linkStats();
          std::vector<uint64_t> Delta(After.size(), 0);
          for (size_t L = 0; L != After.size(); ++L)
            Delta[L] = After[L].Msgs - Before[L];
          std::vector<uint64_t> Want(After.size(), 0);
          for (unsigned L : Expect) {
            ASSERT_LT(L, Want.size()) << What;
            ++Want[L];
          }
          ASSERT_EQ(Delta, Want) << What << " " << From << "->" << To
                                 << " pass " << Pass;
          for (size_t L = 0; L != After.size(); ++L)
            Before[L] = After[L].Msgs;
        }
      }
    }
  }
}

namespace {

/// The link-queue model as it stood before the queues became flat arrays:
/// each link a std::deque of not-yet-drained departures. Links are uniform
/// (one HopNs / WordNs), which covers the bus and the 2-D grids; routes come
/// from a separate model's pure route().
class DequeOracle {
public:
  DequeOracle(const NetworkModel &Routes, size_t NumLinks, double HopNs,
              double WordNs)
      : Routes(Routes), HopNs(HopNs), WordNs(WordNs), Links(NumLinks) {}

  double transferDone(unsigned From, unsigned To, uint64_t Words,
                      double IssueTime) {
    if (From == To)
      return IssueTime;
    double T = IssueTime;
    for (unsigned Idx : Routes.route(From, To)) {
      Link &L = Links[Idx];
      while (!L.Busy.empty() && L.Busy.front() <= T)
        L.Busy.pop_front();
      double Depart = std::max(T, L.FreeAt);
      double Hold = HopNs + WordNs * static_cast<double>(Words);
      L.FreeAt = Depart + Hold;
      L.Busy.push_back(L.FreeAt);
      L.MaxDepth = std::max(L.MaxDepth, static_cast<unsigned>(L.Busy.size()));
      ++L.Msgs;
      L.Words += Words;
      L.BusyNs += Hold;
      T = Depart + Hold;
    }
    return T;
  }

  struct Link {
    double FreeAt = 0.0;
    uint64_t Msgs = 0;
    uint64_t Words = 0;
    double BusyNs = 0.0;
    unsigned MaxDepth = 0;
    std::deque<double> Busy;
  };

  const NetworkModel &Routes;
  double HopNs, WordNs;
  std::vector<Link> Links;
};

} // namespace

// The flat link queues (sorted vector + head index, compacted as they
// drain) must reproduce the deque FIFO exactly: every completion time and
// every final link statistic. Each 400-transfer cycle is a burst issued at
// one instant (queues pass depth 64), then sustained overload — issues
// spaced under the mean hold time, so a queue drains from the front while
// it keeps growing and never empties — then idle gaps that empty every
// queue. Four in five transfers of the first two phases take one hot pair,
// so a torus link sees the same pressure as the bus.
TEST(RoutedNetworkTest, LinkQueueMatchesDequeOracle) {
  CostModel C = testCosts();
  const double HopNs = 450.0, WordNs = 160.0;
  for (auto [Topo, N] : {std::pair{Topology::Bus, 16u},
                         std::pair{Topology::Torus2D, 16u}}) {
    std::string What = std::string(topologyName(Topo)) + "/" +
                       std::to_string(N) + "n";
    auto Net = createNetworkModel(Topo, N, C, HopNs, WordNs);
    auto Fresh = createNetworkModel(Topo, N, C, HopNs, WordNs);
    const double LinkHopNs = Topo == Topology::Bus ? C.NetDelay : HopNs;
    DequeOracle Oracle(*Fresh, Net->linkStats().size(), LinkHopNs, WordNs);
    const double MeanHold = LinkHopNs + 4 * WordNs; // words are 0..8
    uint64_t Seed = 987654321;
    double T = 0.0;
    for (int I = 0; I != 2000; ++I) {
      Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
      unsigned From = (Seed >> 33) % N;
      unsigned To = (Seed >> 13) % N;
      uint64_t Words = (Seed >> 50) % 9;
      const int Phase = I % 400;
      if (Phase < 350 && Phase % 5 != 0) {
        From = 0;
        To = 5;
      }
      if (Phase >= 350)
        T += 1e6; // idle gap
      else if (Phase >= 100)
        T += 0.7 * MeanHold; // overload
      // else: burst, all at one instant
      double Got = Net->transferDone(From, To, Words, T);
      double Want = Oracle.transferDone(From, To, Words, T);
      ASSERT_EQ(Got, Want) << What << " transfer " << I;
    }
    std::vector<NetLinkStats> Links = Net->linkStats();
    ASSERT_EQ(Links.size(), Oracle.Links.size()) << What;
    unsigned Deepest = 0;
    for (size_t L = 0; L != Links.size(); ++L) {
      const DequeOracle::Link &O = Oracle.Links[L];
      EXPECT_EQ(Links[L].Msgs, O.Msgs) << What << " " << Links[L].Name;
      EXPECT_EQ(Links[L].Words, O.Words) << What << " " << Links[L].Name;
      EXPECT_EQ(Links[L].BusyNs, O.BusyNs) << What << " " << Links[L].Name;
      EXPECT_EQ(Links[L].MaxQueueDepth, O.MaxDepth)
          << What << " " << Links[L].Name;
      Deepest = std::max(Deepest, Links[L].MaxQueueDepth);
    }
    EXPECT_GT(Deepest, 64u) << What << ": the bursts never queued deeply";
  }
}

namespace {

std::string networkGoldenPath() {
  return std::string(EARTHCC_GOLDEN_DIR) + "/network_links.txt";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

// Link statistics of real workloads on contended topologies, pinned: one
// line per (workload, topology, nodes) holding the profiler's network block
// (the one --profile=json prints, here at full double precision and with
// the pair matrix). Any change to routing, queueing or link naming shows up
// as a diff of this file.
TEST(NetworkGoldenTest, LinkStatsMatchGolden) {
  std::string Got;
  for (const char *Name : {"power", "health"}) {
    const Workload *W = findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    Pipeline P(workloadOptions(RunMode::Optimized));
    CompileResult CR = P.compile(W->Source);
    ASSERT_TRUE(CR.OK) << CR.Messages;
    for (Topology Topo : {Topology::Torus2D, Topology::FatTree}) {
      MachineConfig MC = workloadMachine(RunMode::Optimized, 16);
      MC.Topo = Topo;
      CommProfiler Prof;
      MC.Profiler = &Prof;
      RunResult R = P.run(*CR.M, MC);
      ASSERT_TRUE(R.OK) << Name << ": " << R.Error;
      std::string Json = Prof.json();
      size_t At = Json.find("\"network\": ");
      ASSERT_NE(At, std::string::npos) << Name << " " << topologyName(Topo);
      // The block runs to the end of the document, less its closing brace.
      Got += std::string(Name) + " " + topologyName(Topo) + " 16 " +
             Json.substr(At, Json.size() - 1 - At) + "\n";
    }
  }
  if (std::getenv("EARTHCC_REGEN_GOLDEN")) {
    std::ofstream Out(networkGoldenPath());
    ASSERT_TRUE(Out) << "cannot write " << networkGoldenPath();
    Out << Got;
    GTEST_SKIP() << "regenerated " << networkGoldenPath();
  }
  std::string Golden = readFile(networkGoldenPath());
  ASSERT_FALSE(Golden.empty())
      << "missing golden file " << networkGoldenPath()
      << " (regenerate with EARTHCC_REGEN_GOLDEN=1)";
  EXPECT_EQ(Got, Golden)
      << "network link statistics diverged from golden; if the network "
         "model changed intentionally, regenerate with EARTHCC_REGEN_GOLDEN=1";
}

// End-to-end conservation through a real workload: the profiler's network
// pair matrix must total exactly the remote words its per-site rows and its
// traffic matrix record, and the per-link totals must re-derive from the
// pair matrix over a fresh identical model's routes.
TEST(NetworkIntegrationTest, ProfilerConservation) {
  const Workload *W = findWorkload("power");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;

  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  MC.Topo = Topology::Torus2D;
  CommProfiler Prof;
  MC.Profiler = &Prof;
  RunResult R = P.run(*CR.M, MC);
  ASSERT_TRUE(R.OK) << R.Error;

  EXPECT_EQ(Prof.netTopology(), "torus2d");
  EXPECT_FALSE(Prof.netLinks().empty());
  EXPECT_DOUBLE_EQ(Prof.netEndTimeNs(), R.TimeNs);
  ASSERT_EQ(Prof.netPairWords().size(), size_t(16));

  // Total words injected into the network == total remote words across the
  // profiler's traffic matrix == total remote words across its site rows.
  // (recordLocal never reaches the network, and both sides count a read's
  // payload once.)
  uint64_t NetTotal = std::accumulate(Prof.netPairWords().begin(),
                                      Prof.netPairWords().end(), uint64_t(0));
  uint64_t TrafficTotal = 0;
  for (unsigned F = 0; F != 4; ++F)
    for (unsigned T = 0; T != 4; ++T)
      TrafficTotal += Prof.trafficWords(F, T);
  uint64_t SiteTotal = 0;
  for (unsigned S = 0; S != Prof.numSites(); ++S)
    SiteTotal += Prof.site(S).Words;
  EXPECT_GT(NetTotal, 0u);
  EXPECT_EQ(NetTotal, TrafficTotal);
  EXPECT_EQ(NetTotal, SiteTotal);

  // Per-link words re-derive from the pair matrix over a fresh identical
  // model (route() is a pure function of the topology).
  auto Fresh = createNetworkModel(Topology::Torus2D, 4, MC.Costs, MC.NetHopNs,
                                  MC.NetLinkWordNs);
  std::vector<uint64_t> LinkWords(Prof.netLinks().size(), 0);
  for (unsigned F = 0; F != 4; ++F)
    for (unsigned T = 0; T != 4; ++T)
      for (unsigned L : Fresh->route(F, T)) {
        ASSERT_LT(L, LinkWords.size());
        LinkWords[L] += Prof.netPairWords()[size_t(F) * 4 + T];
      }
  for (size_t L = 0; L != Prof.netLinks().size(); ++L)
    EXPECT_EQ(Prof.netLinks()[L].Words, LinkWords[L])
        << "link " << Prof.netLinks()[L].Name;

  // The json carries the network block on a routed topology...
  EXPECT_NE(Prof.json().find("\"network\""), std::string::npos);

  // ...and stays in the historical shape at ideal (same run, same profiler
  // instance reused — beginRun clears the network view).
  MachineConfig Ideal = workloadMachine(RunMode::Optimized, 4);
  Ideal.Profiler = &Prof;
  RunResult RI = P.run(*CR.M, Ideal);
  ASSERT_TRUE(RI.OK) << RI.Error;
  EXPECT_TRUE(Prof.netLinks().empty());
  EXPECT_EQ(Prof.json().find("\"network\""), std::string::npos);

  // Contention is real: the same program takes strictly longer on the bus
  // than on the ideal network.
  MachineConfig Bus = workloadMachine(RunMode::Optimized, 4);
  Bus.Topo = Topology::Bus;
  RunResult RB = P.run(*CR.M, Bus);
  ASSERT_TRUE(RB.OK) << RB.Error;
  EXPECT_GT(RB.TimeNs, RI.TimeNs);
}

// Distribution is honored end to end: block vs cyclic placement changes
// where data lands, and both run to the same checksum.
TEST(NetworkIntegrationTest, DistributionChangesPlacement) {
  const Workload *W = findWorkload("power");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;

  MachineConfig Cyc = workloadMachine(RunMode::Optimized, 4);
  MachineConfig Blk = workloadMachine(RunMode::Optimized, 4);
  Blk.Dist = Distribution::Block;
  Blk.DistBlockSize = 2;
  RunResult RC = P.run(*CR.M, Cyc);
  RunResult RB = P.run(*CR.M, Blk);
  ASSERT_TRUE(RC.OK) << RC.Error;
  ASSERT_TRUE(RB.OK) << RB.Error;
  // Same program, same answer — placement must never change semantics.
  EXPECT_EQ(RC.ExitValue.I, RB.ExitValue.I);
  // But the words land on different nodes.
  EXPECT_NE(RC.WordsPerNode, RB.WordsPerNode);
}

//===- fingerprint_test.cpp - Frozen simulated-result fingerprints --------===//
//
// Part of the earthcc project.
//
// Simulated results are deterministic, so they can be pinned exactly. This
// test runs every Olden workload under both compile modes over a grid of
// machine sizes and two topologies and compares one fingerprint line per
// run with tests/golden/sim_fingerprints.txt: the simulated completion time
// at full double precision, the step count, the eight operation counters,
// the exit value and a hash of the printed output.
//
// The engine-equivalence sweep compares the engines with each other; this
// golden compares the default engine with its own past, so a change that
// moves both engines the same way (or a host-speed change in the bytecode
// engine that should move nothing) is caught too.
//
// Regenerate after an intentional change to simulated results with:
//   EARTHCC_REGEN_GOLDEN=1 ./build/tests/fingerprint_test
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace earthcc;

#ifndef EARTHCC_GOLDEN_DIR
#error "EARTHCC_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

std::string goldenPath() {
  return std::string(EARTHCC_GOLDEN_DIR) + "/sim_fingerprints.txt";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// FNV-1a over the output lines, each terminated by a newline.
uint64_t hashOutput(const std::vector<std::string> &Lines) {
  uint64_t H = 1469598103934665603ull;
  for (const std::string &L : Lines) {
    for (unsigned char C : L + "\n") {
      H ^= C;
      H *= 1099511628211ull;
    }
  }
  return H;
}

std::string exitStr(const RtValue &V) {
  switch (V.K) {
  case RtValue::Kind::Undef:
    return "undef";
  case RtValue::Kind::Int:
    return "int:" + std::to_string(V.I);
  case RtValue::Kind::Dbl: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "dbl:%.17g", V.D);
    return Buf;
  }
  case RtValue::Kind::Ptr:
    return "ptr:" + V.P.str();
  }
  return "bad";
}

/// One golden line for a finished run.
std::string fingerprint(const std::string &Config, const RunResult &R) {
  if (!R.OK)
    return Config + " error=" + R.Error + "\n";
  const OpCounters &C = R.Counters;
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                " time=%.17g steps=%" PRIu64 " rd=%" PRIu64 " wr=%" PRIu64
                " blk=%" PRIu64 " atomic=%" PRIu64 " words=%" PRIu64
                " localfb=%" PRIu64 " spawns=%" PRIu64 " ctx=%" PRIu64
                " out=%016" PRIx64,
                R.TimeNs, R.StepsExecuted, C.ReadData, C.WriteData, C.BlkMov,
                C.Atomic, C.WordsMoved, C.LocalFallbacks, C.Spawns,
                C.CtxSwitches, hashOutput(R.Output));
  return Config + Buf + " exit=" + exitStr(R.ExitValue) + "\n";
}

} // namespace

// Small size over the whole grid (nodes 1/4/16/64 x ideal/torus2d), full
// size at 16 nodes on both topologies.
TEST(SimFingerprintTest, MatchesGolden) {
  std::string Got;
  for (const Workload &W : oldenWorkloads()) {
    for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
      Pipeline P(workloadOptions(Mode));
      const char *ModeName = Mode == RunMode::Simple ? "simple" : "opt";
      for (bool Small : {true, false}) {
        CompileResult CR = P.compile(Small ? W.smallSource() : W.Source);
        ASSERT_TRUE(CR.OK) << W.Name << ": " << CR.Messages;
        for (unsigned Nodes : {1u, 4u, 16u, 64u}) {
          if (!Small && Nodes != 16)
            continue;
          for (Topology Topo : {Topology::Ideal, Topology::Torus2D}) {
            MachineConfig MC = workloadMachine(Mode, Nodes);
            MC.Topo = Topo;
            RunResult R = P.run(*CR.M, MC);
            Got += fingerprint(W.Name + " " + (Small ? "small" : "full") +
                                   " " + ModeName + " " +
                                   std::to_string(Nodes) + " " +
                                   topologyName(Topo),
                               R);
          }
        }
      }
    }
  }
  if (std::getenv("EARTHCC_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath());
    ASSERT_TRUE(Out) << "cannot write " << goldenPath();
    Out << Got;
    GTEST_SKIP() << "regenerated " << goldenPath();
  }
  std::string Golden = readFile(goldenPath());
  ASSERT_FALSE(Golden.empty()) << "missing golden file " << goldenPath()
                               << " (regenerate with EARTHCC_REGEN_GOLDEN=1)";
  EXPECT_EQ(Got, Golden)
      << "simulated fingerprints diverged from golden; if simulated results "
         "changed intentionally, regenerate with EARTHCC_REGEN_GOLDEN=1";
}

//===- profile_data_test.cpp - Profile persistence and diff tests ----------===//
//
// Part of the earthcc project.
//
// The persisted comm-profile contracts (driver/ProfileData.h):
//
//  - Versioning: --profile=json documents carry a schema version; the
//    loader accepts the current one (and version-less pre-versioning
//    documents), and refuses anything newer with a clear message.
//  - Round trip: save(load(S)) is byte-stable — loading a canonically
//    saved document and saving it again reproduces the same bytes, so
//    profiles can be archived and re-read without drift.
//  - Diff: renderProfileDiff joins two profiles by (function, line, col,
//    op) and reports per-site deltas. The opt-on vs opt-off diff for the
//    power workload is pinned as a golden file: the deltas are exactly the
//    savings the optimizer's remarks promise.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/ProfileData.h"
#include "driver/ProfileReport.h"
#include "support/CommProfiler.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace earthcc;

#ifndef EARTHCC_GOLDEN_DIR
#error "EARTHCC_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

std::string goldenPath() {
  return std::string(EARTHCC_GOLDEN_DIR) + "/profile_diff_power.txt";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Compiles and runs the power workload at \p Mode on \p Nodes nodes and
/// returns the --profile=json document. Empty string (plus a recorded
/// failure) if anything goes wrong.
std::string profileFor(RunMode Mode, unsigned Nodes) {
  const Workload *W = findWorkload("power");
  if (!W) {
    ADD_FAILURE() << "power workload missing";
    return {};
  }
  Pipeline P(workloadOptions(Mode));
  CompileResult CR = P.compile(W->smallSource());
  if (!CR.OK) {
    ADD_FAILURE() << CR.Messages;
    return {};
  }
  CommProfiler Prof;
  MachineConfig MC = workloadMachine(Mode, Nodes);
  MC.Profiler = &Prof;
  RunResult R = P.run(*CR.M, MC);
  if (!R.OK) {
    ADD_FAILURE() << R.Error;
    return {};
  }
  return profileReportJson(*CR.M, Prof, &CR.Remarks);
}

} // namespace

TEST(ProfileDataTest, VersionGatesUnknownSchemas) {
  ProfileData D;
  std::string Err;

  // The emitter's current version loads.
  EXPECT_TRUE(loadProfileJson(
      "{\"version\":1,\"sites\":[],\"total_msgs\":0,\"traffic_words\":[]}",
      D, Err))
      << Err;
  EXPECT_EQ(D.Version, 1u);

  // A version-less document (pre-versioning emitter) is accepted as v1.
  EXPECT_TRUE(loadProfileJson(
      "{\"sites\":[],\"total_msgs\":0,\"traffic_words\":[]}", D, Err))
      << Err;
  EXPECT_EQ(D.Version, 1u);

  // A newer schema is refused, with the version named in the message.
  EXPECT_FALSE(loadProfileJson(
      "{\"version\":99,\"sites\":[],\"total_msgs\":0,\"traffic_words\":[]}",
      D, Err));
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;

  // Malformed input is an error, not a crash.
  EXPECT_FALSE(loadProfileJson("{\"sites\": [", D, Err));
  EXPECT_FALSE(loadProfileJson("42", D, Err));
}

TEST(ProfileDataTest, EmitterOutputLoadsWithAllFields) {
  std::string Json = profileFor(RunMode::Optimized, 4);
  ASSERT_FALSE(Json.empty());
  EXPECT_NE(Json.find("\"version\": 1"), std::string::npos);

  ProfileData D;
  std::string Err;
  ASSERT_TRUE(loadProfileJson(Json, D, Err)) << Err;
  EXPECT_EQ(D.Version, 1u);
  ASSERT_FALSE(D.Sites.empty());
  EXPECT_GT(D.TotalMsgs, 0u);
  ASSERT_EQ(D.TrafficWords.size(), 4u); // one row per node
  for (const auto &Row : D.TrafficWords)
    EXPECT_EQ(Row.size(), 4u);
  for (const ProfileSiteRow &S : D.Sites) {
    EXPECT_FALSE(S.Function.empty());
    EXPECT_FALSE(S.Op.empty());
  }
}

TEST(ProfileDataTest, SaveLoadIsByteStable) {
  std::string Json = profileFor(RunMode::Optimized, 4);
  ASSERT_FALSE(Json.empty());

  ProfileData D1;
  std::string Err;
  ASSERT_TRUE(loadProfileJson(Json, D1, Err)) << Err;
  std::string S1 = saveProfileJson(D1);

  ProfileData D2;
  ASSERT_TRUE(loadProfileJson(S1, D2, Err)) << Err;
  std::string S2 = saveProfileJson(D2);

  // Canonical form is a fixed point: once through save, bytes are stable.
  EXPECT_EQ(S1, S2);

  // And nothing was lost on the way through.
  ASSERT_EQ(D2.Sites.size(), D1.Sites.size());
  EXPECT_EQ(D2.TotalMsgs, D1.TotalMsgs);
  for (size_t I = 0; I != D1.Sites.size(); ++I) {
    EXPECT_EQ(D2.Sites[I].Msgs, D1.Sites[I].Msgs) << I;
    EXPECT_EQ(D2.Sites[I].Words, D1.Sites[I].Words) << I;
    EXPECT_EQ(D2.Sites[I].Remarks, D1.Sites[I].Remarks) << I;
  }
}

TEST(ProfileDataTest, DiffGoldenPowerOptOnVsOff) {
  // The same workload with and without the communication optimizer: the
  // per-site deltas in the diff are the savings the remarks promise
  // (hoisted reads vanish, blocked moves trade msgs for words).
  std::string NoOptJson = profileFor(RunMode::Simple, 4);
  std::string OptJson = profileFor(RunMode::Optimized, 4);
  ASSERT_FALSE(NoOptJson.empty());
  ASSERT_FALSE(OptJson.empty());

  ProfileData NoOpt, Opt;
  std::string Err;
  ASSERT_TRUE(loadProfileJson(NoOptJson, NoOpt, Err)) << Err;
  ASSERT_TRUE(loadProfileJson(OptJson, Opt, Err)) << Err;

  std::string Diff = renderProfileDiff(NoOpt, Opt, "no-opt", "opt");

  // Equal inputs must produce an all-zero-delta diff regardless of golden.
  std::string SelfDiff = renderProfileDiff(Opt, Opt, "opt", "opt");
  EXPECT_EQ(SelfDiff, renderProfileDiff(Opt, Opt, "opt", "opt"));

  if (std::getenv("EARTHCC_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath());
    ASSERT_TRUE(Out) << "cannot write " << goldenPath();
    Out << Diff;
    GTEST_SKIP() << "regenerated " << goldenPath();
  }

  std::string Golden = readFile(goldenPath());
  ASSERT_FALSE(Golden.empty())
      << "missing golden file " << goldenPath()
      << " (regenerate with EARTHCC_REGEN_GOLDEN=1)";
  EXPECT_EQ(Diff, Golden)
      << "profile diff diverged from golden; if the optimizer or the diff "
         "format changed intentionally, regenerate with "
         "EARTHCC_REGEN_GOLDEN=1";
}

// --profile=json carries the network block at full double precision: for
// power on torus2d at 16 nodes its end time and every link's busy time and
// utilization equal the profiler's own serialization exactly.
TEST(ProfileDataTest, NetworkBlockKeepsFullPrecision) {
  const Workload *W = findWorkload("power");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->Source);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  CommProfiler Prof;
  MachineConfig MC = workloadMachine(RunMode::Optimized, 16);
  MC.Topo = Topology::Torus2D;
  MC.Profiler = &Prof;
  RunResult R = P.run(*CR.M, MC);
  ASSERT_TRUE(R.OK) << R.Error;

  /// The number text following "end_ns": in \p Doc.
  auto endNsText = [](const std::string &Doc) {
    size_t At = Doc.find("\"end_ns\": ");
    EXPECT_NE(At, std::string::npos);
    if (At == std::string::npos)
      return std::string();
    At += 10;
    return Doc.substr(At, Doc.find_first_of(",}", At) - At);
  };
  std::string Report = profileReportJson(*CR.M, Prof, &CR.Remarks);
  std::string Raw = Prof.json();
  EXPECT_EQ(endNsText(Report), endNsText(Raw));
  EXPECT_EQ(endNsText(Report), "1628180");

  json::Value RV, PV;
  std::string Err;
  ASSERT_TRUE(json::parse(Report, RV, Err)) << Err;
  ASSERT_TRUE(json::parse(Raw, PV, Err)) << Err;
  const json::Value *RL = RV.find("network")->find("links");
  const json::Value *PL = PV.find("network")->find("links");
  ASSERT_TRUE(RL && PL);
  ASSERT_EQ(RL->items().size(), PL->items().size());
  ASSERT_FALSE(RL->items().empty());
  for (size_t I = 0; I != RL->items().size(); ++I) {
    const json::Value &A = RL->items()[I], &B = PL->items()[I];
    EXPECT_EQ(A.getString("name", ""), B.getString("name", ""));
    EXPECT_EQ(A.getNumber("busy_ns", -1), B.getNumber("busy_ns", -2)) << I;
    EXPECT_EQ(A.getNumber("utilization", -1), B.getNumber("utilization", -2))
        << I;
  }
}

//===- request_test.cpp - Request values, cache keys, option table ---------===//
//
// Part of the earthcc project.
//
// The request API's core contract: keyBytes() covers exactly the fields
// that can change the produced artifact — result-determining knobs perturb
// the key, host-only and instrumentation knobs do not — and the declarative
// option table applies the same semantics from every surface (CLI flag,
// --serve JSON field, environment variable).
//
//===----------------------------------------------------------------------===//

#include "driver/Request.h"
#include "support/CommProfiler.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace earthcc;

namespace {

const char *Src = "int main() { return 1; }";

} // namespace

TEST(CompileRequestKeyTest, EqualRequestsEqualKeys) {
  CompileRequest A = CompileRequest::optimized(Src);
  CompileRequest B = CompileRequest::optimized(Src);
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
  EXPECT_EQ(A.key(), B.key());
  EXPECT_EQ(A.keyHex().size(), 16u);
}

TEST(CompileRequestKeyTest, ResultDeterminingFieldsPerturbKey) {
  CompileRequest Base = CompileRequest::optimized(Src);

  CompileRequest DifferentSource = Base;
  DifferentSource.Source = "int main() { return 2; }";
  EXPECT_NE(Base.keyBytes(), DifferentSource.keyBytes());

  CompileRequest NoOpt = Base;
  NoOpt.Optimize = false;
  EXPECT_NE(Base.keyBytes(), NoOpt.keyBytes());

  CompileRequest Locality = Base;
  Locality.InferLocality = true;
  EXPECT_NE(Base.keyBytes(), Locality.keyBytes());

  CompileRequest Threshold = Base;
  Threshold.Comm.BlockThresholdWords = 7;
  EXPECT_NE(Base.keyBytes(), Threshold.keyBytes());

  CompileRequest Knockout = Base;
  Knockout.Comm.EnableReadMotion = false;
  EXPECT_NE(Base.keyBytes(), Knockout.keyBytes());
}

TEST(CompileRequestKeyTest, SourceIsLengthPrefixed) {
  // Concatenation attacks must not collide: source bytes are length-
  // prefixed in the serialization, so a source that *contains* another
  // request's record bytes still hashes differently.
  CompileRequest A = CompileRequest::simple("ab");
  CompileRequest B = CompileRequest::simple("a");
  EXPECT_NE(A.keyBytes(), B.keyBytes());
  EXPECT_NE(A.keyBytes().find("2:ab"), std::string::npos);
}

TEST(RunRequestKeyTest, ResultDeterminingFieldsPerturbKey) {
  RunRequest Base;

  RunRequest Nodes = Base;
  Nodes.Nodes = 8;
  EXPECT_NE(Base.keyBytes(), Nodes.keyBytes());

  RunRequest Engine = Base;
  Engine.Engine = ExecEngine::AST;
  EXPECT_NE(Base.keyBytes(), Engine.keyBytes());

  RunRequest Seq = Base;
  Seq.Sequential = true;
  EXPECT_NE(Base.keyBytes(), Seq.keyBytes());

  RunRequest Entry = Base;
  Entry.Entry = "other";
  EXPECT_NE(Base.keyBytes(), Entry.keyBytes());

  RunRequest Args = Base;
  Args.Args.push_back(RtValue::makeInt(3));
  EXPECT_NE(Base.keyBytes(), Args.keyBytes());

  RunRequest Costs = Base;
  Costs.Costs.NetDelay *= 2;
  EXPECT_NE(Base.keyBytes(), Costs.keyBytes());

  RunRequest Fuel = Base;
  Fuel.MaxSteps = 123;
  EXPECT_NE(Base.keyBytes(), Fuel.keyBytes());
}

TEST(RunRequestKeyTest, NetworkModelFieldsPerturbKey) {
  // Topology, distribution and the network parameters change *simulated*
  // results (contention reorders completion times; the distribution moves
  // data between owners) — unlike engine/dispatch, every one of them
  // must split the cache.
  RunRequest Base;

  RunRequest Topo = Base;
  Topo.Topo = Topology::Torus2D;
  EXPECT_NE(Base.keyBytes(), Topo.keyBytes());

  RunRequest Dist = Base;
  Dist.Dist = Distribution::Block;
  EXPECT_NE(Base.keyBytes(), Dist.keyBytes());

  RunRequest Hop = Base;
  Hop.NetHopNs *= 2;
  EXPECT_NE(Base.keyBytes(), Hop.keyBytes());

  RunRequest LinkWord = Base;
  LinkWord.NetLinkWordNs *= 2;
  EXPECT_NE(Base.keyBytes(), LinkWord.keyBytes());

  RunRequest Block = Base;
  Block.DistBlockSize = 17;
  EXPECT_NE(Base.keyBytes(), Block.keyBytes());

  // And machine() forwards all of them.
  MachineConfig MC = Topo.machine();
  EXPECT_EQ(MC.Topo, Topology::Torus2D);
  EXPECT_EQ(Dist.machine().Dist, Distribution::Block);
  EXPECT_EQ(Block.machine().DistBlockSize, 17u);
}

TEST(RunRequestKeyTest, InstrumentationDoesNotPerturbKey) {
  RunRequest A;
  RunRequest B = A;
  // Attaching observers must never change which cached artifact a request
  // maps to — they observe the run, they don't define it.
  ChromeTraceSink Sink;
  B.Sink = &Sink;
  CommProfiler Prof;
  B.Profiler = &Prof;
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
}

TEST(RunRequestKeyTest, DispatchDoesNotPerturbKey) {
  // Dispatch selects the bytecode inner loop, which is bit-identical by
  // contract (the engine equivalence sweep pins it) — a request served on
  // a portable-switch build and a computed-goto build must map to the
  // same cached artifact, the same contract as the trace sink and profiler.
  RunRequest A;
  RunRequest B = A;
  B.Dispatch = A.Dispatch == BcDispatch::ComputedGoto
                   ? BcDispatch::Switch
                   : BcDispatch::ComputedGoto;
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
  EXPECT_EQ(A.key(), B.key());
  // But the effective machine still honors the request's choice.
  EXPECT_EQ(B.machine().Dispatch, B.Dispatch);
}

TEST(RunRequestKeyTest, MetricsExpositionIsKeyNeutral) {
  // Metrics are host-side observability, same contract as dispatch / trace
  // sinks: no metrics or exposition option may be request
  // content. First, the option table must not publish one — --metrics,
  // --profile-diff and the serve "metrics" op are driver-surface flags.
  for (const RequestOption &O : requestOptions())
    EXPECT_EQ(std::string(O.Name).find("metric"), std::string::npos)
        << O.Name;

  // Second, key bytes must not embed any metrics state: recording into the
  // process registry (what --metrics and the serve op expose) between two
  // serializations must leave both keys byte-identical.
  CompileRequest C = CompileRequest::optimized(Src);
  RunRequest R;
  const std::string CK = C.keyBytes(), RK = R.keyBytes();
  EXPECT_EQ(CK.find("metric"), std::string::npos);
  EXPECT_EQ(RK.find("metric"), std::string::npos);
  MetricsRegistry::global().counter("test.request_key_probe").inc();
  MetricsRegistry::global()
      .histogram("test.request_key_probe_ns")
      .observe(123);
  EXPECT_EQ(C.keyBytes(), CK);
  EXPECT_EQ(R.keyBytes(), RK);
}

//===----------------------------------------------------------------------===//
// Pinned key bytes. Cached artifacts are addressed by these exact bytes, so
// any change to the serialization (record order, spelling, number format)
// must show up here as a deliberate edit alongside a version-tag bump.
//===----------------------------------------------------------------------===//

namespace {

/// Every keyed field set explicitly, so the process-default environment
/// (EARTHCC_TOPOLOGY) cannot move the expected bytes.
CompileRequest pinnedCompileRequest() {
  CompileRequest C = CompileRequest::optimized(
      "int main() {\n  return 7; // x=1;y\r\n}\n");
  C.InferLocality = true;
  C.Comm.EnableWriteBlocking = false;
  C.Comm.BlockThresholdWords = 5;
  C.Comm.MaxBlockOverfetch = 12;
  C.Comm.Placement.LoopFrequencyFactor = 2.5;
  return C;
}

RunRequest pinnedRunRequest() {
  RunRequest R;
  R.Entry = "main";
  R.Args = {RtValue::makeInt(-3), RtValue::makeDbl(0.1), RtValue::undef(),
            RtValue::makePtr(GlobalAddr{2, 17})};
  R.Nodes = 16;
  R.Sequential = false;
  R.Engine = ExecEngine::Bytecode;
  R.AllowNullReads = false;
  R.MaxSteps = 1000000;
  R.EUQuantum = 64;
  R.Costs = CostModel();
  R.Costs.NetDelay = 1234.5;
  R.Topo = Topology::Torus2D;
  R.Dist = Distribution::Block;
  R.NetHopNs = 450;
  R.NetLinkWordNs = 1.0 / 3.0;
  R.DistBlockSize = 4;
  return R;
}

} // namespace

TEST(KeyBytesPinnedTest, CompileRequestKeyBytes) {
  CompileRequest C = pinnedCompileRequest();
  EXPECT_EQ(C.keyBytes(),
            "earthcc-compile-v1;optimize=1;locality=1;read-motion=1;"
            "blocking=1;redundancy-elim=1;write-blocking=0;"
            "speculative-reads=0;block-threshold=5;max-overfetch=12;"
            "loop-freq=2.5;optimistic-cond=1;"
            "source=37:int main() {\n  return 7; // x=1;y\r\n}\n;");
  EXPECT_EQ(C.keyHex(), "b68f0d695c3ae98a");
}

TEST(KeyBytesPinnedTest, RunRequestKeyBytes) {
  RunRequest R = pinnedRunRequest();
  EXPECT_EQ(R.keyBytes(),
            "earthcc-run-v3;entry=4:main;args=4;"
            "arg-int=18446744073709551613;arg-dbl=0.10000000000000001;"
            "arg=5:undef;arg-ptr=5:n2:17;nodes=16;sequential=0;"
            "topology=7:torus2d;distribution=5:block;net-hop=450;"
            "net-link-word=0.33333333333333331;dist-block=4;engine=1;"
            "null-reads=0;max-steps=1000000;quantum=64;read-issue=1908;"
            "write-issue=1749;blk-issue=2602;net-delay=1234.5;su-read=1601;"
            "su-write=1109;su-blk=3338;su-atomic=1601;per-word=160;"
            "local-fallback=250;local-blk-word=4;stmt=40;copy=10;"
            "local-access=20;call=200;return=100;spawn=600;ctx-switch=400;");
  EXPECT_EQ(R.keyHex(), "5a147437c13cd2c5");
}

TEST(RunRequestKeyTest, SequentialNormalizesNodeCount) {
  // Sequential mode forces one node, and the key uses the *effective*
  // machine: a 4-node and an 8-node sequential request are one artifact.
  RunRequest A, B;
  A.Sequential = B.Sequential = true;
  A.Nodes = 4;
  B.Nodes = 8;
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
  EXPECT_EQ(A.machine().NumNodes, 1u);
}

TEST(RunRequestTest, DefaultsMirrorMachineConfig) {
  RunRequest R;
  MachineConfig MC;
  EXPECT_EQ(R.Engine, MC.Engine);
  EXPECT_EQ(R.Dispatch, MC.Dispatch);
  EXPECT_EQ(R.MaxSteps, MC.MaxSteps);
  EXPECT_EQ(R.EUQuantum, MC.EUQuantum);
  EXPECT_EQ(R.machine().Costs.NetDelay, MC.Costs.NetDelay);
}

//===----------------------------------------------------------------------===//
// The declarative option table.
//===----------------------------------------------------------------------===//

TEST(OptionTableTest, AppliesEveryPublishedKnob) {
  CompileRequest C;
  RunRequest R;
  std::string Err;
  EXPECT_TRUE(applyRequestOption(C, R, "nodes", "8", Err)) << Err;
  EXPECT_EQ(R.Nodes, 8u);
  EXPECT_TRUE(applyRequestOption(C, R, "engine", "ast", Err)) << Err;
  EXPECT_EQ(R.Engine, ExecEngine::AST);
  EXPECT_TRUE(applyRequestOption(C, R, "no-opt", "", Err)) << Err;
  EXPECT_FALSE(C.Optimize);
  EXPECT_TRUE(applyRequestOption(C, R, "locality", "on", Err)) << Err;
  EXPECT_TRUE(C.InferLocality);
  EXPECT_TRUE(applyRequestOption(C, R, "threshold", "5", Err)) << Err;
  EXPECT_EQ(C.Comm.BlockThresholdWords, 5u);
  EXPECT_TRUE(applyRequestOption(C, R, "entry", "start", Err)) << Err;
  EXPECT_EQ(R.Entry, "start");
  EXPECT_TRUE(applyRequestOption(C, R, "max-steps", "1000", Err)) << Err;
  EXPECT_EQ(R.MaxSteps, 1000u);
  EXPECT_TRUE(applyRequestOption(C, R, "quantum", "16", Err)) << Err;
  EXPECT_EQ(R.EUQuantum, 16u);
  EXPECT_TRUE(applyRequestOption(C, R, "seq", "on", Err)) << Err;
  EXPECT_TRUE(R.Sequential);
  EXPECT_TRUE(applyRequestOption(C, R, "dispatch", "switch", Err)) << Err;
  EXPECT_EQ(R.Dispatch, BcDispatch::Switch);
  EXPECT_TRUE(applyRequestOption(C, R, "dispatch", "goto", Err)) << Err;
  EXPECT_EQ(R.Dispatch, BcDispatch::ComputedGoto);
  EXPECT_TRUE(applyRequestOption(C, R, "topology", "torus2d", Err)) << Err;
  EXPECT_EQ(R.Topo, Topology::Torus2D);
  EXPECT_TRUE(applyRequestOption(C, R, "distribution", "block", Err)) << Err;
  EXPECT_EQ(R.Dist, Distribution::Block);
  EXPECT_TRUE(applyRequestOption(C, R, "net-hop-ns", "900", Err)) << Err;
  EXPECT_EQ(R.NetHopNs, 900.0);
  EXPECT_TRUE(applyRequestOption(C, R, "net-link-word-ns", "320.5", Err))
      << Err;
  EXPECT_EQ(R.NetLinkWordNs, 320.5);
  EXPECT_TRUE(applyRequestOption(C, R, "dist-block", "16", Err)) << Err;
  EXPECT_EQ(R.DistBlockSize, 16u);
}

TEST(OptionTableTest, RejectsMalformedInput) {
  CompileRequest C;
  RunRequest R;
  std::string Err;
  EXPECT_FALSE(applyRequestOption(C, R, "no-such-option", "1", Err));
  EXPECT_NE(Err.find("no-such-option"), std::string::npos);
  EXPECT_FALSE(applyRequestOption(C, R, "engine", "quantum", Err));
  EXPECT_FALSE(applyRequestOption(C, R, "nodes", "0", Err));
  EXPECT_FALSE(applyRequestOption(C, R, "nodes", "abc", Err));
  EXPECT_FALSE(applyRequestOption(C, R, "dispatch", "jump", Err));
  // Oversized machines get a diagnostic naming the ceiling, not an
  // allocation storm.
  EXPECT_FALSE(applyRequestOption(C, R, "nodes",
                                  std::to_string(MaxSimNodes + 1), Err));
  EXPECT_NE(Err.find(std::to_string(MaxSimNodes)), std::string::npos);
  // Unknown topology/distribution values list the valid choices.
  EXPECT_FALSE(applyRequestOption(C, R, "topology", "hypercube", Err));
  EXPECT_NE(Err.find("hypercube"), std::string::npos);
  EXPECT_NE(Err.find(topologyChoices()), std::string::npos);
  EXPECT_FALSE(applyRequestOption(C, R, "distribution", "random", Err));
  EXPECT_NE(Err.find(distributionChoices()), std::string::npos);
  EXPECT_FALSE(applyRequestOption(C, R, "net-hop-ns", "-3", Err));
  EXPECT_FALSE(applyRequestOption(C, R, "net-link-word-ns", "fast", Err));
  EXPECT_FALSE(applyRequestOption(C, R, "dist-block", "0", Err));
}

TEST(OptionTableTest, RetiredKnobsAreUnknown) {
  // Superinstruction fusion and the lowering / pass thread fan-outs are
  // gone: their flags are rejected like any other unknown option.
  CompileRequest C;
  RunRequest R;
  for (const char *Name : {"fuse", "lower-threads", "pass-threads"}) {
    std::string Err;
    EXPECT_FALSE(applyRequestOption(C, R, Name, "1", Err)) << Name;
    EXPECT_NE(Err.find("unknown option"), std::string::npos) << Err;
  }
}

TEST(OptionTableTest, EnvironmentGoesThroughTheSameTable) {
  // EARTHCC_DISPATCH is declared on the `dispatch` entry: applyRequestEnv
  // must read it and apply the same setter the CLI and the JSON protocol
  // use. The requests are built first, so the process-wide default (read
  // once from the same variable) is not affected.
  CompileRequest C;
  RunRequest R;
  R.Dispatch = BcDispatch::ComputedGoto;
  ASSERT_EQ(setenv("EARTHCC_DISPATCH", "switch", 1), 0);
  std::string Err;
  EXPECT_TRUE(applyRequestEnv(C, R, Err)) << Err;
  EXPECT_EQ(R.Dispatch, BcDispatch::Switch);
  ASSERT_EQ(unsetenv("EARTHCC_DISPATCH"), 0);
}

TEST(OptionTableTest, TableEntriesAreWellFormed) {
  for (const RequestOption &O : requestOptions()) {
    EXPECT_NE(O.Name, nullptr);
    EXPECT_NE(O.Help, nullptr);
    EXPECT_NE(O.Apply, nullptr);
    // Names are flag-shaped: lowercase/dash only, no leading dashes.
    for (const char *P = O.Name; *P; ++P)
      EXPECT_TRUE((*P >= 'a' && *P <= 'z') || *P == '-') << O.Name;
    EXPECT_NE(O.Name[0], '-');
  }
}

//===- engine_test.cpp - AST vs bytecode engine equivalence ---------------===//
//
// Part of the earthcc project.
//
// The bytecode engine must be an observationally perfect stand-in for the
// AST walker: for every workload, input size and machine size, both engines
// must produce the same simulated time, exit value, operation counters,
// step count, program output and byte-identical Chrome traces. These tests
// sweep all five Olden benchmarks at two input sizes and 1/2/4 nodes.
//
//===----------------------------------------------------------------------===//

#include "driver/ProfileReport.h"
#include "interp/Bytecode.h"
#include "interp/Lower.h"
#include "support/CommProfiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

using namespace earthcc;

namespace {

/// One engine run's observable artifacts: the result, the serialized trace,
/// and the serialized per-site communication profile.
struct EngineRun {
  RunResult R;
  std::string Trace;
  std::string Profile;
};

/// Runs \p Entry of \p M under \p Engine with a fresh trace sink and
/// profiler attached. \p Dispatch selects the bytecode engine's inner loop
/// (ignored by the AST engine; on a build without computed goto,
/// ComputedGoto degrades to the switch loop).
EngineRun runWith(Pipeline &P, const Module &M, MachineConfig MC,
                  ExecEngine Engine, BcDispatch Dispatch = defaultDispatch(),
                  const std::string &Entry = "main") {
  ChromeTraceSink Sink;
  CommProfiler Prof;
  MC.Engine = Engine;
  MC.Dispatch = Dispatch;
  MC.Trace = &Sink;
  MC.Profiler = &Prof;
  RunResult R = P.run(M, MC, Entry);
  return {std::move(R), Sink.json(), Prof.json()};
}

/// Asserts the two engines' results are indistinguishable.
void expectIdentical(const EngineRun &Ast, const EngineRun &Bc,
                     const std::string &What) {
  const RunResult &A = Ast.R;
  const RunResult &B = Bc.R;
  ASSERT_EQ(A.OK, B.OK) << What << ": " << A.Error << " / " << B.Error;
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_DOUBLE_EQ(A.TimeNs, B.TimeNs) << What;
  // The exit value's kind, then exactly its active payload.
  EXPECT_EQ(A.ExitValue.K, B.ExitValue.K) << What;
  if (A.ExitValue.K == B.ExitValue.K) {
    switch (A.ExitValue.K) {
    case RtValue::Kind::Undef:
      break;
    case RtValue::Kind::Int:
      EXPECT_EQ(A.ExitValue.I, B.ExitValue.I) << What;
      break;
    case RtValue::Kind::Dbl:
      EXPECT_EQ(std::bit_cast<uint64_t>(A.ExitValue.D),
                std::bit_cast<uint64_t>(B.ExitValue.D))
          << What << ": " << A.ExitValue.D << " vs " << B.ExitValue.D;
      break;
    case RtValue::Kind::Ptr:
      EXPECT_EQ(A.ExitValue.P.str(), B.ExitValue.P.str()) << What;
      break;
    }
  }
  EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << What;
  EXPECT_EQ(A.Output, B.Output) << What;
  EXPECT_EQ(A.Counters.ReadData, B.Counters.ReadData) << What;
  EXPECT_EQ(A.Counters.WriteData, B.Counters.WriteData) << What;
  EXPECT_EQ(A.Counters.BlkMov, B.Counters.BlkMov) << What;
  EXPECT_EQ(A.Counters.Atomic, B.Counters.Atomic) << What;
  EXPECT_EQ(A.Counters.WordsMoved, B.Counters.WordsMoved) << What;
  EXPECT_EQ(A.Counters.LocalFallbacks, B.Counters.LocalFallbacks) << What;
  EXPECT_EQ(A.Counters.Spawns, B.Counters.Spawns) << What;
  EXPECT_EQ(A.Counters.CtxSwitches, B.Counters.CtxSwitches) << What;
  EXPECT_EQ(A.WordsPerNode, B.WordsPerNode) << What;
  EXPECT_EQ(Ast.Trace, Bc.Trace) << What << ": traces diverge";
  EXPECT_EQ(Ast.Profile, Bc.Profile) << What << ": comm profiles diverge";
}

class EngineEquivalenceTest : public ::testing::TestWithParam<std::string> {
protected:
  const Workload &workload() const {
    const Workload *W = findWorkload(GetParam());
    EXPECT_NE(W, nullptr);
    return *W;
  }

  /// Compiles \p Source once per mode and sweeps 1/2/4 nodes, comparing
  /// the AST engine against the bytecode engine under both dispatch loops
  /// at every configuration.
  void sweep(const std::string &Source, const std::string &SizeTag) {
    for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
      Pipeline P(workloadOptions(Mode));
      CompileResult CR = P.compile(Source);
      ASSERT_TRUE(CR.OK) << CR.Messages;
      for (unsigned Nodes : {1u, 2u, 4u}) {
        MachineConfig MC = workloadMachine(Mode, Nodes);
        std::string What = GetParam() + "/" + SizeTag +
                           (Mode == RunMode::Simple ? "/simple/" : "/opt/") +
                           std::to_string(Nodes) + "n";
        auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
        auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
        // Dispatch axis: the default above is computed goto where the build
        // carries it; the explicit switch-loop run pins both loops to the
        // same bits (they collapse to the same loop on a portable build).
        auto BcSw =
            runWith(P, *CR.M, MC, ExecEngine::Bytecode, BcDispatch::Switch);
        expectIdentical(Ast, Bc, What);
        expectIdentical(Ast, BcSw, What + "/dispatch=switch");
      }
    }
  }
};

TEST_P(EngineEquivalenceTest, FullSize) { sweep(workload().Source, "full"); }

TEST_P(EngineEquivalenceTest, SmallSize) {
  sweep(workload().smallSource(), "small");
}

// The sequential baseline exercises the no-EARTH code path (local accesses
// only, no spawn costs) — equivalence must hold there too.
TEST_P(EngineEquivalenceTest, SequentialBaseline) {
  Pipeline P(workloadOptions(RunMode::Sequential));
  CompileResult CR = P.compile(workload().Source);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  MachineConfig MC = workloadMachine(RunMode::Sequential, 1);
  auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
  auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
  expectIdentical(Ast, Bc, GetParam() + "/sequential");
}

// Preemption-boundary stress: quantum values that force slice expiry at
// different step phases must not break equivalence (the quantum counts
// interpreter steps, so this pins the one-instruction-per-step invariant).
TEST_P(EngineEquivalenceTest, QuantumSweep) {
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(workload().smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;
  for (unsigned Quantum : {1u, 2u, 3u, 17u, 0u}) {
    MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
    MC.EUQuantum = Quantum;
    std::string What =
        GetParam() + "/quantum=" + std::to_string(Quantum);
    auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
    auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
    auto BcSw = runWith(P, *CR.M, MC, ExecEngine::Bytecode, BcDispatch::Switch);
    expectIdentical(Ast, Bc, What);
    expectIdentical(Ast, BcSw, What + "/dispatch=switch");
  }
}

// Topology axis: at every fixed (topology, distribution) the engine and
// dispatch knobs must still be bit-identical — the network model mutates
// link state in event order, so this pins that both engines issue network
// transactions in the same order even under contention.
TEST_P(EngineEquivalenceTest, TopologyAxis) {
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(workload().smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;
  for (Topology Topo : {Topology::Bus, Topology::Mesh2D, Topology::Torus2D,
                        Topology::FatTree}) {
    for (Distribution Dist : {Distribution::Cyclic, Distribution::Block}) {
      MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
      MC.Topo = Topo;
      MC.Dist = Dist;
      std::string What = GetParam() + "/topology=" +
                         topologyName(Topo) + "/dist=" +
                         distributionName(Dist);
      auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
      auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode);
      auto BcSw =
          runWith(P, *CR.M, MC, ExecEngine::Bytecode, BcDispatch::Switch);
      expectIdentical(Ast, Bc, What);
      expectIdentical(Ast, BcSw, What + "/dispatch=switch");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Olden, EngineEquivalenceTest,
                         ::testing::Values("power", "perimeter", "tsp",
                                           "health", "voronoi"),
                         [](const auto &Info) { return Info.param; });

// Lowering is cached on the Module: repeated bytecode runs must reuse one
// BytecodeModule instance rather than re-lowering per run.
TEST(EngineCacheTest, LoweringIsCachedAcrossRuns) {
  const Workload *W = findWorkload("power");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->Source);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  const BytecodeModule &First = getOrLowerBytecode(*CR.M);
  RunResult R = P.run(*CR.M, workloadMachine(RunMode::Optimized, 2));
  ASSERT_TRUE(R.OK) << R.Error;
  const BytecodeModule &Second = getOrLowerBytecode(*CR.M);
  EXPECT_EQ(&First, &Second) << "lowering must be memoized on the Module";
  EXPECT_EQ(First.M, CR.M.get());
}

// The profiler contract: the per-site communication profile is a pure
// function of (module, machine configuration), not of the execution
// strategy. Engine and dispatch loop must yield byte-identical serialized
// profiles.
TEST(CommProfileTest, BitIdenticalAcrossEngines) {
  const Workload *W = findWorkload("health");
  ASSERT_NE(W, nullptr);
  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;
  // The optimizer must have explained itself: remarks from both passes.
  EXPECT_TRUE(CR.Remarks.hasPass("placement"));
  EXPECT_TRUE(CR.Remarks.hasPass("comm-select"));
  EngineRun Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
  ASSERT_TRUE(Ast.R.OK) << Ast.R.Error;
  EXPECT_NE(Ast.Profile.find("\"sites\""), std::string::npos);
  for (BcDispatch D : {BcDispatch::ComputedGoto, BcDispatch::Switch}) {
    EngineRun Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode, D);
    ASSERT_TRUE(Bc.R.OK) << Bc.R.Error;
    EXPECT_EQ(Ast.Profile, Bc.Profile) << "profile diverges";
  }
}

// The rendered report joins static remarks with dynamic per-site numbers:
// at least one remark category from each pass must land next to an active
// site's counts.
TEST(CommProfileTest, ReportJoinsRemarksFromBothPasses) {
  const Workload *W = findWorkload("health");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;
  CommProfiler Prof;
  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  MC.Profiler = &Prof;
  RunResult R = P.run(*CR.M, MC);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_GT(Prof.totalMsgs(), 0u);
  std::string Report = renderProfileReport(*CR.M, Prof, &CR.Remarks);
  EXPECT_NE(Report.find("placement.hoist-loop"), std::string::npos) << Report;
  EXPECT_NE(Report.find("comm-select."), std::string::npos) << Report;
  std::string Json = profileReportJson(*CR.M, Prof, &CR.Remarks);
  EXPECT_NE(Json.find("\"total_msgs\""), std::string::npos);
  EXPECT_NE(Json.find("\"remarks\""), std::string::npos);
}

// Runtime errors must be reported with identical text through both engines.
TEST(EngineErrorTest, IdenticalDiagnostics) {
  Pipeline P(workloadOptions(RunMode::Simple));
  CompileResult CR = P.compile("int main() { int x; x = 1; return x; }");
  ASSERT_TRUE(CR.OK) << CR.Messages;
  for (const char *Entry : {"missing", "main"}) {
    MachineConfig MC = workloadMachine(RunMode::Simple, 1);
    ChromeTraceSink SA, SB;
    MC.Engine = ExecEngine::AST;
    MC.Trace = &SA;
    RunResult A = P.run(*CR.M, MC, Entry);
    MC.Engine = ExecEngine::Bytecode;
    MC.Trace = &SB;
    RunResult B = P.run(*CR.M, MC, Entry);
    EXPECT_EQ(A.OK, B.OK) << Entry;
    EXPECT_EQ(A.Error, B.Error) << Entry;
    EXPECT_EQ(SA.json(), SB.json()) << Entry;
  }
}


// Activation-image lifetimes in the bytecode engine: a called frame and a
// forall iteration own their image, parallel-sequence branches borrow their
// parent's, and join contexts belong to the frame that opened them. This
// program nests every combination — branches that call functions which
// return early, a forall (with a parallel sequence in its body and a
// function-scope shared variable) inside a callee, recursion through a
// parallel sequence with placed calls — and must run identically under the
// AST walker and both dispatch loops. A second entry fails inside a branch
// while images and joins are still in use; the sanitizer build's leak check
// covers that path too.
TEST(ActivationLifetimeTest, NestedParallelCallsMatchAcrossEngines) {
  const char *Src = R"(
    struct node { int v; node *l; node *r; };

    node *build(int depth, int id) {
      node *t;
      if (depth == 0) return NULL;
      t = pmalloc(sizeof(node))@node(id);
      t->v = id;
      t->l = build(depth - 1, id * 2 + 1);
      t->r = build(depth - 1, id * 2 + 2);
      return t;
    }

    int find(int n, int k) {
      int i;
      for (i = 0; i < n; i = i + 1) {
        if (i * i >= k) return i;
      }
      return 0 - 1;
    }

    int fan(int n) {
      shared int acc;
      int i; int p; int q; int r;
      writeto(&acc, 0);
      forall (i = 0; i < n; i = i + 1) {
        {^
          p = find(40, i * 7);
          q = find(20, i);
        ^}
        addto(&acc, p + q);
      }
      r = valueof(&acc);
      return r;
    }

    int walk(node *t, int depth) {
      int a; int b; int c; node *l; node *r;
      if (t == NULL) return 0;
      if (depth == 0) return find(30, t->v);
      l = t->l;
      r = t->r;
      {^
        a = walk(l, depth - 1);
        b = walk(r, depth - 1)@node(depth);
        c = fan(depth + 2);
      ^}
      return a + b + c + t->v;
    }

    int main() {
      node *root; int x; int y;
      root = build(4, 0);
      {^
        x = walk(root, 3);
        y = fan(5);
      ^}
      return x + y;
    }

    int boom() {
      int a; int b; node *n;
      n = NULL;
      {^
        a = fan(3);
        b = walk(n, 2) + n->v;
      ^}
      return a + b;
    }
  )";
  for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
    Pipeline P(workloadOptions(Mode));
    CompileResult CR = P.compile(Src);
    ASSERT_TRUE(CR.OK) << CR.Messages;
    for (Topology Topo : {Topology::Ideal, Topology::Torus2D}) {
      for (unsigned Nodes : {1u, 4u, 16u}) {
        MachineConfig MC = workloadMachine(Mode, Nodes);
        MC.Topo = Topo;
        for (const char *Entry : {"main", "boom"}) {
          std::string What = std::string(Entry) +
                             (Mode == RunMode::Simple ? "/simple/" : "/opt/") +
                             topologyName(Topo) + "/" + std::to_string(Nodes) +
                             "n";
          auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST, defaultDispatch(),
                             Entry);
          EXPECT_EQ(Ast.R.OK, std::string(Entry) == "main")
              << What << ": " << Ast.R.Error;
          auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode,
                            BcDispatch::ComputedGoto, Entry);
          auto BcSw = runWith(P, *CR.M, MC, ExecEngine::Bytecode,
                              BcDispatch::Switch, Entry);
          expectIdentical(Ast, Bc, What);
          expectIdentical(Ast, BcSw, What + "/dispatch=switch");
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Step accounting: fuel and the EU quantum. The bytecode engine counts steps
// per slice and settles them when the slice ends; the AST walker counts
// every step as it goes. Sweeping the fuel over every step of a small
// parallel program, under quanta around the default, puts the fuel's end at
// every position a slice can reach: mid-slice, exactly where the quantum
// preempts, and at the program's last step.
//===----------------------------------------------------------------------===//

TEST(StepAccountingTest, FuelAndQuantumMatchAcrossEngines) {
  const char *Src = R"(
    int f(int n) {
      int s; int j;
      s = 0;
      for (j = 0; j < n; j = j + 1) { s = s + j; }
      return s;
    }
    int main() {
      shared int acc;
      int i; int a; int b; int r;
      writeto(&acc, 0);
      forall (i = 0; i < 4; i = i + 1) {
        a = f(i + 2)@node(i);
        addto(&acc, a);
      }
      {^
        a = f(20);
        b = f(12)@node(1);
      ^}
      r = valueof(&acc);
      return r + a + b;
    }
  )";
  Pipeline P(workloadOptions(RunMode::Simple));
  CompileResult CR = P.compile(Src);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  uint64_t Unpreempted = 0;
  for (unsigned Quantum : {0u, 1u, 2u, 63u, 64u, 65u}) {
    MachineConfig MC = workloadMachine(RunMode::Simple, 4);
    MC.EUQuantum = Quantum;
    const std::string Q = "quantum=" + std::to_string(Quantum);
    auto Full = runWith(P, *CR.M, MC, ExecEngine::AST);
    ASSERT_TRUE(Full.R.OK) << Q << ": " << Full.R.Error;
    const uint64_t Steps = Full.R.StepsExecuted;
    // Every preemption bills the preempted step twice, so preemption shows
    // in the step count.
    if (Quantum == 0)
      Unpreempted = Steps;
    else
      EXPECT_GT(Steps, Unpreempted) << Q;
    for (uint64_t Fuel = 1; Fuel <= Steps + 1; ++Fuel) {
      MC.MaxSteps = Fuel;
      const std::string What = Q + "/max-steps=" + std::to_string(Fuel);
      auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
      ASSERT_EQ(Ast.R.OK, Fuel >= Steps) << What << ": " << Ast.R.Error;
      if (Ast.R.OK) {
        ASSERT_EQ(Ast.R.StepsExecuted, Steps) << What;
      } else {
        ASSERT_NE(Ast.R.Error.find("step limit"), std::string::npos) << What;
      }
      for (BcDispatch D : {BcDispatch::ComputedGoto, BcDispatch::Switch}) {
        auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode, D);
        expectIdentical(Ast, Bc,
                        What + (D == BcDispatch::Switch ? "/switch" : "/goto"));
        if (::testing::Test::HasFailure())
          return; // One divergence is enough; the rest would repeat it.
      }
    }
  }
}

// Fibers are recycled once they finish. Ten thousand short-lived forall
// iterations, each migrating to its node and back, must still number their
// fibers by a running count and charge the same context switches under
// every engine.
TEST(FiberRecyclingTest, ShortLivedIterationsMatchAcrossEngines) {
  const char *Src = R"(
    int work(int i) { return i * 2; }
    int main() {
      shared int acc;
      int i; int x; int r;
      writeto(&acc, 0);
      forall (i = 0; i < 10000; i = i + 1) {
        x = work(i)@node(i);
        addto(&acc, x);
      }
      r = valueof(&acc);
      return r;
    }
  )";
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(Src);
  ASSERT_TRUE(CR.OK) << CR.Messages;
  for (unsigned Nodes : {1u, 4u}) {
    MachineConfig MC = workloadMachine(RunMode::Optimized, Nodes);
    const std::string What = std::to_string(Nodes) + "n";
    auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
    ASSERT_TRUE(Ast.R.OK) << What << ": " << Ast.R.Error;
    ASSERT_EQ(Ast.R.ExitValue.K, RtValue::Kind::Int);
    EXPECT_EQ(Ast.R.ExitValue.I, 99990000) << What;
    EXPECT_GT(Ast.R.Counters.CtxSwitches, 0u) << What;
    // The last iteration's fiber is the 10,001st (the main fiber is 1).
    EXPECT_NE(Ast.Trace.find("\"child\":10001}"), std::string::npos) << What;
    for (BcDispatch D : {BcDispatch::ComputedGoto, BcDispatch::Switch}) {
      auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode, D);
      expectIdentical(Ast, Bc,
                      What + (D == BcDispatch::Switch ? "/switch" : "/goto"));
    }
  }
}

//===----------------------------------------------------------------------===//
// Switch dispatch: lowering-mode selection and edge semantics. The observable
// contract is the AST walker's first-match scan over the source-ordered
// cases; these tests pin it across dense jump tables, sorted fallback and
// the linear path, under both dispatch loops.
//===----------------------------------------------------------------------===//

/// The BcSwitchMode annotation of the single Switch instruction in \p Fn.
BcSwitchMode switchModeOf(const Module &M, const std::string &Fn) {
  const BytecodeModule &BM = getOrLowerBytecode(M);
  for (const auto &BF : BM.Funcs) {
    if (BF->Fn->name() != Fn)
      continue;
    for (const BcInsn &I : BF->Code)
      if (I.Op == BcOp::Switch)
        return static_cast<BcSwitchMode>(I.Sub);
  }
  ADD_FAILURE() << "no Switch instruction lowered in " << Fn;
  return BcSwitchMode::Linear;
}

/// Compiles (unoptimized) and runs \p Src under the AST walker and the
/// bytecode engine under both dispatch loops, asserting all three runs are
/// indistinguishable; returns the compile for lowering checks
/// plus the agreed exit value via \p Exit.
CompileResult runSwitchProgram(const std::string &Src, const std::string &What,
                               int64_t &Exit) {
  Pipeline P(PipelineOptions::simple());
  CompileResult CR = P.compile(Src);
  EXPECT_TRUE(CR.OK) << What << ": " << CR.Messages;
  if (!CR.OK)
    return CR;
  MachineConfig MC;
  MC.NumNodes = 2;
  auto Ast = runWith(P, *CR.M, MC, ExecEngine::AST);
  EXPECT_TRUE(Ast.R.OK) << What << ": " << Ast.R.Error;
  for (BcDispatch D : {BcDispatch::ComputedGoto, BcDispatch::Switch}) {
    auto Bc = runWith(P, *CR.M, MC, ExecEngine::Bytecode, D);
    expectIdentical(Ast, Bc,
                    What + "/dispatch=" +
                        (D == BcDispatch::ComputedGoto ? "goto" : "switch"));
  }
  Exit = Ast.R.ExitValue.I;
  return CR;
}

TEST(SwitchDispatchTest, DenseContiguousRangeUsesJumpTable) {
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int pick(int q) {
      int r;
      switch (q) {
      case 0: r = 1; break;
      case 1: r = 2; break;
      case 2: r = 4; break;
      case 3: r = 8; break;
      case 4: r = 16; break;
      case 5: r = 32; break;
      case 6: r = 64; break;
      case 7: r = 128; break;
      default: r = 1000; break;
      }
      return r;
    }
    int main() {
      return pick(0) + pick(3) + pick(7) + pick(8) + pick(0 - 5);
    }
  )",
                                      "dense", Exit);
  ASSERT_TRUE(CR.OK);
  // In range hits the table; above the range and below it (negative) fall
  // to the default via the unsigned bounds check.
  EXPECT_EQ(Exit, 1 + 8 + 128 + 1000 + 1000);
  EXPECT_EQ(switchModeOf(*CR.M, "pick"), BcSwitchMode::Dense);
  const BytecodeModule &BM = getOrLowerBytecode(*CR.M);
  ASSERT_EQ(BM.Funcs.size() >= 1, true);
  bool Found = false;
  for (const auto &BF : BM.Funcs) {
    if (BF->Fn->name() != "pick")
      continue;
    Found = true;
    ASSERT_EQ(BF->JumpTables.size(), 1u);
    EXPECT_EQ(BF->JumpTables[0].Lo, 0);
    EXPECT_EQ(BF->JumpTables[0].Size, 8u);
    EXPECT_EQ(BF->JumpPool.size(), 8u);
    for (int32_t T : BF->JumpPool)
      EXPECT_GE(T, 0) << "contiguous range has no default holes";
    EXPECT_TRUE(BF->SortedCasePool.empty());
  }
  EXPECT_TRUE(Found);
}

TEST(SwitchDispatchTest, DenseRangeWithHolesDefaultsOnMiss) {
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int pick(int q) {
      int r;
      r = 0;
      switch (q) {
      case 0: r = 3; break;
      case 2: r = 5; break;
      case 4: r = 7; break;
      case 6: r = 11; break;
      default: r = 900; break;
      }
      return r;
    }
    int main() {
      return pick(0) + pick(2) + pick(6) + pick(1) + pick(5);
    }
  )",
                                      "dense-holes", Exit);
  ASSERT_TRUE(CR.OK);
  // Span 7 over 4 unique values still qualifies as dense; the odd values
  // are -1 holes in the jump pool and must take the default.
  EXPECT_EQ(Exit, 3 + 5 + 11 + 900 + 900);
  EXPECT_EQ(switchModeOf(*CR.M, "pick"), BcSwitchMode::Dense);
}

TEST(SwitchDispatchTest, SparseRangeFallsBackToSortedSearch) {
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int pick(int q) {
      int r;
      switch (q) {
      case 10000: r = 30; break;
      case 1: r = 10; break;
      case 100: r = 20; break;
      default: r = 500; break;
      }
      return r;
    }
    int main() {
      return pick(1) + pick(100) + pick(10000) + pick(99) + pick(101);
    }
  )",
                                      "sparse", Exit);
  ASSERT_TRUE(CR.OK);
  // Span 10000 blows the dense budget: binary search over the sorted pool,
  // near-misses on both sides of a case value take the default.
  EXPECT_EQ(Exit, 10 + 20 + 30 + 500 + 500);
  EXPECT_EQ(switchModeOf(*CR.M, "pick"), BcSwitchMode::Sorted);
  const BytecodeModule &BM = getOrLowerBytecode(*CR.M);
  for (const auto &BF : BM.Funcs) {
    if (BF->Fn->name() != "pick")
      continue;
    ASSERT_EQ(BF->SortedCasePool.size(), 3u);
    EXPECT_EQ(BF->SortedCasePool[0].first, 1);
    EXPECT_EQ(BF->SortedCasePool[1].first, 100);
    EXPECT_EQ(BF->SortedCasePool[2].first, 10000);
    EXPECT_TRUE(BF->JumpTables.empty());
  }
}

TEST(SwitchDispatchTest, DuplicateCaseValueFirstWins) {
  // The frontend does not reject duplicate case values, so the engines'
  // shared contract applies: the first case in source order wins, in every
  // dispatch mode (lowering deduplicates keeping the first target).
  for (const char *Extra : {"case 2: r = 30; break;",       // dense shape
                            "case 9999: r = 30; break;"}) { // sorted shape
    int64_t Exit = 0;
    std::string Src = std::string(R"(
      int pick(int q) {
        int r;
        r = 0;
        switch (q) {
        case 1: r = 10; break;
        case 1: r = 20; break;
        )") + Extra + R"(
        }
        return r;
      }
      int main() { return pick(1); }
    )";
    runSwitchProgram(Src, std::string("duplicate/") + Extra, Exit);
    EXPECT_EQ(Exit, 10) << Extra << ": first case in source order must win";
  }
}

TEST(SwitchDispatchTest, DefaultOnlyAndMissingDefault) {
  // Words == 0 stays on the (empty) linear scan; a missing default is an
  // empty default body, so a miss leaves the variable untouched.
  int64_t Exit = 0;
  CompileResult CR = runSwitchProgram(R"(
    int defonly(int q) {
      int r;
      switch (q) {
      default: r = 5; break;
      }
      return r;
    }
    int nodefault(int q) {
      int r;
      r = 77;
      switch (q) {
      case 1: r = 40; break;
      }
      return r;
    }
    int main() {
      return defonly(123) + nodefault(1) + nodefault(2);
    }
  )",
                                      "default-only", Exit);
  ASSERT_TRUE(CR.OK);
  EXPECT_EQ(Exit, 5 + 40 + 77);
  EXPECT_EQ(switchModeOf(*CR.M, "defonly"), BcSwitchMode::Linear);
  // A single case cannot be dense (the table needs two distinct values).
  EXPECT_EQ(switchModeOf(*CR.M, "nodefault"), BcSwitchMode::Sorted);
}


} // namespace

//===- Pipeline.cpp - The earthcc driver API -------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/Locality.h"
#include "codegen/ThreadedC.h"
#include "frontend/Simplify.h"
#include "interp/Bytecode.h"
#include "interp/Lower.h"
#include "simple/Printer.h"
#include "simple/Verifier.h"
#include "support/Metrics.h"

using namespace earthcc;

PipelineObserver::~PipelineObserver() = default;
void PipelineObserver::stageStarted(const std::string &, const Module *) {}
void PipelineObserver::stageFinished(const StageReport &, const Module *) {}
void PipelineObserver::runFinished(const RunResult &, const MachineConfig &) {}

void IRDumpObserver::stageFinished(const StageReport &Report,
                                   const Module *M) {
  OS << ";; ==== IR after " << Report.Name << " ====\n";
  if (M)
    OS << printModule(*M);
  OS << "\n";
}

/// Runs one named, timed, observed stage. \p GetM resolves the current
/// module for observer callbacks — a callable, not a pointer, because the
/// first compile stage creates the module inside its body (stageStarted
/// sees null, stageFinished sees the fresh module). \p Body receives the
/// stage-local Statistics and returns false on failure; counters are merged
/// into \p MergeInto when non-null. This is the shared core behind the
/// compile() stages (which accumulate into a CompileResult) and
/// post-compile stages like codegen (which operate on a const Module).
template <typename ModuleGetter, typename BodyFn>
bool Pipeline::runStageOn(const char *Name, ModuleGetter &&GetM,
                          Statistics *MergeInto, BodyFn &&Body) {
  for (PipelineObserver *O : Observers)
    O->stageStarted(Name, GetM());

  StageReport Rep;
  Rep.Name = Name;
  auto T0 = std::chrono::steady_clock::now();
  if (WallBase == std::chrono::steady_clock::time_point{})
    WallBase = T0;
  bool OK = Body(Rep.Counters);
  auto T1 = std::chrono::steady_clock::now();
  Rep.WallNs = std::chrono::duration<double, std::nano>(T1 - T0).count();
  if (MergeInto)
    MergeInto->merge(Rep.Counters);

  // Host-side observability only: the same wall time the trace span gets
  // also lands in the process metrics registry, so per-stage timing is
  // queryable live (serve "metrics" op, --metrics) instead of only via
  // --trace. Nothing here feeds back into compilation.
  MetricsRegistry::global()
      .histogram("pipeline.stage_ns", {{"stage", Name}})
      .observe(Rep.WallNs <= 0 ? 0 : static_cast<uint64_t>(Rep.WallNs));

  if (Sink) {
    TraceEvent E;
    E.Name = Name;
    E.Cat = "pass";
    E.Ph = 'X';
    E.TsNs = std::chrono::duration<double, std::nano>(T0 - WallBase).count();
    E.DurNs = Rep.WallNs;
    E.Pid = 0;
    E.Tid = TraceTidPass;
    for (const auto &[Key, Value] : Rep.Counters.all())
      E.Args.emplace_back(Key, Value);
    if (!OK)
      E.Args.emplace_back("failed", 1);
    Sink->event(E);
  }

  Stages.push_back(std::move(Rep));
  for (PipelineObserver *O : Observers)
    O->stageFinished(Stages.back(), GetM());
  return OK;
}

/// Runs one named, timed, observed stage. \p Body receives the stage-local
/// Statistics and returns false on failure (with R.Messages set).
template <typename BodyFn>
bool Pipeline::runStage(const char *Name, CompileResult &R, BodyFn &&Body) {
  return runStageOn(
      Name, [&R]() -> const Module * { return R.M.get(); }, &R.Stats,
      std::forward<BodyFn>(Body));
}

CompileResult Pipeline::compile(const std::string &Source) {
  Stages.clear();
  CompileResult R;
  DiagnosticsEngine Diags;

  bool OK = runStage("simplify", R, [&](Statistics &S) {
    R.M = compileToSimple(Source, Diags);
    if (Diags.hasErrors()) {
      R.Messages = Diags.str();
      return false;
    }
    S.add("simplify.functions", R.M->functions().size());
    return true;
  });
  if (!OK)
    return R;

  OK = runStage("verify", R, [&](Statistics &) {
    std::vector<std::string> Errors;
    if (verifyModule(*R.M, Errors))
      return true;
    R.Messages = "internal error: Simplify produced invalid SIMPLE:\n";
    for (const std::string &E : Errors)
      R.Messages += "  " + E + "\n";
    return false;
  });
  if (!OK)
    return R;

  if (Opts.InferLocality) {
    if (!runStage("locality", R, [&](Statistics &S) {
          inferLocality(*R.M, S);
          return true;
        }))
      return R;
  }

  if (Opts.Optimize) {
    // The communication optimization runs as two named stages so the
    // analysis cost is attributable separately from the rewrite: placement
    // snapshots the module (points-to, side effects, per-function
    // possible-placement sets), comm-select performs the per-function
    // rewrites against that snapshot.
    std::unique_ptr<CommAnalysis> CA;
    OK = runStage("placement", R, [&](Statistics &S) {
      CA = std::make_unique<CommAnalysis>(*R.M, Opts.comm(), S);
      return true;
    });
    if (!OK)
      return R;

    OK = runStage("comm-select", R, [&](Statistics &S) {
      std::vector<std::string> Errors;
      if (selectModuleCommunication(*R.M, *CA, Opts, S, Errors, &R.Remarks)) {
        S.add("select.remarks", R.Remarks.size());
        return true;
      }
      R.Messages =
          "internal error: communication selection broke the module:\n";
      for (const std::string &E : Errors)
        R.Messages += "  " + E + "\n";
      return false;
    });
    if (!OK)
      return R;
  }

  // Pre-lower to the register bytecode (the default execution engine).
  // getOrLowerBytecode memoizes the result on the Module, so this stage
  // pays the lowering cost exactly once and every subsequent run() — at any
  // machine size — dispatches straight over the cached opcode streams.
  OK = runStage("lower", R, [&](Statistics &S) {
    const BytecodeModule &BM = getOrLowerBytecode(*R.M);
    size_t Insns = 0;
    for (const auto &BF : BM.Funcs)
      Insns += BF->Code.size();
    S.add("lower.functions", BM.Funcs.size());
    S.add("lower.instructions", Insns);
    return true;
  });
  if (!OK)
    return R;

  R.OK = true;
  return R;
}

std::string Pipeline::emitThreadedC(const Module &M) {
  std::string Out;
  runStageOn(
      "codegen", [&M]() -> const Module * { return &M; }, nullptr,
      [&](Statistics &S) {
        // The emitter reads the memoized lower product — the same cached
        // bytecode the simulator executes — so a compile()d module pays no
        // second lowering here and slot numbering cannot diverge between
        // the emitted program and the engines.
        const BytecodeModule &BM = getOrLowerBytecode(M);
        uint64_t Threads = 0, SyncSlots = 0;
        for (const auto &BF : BM.Funcs) {
          ThreadedCInfo Info;
          Out += ::earthcc::emitThreadedC(BM, *BF, &Info) + "\n";
          Threads += Info.Threads;
          SyncSlots += Info.SyncSlots;
        }
        S.add("codegen.functions", BM.Funcs.size());
        S.add("codegen.threads", Threads);
        S.add("codegen.sync-slots", SyncSlots);
        S.add("codegen.bytes", Out.size());
        return true;
      });
  return Out;
}

/// Emits the 'M' metadata events that name each simulated node's tracks in
/// the trace viewer.
static void emitMachineMetadata(TraceSink &Sink, const MachineConfig &MC) {
  auto Meta = [&](const char *What, uint32_t Pid, uint32_t Tid,
                  std::string Name) {
    TraceEvent E;
    E.Name = What;
    E.Cat = "meta";
    E.Ph = 'M';
    E.Pid = Pid;
    E.Tid = Tid;
    E.Args.emplace_back("name", std::move(Name));
    Sink.event(E);
  };
  for (unsigned N = 0; N != std::max(1u, MC.NumNodes); ++N) {
    Meta("process_name", N, TraceTidEU, "node " + std::to_string(N));
    Meta("thread_name", N, TraceTidEU, "EU");
    Meta("thread_name", N, TraceTidSU, "SU");
    Meta("thread_name", N, TraceTidComm, "in-flight comm");
  }
  Meta("thread_name", 0, TraceTidPass, "driver/passes");
}

RunResult Pipeline::run(const Module &M, const MachineConfig &MC,
                        const std::string &Entry,
                        const std::vector<RtValue> &Args) {
  MachineConfig Cfg = MC;
  if (!Cfg.Trace)
    Cfg.Trace = Sink;
  if (Cfg.Trace)
    emitMachineMetadata(*Cfg.Trace, Cfg);

  RunResult R = runProgram(M, Cfg, Entry, Args);

  if (Cfg.Trace) {
    // One summary span over the whole run, in simulated time.
    TraceEvent E;
    E.Name = "run:" + Entry;
    E.Cat = "run";
    E.Ph = 'X';
    E.TsNs = 0.0;
    E.DurNs = R.TimeNs;
    E.Pid = 0;
    E.Tid = TraceTidPass;
    E.Args.emplace_back("nodes", Cfg.NumNodes);
    E.Args.emplace_back("steps", R.StepsExecuted);
    E.Args.emplace_back("remote-ops", R.Counters.total());
    E.Args.emplace_back("words-moved", R.Counters.WordsMoved);
    Cfg.Trace->event(E);
  }

  for (PipelineObserver *O : Observers)
    O->runFinished(R, Cfg);
  return R;
}

CompileResult Pipeline::compile(const CompileRequest &Req) {
  Opts = PipelineOptions(Req);
  return compile(Req.Source);
}

RunResult Pipeline::run(const Module &M, const RunRequest &Req) {
  return run(M, Req.machine(), Req.Entry, Req.Args);
}

RunResult Pipeline::run(const CompileResult &CR, const RunRequest &Req) {
  if (!CR.OK) {
    RunResult R;
    R.Error = CR.Messages;
    return R;
  }
  return run(*CR.M, Req);
}

RunResult Pipeline::run(const CompileResult &CR, const MachineConfig &MC,
                        const std::string &Entry,
                        const std::vector<RtValue> &Args) {
  if (!CR.OK) {
    RunResult R;
    R.Error = CR.Messages;
    return R;
  }
  return run(*CR.M, MC, Entry, Args);
}

RunResult Pipeline::compileAndRun(const std::string &Source,
                                  const MachineConfig &MC,
                                  const std::string &Entry,
                                  const std::vector<RtValue> &Args) {
  return run(compile(Source), MC, Entry, Args);
}

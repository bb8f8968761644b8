//===- Pipeline.h - The earthcc driver API ----------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver as an object: a Pipeline owns one configuration, compiles
/// EARTH-C source through named stages (simplify -> verify -> [locality] ->
/// [comm-select]) and runs compiled modules on simulated machines. It
/// replaces the three ad-hoc plumbing paths (free driver functions, the
/// bench harnesses' hand-rolled option wiring, earthcc_main) with one API:
///
///   Pipeline P(PipelineOptions::optimized());
///   CompileResult CR = P.compile(Source);       // once
///   RunResult R4 = P.run(*CR.M, machine(4));    // run N times, no recompile
///   RunResult R8 = P.run(*CR.M, machine(8));
///
/// Observability hangs off the same object:
///
///  - setTraceSink() attaches a TraceSink; compile stages emit wall-clock
///    pass-duration events (with per-stage counters as args), and every run
///    forwards the sink into the interpreter, which emits the per-node
///    split-phase/blkmov/sync event stream in simulated time.
///
///  - addObserver() registers a PipelineObserver for structured callbacks:
///    per-stage reports (wall time + stage-local Statistics) and per-run
///    results. IRDumpObserver is the canonical example — it prints the
///    SIMPLE module after every stage ("dump IR after pass").
///
/// The preferred way to describe work is the request API in
/// driver/Request.h: an immutable, hashable CompileRequest/RunRequest pair
/// with a canonical serialization (the CompileService's cache key).
/// compile() and run() accept requests directly; the PipelineOptions /
/// MachineConfig overloads remain for callers that wire knobs by hand.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_DRIVER_PIPELINE_H
#define EARTHCC_DRIVER_PIPELINE_H

#include "driver/Request.h"
#include "interp/Interp.h"
#include "simple/Function.h"
#include "support/Remark.h"
#include "support/Statistics.h"
#include "support/Trace.h"

#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace earthcc {

/// The merged pipeline configuration: every communication-selection knob
/// (inherited flat from CommOptions, e.g. Opts.BlockThresholdWords) plus
/// the phase toggles. The presets mirror the paper's two program versions;
/// a CompileRequest converts directly, so request-driven and hand-wired
/// callers share one configuration type.
struct PipelineOptions : CommOptions {
  bool Optimize = true; ///< Run the communication optimization (Phase II).
  /// Run locality inference first (downgrades pseudo-remote accesses whose
  /// functions are always invoked at the data's owner). Off by default to
  /// match the paper's "simple vs optimized" experiment, where locality
  /// handling is orthogonal prior work.
  bool InferLocality = false;

  PipelineOptions() = default;
  /// The compile-side knobs of \p Req as a pipeline configuration (the
  /// request's Source is not carried — pass it to compile()).
  PipelineOptions(const CompileRequest &Req)
      : CommOptions(Req.Comm), Optimize(Req.Optimize),
        InferLocality(Req.InferLocality) {}

  /// The paper's "simple" program version: no communication optimization.
  static PipelineOptions simple() {
    PipelineOptions O;
    O.Optimize = false;
    return O;
  }
  /// The paper's "optimized" version: full communication selection.
  static PipelineOptions optimized() { return PipelineOptions(); }

  /// This options object viewed as the communication-selection policy.
  const CommOptions &comm() const { return *this; }
};

/// Outcome of a compilation.
struct CompileResult {
  bool OK = false;
  std::unique_ptr<Module> M;
  Statistics Stats;     ///< Pass counters (select.* keys).
  std::string Messages; ///< Diagnostics / verifier errors when !OK.
  /// Structured optimization remarks from the placement analysis and the
  /// communication-selection transform, in emission order (a stage product
  /// of the "comm-select" stage; empty when optimization is off).
  RemarkStream Remarks;
};

/// What one pipeline stage did: its name, host wall time, and the counters
/// it incremented (stage-local; Pipeline merges them into the compilation
/// total).
struct StageReport {
  std::string Name;
  double WallNs = 0.0;
  Statistics Counters;
};

/// Callbacks around pipeline activity. All hooks default to no-ops;
/// observers are non-owning and must outlive the Pipeline's use of them.
class PipelineObserver {
public:
  virtual ~PipelineObserver();
  /// \p M is the module so far (null for the first stage, which creates it).
  virtual void stageStarted(const std::string &Name, const Module *M);
  virtual void stageFinished(const StageReport &Report, const Module *M);
  virtual void runFinished(const RunResult &Result, const MachineConfig &MC);
};

/// Prints the SIMPLE module after each stage — the classic
/// -print-after-all debugging hook.
class IRDumpObserver : public PipelineObserver {
public:
  explicit IRDumpObserver(std::ostream &OS) : OS(OS) {}
  void stageFinished(const StageReport &Report, const Module *M) override;

private:
  std::ostream &OS;
};

/// The driver object. Cheap to construct; holds no compilation state other
/// than the reports of the most recent compile().
class Pipeline {
public:
  Pipeline() = default;
  explicit Pipeline(const PipelineOptions &Opts) : Opts(Opts) {}

  PipelineOptions &options() { return Opts; }
  const PipelineOptions &options() const { return Opts; }

  /// Registers \p O (non-owning) for stage/run callbacks.
  Pipeline &addObserver(PipelineObserver *O) {
    Observers.push_back(O);
    return *this;
  }

  /// Attaches \p S (non-owning, may be null to detach): compile stages emit
  /// pass-duration events, and runs forward the sink to the interpreter
  /// unless the MachineConfig already carries one.
  Pipeline &setTraceSink(TraceSink *S) {
    Sink = S;
    return *this;
  }
  TraceSink *traceSink() const { return Sink; }

  /// Compiles EARTH-C source into a verified (and, per options, optimized)
  /// module. Stage reports are retained and queryable via stages().
  CompileResult compile(const std::string &Source);

  /// Compiles \p Req. The request *is* the configuration: this pipeline's
  /// options are replaced by the request's compile-side knobs first, so the
  /// produced artifact is a pure function of the request value — the
  /// property the CompileService's content-addressed cache relies on.
  CompileResult compile(const CompileRequest &Req);

  /// Runs a previously compiled module on \p MC — compile once, run at any
  /// number of machine configurations without touching source text again.
  RunResult run(const Module &M, const MachineConfig &MC,
                const std::string &Entry = "main",
                const std::vector<RtValue> &Args = {});

  /// Runs \p M as described by \p Req (machine shape, engine, entry, args;
  /// Req.Sink / Req.Profiler are forwarded as the run's instrumentation).
  RunResult run(const Module &M, const RunRequest &Req);

  /// Convenience: request-driven run of a CompileResult.
  RunResult run(const CompileResult &CR, const RunRequest &Req);

  /// Convenience: run a CompileResult, turning a compile failure into a
  /// failed RunResult carrying the diagnostics.
  RunResult run(const CompileResult &CR, const MachineConfig &MC,
                const std::string &Entry = "main",
                const std::vector<RtValue> &Args = {});

  /// compile() + run() in one step.
  RunResult compileAndRun(const std::string &Source, const MachineConfig &MC,
                          const std::string &Entry = "main",
                          const std::vector<RtValue> &Args = {});

  /// Emits Threaded-C for \p M as a named, timed, observed "codegen" stage.
  /// The emitter consumes the memoized "lower" stage product
  /// (getOrLowerBytecode): after compile() the bytecode is already cached on
  /// the module, so codegen re-reads the exact streams the simulator
  /// executes — slot numbering in the emitted program and in the engines
  /// cannot diverge. The stage is appended to stages() (and traced like any
  /// compile stage), so `--stats`/`--trace` cover codegen too.
  std::string emitThreadedC(const Module &M);

  /// Reports for the most recent compile(), in execution order.
  const std::vector<StageReport> &stages() const { return Stages; }

private:
  template <typename ModuleGetter, typename BodyFn>
  bool runStageOn(const char *Name, ModuleGetter &&GetM,
                  Statistics *MergeInto, BodyFn &&Body);
  template <typename BodyFn>
  bool runStage(const char *Name, CompileResult &R, BodyFn &&Body);

  PipelineOptions Opts;
  TraceSink *Sink = nullptr;
  std::vector<PipelineObserver *> Observers;
  std::vector<StageReport> Stages;
  /// Zero point for pass-event timestamps; set by the first traced stage so
  /// successive compiles through one Pipeline share a monotonic timeline.
  std::chrono::steady_clock::time_point WallBase{};
};

} // namespace earthcc

#endif // EARTHCC_DRIVER_PIPELINE_H

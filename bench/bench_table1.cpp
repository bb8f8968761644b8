//===- bench_table1.cpp - Reproduces Table I ------------------------------===//
//
// Part of the earthcc project.
//
// Table I of the paper: cost of communication on EARTH-MANNA, sequential
// vs pipelined, for remote reads, remote writes and blkmovs. We measure
// the *simulated* machine end-to-end, by compiling and running small
// EARTH-C microbenchmarks:
//
//  - sequential: each operation's result is consumed immediately (a
//    dependent chain), so every operation pays the full round trip;
//  - pipelined: operations are issued back-to-back and synchronized at
//    the end, so the per-operation cost is the EU issue cost.
//
// The numbers must match the paper's table (the cost model is calibrated
// to it); this harness verifies the simulator actually delivers them.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/ProfileReport.h"
#include "service/CompileService.h"
#include "support/CommProfiler.h"
#include "support/Metrics.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace earthcc;

namespace {

/// Runs a 2-node microbenchmark and returns the per-op time over N ops,
/// subtracting the time of a calibration run with Ops0 operations. The
/// measured (non-calibration) run feeds \p Sink when one is given, so the
/// counter report reflects exactly the operations being timed.
double perOpTime(const std::string &Src, const std::string &SrcBase, int Ops,
                 TraceSink *Sink = nullptr) {
  Pipeline P(PipelineOptions::simple());
  MachineConfig MC;
  MC.NumNodes = 2;
  MC.Trace = Sink;
  RunResult Full = P.compileAndRun(Src, MC);
  MachineConfig BaseMC;
  BaseMC.NumNodes = 2;
  RunResult Base = P.compileAndRun(SrcBase, BaseMC);
  if (!Full.OK || !Base.OK) {
    std::fprintf(stderr, "microbenchmark failed: %s%s\n", Full.Error.c_str(),
                 Base.Error.c_str());
    return -1.0;
  }
  return (Full.TimeNs - Base.TimeNs) / Ops;
}

std::string readProgram(int Reps, bool Pipelined) {
  std::string Body;
  if (Pipelined) {
    // 8 independent reads per iteration, consumed after issue.
    Body = R"(
      t1 = r->a; t2 = r->b; t3 = r->c; t4 = r->d;
      t5 = r->e; t6 = r->f; t7 = r->g; t8 = r->h;
      s = s + t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8;
    )";
  } else {
    // A dependent chain: each read feeds the address of the next.
    Body = R"(
      p = q->self; p = p->self; p = p->self; p = p->self;
      p = p->self; p = p->self; p = p->self; p = p->self;
      q = p;
    )";
  }
  std::string Src = R"(
    struct rec { int a; int b; int c; int d; int e; int f; int g; int h; };
    struct cell { cell *self; int pad; };
    int main() {
      rec *r;
      cell *q; cell *p;
      int t1; int t2; int t3; int t4; int t5; int t6; int t7; int t8;
      int s; int i;
      r = pmalloc(sizeof(rec))@node(1);
      r->a = 1; r->b = 2; r->c = 3; r->d = 4;
      r->e = 5; r->f = 6; r->g = 7; r->h = 8;
      q = pmalloc(sizeof(cell))@node(1);
      q->self = q;
      q->pad = 0;
      s = 0;
      for (i = 0; i < )" + std::to_string(Reps) + R"(; i = i + 1) {
  )" + Body + R"(
      }
      return s % 1000;
    }
  )";
  return Src;
}

std::string writeProgram(int Reps) {
  // 8 independent split-phase writes per iteration (pipelined).
  return R"(
    struct rec { int a; int b; int c; int d; int e; int f; int g; int h; };
    int main() {
      rec *r;
      int i;
      r = pmalloc(sizeof(rec))@node(1);
      for (i = 0; i < )" + std::to_string(Reps) + R"(; i = i + 1) {
        r->a = i; r->b = i; r->c = i; r->d = i;
        r->e = i; r->f = i; r->g = i; r->h = i;
      }
      return 0;
    }
  )";
}

/// Host wall-clock nanoseconds per simulation of \p CR under \p Engine
/// (median-free mean over \p Iters runs after one warmup, which also pays
/// the one-time bytecode lowering so it is not billed to either engine).
double hostSimNs(Pipeline &P, const CompileResult &CR, ExecEngine Engine,
                 int Iters, BcDispatch Dispatch = defaultDispatch()) {
  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  MC.Engine = Engine;
  MC.Dispatch = Dispatch;
  RunResult Warm = P.run(CR, MC);
  if (!Warm.OK) {
    std::fprintf(stderr, "host-time benchmark failed: %s\n",
                 Warm.Error.c_str());
    return -1.0;
  }
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Iters; ++I)
    P.run(CR, MC);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(T1 - T0).count() / Iters;
}

/// Minimum host wall time over \p Iters simulations, with \p Prof attached
/// when non-null. The profiler-overhead comparison uses minimums rather
/// than means: a minimum rejects the scheduler spikes that would otherwise
/// dominate a small relative difference.
double hostSimMinNs(Pipeline &P, const CompileResult &CR, int Iters,
                    CommProfiler *Prof) {
  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  MC.Engine = ExecEngine::Bytecode;
  MC.Profiler = Prof;
  P.run(CR, MC); // warmup
  double Best = -1.0;
  for (int I = 0; I != Iters; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    P.run(CR, MC);
    auto T1 = std::chrono::steady_clock::now();
    double Ns = std::chrono::duration<double, std::nano>(T1 - T0).count();
    if (Best < 0 || Ns < Best)
      Best = Ns;
  }
  return Best;
}

/// One measured phase of the service sweep: closed-loop clients, each
/// submitting its next request only after the previous response arrived.
struct ServicePhase {
  double MinNs = 0, MedNs = 0, AvgNs = 0, MaxNs = 0;
  double CompilesPerSec = 0; ///< Compile *executions* retired per second.
  double SimsPerSec = 0;     ///< Responses carrying a sim result per second.
  bool OK = true;
};

/// Drives \p Reqs through \p Svc from \p Clients closed-loop client
/// threads and reports client-observed latency plus throughput.
ServicePhase servicePhase(CompileService &Svc,
                          const std::vector<CompileRequest> &Reqs,
                          const RunRequest &RR, unsigned Clients) {
  ServicePhase Out;
  std::vector<double> Lat(Reqs.size(), 0.0);
  std::atomic<size_t> Next{0};
  std::atomic<bool> AllOK{true};
  ServiceStats Before = Svc.stats();
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&] {
      for (size_t I = Next.fetch_add(1); I < Lat.size();
           I = Next.fetch_add(1)) {
        auto S = std::chrono::steady_clock::now();
        RunResponse R = Svc.submitRun(Reqs[I], RR).get();
        auto E = std::chrono::steady_clock::now();
        Lat[I] = std::chrono::duration<double, std::nano>(E - S).count();
        if (!R.OK)
          AllOK = false;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  double WallSec = std::chrono::duration<double>(T1 - T0).count();
  ServiceStats After = Svc.stats();

  std::vector<double> Sorted = Lat;
  std::sort(Sorted.begin(), Sorted.end());
  Out.MinNs = Sorted.front();
  Out.MaxNs = Sorted.back();
  Out.MedNs = Sorted[Sorted.size() / 2];
  for (double L : Lat)
    Out.AvgNs += L;
  Out.AvgNs /= Lat.size();
  if (WallSec > 0) {
    Out.CompilesPerSec =
        (After.CompileExecutions - Before.CompileExecutions) / WallSec;
    Out.SimsPerSec = Lat.size() / WallSec;
  }
  Out.OK = AllOK;
  return Out;
}

/// Pass wall times (ns, health/optimized) captured on the reference bench
/// host right before SideEffects and the selection redundancy table moved
/// from node-based std::set/std::map to hashed flat sets — the "before"
/// half of the before/after record in BENCH_comm.json.
const char *kPassNsBeforeFlatSets =
    "{\"simplify\": 491206, \"verify\": 57978, \"comm-select\": 18397939, "
    "\"lower\": 156147, \"codegen\": 225375}";

} // namespace

int main(int argc, char **argv) {
  const int Reps = 1000;
  CostModel CM;

  // --json OUT: also aggregate the measured runs through the counter sink
  // and write the compact BENCH_comm.json perf artifact.
  std::string JsonPath;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--json" && I + 1 < argc)
      JsonPath = argv[++I];
  }
  CounterTraceSink Counters;
  TraceSink *Sink = JsonPath.empty() ? nullptr : &Counters;

  std::printf("Table I: Cost of communication on simulated EARTH-MANNA\n");
  std::printf("(microbenchmarks on 2 nodes, %d operations each; "
              "paper values: read 7109/1908, write 6458/1749, "
              "blkmov 9700/2602 ns)\n\n",
              Reps);

  // Reads. Sequential: 8 dependent reads per iteration.
  double SeqRead = perOpTime(readProgram(Reps / 8, false),
                             readProgram(0, false), Reps, Sink);
  double PipeRead = perOpTime(readProgram(Reps / 8, true),
                              readProgram(0, true), Reps, Sink);

  // Writes. EARTH writes are fire-and-forget (only fiber settlement waits
  // on them), so "sequential" write latency comes from the calibrated
  // analytic model; the pipelined issue cost is measured.
  double SeqWrite = CM.sequentialWrite();
  double PipeWrite =
      perOpTime(writeProgram(Reps / 8), writeProgram(0), Reps, Sink);

  // Blkmovs: the analytic one-word figures (validated in unit tests; the
  // optimizer benches measure multi-word blkmovs in context).
  double SeqBlk = CM.sequentialBlk(1);
  double PipeBlk = CM.BlkIssue;

  TablePrinter T({"EARTH operation", "Sequential (ns)", "Pipelined (ns)",
                  "paper seq", "paper pipe"});
  T.addRow({"Read word", TablePrinter::fmt(SeqRead, 0),
            TablePrinter::fmt(PipeRead, 0), "7109", "1908"});
  T.addRow({"Write word", TablePrinter::fmt(SeqWrite, 0),
            TablePrinter::fmt(PipeWrite, 0), "6458", "1749"});
  T.addRow({"Blkmov word", TablePrinter::fmt(SeqBlk, 0),
            TablePrinter::fmt(PipeBlk, 0), "9700", "2602"});
  T.print(std::cout);

  // The crossover the paper reports: blkmov wins at >= 3 words. The right
  // comparison is the completion time of the whole group (last word
  // available), i.e. pipelined issue costs plus one residual latency
  // versus a single block transfer.
  std::printf("\nPipelined-vs-blocked crossover "
              "(group completion latency):\n");
  TablePrinter X({"words moved", "K pipelined reads (ns)", "one blkmov (ns)",
                  "winner"});
  int Crossover = 0;
  for (int W = 1; W <= 6; ++W) {
    double Pipe =
        W * CM.ReadIssue + 2 * CM.NetDelay + CM.SUReadService;
    double Blk = CM.sequentialBlk(W);
    if (Blk < Pipe && Crossover == 0)
      Crossover = W;
    X.addRow({std::to_string(W), TablePrinter::fmt(Pipe, 0),
              TablePrinter::fmt(Blk, 0), Pipe < Blk ? "pipelined" : "blkmov"});
  }
  X.print(std::cout);
  std::printf("\n=> blocked transfer wins from %d words on "
              "(paper threshold: 3)\n",
              Crossover);

  // Host-side engine comparison: wall-clock time to simulate the largest
  // Olden workload (health, optimized, 4 nodes) under the AST walker vs
  // the bytecode engine. Simulated results are identical by construction
  // (the engine-equivalence tests assert it); this measures only how fast
  // the host reaches them.
  const int SimIters = 3;
  Pipeline SimP(workloadOptions(RunMode::Optimized));
  CompileResult SimCR = SimP.compile(findWorkload("health")->Source);
  double AstNs = hostSimNs(SimP, SimCR, ExecEngine::AST, SimIters);
  double BcNs = hostSimNs(SimP, SimCR, ExecEngine::Bytecode, SimIters);
  // Dispatch axis: the same bytecode run under the portable switch loop.
  // BcNs above used the build default (computed goto where the build
  // carries it), so on a GCC/Clang build the pair isolates the dispatch
  // strategy alone.
  double BcSwitchNs = hostSimNs(SimP, SimCR, ExecEngine::Bytecode, SimIters,
                                BcDispatch::Switch);
  double DispatchSpeedup =
      (BcSwitchNs > 0 && BcNs > 0) ? BcSwitchNs / BcNs : 0.0;
  double Speedup = (AstNs > 0 && BcNs > 0) ? AstNs / BcNs : 0.0;
  std::printf("\nHost simulation time (health, optimized, 4 nodes, "
              "mean of %d runs):\n"
              "  ast               %10.1f ms\n"
              "  bytecode          %10.1f ms   (%.2fx speedup)\n",
              SimIters, AstNs / 1e6, BcNs / 1e6, Speedup);
  std::printf("\nBytecode dispatch strategy (same run):\n"
              "  %-17s %10.1f ms\n"
              "  switch loop       %10.1f ms   (default is %.2fx vs switch)\n",
              computedGotoAvailable() ? "computed goto" : "switch (default)",
              BcNs / 1e6, BcSwitchNs / 1e6, DispatchSpeedup);

  // Profiler overhead: the per-site observability must stay out of the hot
  // loop when detached (one predictable branch per comm op) and cheap when
  // attached. Min-of-N wall times over the same run, profiler off vs on.
  const int ProfIters = 5;
  CommProfiler Prof;
  double ProfOffNs = hostSimMinNs(SimP, SimCR, ProfIters, nullptr);
  double ProfOnNs = hostSimMinNs(SimP, SimCR, ProfIters, &Prof);
  double ProfOverheadPct =
      ProfOffNs > 0 ? 100.0 * (ProfOnNs - ProfOffNs) / ProfOffNs : 0.0;
  std::printf("\nCommProfiler overhead (health, optimized, 4 nodes, "
              "min of %d runs):\n"
              "  profiler off    %10.1f ms\n"
              "  profiler on     %10.1f ms   (%+.1f%%)\n"
              "  recorded: %llu remote messages across %u sites\n",
              ProfIters, ProfOffNs / 1e6, ProfOnNs / 1e6, ProfOverheadPct,
              (unsigned long long)Prof.totalMsgs(), Prof.numSites());

  // Per-pass host wall times for the optimized compile of health, plus the
  // Threaded-C "codegen" stage over the memoized bytecode. Emitting here
  // appends codegen to SimP.stages(), so the report covers the whole
  // source-to-Threaded-C path.
  std::string ThreadedC = SimP.emitThreadedC(*SimCR.M);
  std::printf("\nCompiler pass wall times (health, optimized; codegen "
              "emitted %zu bytes of Threaded-C):\n",
              ThreadedC.size());
  for (const StageReport &SR : SimP.stages())
    std::printf("  %-12s %10.1f us\n", SR.Name.c_str(), SR.WallNs / 1e3);

  // Service request sweep: the CompileService under closed-loop load at
  // 1/4/8 client threads. The cold phase submits distinct requests (every
  // one a cache miss: a full compile + simulate), then one warmup request
  // installs the warm key, and the warm phase replays that identical
  // request — the content-addressed cache must serve it without executing
  // anything, so warm throughput bounds the dispatch + lookup overhead.
  const int SweepReqs = 16;
  const std::string SvcSrc = findWorkload("power")->Source;
  struct SweepRow {
    unsigned Clients;
    ServicePhase Cold, Warm;
  };
  std::vector<SweepRow> Sweep;
  std::printf("\nCompileService request sweep (power, 4 nodes, %d requests "
              "per phase,\nclosed-loop clients; cold = distinct sources, "
              "warm = one cached request):\n",
              SweepReqs);
  TablePrinter SvcT({"clients", "cold med (ms)", "cold req/s",
                     "warm med (us)", "warm req/s", "warm speedup"});
  for (unsigned Clients : {1u, 4u, 8u}) {
    ServiceConfig SC;
    SC.Workers = Clients;
    // Record into the process-wide registry so the sweep's cache hit/miss
    // counts land in the "metrics" block of BENCH_comm.json.
    SC.Metrics = &MetricsRegistry::global();
    CompileService Svc(SC);
    RunRequest RR;
    RR.Nodes = 4;

    std::vector<CompileRequest> Cold;
    for (int I = 0; I != SweepReqs; ++I)
      Cold.push_back(CompileRequest::optimized(
          SvcSrc + "\n/* cold " + std::to_string(Clients) + "." +
          std::to_string(I) + " */"));
    ServicePhase ColdPhase = servicePhase(Svc, Cold, RR, Clients);

    CompileRequest WarmReq = CompileRequest::optimized(SvcSrc);
    Svc.submitRun(WarmReq, RR).get(); // warmup: installs the warm key
    std::vector<CompileRequest> Warm(SweepReqs, WarmReq);
    ServicePhase WarmPhase = servicePhase(Svc, Warm, RR, Clients);

    if (!ColdPhase.OK || !WarmPhase.OK)
      std::fprintf(stderr, "service sweep: request failed at %u clients\n",
                   Clients);
    double Speedup = ColdPhase.SimsPerSec > 0
                         ? WarmPhase.SimsPerSec / ColdPhase.SimsPerSec
                         : 0.0;
    SvcT.addRow({std::to_string(Clients),
                 TablePrinter::fmt(ColdPhase.MedNs / 1e6, 2),
                 TablePrinter::fmt(ColdPhase.SimsPerSec, 1),
                 TablePrinter::fmt(WarmPhase.MedNs / 1e3, 1),
                 TablePrinter::fmt(WarmPhase.SimsPerSec, 1),
                 TablePrinter::fmt(Speedup, 1) + "x"});
    Sweep.push_back({Clients, ColdPhase, WarmPhase});
  }
  SvcT.print(std::cout);

  // Topology sweep: the paper's placement/selection wins were measured on
  // an ideal constant-latency network. Re-run simple vs optimized under
  // link contention (bus, torus2d) across machine sizes to see where the
  // win grows, shrinks, or inverts. Each workload/mode compiles once; the
  // module is node- and topology-independent, so only the runs vary.
  struct TopoRow {
    std::string Workload;
    const char *Topo;
    unsigned Nodes;
    double SimpleNs, OptNs;
  };
  std::vector<TopoRow> TopoRows;
  {
    std::printf("\nTopology sweep (simulated time, simple vs optimized):\n");
    TablePrinter TT({"workload", "topology", "nodes", "simple (us)",
                     "optimized (us)", "speedup"});
    for (const char *WName : {"health", "power"}) {
      const Workload *W = findWorkload(WName);
      Pipeline SimpleP(workloadOptions(RunMode::Simple));
      Pipeline OptP(workloadOptions(RunMode::Optimized));
      CompileResult SimpleCR = SimpleP.compile(W->Source);
      CompileResult OptCR = OptP.compile(W->Source);
      if (!SimpleCR.OK || !OptCR.OK) {
        std::fprintf(stderr, "topology sweep: compile of %s failed\n", WName);
        continue;
      }
      for (Topology Topo :
           {Topology::Ideal, Topology::Bus, Topology::Torus2D}) {
        for (unsigned Nodes : {4u, 16u, 64u}) {
          MachineConfig SM = workloadMachine(RunMode::Simple, Nodes);
          SM.Topo = Topo;
          MachineConfig OM = workloadMachine(RunMode::Optimized, Nodes);
          OM.Topo = Topo;
          RunResult RS = SimpleP.run(SimpleCR, SM);
          RunResult RO = OptP.run(OptCR, OM);
          if (!RS.OK || !RO.OK) {
            std::fprintf(stderr, "topology sweep: run of %s failed: %s%s\n",
                         WName, RS.Error.c_str(), RO.Error.c_str());
            continue;
          }
          TopoRows.push_back(
              {WName, topologyName(Topo), Nodes, RS.TimeNs, RO.TimeNs});
          TT.addRow({WName, topologyName(Topo), std::to_string(Nodes),
                     TablePrinter::fmt(RS.TimeNs / 1e3, 1),
                     TablePrinter::fmt(RO.TimeNs / 1e3, 1),
                     TablePrinter::fmt(
                         RO.TimeNs > 0 ? RS.TimeNs / RO.TimeNs : 0.0, 2) +
                         "x"});
        }
      }
    }
    TT.print(std::cout);
  }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
      return 1;
    }
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "{\n"
                  "  \"bench\": \"table1\",\n"
                  "  \"nodes\": 2,\n"
                  "  \"ops_per_microbench\": %d,\n"
                  "  \"read_seq_ns\": %.1f, \"read_pipe_ns\": %.1f,\n"
                  "  \"write_seq_ns\": %.1f, \"write_pipe_ns\": %.1f,\n"
                  "  \"blkmov_seq_ns\": %.1f, \"blkmov_pipe_ns\": %.1f,\n"
                  "  \"blocking_crossover_words\": %d,\n",
                  Reps, SeqRead, PipeRead, SeqWrite, PipeWrite, SeqBlk,
                  PipeBlk, Crossover);
    Out << Buf;
    Out << "  \"paper\": {\"read_seq_ns\": 7109, \"read_pipe_ns\": 1908, "
           "\"write_seq_ns\": 6458, \"write_pipe_ns\": 1749, "
           "\"blkmov_seq_ns\": 9700, \"blkmov_pipe_ns\": 2602, "
           "\"blocking_crossover_words\": 3},\n";
    std::snprintf(Buf, sizeof(Buf),
                  "  \"host_sim_ns\": {\"workload\": \"health\", "
                  "\"mode\": \"optimized\", \"nodes\": 4, "
                  "\"ast\": %.0f, \"bytecode\": %.0f, "
                  "\"bytecode_switch\": %.0f, \"speedup\": %.2f, "
                  "\"hardware_threads\": %u},\n",
                  AstNs, BcNs, BcSwitchNs, Speedup,
                  ThreadPool::hardwareThreads());
    Out << Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "  \"dispatch\": {\"computed_goto\": %s, "
                  "\"default_vs_switch_speedup\": %.2f},\n",
                  computedGotoAvailable() ? "true" : "false",
                  DispatchSpeedup);
    Out << Buf;
    // The <= 2% profiler-off budget is verified on quiet hardware via the
    // committed artifact (off is the same code path host_sim_ns measures);
    // CI only shape-checks this block, as wall ratios are noisy there.
    std::snprintf(Buf, sizeof(Buf),
                  "  \"profiler\": {\"off_ns\": %.0f, \"on_ns\": %.0f, "
                  "\"overhead_pct\": %.2f},\n",
                  ProfOffNs, ProfOnNs, ProfOverheadPct);
    Out << Buf;
    Out << "  \"comm_profile\": "
        << profileReportJson(*SimCR.M, Prof, &SimCR.Remarks) << ",\n";
    Out << "  \"pass_ns\": {";
    for (size_t I = 0; I != SimP.stages().size(); ++I) {
      const StageReport &SR = SimP.stages()[I];
      std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %.0f", I ? ", " : "",
                    SR.Name.c_str(), SR.WallNs);
      Out << Buf;
    }
    Out << "},\n";
    // Pass wall times measured on this host immediately before the
    // analyses' set representations moved to hashed flat sets (SideEffects
    // read/write sets, selection redundancy table); kept so the artifact
    // records the before/after of that change. Same workload (health),
    // same stages, same machine class.
    Out << "  \"pass_ns_before_flatsets\": " << kPassNsBeforeFlatSets
        << ",\n";
    // The service sweep: per client count, client-observed latency and
    // throughput for cold (every request a distinct compile+simulate) and
    // warm (one cached request replayed) phases. sims_per_sec counts
    // responses delivering a simulation result; compiles_per_sec counts
    // compile *executions* retired, so a fully warm phase reads 0 there by
    // construction.
    Out << "  \"service\": {\"workload\": \"power\", \"nodes\": 4, "
        << "\"requests_per_phase\": " << SweepReqs << ", \"sweep\": [";
    for (size_t I = 0; I != Sweep.size(); ++I) {
      const SweepRow &Row = Sweep[I];
      auto Phase = [&](const char *Name, const ServicePhase &Ph) {
        std::snprintf(Buf, sizeof(Buf),
                      "\"%s\": {\"min_ns\": %.0f, \"med_ns\": %.0f, "
                      "\"avg_ns\": %.0f, \"max_ns\": %.0f, "
                      "\"compiles_per_sec\": %.1f, \"sims_per_sec\": %.1f}",
                      Name, Ph.MinNs, Ph.MedNs, Ph.AvgNs, Ph.MaxNs,
                      Ph.CompilesPerSec, Ph.SimsPerSec);
        Out << Buf;
      };
      Out << (I ? ", " : "") << "{\"clients\": " << Row.Clients << ", ";
      Phase("cold", Row.Cold);
      Out << ", ";
      Phase("warm", Row.Warm);
      std::snprintf(Buf, sizeof(Buf), ", \"warm_speedup\": %.1f}",
                    Row.Cold.SimsPerSec > 0
                        ? Row.Warm.SimsPerSec / Row.Cold.SimsPerSec
                        : 0.0);
      Out << Buf;
    }
    Out << "]},\n";
    // The topology sweep: simulated end-to-end time for the simple vs
    // optimized program versions under contention. speedup is the paper's
    // optimization win at that (topology, nodes) point; comparing a row
    // against its ideal sibling shows whether contention grows, shrinks,
    // or inverts the win.
    Out << "  \"topology\": {\"workloads\": [\"health\", \"power\"], "
        << "\"topologies\": [\"ideal\", \"bus\", \"torus2d\"], "
        << "\"nodes\": [4, 16, 64], \"sweep\": [";
    for (size_t I = 0; I != TopoRows.size(); ++I) {
      const TopoRow &Row = TopoRows[I];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"workload\": \"%s\", \"topology\": \"%s\", "
                    "\"nodes\": %u, \"simple_ns\": %.0f, "
                    "\"optimized_ns\": %.0f, \"speedup\": %.4f}",
                    I ? ", " : "", Row.Workload.c_str(), Row.Topo, Row.Nodes,
                    Row.SimpleNs, Row.OptNs,
                    Row.OptNs > 0 ? Row.SimpleNs / Row.OptNs : 0.0);
      Out << Buf;
    }
    Out << "]},\n";
    // Host-side operational metrics for this bench process: service cache
    // hit/miss counters from the request sweep and per-stage pipeline
    // wall-ns histograms. CI shape-checks this block (hit counts and stage
    // coverage); the latency numbers themselves are host-dependent.
    Out << "  \"metrics\": " << MetricsRegistry::global().snapshotJson()
        << ",\n";
    Out << "  \"counters\": " << Counters.stats().json() << "\n}\n";
    std::printf("\nwrote counter report to %s\n", JsonPath.c_str());
  }
  return 0;
}

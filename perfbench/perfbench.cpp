//===- perfbench.cpp - The earthcc repository benchmark -------------------===//
//
// Part of the earthcc project.
//
// One seeded, single-process benchmark driver with three workloads:
//
//   sim-ideal  the five Olden programs at full size, simple and optimized,
//              compiled once in set-up, then run in a seeded order at
//              nodes {1,4,16,64} on the ideal network, one run at a time.
//              Almost all host time is bytecode dispatch (interp).
//   sim-torus  the same modules at nodes {16,64} on torus2d with a
//              CommProfiler attached and its report built, as `--profile`
//              users run them. Same steps as sim-ideal; the network model's
//              routing and link queues plus the profiler carry the rest.
//   serve-mix  `earthcc --serve` as a child process, nproc/2 run requests
//              outstanding on its pipe (closed loop): a hot set of the five
//              programs at small size that is re-requested (cache hits) and
//              freshly salted sources (cold compile+run misses) at a fixed
//              ratio, under a cache budget the cold stream overflows.
//
// Every workload prints the same end-to-end metrics (see README.md). The
// sim workloads get their service-latency metrics from a short probe of
// their own configurations through `earthcc --serve`, run after the timed
// phase; serve-mix gets its simulator metrics from its responses.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data DIR --server PATH/TO/earthcc
//   perfbench --record-reference FILE
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//===----------------------------------------------------------------------===//

#include "codegen/ThreadedC.h"
#include "driver/ProfileReport.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Simplify.h"
#include "interp/Bytecode.h"
#include "interp/Lower.h"
#include "service/CompileService.h"
#include "simple/Verifier.h"
#include "support/CommProfiler.h"
#include "support/Json.h"
#include "transform/CommSelection.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace earthcc;

namespace {

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest percentile, capped at p99, that leaves at least ten samples
/// beyond it (nearest rank; never below the median).
double tailPercentile(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double N = static_cast<double>(V.size());
  double Q = std::max(0.5, std::min(0.99, (N - 10.0) / N));
  size_t Idx = static_cast<size_t>(std::ceil(Q * N)) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

/// Shortest round-trip decimal form of \p D (every digit as measured).
std::string fmtNumber(double D) {
  if (!std::isfinite(D))
    return "null";
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), D);
  return std::string(Buf, Res.ptr);
}

/// Fisher-Yates with the raw engine, so an order depends only on the seed.
template <typename T> void seededShuffle(std::vector<T> &V, std::mt19937_64 &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R() % I]);
}

//===----------------------------------------------------------------------===//
// Correctness reference
//===----------------------------------------------------------------------===//

struct Expected {
  int64_t Exit = 0;
  std::vector<std::string> Output;
};

/// "program/size" -> what the AST engine's sequential run printed and
/// returned (perfbench/reference.json).
using Reference = std::map<std::string, Expected>;

std::string refKey(const Workload &W, bool Small) {
  return W.Name + (Small ? "/small" : "/full");
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool loadJson(const std::string &Path, json::Value &Out, std::string &Err) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Err = "cannot read " + Path;
    return false;
  }
  if (!json::parse(Text, Out, Err)) {
    Err = Path + ": " + Err;
    return false;
  }
  return true;
}

bool loadReference(const std::string &Path, Reference &Ref, std::string &Err) {
  json::Value Root;
  if (!loadJson(Path, Root, Err))
    return false;
  const json::Value *Progs = Root.find("programs");
  if (!Progs || !Progs->isObject()) {
    Err = Path + ": missing \"programs\"";
    return false;
  }
  for (const json::Member &P : Progs->members())
    for (const json::Member &S : P.second.members()) {
      Expected E;
      E.Exit = static_cast<int64_t>(S.second.getNumber("exit", 0));
      if (const json::Value *Out = S.second.find("output"))
        for (const json::Value &L : Out->items())
          E.Output.push_back(L.asString());
      Ref[P.first + "/" + S.first] = std::move(E);
    }
  for (const Workload &W : oldenWorkloads())
    for (bool Small : {false, true})
      if (!Ref.count(refKey(W, Small))) {
        Err = Path + ": no entry for " + refKey(W, Small);
        return false;
      }
  return true;
}

/// Records the reference from the AST engine's sequential run — the
/// independent tree-walking interpreter, not the bytecode engine measured.
int recordReference(const std::string &Path) {
  std::ostringstream OS;
  OS << "{\"engine\": \"ast\", \"mode\": \"sequential\", \"programs\": {";
  bool FirstProg = true;
  for (const Workload &W : oldenWorkloads()) {
    OS << (FirstProg ? "\n" : ",\n") << "  " << json::quote(W.Name) << ": {";
    FirstProg = false;
    bool FirstSize = true;
    for (bool Small : {false, true}) {
      Pipeline P(workloadOptions(RunMode::Sequential));
      CompileResult CR = P.compile(Small ? W.smallSource() : W.Source);
      MachineConfig MC = workloadMachine(RunMode::Sequential, 1);
      MC.Engine = ExecEngine::AST;
      RunResult R = P.run(CR, MC);
      if (!R.OK || R.ExitValue.K != RtValue::Kind::Int) {
        std::fprintf(stderr, "reference run of %s failed: %s\n",
                     refKey(W, Small).c_str(), R.Error.c_str());
        return 1;
      }
      OS << (FirstSize ? "\n" : ",\n") << "    "
         << json::quote(Small ? "small" : "full")
         << ": {\"exit\": " << R.ExitValue.I << ", \"output\": [";
      FirstSize = false;
      for (size_t I = 0; I != R.Output.size(); ++I)
        OS << (I ? ", " : "") << json::quote(R.Output[I]);
      OS << "]}";
    }
    OS << "\n  }";
  }
  OS << "\n}}\n";
  std::ofstream Out(Path);
  Out << OS.str();
  return Out ? 0 : 1;
}

/// One simulated result as either path reports it (in-process RunResult or
/// a serve response).
struct SimOutcome {
  bool OK = false;
  std::string Error;
  bool ExitIsInt = false;
  int64_t Exit = 0;
  std::vector<std::string> Output;
  double TimeNs = 0.0;
  OpCounters Counters;
  uint64_t Steps = 0;
};

/// The outcome fields of a RunResult or a SimArtifact (same field names).
template <typename ResultT> SimOutcome simOutcome(const ResultT &R) {
  SimOutcome O;
  O.OK = R.OK;
  O.Error = R.Error;
  O.ExitIsInt = R.ExitValue.K == RtValue::Kind::Int;
  O.Exit = R.ExitValue.I;
  O.Output = R.Output;
  O.TimeNs = R.TimeNs;
  O.Counters = R.Counters;
  O.Steps = R.StepsExecuted;
  return O;
}

bool sameCounters(const OpCounters &A, const OpCounters &B) {
  return A.ReadData == B.ReadData && A.WriteData == B.WriteData &&
         A.BlkMov == B.BlkMov && A.Atomic == B.Atomic &&
         A.WordsMoved == B.WordsMoved && A.LocalFallbacks == B.LocalFallbacks &&
         A.Spawns == B.Spawns && A.CtxSwitches == B.CtxSwitches;
}

/// Checks every outcome against the reference, and every repeat of one
/// configuration against its first outcome (TimeNs, counters, steps).
class Checker {
public:
  explicit Checker(const Reference &Ref) : Ref(Ref) {}

  bool check(const std::string &Config, const std::string &RefKey,
             const SimOutcome &O) {
    ++Attempted;
    const Expected &E = Ref.at(RefKey);
    std::string Why;
    if (!O.OK)
      Why = "run failed: " + O.Error;
    else if (!O.ExitIsInt || O.Exit != E.Exit)
      Why = "exit checksum differs from the reference";
    else if (O.Output != E.Output)
      Why = "printed output differs from the reference";
    else {
      auto [It, New] = First.emplace(Config, O);
      if (!New && (It->second.TimeNs != O.TimeNs ||
                   !sameCounters(It->second.Counters, O.Counters) ||
                   It->second.Steps != O.Steps))
        Why = "repeat differs in TimeNs/OpCounters/steps";
    }
    if (Why.empty())
      return true;
    fail(Config + ": " + Why);
    return false;
  }

  /// Counts one attempted operation that produced no checkable outcome.
  void missing(const std::string &Why) {
    ++Attempted;
    fail(Why);
  }

  /// The first outcome recorded for \p Config, or null.
  const SimOutcome *first(const std::string &Config) const {
    auto It = First.find(Config);
    return It == First.end() ? nullptr : &It->second;
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  void fail(const std::string &Why) {
    if (++Failed <= 5)
      std::fprintf(stderr, "perfbench: FAILED %s\n", Why.c_str());
  }

  const Reference &Ref;
  std::map<std::string, SimOutcome> First;
};

//===----------------------------------------------------------------------===//
// Simulated configurations and in-process runs
//===----------------------------------------------------------------------===//

struct SimConfig {
  size_t Prog = 0; ///< Index into oldenWorkloads().
  bool Opt = false;
  unsigned Nodes = 1;
  Topology Topo = Topology::Ideal;
  bool Small = false;

  const Workload &workload() const { return oldenWorkloads()[Prog]; }
  std::string key() const {
    return workload().Name + (Opt ? "/optimized/" : "/simple/") +
           std::to_string(Nodes) + "/" + topologyName(Topo) +
           (Small ? "/small" : "/full");
  }
  std::string ref() const { return refKey(workload(), Small); }
  /// This configuration on another interconnect.
  SimConfig on(Topology T) const {
    SimConfig C = *this;
    C.Topo = T;
    return C;
  }
};

std::vector<SimConfig> makeConfigs(std::initializer_list<unsigned> Nodes,
                                   Topology Topo, bool Small) {
  std::vector<SimConfig> Cs;
  for (size_t P = 0; P != oldenWorkloads().size(); ++P)
    for (bool Opt : {false, true})
      for (unsigned N : Nodes)
        Cs.push_back({P, Opt, N, Topo, Small});
  return Cs;
}

/// The ten compiled modules (program x {simple, optimized}) of one size.
struct ModuleSet {
  std::vector<CompileResult> Simple, Opt;
  const CompileResult &of(const SimConfig &C) const {
    return C.Opt ? Opt[C.Prog] : Simple[C.Prog];
  }
};

bool compileModules(bool Small, ModuleSet &MS) {
  MS = ModuleSet();
  for (const Workload &W : oldenWorkloads()) {
    const std::string &Src = Small ? W.smallSource() : W.Source;
    MS.Simple.push_back(Pipeline(workloadOptions(RunMode::Simple)).compile(Src));
    MS.Opt.push_back(Pipeline(workloadOptions(RunMode::Optimized)).compile(Src));
    if (!MS.Simple.back().OK || !MS.Opt.back().OK) {
      std::fprintf(stderr, "perfbench: compiling %s failed\n%s%s\n",
                   W.Name.c_str(), MS.Simple.back().Messages.c_str(),
                   MS.Opt.back().Messages.c_str());
      return false;
    }
  }
  return true;
}

/// Host time of the parts of one in-process run.
struct RunTimes {
  double RunNs = 0.0;    ///< runProgram.
  double ReportNs = 0.0; ///< profileReportJson (profiled runs only).
  uint64_t FusedSteps = 0;
};

/// One in-process run of \p C. With \p T set it also times runProgram and
/// the profile report (the spans of a traced phase).
SimOutcome runSim(const ModuleSet &MS, const SimConfig &C, bool Profile,
                  RunTimes *T) {
  const CompileResult &CR = MS.of(C);
  MachineConfig MC =
      workloadMachine(C.Opt ? RunMode::Optimized : RunMode::Simple, C.Nodes);
  MC.Topo = C.Topo;
  MC.Engine = ExecEngine::Bytecode;
  CommProfiler Prof;
  if (Profile)
    MC.Profiler = &Prof;

  Clock::time_point T0;
  if (T)
    T0 = Clock::now();
  RunResult R = runProgram(*CR.M, MC);
  if (T) {
    T->RunNs = nsSince(T0);
    T->FusedSteps = R.FusedSteps;
  }

  SimOutcome O = simOutcome(R);
  if (Profile && R.OK) {
    if (T)
      T0 = Clock::now();
    std::string Report = profileReportJson(*CR.M, Prof, &CR.Remarks);
    if (T)
      T->ReportNs = nsSince(T0);
    if (Report.find("\"sites\"") == std::string::npos) {
      O.OK = false;
      O.Error = "profile report has no sites";
    }
  }
  return O;
}

/// Latency samples grouped by configuration.
using ByConfig = std::map<std::string, std::vector<double>>;

/// What one timed phase of a sim workload measured.
struct SimPhase {
  uint64_t Steps = 0;
  std::vector<double> OpNs;
  ByConfig OpNsByConfig;
  std::vector<double> CycleOpsPerS, CycleStepsPerS;
  double RunNs = 0.0, ReportNs = 0.0; // Layer spans (traced phases).
  uint64_t FusedSteps = 0;
};

/// Runs whole seeded-order cycles over \p Configs until \p Seconds have
/// passed, so every run of a workload has the same configuration mix.
/// A \p Traced phase also records the layer spans inside each run.
void runSimPhase(const ModuleSet &MS, const std::vector<SimConfig> &Configs,
                 bool Profile, bool Traced, double Seconds,
                 std::mt19937_64 &Rng, Checker &Chk, SimPhase &P) {
  auto Start = Clock::now();
  std::vector<SimConfig> Order = Configs;
  do {
    seededShuffle(Order, Rng);
    auto CycleStart = Clock::now();
    uint64_t CycleSteps = 0;
    for (const SimConfig &C : Order) {
      auto T0 = Clock::now();
      RunTimes T;
      SimOutcome O = runSim(MS, C, Profile, Traced ? &T : nullptr);
      Chk.check(C.key(), C.ref(), O);
      double Ns = nsSince(T0);
      P.OpNs.push_back(Ns);
      P.OpNsByConfig[C.key()].push_back(Ns);
      CycleSteps += O.Steps;
      P.RunNs += T.RunNs;
      P.ReportNs += T.ReportNs;
      P.FusedSteps += T.FusedSteps;
    }
    double CycleS = nsSince(CycleStart) / 1e9;
    P.CycleOpsPerS.push_back(Order.size() / CycleS);
    P.CycleStepsPerS.push_back(CycleSteps / CycleS);
    P.Steps += CycleSteps;
  } while (nsSince(Start) < Seconds * 1e9);
}

//===----------------------------------------------------------------------===//
// The `earthcc --serve` child and its closed-loop client
//===----------------------------------------------------------------------===//

/// `earthcc --serve` as a child process with both standard streams piped.
/// The destructor kills and reaps a child that was not shut down.
class ServerChild {
public:
  ServerChild() = default;
  ServerChild(const ServerChild &) = delete;
  ServerChild &operator=(const ServerChild &) = delete;
  ~ServerChild() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      closeStreams();
      waitpid(Pid, nullptr, 0);
    }
  }

  bool start(const std::vector<std::string> &Argv) {
    int ToChild[2], FromChild[2];
    if (pipe(ToChild) != 0)
      return false;
    if (pipe(FromChild) != 0) {
      close(ToChild[0]);
      close(ToChild[1]);
      return false;
    }
    Pid = fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      dup2(ToChild[0], STDIN_FILENO);
      dup2(FromChild[1], STDOUT_FILENO);
      for (int Fd : {ToChild[0], ToChild[1], FromChild[0], FromChild[1]})
        close(Fd);
      std::vector<char *> Args;
      for (const std::string &A : Argv)
        Args.push_back(const_cast<char *>(A.c_str()));
      Args.push_back(nullptr);
      execv(Args[0], Args.data());
      _exit(127);
    }
    close(ToChild[0]);
    close(FromChild[1]);
    InFd = ToChild[1];
    Out = fdopen(FromChild[0], "r");
    return Out != nullptr;
  }

  bool send(const std::string &Line) {
    std::string Buf = Line + "\n";
    const char *P = Buf.data();
    size_t Left = Buf.size();
    while (Left) {
      ssize_t N = write(InFd, P, Left);
      if (N <= 0)
        return false;
      P += N;
      Left -= static_cast<size_t>(N);
    }
    return true;
  }

  bool recv(std::string &Line) {
    Line.clear();
    int Ch;
    while ((Ch = std::fgetc(Out)) != EOF) {
      if (Ch == '\n')
        return true;
      Line.push_back(static_cast<char>(Ch));
    }
    return false;
  }

  /// Sends "shutdown", returns its response's stats object in \p Stats,
  /// reaps the child and returns its peak RSS in MiB (0 on failure).
  double shutdown(json::Value &Stats) {
    std::string Line;
    bool Got = false;
    if (send("{\"op\":\"shutdown\"}"))
      while (recv(Line)) {
        json::Value V;
        std::string Err;
        if (json::parse(Line, V, Err) && V.getString("op", "") == "shutdown") {
          if (const json::Value *S = V.find("stats"))
            Stats = *S;
          Got = true;
          break;
        }
      }
    closeStreams();
    struct rusage RU;
    std::memset(&RU, 0, sizeof(RU));
    int Status = 0;
    pid_t P = wait4(Pid, &Status, 0, &RU);
    Pid = -1;
    if (!Got || P < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      return 0.0;
    return static_cast<double>(RU.ru_maxrss) / 1024.0;
  }

private:
  void closeStreams() {
    if (InFd >= 0)
      close(InFd);
    InFd = -1;
    if (Out)
      std::fclose(Out);
    Out = nullptr;
  }

  pid_t Pid = -1;
  int InFd = -1;
  FILE *Out = nullptr;
};

unsigned hostThreads() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

/// One run request: a configuration and the (possibly salted) source.
struct ServeRequest {
  SimConfig Config;
  std::string Salt;
};

/// What the client saw for one response.
struct ServeSample {
  bool Hit = false;
  double ClientNs = 0.0; ///< Send to receipt, as the client sees it.
  double WallNs = 0.0;   ///< The service handler's own wall time.
  uint64_t Steps = 0;
  size_t Request = 0;    ///< Index into the client's request log.
  Clock::time_point Done;
};

/// Closed-loop client over one ServerChild: keeps up to Outstanding
/// requests in flight, matches responses by id, checks each one.
class ServeClient {
public:
  ServeClient(ServerChild &S, Checker &Chk) : S(S), Chk(Chk) {}

  /// Issues requests from \p Next (false = no more) with at most
  /// \p Outstanding in flight, until it is exhausted and all are answered.
  /// Returns false if the server stopped answering.
  bool run(const std::function<bool(ServeRequest &)> &Next,
           unsigned Outstanding, std::vector<ServeSample> &Samples) {
    struct Pending {
      size_t Request;
      Clock::time_point Sent;
    };
    std::unordered_map<uint64_t, Pending> InFlight;
    auto Issue = [&]() {
      ServeRequest R;
      if (!Next(R))
        return false;
      const Workload &W = R.Config.workload();
      std::string Line =
          "{\"id\":" + std::to_string(NextId) +
          ",\"op\":\"run\",\"source\":" +
          json::quote(R.Salt + (R.Config.Small ? W.smallSource() : W.Source)) +
          ",\"nodes\":" + std::to_string(R.Config.Nodes) +
          ",\"no-opt\":" + (R.Config.Opt ? "false" : "true") +
          ",\"topology\":\"" + topologyName(R.Config.Topo) + "\"}";
      Log.push_back(R);
      auto T0 = Clock::now();
      if (!S.send(Line)) {
        Chk.missing(R.Config.key() + ": request could not be sent");
        return false;
      }
      InFlight[NextId++] = {Log.size() - 1, T0};
      return true;
    };
    while (InFlight.size() < Outstanding && Issue()) {
    }
    std::string Line;
    while (!InFlight.empty()) {
      if (!S.recv(Line)) {
        for (const auto &[Id, P] : InFlight)
          Chk.missing(Log[P.Request].Config.key() + ": no response");
        return false;
      }
      auto Now = Clock::now();
      json::Value V;
      std::string Err;
      const json::Value *IdV = nullptr;
      if (!json::parse(Line, V, Err) || !(IdV = V.find("id")) ||
          !IdV->isNumber() ||
          !InFlight.count(static_cast<uint64_t>(IdV->asNumber()))) {
        Chk.missing("unmatched response: " + Line.substr(0, 200));
        continue;
      }
      auto It = InFlight.find(static_cast<uint64_t>(IdV->asNumber()));
      ServeSample Smp;
      Smp.Request = It->second.Request;
      Smp.Done = Now;
      Smp.ClientNs =
          std::chrono::duration<double, std::nano>(Now - It->second.Sent)
              .count();
      Smp.Hit = V.getBool("cache_hit", false);
      Smp.WallNs = V.getNumber("wall_ns", 0.0);
      InFlight.erase(It);

      const SimConfig &C = Log[Smp.Request].Config;
      SimOutcome O = outcomeOf(V);
      Smp.Steps = O.Steps;
      if (Chk.check(C.key(), C.ref(), O))
        Samples.push_back(Smp);
      Issue();
    }
    return true;
  }

  const std::vector<ServeRequest> &log() const { return Log; }

private:
  static SimOutcome outcomeOf(const json::Value &V) {
    SimOutcome O;
    O.OK = V.getBool("ok", false);
    O.Error = V.getString("error", "");
    if (const json::Value *E = V.find("exit"); E && E->isNumber()) {
      O.ExitIsInt = true;
      O.Exit = static_cast<int64_t>(E->asNumber());
    }
    if (const json::Value *Out = V.find("output"))
      for (const json::Value &L : Out->items())
        O.Output.push_back(L.asString());
    O.TimeNs = V.getNumber("time_ns", 0.0);
    O.Steps = static_cast<uint64_t>(V.getNumber("steps", 0.0));
    if (const json::Value *C = V.find("counters")) {
      auto Get = [C](const char *K) {
        return static_cast<uint64_t>(C->getNumber(K, 0.0));
      };
      O.Counters.ReadData = Get("read_data");
      O.Counters.WriteData = Get("write_data");
      O.Counters.BlkMov = Get("blkmov");
      O.Counters.Atomic = Get("atomic");
      O.Counters.WordsMoved = Get("words_moved");
      O.Counters.LocalFallbacks = Get("local_fallbacks");
      O.Counters.Spawns = Get("spawns");
      O.Counters.CtxSwitches = Get("ctx_switches");
    }
    return O;
  }

  ServerChild &S;
  Checker &Chk;
  uint64_t NextId = 1;
  std::vector<ServeRequest> Log;
};

/// The server-side counters the shutdown response reports.
struct ServiceCounts {
  double Requests = 0, Hits = 0, Waits = 0, Evictions = 0;
  void add(const json::Value &Stats) {
    Requests += Stats.getNumber("run_requests", 0);
    Hits += Stats.getNumber("run_hits", 0);
    Waits += Stats.getNumber("run_waits", 0);
    Evictions += Stats.getNumber("evictions", 0);
  }
};

std::vector<std::string> serverArgv(const std::string &Server,
                                    unsigned CacheMB) {
  std::vector<std::string> A = {Server, "--serve", "--workers",
                                std::to_string(hostThreads())};
  if (CacheMB) {
    A.push_back("--cache-mb");
    A.push_back(std::to_string(CacheMB));
  }
  return A;
}

/// Feeds a fixed request list.
std::function<bool(ServeRequest &)> listFeed(std::vector<ServeRequest> List) {
  return [List = std::move(List), Pos = size_t(0)](ServeRequest &R) mutable {
    if (Pos == List.size())
      return false;
    R = List[Pos++];
    return true;
  };
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// End-to-end numbers every workload reports (see README.md).
struct EndToEnd {
  double SetupS = 0;
  double OpsPerS = 0, StepsPerS = 0;
  double OpP50Ns = 0;
  size_t OpAlign = 1; ///< Samples per cycle (sim workloads).
  std::vector<double> OpNs, HitNs; // In completion order.
  ByConfig MissNs;
  double PeakRssMb = 0;
  double SimMsGeomean = 0, OptGainGeomean = 0;

  void addMiss(const SimConfig &C, double Ns) { MissNs[C.key()].push_back(Ns); }
};

/// The median over configurations of each one's median. For a fixed
/// configuration mix this is the sample median without the jump a plain
/// median makes when it falls between two configurations' groups.
double balancedMedian(const ByConfig &G) {
  std::vector<double> Medians;
  for (const auto &[Key, V] : G)
    Medians.push_back(median(V));
  return median(Medians);
}

/// The tail of samples in completion order: the median, over consecutive
/// windows of at least 1000 samples (so each still yields a p99; at most
/// about ten windows; whole cycles when \p Align is the cycle length), of
/// each window's tailPercentile. A short stall of the host then moves one
/// window, not the result. Fewer than two windows' worth of samples give
/// the plain tailPercentile.
double windowedTail(const std::vector<double> &InOrder, size_t Align = 1) {
  size_t W = std::max<size_t>(1000, InOrder.size() / 10);
  W = (W + Align - 1) / Align * Align;
  if (InOrder.size() < 2 * W)
    return tailPercentile(InOrder);
  std::vector<double> Tails;
  for (size_t I = 0; I + W <= InOrder.size(); I += W) {
    // The last window absorbs a remainder shorter than a window.
    size_t End = I + 2 * W > InOrder.size() ? InOrder.size() : I + W;
    Tails.push_back(tailPercentile(
        std::vector<double>(InOrder.begin() + I, InOrder.begin() + End)));
  }
  return median(Tails);
}

/// Geomean of the optimized runs' simulated time, and of simple over
/// optimized time per (program, nodes): the Table III quantity. Prints
/// both on the `sim:` line, which traced runs print too.
void simGeomeans(const Checker &Chk, const std::vector<SimConfig> &Configs,
                 EndToEnd &E) {
  std::vector<double> OptMs, Gain;
  for (const SimConfig &C : Configs) {
    if (!C.Opt)
      continue;
    SimConfig S = C;
    S.Opt = false;
    const SimOutcome *O = Chk.first(C.key());
    const SimOutcome *B = Chk.first(S.key());
    if (!O || !B || O->TimeNs <= 0)
      continue;
    OptMs.push_back(O->TimeNs / 1e6);
    Gain.push_back(B->TimeNs / O->TimeNs);
  }
  E.SimMsGeomean = geomean(OptMs);
  E.OptGainGeomean = geomean(Gain);
  std::printf("sim: sim_ms_geomean=%s opt_gain_geomean=%s\n",
              fmtNumber(E.SimMsGeomean).c_str(),
              fmtNumber(E.OptGainGeomean).c_str());
}

void printResult(const Checker &Chk, bool Fatal,
                 const std::vector<Metric> &Ms) {
  bool Correct = !Fatal && Chk.Failed == 0 && Chk.Attempted > 0;
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, Chk.Attempted));
  S += ", \"failed\": " +
       std::to_string(Chk.Failed + (Fatal && Chk.Failed == 0 ? 1 : 0));
  S += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    S += (I ? ", " : "") + json::quote(Ms[I].Name) + ": {\"value\": " +
         fmtNumber(Ms[I].Value) + ", \"unit\": " + json::quote(Ms[I].Unit) +
         "}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

std::vector<Metric> endToEndMetrics(const Checker &Chk, const EndToEnd &E) {
  double Attempted = static_cast<double>(std::max<uint64_t>(1, Chk.Attempted));
  return {
      {"setup_s", E.SetupS, "s"},
      {"ops_per_s", E.OpsPerS, "1/s"},
      {"op_ms_p50", E.OpP50Ns / 1e6, "ms"},
      {"op_ms_p99", windowedTail(E.OpNs, E.OpAlign) / 1e6, "ms"},
      {"ok_frac", 1.0 - static_cast<double>(Chk.Failed) / Attempted, "ratio"},
      {"peak_rss_mb", E.PeakRssMb, "MiB"},
      {"steps_per_s", E.StepsPerS, "1/s"},
      {"sim_ms_geomean", E.SimMsGeomean, "sim_ms"},
      {"opt_gain_geomean", E.OptGainGeomean, "x"},
      {"hit_us_p50", median(E.HitNs) / 1e3, "us"},
      {"miss_ms_p50", balancedMedian(E.MissNs) / 1e6, "ms"},
  };
}

double selfPeakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Per-layer replay (traced runs)
//===----------------------------------------------------------------------===//

/// Accumulated self time of one layer's entry point.
struct LayerClock {
  double Ns = 0.0;
  uint64_t Calls = 0;
  void add(double N) {
    Ns += N;
    ++Calls;
  }
  double meanUs() const { return Calls ? Ns / Calls / 1e3 : 0.0; }
};

/// Per-layer numbers of a traced run. Each compile layer is timed around a
/// direct call to its public entry point, in pipeline order.
struct Layers {
  LayerClock Lex, Parse, Simplify, Verify, Placement, Select, Lower, Emit,
      Pipeline, Run;
  uint64_t Sources = 0, Tokens = 0, CodegenBytes = 0;
  uint64_t RunSteps = 0, FusedSteps = 0;
  double TorusNs = 0, IdealNs = 0, ProfOnNs = 0, ProfOffNs = 0;
  uint64_t NetSteps = 0;
  uint64_t RemoteOps = 0, WordsMoved = 0;
  Statistics SelectStats;

  /// Sum of the compile layers' self time over all replayed sources.
  double compileNs() const {
    return Lex.Ns + Parse.Ns + Simplify.Ns + Verify.Ns + Placement.Ns +
           Select.Ns + Lower.Ns + Emit.Ns;
  }
};

template <typename Fn> auto timed(LayerClock &L, Fn &&F) {
  auto T0 = Clock::now();
  auto R = F();
  L.add(nsSince(T0));
  return R;
}

/// Replays one source through the compile layers' entry points, then
/// through Pipeline::compile for the driver's own overhead. Returns the
/// Pipeline's result (with its module) for running.
CompileResult replayCompile(const std::string &Src, bool Opt, Layers &L) {
  DiagnosticsEngine Diags;
  std::vector<Token> Toks =
      timed(L.Lex, [&] { return Lexer(Src, Diags).lexAll(); });
  L.Tokens += Toks.size();
  ast::TranslationUnit Unit = timed(
      L.Parse, [&] { return Parser(std::move(Toks), Diags).parseUnit(); });
  std::unique_ptr<Module> M =
      timed(L.Simplify, [&] { return lowerToSimple(Unit, Diags); });
  std::vector<std::string> Errors;
  bool OK = !Diags.hasErrors() &&
            timed(L.Verify, [&] { return verifyModule(*M, Errors); });
  if (OK && Opt) {
    PipelineOptions PO = workloadOptions(RunMode::Optimized);
    Statistics Stats;
    std::unique_ptr<CommAnalysis> CA = timed(L.Placement, [&] {
      return std::make_unique<CommAnalysis>(*M, PO.comm(), Stats);
    });
    OK = timed(L.Select, [&] {
      return selectModuleCommunication(*M, *CA, PO.comm(), Stats, Errors);
    });
  }
  if (OK) {
    std::shared_ptr<const BytecodeModule> BM =
        timed(L.Lower, [&] { return lowerModule(*M); });
    std::string Code = timed(L.Emit, [&] { return emitThreadedC(*BM); });
    L.CodegenBytes += Code.size();
  }
  ++L.Sources;
  Pipeline P(workloadOptions(Opt ? RunMode::Optimized : RunMode::Simple));
  CompileResult CR = timed(L.Pipeline, [&] { return P.compile(Src); });
  CR.OK = CR.OK && OK;
  return CR;
}

/// The earth and support layers on \p Configs: each configuration runs on
/// its own topology with and without the profiler, and on the other
/// topology (torus2d vs ideal) without it.
void measureNetworkAndProfiler(const ModuleSet &MS,
                               const std::vector<SimConfig> &Configs,
                               Checker &Chk, Layers &L) {
  for (const SimConfig &C : Configs) {
    RunTimes Off, On, Other;
    SimConfig Alt = C.on(C.Topo == Topology::Ideal ? Topology::Torus2D
                                                   : Topology::Ideal);
    SimOutcome O = runSim(MS, C, false, &Off);
    Chk.check(C.key(), C.ref(), O);
    Chk.check(C.key(), C.ref(), runSim(MS, C, true, &On));
    Chk.check(Alt.key(), Alt.ref(), runSim(MS, Alt, false, &Other));
    L.ProfOffNs += Off.RunNs;
    L.ProfOnNs += On.RunNs + On.ReportNs;
    bool Torus = C.Topo == Topology::Torus2D;
    L.TorusNs += Torus ? Off.RunNs : Other.RunNs;
    L.IdealNs += Torus ? Other.RunNs : Off.RunNs;
    L.NetSteps += O.Steps;
    L.RemoteOps += O.Counters.total();
    L.WordsMoved += O.Counters.WordsMoved;
  }
}

/// select.* counters of the optimized modules, summed over programs.
void addSelectStats(const ModuleSet &MS, Layers &L) {
  for (const CompileResult &CR : MS.Opt)
    L.SelectStats.merge(CR.Stats);
}

struct ServiceLayer {
  std::vector<double> HitWallNs, MissWallNs, HitProtocolNs;
  ServiceCounts Counts;
  void add(const std::vector<ServeSample> &Samples) {
    for (const ServeSample &S : Samples) {
      (S.Hit ? HitWallNs : MissWallNs).push_back(S.WallNs);
      if (S.Hit)
        HitProtocolNs.push_back(S.ClientNs - S.WallNs);
    }
  }
};

std::vector<Metric> layerMetrics(const Layers &L, const ServiceLayer &Svc,
                                 double OverheadPct, double ResidualPct) {
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  const Statistics &S = L.SelectStats;
  double Pipeline = L.Pipeline.Ns - (L.compileNs() - L.Emit.Ns);
  return {
      {"frontend.lex_us", L.Lex.meanUs(), "us"},
      {"frontend.parse_us", L.Parse.meanUs(), "us"},
      {"frontend.simplify_us", L.Simplify.meanUs(), "us"},
      {"frontend.tokens_per_ms", Ratio(L.Tokens, L.Lex.Ns / 1e6), "1/ms"},
      {"simple.verify_us", L.Verify.meanUs(), "us"},
      {"analysis.placement_us", L.Placement.meanUs(), "us"},
      {"transform.select_us", L.Select.meanUs(), "us"},
      {"codegen.emit_us", L.Emit.meanUs(), "us"},
      {"codegen.bytes", Ratio(L.CodegenBytes, L.Emit.Calls), "bytes"},
      {"interp.lower_us", L.Lower.meanUs(), "us"},
      {"interp.run_ms", L.Run.meanUs() / 1e3, "ms"},
      {"interp.steps", Ratio(L.RunSteps, L.Run.Calls), "count"},
      {"interp.ns_per_step", Ratio(L.Run.Ns, L.RunSteps), "ns"},
      {"interp.fused_step_frac", Ratio(L.FusedSteps, L.RunSteps), "ratio"},
      {"earth.net_ns_per_step", Ratio(L.TorusNs - L.IdealNs, L.NetSteps),
       "ns"},
      {"earth.remote_ops", static_cast<double>(L.RemoteOps), "count"},
      {"earth.words_moved", static_cast<double>(L.WordsMoved), "count"},
      {"support.profiler_overhead_pct",
       100.0 * Ratio(L.ProfOnNs - L.ProfOffNs, L.ProfOffNs), "%"},
      {"service.handler_us_hit", median(Svc.HitWallNs) / 1e3, "us"},
      {"service.handler_us_miss", median(Svc.MissWallNs) / 1e3, "us"},
      {"service.protocol_us_hit", median(Svc.HitProtocolNs) / 1e3, "us"},
      {"service.hit_ratio", Ratio(Svc.Counts.Hits, Svc.Counts.Requests),
       "ratio"},
      {"service.wait_ratio", Ratio(Svc.Counts.Waits, Svc.Counts.Requests),
       "ratio"},
      {"service.evictions", Svc.Counts.Evictions, "count"},
      {"driver.overhead_us", Ratio(Pipeline, L.Pipeline.Calls) / 1e3, "us"},
      {"transform.blocked_reads",
       static_cast<double>(S.get("select.blocked_reads")), "count"},
      {"transform.blocked_writes",
       static_cast<double>(S.get("select.blocked_writes")), "count"},
      {"transform.pipelined_reads",
       static_cast<double>(S.get("select.pipelined_reads")), "count"},
      {"transform.rewritten_reads",
       static_cast<double>(S.get("select.rewritten_reads")), "count"},
      {"trace.overhead_pct", OverheadPct, "%"},
      {"residual_pct", ResidualPct, "%"},
  };
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupReps = 40;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string DataDir = "perfbench";
  std::string Server;
};

/// Table III beside the paper's values (simulated; a report, not a gate).
void printTableIII(const Checker &Chk, const std::string &PaperPath) {
  json::Value Paper;
  std::string Err;
  if (!loadJson(PaperPath, Paper, Err)) {
    std::printf("table3: %s\n", Err.c_str());
    return;
  }
  const json::Value *Nodes = Paper.find("nodes");
  const json::Value *Impr = Paper.find("improvement_pct");
  if (!Nodes || !Impr)
    return;
  std::printf("table3 (simulated; optimized vs simple, %% improvement, "
              "measured vs paper):\n");
  double AbsErr = 0;
  unsigned Count = 0;
  for (const json::Member &P : Impr->members()) {
    std::printf("table3   %-9s", P.first.c_str());
    for (size_t I = 0; I != Nodes->items().size(); ++I) {
      unsigned N = static_cast<unsigned>(Nodes->items()[I].asNumber());
      const SimOutcome *S = Chk.first(P.first + "/simple/" + std::to_string(N) +
                                      "/ideal/full");
      const SimOutcome *O =
          Chk.first(P.first + "/optimized/" + std::to_string(N) +
                    "/ideal/full");
      if (!S || !O || I >= P.second.items().size())
        continue;
      double Measured = 100.0 * (S->TimeNs - O->TimeNs) / S->TimeNs;
      double Ref = P.second.items()[I].asNumber();
      AbsErr += std::fabs(Measured - Ref);
      ++Count;
      std::printf("  %2u: %6.2f vs %6.2f", N, Measured, Ref);
    }
    std::printf("\n");
  }
  if (Count)
    std::printf("table3 mean absolute error: %.2f percentage points over %u "
                "cells\n",
                AbsErr / Count, Count);
}

/// The service probe of a sim workload: its machine configurations (nodes,
/// topology) with the programs at small size, so that a miss is dominated
/// by the compiler as in serve-mix, through an in-process CompileService,
/// one request at a time so that latency is the service's own. It runs
/// after the timed phase, because interleaving it with engine cycles slowed
/// the cycles that followed. Each of its Slices sends MissesPerSlice
/// freshly salted configurations (cold compile+run misses), then
/// HitsPerSlice re-requests of those (hits). Misses walk seeded
/// permutations of the configurations, so every configuration is probed
/// equally often. The small cache budget recycles artifacts.
void probeService(const std::vector<SimConfig> &Configs, uint64_t Seed,
                  std::mt19937_64 &Rng, Checker &Chk, EndToEnd &E,
                  ServiceLayer &Svc) {
  constexpr unsigned Slices = 60, MissesPerSlice = 16, HitsPerSlice = 100;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.CacheBudgetBytes = size_t(8) << 20;
  CompileService Service(SC);
  auto Request = [&](SimConfig C, const std::string &Salt) {
    C.Small = true;
    std::string Src = Salt + C.workload().smallSource();
    RunRequest RReq;
    RReq.Nodes = C.Nodes;
    RReq.Topo = C.Topo;
    auto T0 = Clock::now();
    RunResponse Resp =
        Service
            .submitRun(C.Opt ? CompileRequest::optimized(std::move(Src))
                             : CompileRequest::simple(std::move(Src)),
                       std::move(RReq))
            .get();
    double Ns = nsSince(T0);
    SimOutcome O;
    if (Resp.Sim)
      O = simOutcome(*Resp.Sim);
    O.OK = O.OK && Resp.OK;
    O.Error += Resp.Error;
    if (!Chk.check(C.key(), C.ref(), O))
      return;
    if (Resp.CacheHit) {
      E.HitNs.push_back(Ns);
      Svc.HitWallNs.push_back(Resp.WallNs);
      Svc.HitProtocolNs.push_back(Ns - Resp.WallNs);
    } else {
      E.addMiss(C, Ns);
      Svc.MissWallNs.push_back(Resp.WallNs);
    }
  };

  std::vector<SimConfig> Order;
  uint64_t Seq = 0;
  for (unsigned S = 0; S != Slices; ++S) {
    std::vector<std::pair<SimConfig, std::string>> Cold;
    for (unsigned I = 0; I != MissesPerSlice; ++I) {
      if (Order.empty()) {
        Order = Configs;
        seededShuffle(Order, Rng);
      }
      Cold.emplace_back(Order.back(), "/* probe " + std::to_string(Seed) +
                                          " " + std::to_string(++Seq) + " */");
      Order.pop_back();
      Request(Cold.back().first, Cold.back().second);
    }
    for (unsigned I = 0; I != HitsPerSlice; ++I) {
      const auto &[C, Salt] = Cold[Rng() % Cold.size()];
      Request(C, Salt);
    }
  }
  ServiceStats St = Service.stats();
  Svc.Counts.Requests += St.RunRequests;
  Svc.Counts.Hits += St.RunHits;
  Svc.Counts.Waits += St.RunWaits;
  Svc.Counts.Evictions += St.Evictions;
}

int runSimWorkload(const Options &Opt, const Reference &Ref, bool Torus) {
  Checker Chk(Ref);
  std::mt19937_64 Rng(Opt.Seed);
  std::vector<SimConfig> Configs =
      Torus ? makeConfigs({16, 64}, Topology::Torus2D, false)
            : makeConfigs({1, 4, 16, 64}, Topology::Ideal, false);
  EndToEnd E;

  // Set-up: compile the ten modules, SetupReps times; report the median.
  ModuleSet MS;
  std::vector<double> SetupNs;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    auto T0 = Clock::now();
    if (!compileModules(false, MS)) {
      printResult(Chk, true, {});
      return 1;
    }
    SetupNs.push_back(nsSince(T0));
  }
  E.SetupS = median(SetupNs) / 1e9;

  // Timed phase. A traced run splits it: half untraced, half with spans
  // around runProgram (and the profile report) for the per-layer numbers.
  SimPhase Plain, Traced;
  runSimPhase(MS, Configs, Torus, false,
              Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds, Rng, Chk, Plain);
  if (Opt.Trace)
    runSimPhase(MS, Configs, Torus, true, Opt.Seconds / 2, Rng, Chk, Traced);
  E.OpsPerS = median(Plain.CycleOpsPerS);
  E.StepsPerS = median(Plain.CycleStepsPerS);
  E.OpP50Ns = balancedMedian(Plain.OpNsByConfig);
  E.OpNs = Plain.OpNs;
  E.OpAlign = Configs.size();
  E.PeakRssMb = selfPeakRssMb();
  ServiceLayer Svc;
  probeService(Configs, Opt.Seed, Rng, Chk, E, Svc);
  simGeomeans(Chk, Configs, E);
  if (!Torus)
    printTableIII(Chk, Opt.DataDir + "/paper_table3.json");

  if (!Opt.Trace) {
    printResult(Chk, false, endToEndMetrics(Chk, E));
    return 0;
  }

  // Replay the ten sources five times over, so that first-call effects do
  // not dominate the means of so few calls.
  Layers L;
  for (int Rep = 0; Rep != 5; ++Rep)
    for (const Workload &W : oldenWorkloads())
      for (bool OptMode : {false, true})
        replayCompile(W.Source, OptMode, L);
  L.Run.Ns = Traced.RunNs;
  L.Run.Calls = Traced.OpNs.size();
  L.RunSteps = Traced.Steps;
  L.FusedSteps = Traced.FusedSteps;
  measureNetworkAndProfiler(MS, Configs, Chk, L);
  addSelectStats(MS, L);

  double PlainOps = median(Plain.CycleOpsPerS);
  double TracedOps = median(Traced.CycleOpsPerS);
  double OpSum = 0;
  for (double N : Traced.OpNs)
    OpSum += N;
  double Residual = 100.0 * (OpSum - Traced.RunNs - Traced.ReportNs) / OpSum;
  printResult(Chk, false,
              layerMetrics(L, Svc, 100.0 * (PlainOps - TracedOps) / PlainOps,
                           Residual));
  return 0;
}

/// serve-mix: the hot set is every (program, mode, nodes {4,16})
/// configuration at small size under one fixed salt; every fourth request
/// is a cold one with a fresh salt. The 4 MiB cache holds the hot set and
/// a few dozen cold artifacts; the cold stream writes far more, so LRU
/// eviction runs throughout while the hot set stays resident.
///
/// The server gets nproc workers, but the loop keeps only nproc/2 requests
/// outstanding: with nproc of them plus the server's reader and the client
/// the host is oversubscribed, and every number then swung with co-tenant
/// load (IQR over median 0.25-0.45 on a 4-vCPU VM, against 0.02-0.17 at
/// nproc/2).
int runServeMix(const Options &Opt, const Reference &Ref) {
  constexpr unsigned CacheMB = 4;
  constexpr unsigned ColdEvery = 4;
  const unsigned Outstanding = std::max(1u, hostThreads() / 2);
  Checker Chk(Ref);
  std::mt19937_64 Rng(Opt.Seed);
  std::vector<SimConfig> Hot = makeConfigs({4, 16}, Topology::Ideal, true);
  const std::string HotSalt = "/* hot */";
  EndToEnd E;

  // Set-up: start the server and warm the hot set, SetupReps times; the
  // last server stays up for the timed phase.
  std::vector<double> SetupNs;
  std::unique_ptr<ServerChild> S;
  std::vector<ServeSample> Warmup;
  bool OK = true;
  for (unsigned Rep = 0; Rep != SetupReps && OK; ++Rep) {
    auto T0 = Clock::now();
    S = std::make_unique<ServerChild>();
    std::vector<ServeRequest> List;
    for (const SimConfig &C : Hot)
      List.push_back({C, HotSalt});
    OK = S->start(serverArgv(Opt.Server, CacheMB)) &&
         ServeClient(*S, Chk).run(listFeed(std::move(List)), Outstanding,
                                  Warmup);
    SetupNs.push_back(nsSince(T0));
    json::Value Ignored;
    if (Rep + 1 != SetupReps)
      OK = S->shutdown(Ignored) > 0 && OK;
  }
  E.SetupS = median(SetupNs) / 1e9;
  if (!OK) {
    std::fprintf(stderr, "perfbench: server set-up failed\n");
    printResult(Chk, true, {});
    return 1;
  }

  // Timed phase(s): closed loop until the deadline.
  struct PhaseResult {
    bool OK;
    double OpsPerS, StepsPerS;
  };
  ServeClient Client(*S, Chk);
  uint64_t Seq = 0;
  auto Phase = [&](double Seconds, std::vector<ServeSample> &Samples) {
    auto Start = Clock::now();
    auto Feed = [&](ServeRequest &R) {
      if (nsSince(Start) >= Seconds * 1e9)
        return false;
      R.Config = Hot[Rng() % Hot.size()];
      R.Salt = ++Seq % ColdEvery == 0
                   ? "/* cold " + std::to_string(Opt.Seed) + " " +
                         std::to_string(Seq) + " */"
                   : HotSalt;
      return true;
    };
    bool R = Client.run(Feed, Outstanding, Samples);
    double Ns = nsSince(Start);
    // Completed requests and steps per one-second window; the rates are
    // the median over the whole windows.
    std::vector<double> Reqs(static_cast<size_t>(Ns / 1e9)), Steps(Reqs.size());
    for (const ServeSample &Smp : Samples) {
      size_t W = static_cast<size_t>(
          std::chrono::duration<double>(Smp.Done - Start).count());
      if (W < Reqs.size()) {
        Reqs[W] += 1;
        Steps[W] += Smp.Steps;
      }
    }
    if (Reqs.empty()) {
      Reqs.push_back(Samples.size() / (Ns / 1e9));
      Steps.push_back(0);
      for (const ServeSample &Smp : Samples)
        Steps.back() += Smp.Steps / (Ns / 1e9);
    }
    return PhaseResult{R, median(Reqs), median(Steps)};
  };
  std::vector<ServeSample> Plain, Traced;
  PhaseResult PlainR = Phase(Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds, Plain);
  PhaseResult TracedR{true, 0, 0};
  size_t TracedFrom = Client.log().size();
  if (Opt.Trace && PlainR.OK)
    TracedR = Phase(Opt.Seconds / 2, Traced);
  OK = PlainR.OK && TracedR.OK;
  E.OpsPerS = PlainR.OpsPerS;
  E.StepsPerS = PlainR.StepsPerS;
  json::Value Stats;
  E.PeakRssMb = S->shutdown(Stats);
  OK = OK && E.PeakRssMb > 0;

  for (const ServeSample &Smp : Plain) {
    E.OpNs.push_back(Smp.ClientNs);
    if (Smp.Hit)
      E.HitNs.push_back(Smp.ClientNs);
    else
      E.addMiss(Client.log()[Smp.Request].Config, Smp.ClientNs);
  }
  E.OpP50Ns = median(E.OpNs);
  simGeomeans(Chk, Hot, E);
  if (!Opt.Trace) {
    printResult(Chk, !OK, endToEndMetrics(Chk, E));
    return 0;
  }

  // Traced: replay each distinct source of the traced half once in-process
  // through the layer entry points, then run it at the configuration it
  // was first requested with.
  ServiceLayer Svc;
  Svc.Counts.add(Stats);
  Svc.add(Plain);
  Svc.add(Traced);
  Layers L;
  std::map<std::tuple<std::string, size_t, bool>, SimConfig> Distinct;
  for (size_t I = TracedFrom; I != Client.log().size(); ++I) {
    const ServeRequest &R = Client.log()[I];
    Distinct.emplace(std::make_tuple(R.Salt, R.Config.Prog, R.Config.Opt),
                     R.Config);
  }
  for (const auto &[Key, C] : Distinct) {
    CompileResult CR = replayCompile(
        std::get<0>(Key) + C.workload().smallSource(), C.Opt, L);
    if (!CR.OK) {
      Chk.missing(C.key() + ": replay compile failed");
      continue;
    }
    MachineConfig MC = workloadMachine(
        C.Opt ? RunMode::Optimized : RunMode::Simple, C.Nodes);
    MC.Topo = C.Topo;
    RunResult R = timed(L.Run, [&] { return runProgram(*CR.M, MC); });
    L.RunSteps += R.StepsExecuted;
    L.FusedSteps += R.FusedSteps;
    Chk.check(C.key(), C.ref(), simOutcome(R));
  }
  ModuleSet MS;
  if (!compileModules(true, MS))
    OK = false;
  else {
    measureNetworkAndProfiler(MS, Hot, Chk, L);
    addSelectStats(MS, L);
  }

  // Composition: a miss should cost the compile layers, the run and the
  // protocol; what the client saw beyond that is unattributed.
  std::vector<double> TracedMiss;
  for (const ServeSample &Smp : Traced)
    if (!Smp.Hit)
      TracedMiss.push_back(Smp.ClientNs);
  double MissNs = mean(TracedMiss);
  double Predicted = (L.compileNs() + L.Run.Ns) / std::max<uint64_t>(1, L.Sources) +
                     mean(Svc.HitProtocolNs);
  printResult(Chk, !OK,
              layerMetrics(L, Svc,
                           100.0 * (PlainR.OpsPerS - TracedR.OpsPerS) /
                               PlainR.OpsPerS,
                           100.0 * (MissNs - Predicted) / MissNs));
  return 0;
}

void printHost() {
  bool Sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||    \
    __has_feature(undefined_behavior_sanitizer)
  Sanitized = true;
#endif
#endif
  std::string BuildType = PERFBENCH_BUILD_TYPE;
  bool Optimized = BuildType == "Release" || BuildType == "RelWithDebInfo";
  bool Goto = defaultDispatch() == BcDispatch::ComputedGoto;
  std::printf("host: {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
              "\"dispatch\": \"%s\", \"sanitized\": %s, \"comparable\": %s}\n",
              hostThreads(), json::quote(PERFBENCH_COMPILER).c_str(),
              json::quote(BuildType).c_str(),
              Goto ? "computed-goto" : "switch", Sanitized ? "true" : "false",
              Optimized && !Sanitized ? "true" : "false");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim-ideal|sim-torus|serve-mix "
               "--seed N --seconds S --trace 0|1 --data DIR --server PATH\n"
               "       perfbench --record-reference FILE\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (A == "--record-reference")
      return recordReference(V);
    if (A == "--workload")
      Opt.Workload = V;
    else if (A == "--seed")
      Opt.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      Opt.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      Opt.Trace = V == "1";
    else if (A == "--data")
      Opt.DataDir = V;
    else if (A == "--server")
      Opt.Server = V;
    else
      return usage();
  }
  if (Opt.Seconds <= 0 || Opt.Server.empty())
    return usage();

  Reference Ref;
  std::string Err;
  if (!loadReference(Opt.DataDir + "/reference.json", Ref, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 1;
  }
  printHost();
  if (Opt.Workload == "sim-ideal" || Opt.Workload == "sim-torus")
    return runSimWorkload(Opt, Ref, Opt.Workload == "sim-torus");
  if (Opt.Workload == "serve-mix")
    return runServeMix(Opt, Ref);
  return usage();
}

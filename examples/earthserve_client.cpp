//===- earthserve_client.cpp - Load generator for earthcc --serve ----------===//
//
// Part of the earthcc project.
//
// Spawns `earthcc --serve` as a child process and drives its line-oriented
// JSON protocol: a stream of pipelined run requests (ids 1..N), responses
// matched by id as they arrive (the server answers out of order), then a
// clean shutdown. Reports per-request latency percentiles and the server's
// cache verdicts — a minimal client for eyeballing service behaviour; the
// systematic sweep lives in bench_table1's `service` block.
//
//   earthserve_client [--server "path/to/earthcc --serve ..."]
//                     [--requests N] [--distinct K] [--workload NAME]
//                     [--nodes N] [--topology NAME] [--distribution NAME]
//                     [--profile] [--metrics-every N]
//
// `--distinct K` rotates the traffic over K distinct cache keys (the source
// is salted with a block comment), so K=1 measures a pure warm-cache hit
// stream and K=N a pure cold-miss stream.
//
// `--metrics-every N` interleaves a `{"op":"metrics"}` poll after every N
// collected responses and prints one summary line per poll (server-side
// cache verdicts and queue depth) — the live view of the same registry the
// final `stats` numbers come from.
//
// Per-op latencies are recorded into a client-side Metrics histogram
// (support/Metrics.h) as well as the exact sorted list, so the reported
// p50/p95/p99 exercise the very bucketing the server uses — a drift between
// the two forms is a client-visible sanity check on the server histograms.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace earthcc;

namespace {

struct ServerProcess {
  pid_t Pid = -1;
  FILE *In = nullptr;  ///< Server's stdin (we write requests here).
  FILE *Out = nullptr; ///< Server's stdout (we read responses here).
};

/// fork/exec \p Argv with both standard streams piped.
bool spawnServer(const std::vector<std::string> &Argv, ServerProcess &S) {
  int ToChild[2], FromChild[2];
  if (pipe(ToChild) != 0 || pipe(FromChild) != 0) {
    std::perror("pipe");
    return false;
  }
  pid_t Pid = fork();
  if (Pid < 0) {
    std::perror("fork");
    return false;
  }
  if (Pid == 0) {
    dup2(ToChild[0], STDIN_FILENO);
    dup2(FromChild[1], STDOUT_FILENO);
    close(ToChild[0]);
    close(ToChild[1]);
    close(FromChild[0]);
    close(FromChild[1]);
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    execvp(Args[0], Args.data());
    std::perror("execvp");
    _exit(127);
  }
  close(ToChild[0]);
  close(FromChild[1]);
  S.Pid = Pid;
  S.In = fdopen(ToChild[1], "w");
  S.Out = fdopen(FromChild[0], "r");
  return S.In && S.Out;
}

bool readLine(FILE *F, std::string &Line) {
  Line.clear();
  int C;
  while ((C = std::fgetc(F)) != EOF) {
    if (C == '\n')
      return true;
    Line.push_back(static_cast<char>(C));
  }
  return !Line.empty();
}

double nowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Sums the "svc.requests" counter rows of a metrics snapshot whose labels
/// match \p Op and \p Outcome.
uint64_t sumRequests(const json::Value &Snapshot, const std::string &Op,
                     const std::string &Outcome) {
  const json::Value *Counters = Snapshot.find("counters");
  if (!Counters || !Counters->isArray())
    return 0;
  uint64_t Sum = 0;
  for (const json::Value &Row : Counters->items()) {
    if (Row.getString("name", "") != "svc.requests")
      continue;
    const json::Value *Labels = Row.find("labels");
    if (!Labels || Labels->getString("op", "") != Op ||
        Labels->getString("outcome", "") != Outcome)
      continue;
    Sum += static_cast<uint64_t>(Row.getNumber("value", 0));
  }
  return Sum;
}

int64_t gaugeValue(const json::Value &Snapshot, const std::string &Name) {
  const json::Value *Gauges = Snapshot.find("gauges");
  if (!Gauges || !Gauges->isArray())
    return 0;
  for (const json::Value &Row : Gauges->items())
    if (Row.getString("name", "") == Name)
      return static_cast<int64_t>(Row.getNumber("value", 0));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string ServerCmd = "./examples/earthcc --serve";
  std::string WorkloadName = "power";
  unsigned Requests = 32;
  unsigned Distinct = 4;
  unsigned Nodes = 4;
  std::string TopologyName;     // empty = server default (ideal)
  std::string DistributionName; // empty = server default (cyclic)
  bool Profile = false;
  unsigned MetricsEvery = 0; // 0 = no metrics polling

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--server") {
      if (const char *V = Next())
        ServerCmd = V;
    } else if (Arg == "--workload") {
      if (const char *V = Next())
        WorkloadName = V;
    } else if (Arg == "--requests") {
      if (const char *V = Next())
        Requests = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--distinct") {
      if (const char *V = Next())
        Distinct = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--nodes") {
      if (const char *V = Next())
        Nodes = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--topology") {
      if (const char *V = Next())
        TopologyName = V;
    } else if (Arg == "--distribution") {
      if (const char *V = Next())
        DistributionName = V;
    } else if (Arg == "--profile") {
      Profile = true;
    } else if (Arg == "--metrics-every") {
      if (const char *V = Next())
        MetricsEvery = static_cast<unsigned>(std::atoi(V));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--server CMD] [--workload NAME] "
                   "[--requests N] [--distinct K] [--nodes N] "
                   "[--topology ideal|bus|mesh2d|torus2d|fattree] "
                   "[--distribution cyclic|block] [--profile] "
                   "[--metrics-every N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (Requests == 0 || Distinct == 0)
    Distinct = Requests = std::max(1u, Requests);

  const Workload *W = findWorkload(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return 2;
  }
  std::string Base = W->smallSource();

  // Split the server command on spaces (no quoting needed for our use).
  std::vector<std::string> ServerArgv;
  {
    std::string Tok;
    for (char C : ServerCmd + " ") {
      if (C == ' ') {
        if (!Tok.empty())
          ServerArgv.push_back(Tok);
        Tok.clear();
      } else {
        Tok.push_back(C);
      }
    }
  }

  ServerProcess S;
  if (!spawnServer(ServerArgv, S))
    return 1;

  // Pipeline all requests, then collect all responses (the server works
  // them concurrently and may answer out of order).
  std::map<long, double> SendMs;
  double T0 = nowMs();
  for (unsigned I = 1; I <= Requests; ++I) {
    // Rotate over `Distinct` cache keys: the salt comment changes the
    // source bytes (hence the content hash) without changing the program.
    std::string Source =
        "/* variant " + std::to_string(I % Distinct) + " */\n" + Base;
    json::Value Req = json::Value::object();
    Req.members().emplace_back("id",
                               json::Value::number(static_cast<double>(I)));
    Req.members().emplace_back("op", json::Value::string("run"));
    Req.members().emplace_back("source", json::Value::string(Source));
    Req.members().emplace_back("nodes",
                               json::Value::number(static_cast<double>(Nodes)));
    // Topology/distribution ride the same option table as the CLI; they are
    // key material, so two topologies never collide in the server's cache.
    if (!TopologyName.empty())
      Req.members().emplace_back("topology",
                                 json::Value::string(TopologyName));
    if (!DistributionName.empty())
      Req.members().emplace_back("distribution",
                                 json::Value::string(DistributionName));
    if (Profile)
      Req.members().emplace_back("profile", json::Value::boolean(true));
    SendMs[I] = nowMs();
    std::fprintf(S.In, "%s\n", Req.str().c_str());
  }
  std::fflush(S.In);

  unsigned OK = 0, Failed = 0, CacheHits = 0, CompileHits = 0;
  std::vector<double> LatencyMs;
  // The client-side per-op latency histogram: same fixed-bucket layout the
  // server's svc.request_ns uses, so the p50/p95/p99 printed below are
  // directly comparable with a server-side metrics snapshot.
  MetricsRegistry ClientReg;
  Histogram RunNs = ClientReg.histogram("client.op_ns", {{"op", "run"}});
  unsigned MetricsPolls = 0;
  auto printMetricsPoll = [&](const json::Value &Resp) {
    ++MetricsPolls;
    if (const json::Value *Snap = Resp.find("metrics"))
      std::printf("[metrics poll %u] run: hits %llu  waits %llu  "
                  "misses %llu  queue depth %lld\n",
                  MetricsPolls,
                  (unsigned long long)sumRequests(*Snap, "run", "hit"),
                  (unsigned long long)sumRequests(*Snap, "run", "wait"),
                  (unsigned long long)sumRequests(*Snap, "run", "miss"),
                  (long long)gaugeValue(*Snap, "svc.queue_depth"));
  };
  std::string Line;
  unsigned Got = 0;
  while (Got < Requests && readLine(S.Out, Line)) {
    json::Value Resp;
    std::string Err;
    if (!json::parse(Line, Resp, Err)) {
      std::fprintf(stderr, "bad response: %s (%s)\n", Line.c_str(),
                   Err.c_str());
      ++Failed;
      ++Got;
      continue;
    }
    if (Resp.getString("op", "") == "metrics") {
      // A poll answer, not one of our run responses: print the live server
      // view and keep collecting.
      printMetricsPoll(Resp);
      continue;
    }
    ++Got;
    long Id = static_cast<long>(Resp.getNumber("id", -1));
    auto Sent = SendMs.find(Id);
    if (Sent != SendMs.end()) {
      double Ms = nowMs() - Sent->second;
      LatencyMs.push_back(Ms);
      RunNs.observe(Ms <= 0 ? 0 : static_cast<uint64_t>(Ms * 1e6));
    }
    if (Resp.getBool("ok", false))
      ++OK;
    else
      ++Failed;
    CacheHits += Resp.getBool("cache_hit", false);
    CompileHits += Resp.getBool("compile_cache_hit", false);
    if (MetricsEvery && Got % MetricsEvery == 0 && Got < Requests) {
      std::fprintf(S.In, "{\"id\":%u,\"op\":\"metrics\"}\n",
                   1000000 + MetricsPolls + 1);
      std::fflush(S.In);
    }
  }
  double WallMs = nowMs() - T0;

  // Clean shutdown: the server drains, answers once, and exits. Poll
  // answers the server wrote after our last run response are still in the
  // pipe — read everything to EOF so fast runs still show their polls.
  std::fprintf(S.In, "{\"op\":\"shutdown\"}\n");
  std::fflush(S.In);
  while (readLine(S.Out, Line)) {
    json::Value Resp;
    std::string Err;
    if (json::parse(Line, Resp, Err) && Resp.getString("op", "") == "metrics")
      printMetricsPoll(Resp);
  }
  std::fclose(S.In);
  std::fclose(S.Out);
  int Status = 0;
  waitpid(S.Pid, &Status, 0);

  std::sort(LatencyMs.begin(), LatencyMs.end());
  auto Pct = [&](double P) {
    if (LatencyMs.empty())
      return 0.0;
    size_t Idx = static_cast<size_t>(P * (LatencyMs.size() - 1));
    return LatencyMs[Idx];
  };
  std::printf("requests %u  ok %u  failed %u\n", Requests, OK, Failed);
  std::printf("cache: run-hits %u  compile-hits %u  (distinct keys %u)\n",
              CacheHits, CompileHits, std::min(Distinct, Requests));
  std::printf("wall %.1f ms  throughput %.1f req/s\n", WallMs,
              WallMs > 0 ? Requests * 1000.0 / WallMs : 0.0);
  std::printf("latency ms: p50 %.2f  p90 %.2f  max %.2f\n", Pct(0.5),
              Pct(0.9), LatencyMs.empty() ? 0.0 : LatencyMs.back());
  // Histogram-derived per-op percentiles (bucket lower bounds, ns -> ms):
  // the same estimator the server's svc.request_ns histograms use.
  std::printf("latency ms (hist, op=run): p50 %.2f  p95 %.2f  p99 %.2f  "
              "(%llu samples)\n",
              RunNs.percentile(50) / 1e6, RunNs.percentile(95) / 1e6,
              RunNs.percentile(99) / 1e6, (unsigned long long)RunNs.count());
  return Failed == 0 && WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? 0 : 1;
}

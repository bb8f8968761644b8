//===- service_test.cpp - CompileService cache and concurrency tests -------===//
//
// Part of the earthcc project.
//
// The service's contracts, each pinned under concurrency where it matters:
//
//  - Cache identity: requests differing in a result-determining option
//    (engine, node count, optimization) are distinct artifacts; requests
//    differing only in a host-only knob (dispatch loop) or instrumentation
//    (trace sink) share one.
//  - Single-flight: N concurrent identical requests execute the pipeline
//    exactly once — the others join the in-flight computation.
//  - Eviction: completed artifacts respect the byte budget LRU-wise; the
//    most recent entry survives, evicted keys recompute on next use.
//  - Determinism: a cached response is bit-identical to a fresh one —
//    simulated time, counters, and the serialized comm profile.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"
#include "service/Serve.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <string>
#include <vector>

using namespace earthcc;

namespace {

const char *Program = R"(
  struct Point { double x; double y; Point *next; };
  Point *build(int n) {
    Point *head; Point *p; int i;
    head = NULL;
    for (i = 0; i < n; i = i + 1) {
      p = pmalloc(sizeof(Point))@node(i % num_nodes());
      p->x = i * 1.0;
      p->y = i * 2.0;
      p->next = head;
      head = p;
    }
    return head;
  }
  int main() {
    Point *head; Point *p;
    double sx;
    head = build(24);
    sx = 0.0;
    p = head;
    while (p != NULL) {
      sx = sx + p->x + p->y;
      p = p->next;
    }
    return sx;
  }
)";

ServiceConfig workers(unsigned N) {
  ServiceConfig C;
  C.Workers = N;
  return C;
}

} // namespace

TEST(ServiceCompileTest, HitOnIdenticalMissOnDifferentOptions) {
  CompileService S(workers(2));

  CompileRequest Opt = CompileRequest::optimized(Program);
  CompileResponse First = S.submitCompile(Opt).get();
  ASSERT_TRUE(First.OK) << First.Messages;
  EXPECT_FALSE(First.CacheHit);
  ASSERT_NE(First.Artifact, nullptr);
  EXPECT_NE(First.Artifact->M, nullptr);
  EXPECT_FALSE(First.Artifact->ThreadedC.empty());

  CompileResponse Again = S.submitCompile(Opt).get();
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Artifact.get(), First.Artifact.get()); // shared, not copied
  EXPECT_EQ(Again.Key, First.Key);

  // A key-changing option is a different artifact.
  CompileResponse Simple =
      S.submitCompile(CompileRequest::simple(Program)).get();
  ASSERT_TRUE(Simple.OK);
  EXPECT_FALSE(Simple.CacheHit);
  EXPECT_NE(Simple.Key, First.Key);

  // The same fields rebuilt from scratch are the same artifact.
  EXPECT_TRUE(
      S.submitCompile(CompileRequest::optimized(Program)).get().CacheHit);

  ServiceStats St = S.stats();
  EXPECT_EQ(St.CompileRequests, 4u);
  EXPECT_EQ(St.CompileExecutions, 2u);
  EXPECT_EQ(St.CompileHits + St.CompileWaits, 2u);
}

TEST(ServiceRunTest, KeyedOptionsMissInstrumentationHits) {
  CompileService S(workers(2));
  CompileRequest CReq = CompileRequest::optimized(Program);

  RunRequest Base;
  Base.Nodes = 4;
  RunResponse R1 = S.submitRun(CReq, Base).get();
  ASSERT_TRUE(R1.OK) << R1.Error;
  EXPECT_FALSE(R1.CacheHit);

  // Identical request: served from cache, same artifact object.
  RunResponse R2 = S.submitRun(CReq, Base).get();
  EXPECT_TRUE(R2.CacheHit);
  EXPECT_TRUE(R2.CompileCacheHit);
  EXPECT_EQ(R2.Sim.get(), R1.Sim.get());

  // Engine and node count are keyed: each is a distinct simulated
  // artifact (conservative identity), even though results are equal.
  RunRequest Ast = Base;
  Ast.Engine = ExecEngine::AST;
  RunResponse RAst = S.submitRun(CReq, Ast).get();
  EXPECT_FALSE(RAst.CacheHit);
  EXPECT_TRUE(RAst.CompileCacheHit); // same compiled module underneath
  EXPECT_EQ(RAst.Sim->TimeNs, R1.Sim->TimeNs);
  EXPECT_EQ(RAst.Sim->Counters.total(), R1.Sim->Counters.total());

  // The dispatch loop is a host-only knob: same artifact.
  RunRequest OtherLoop = Base;
  OtherLoop.Dispatch = Base.Dispatch == BcDispatch::ComputedGoto
                           ? BcDispatch::Switch
                           : BcDispatch::ComputedGoto;
  EXPECT_TRUE(S.submitRun(CReq, OtherLoop).get().CacheHit);

  RunRequest EightNodes = Base;
  EightNodes.Nodes = 8;
  EXPECT_FALSE(S.submitRun(CReq, EightNodes).get().CacheHit);

  // Attaching a trace sink is NOT keyed: the request still hits, and the
  // cached (untraced) result is returned unchanged.
  ChromeTraceSink Sink;
  RunRequest Traced = Base;
  Traced.Sink = &Sink;
  RunResponse RTraced = S.submitRun(CReq, Traced).get();
  EXPECT_TRUE(RTraced.CacheHit);
  EXPECT_EQ(RTraced.Sim.get(), R1.Sim.get());

  ServiceStats St = S.stats();
  EXPECT_EQ(St.RunExecutions, 3u); // base, ast, 8 nodes
  EXPECT_EQ(St.CompileExecutions, 1u);
}

TEST(ServiceDedupTest, ConcurrentIdenticalRequestsCompileOnce) {
  // 8 identical requests race on an 8-worker pool: single-flight must
  // collapse them to exactly one pipeline execution regardless of how the
  // workers interleave — the others either join the in-flight future
  // (waits) or see the published artifact (hits).
  CompileService S(workers(8));
  CompileRequest CReq = CompileRequest::optimized(Program);
  RunRequest RReq;
  RReq.Nodes = 4;

  std::vector<std::future<RunResponse>> Futures;
  for (int I = 0; I != 8; ++I)
    Futures.push_back(S.submitRun(CReq, RReq));

  const SimArtifact *Shared = nullptr;
  for (auto &F : Futures) {
    RunResponse R = F.get();
    ASSERT_TRUE(R.OK) << R.Error;
    if (!Shared)
      Shared = R.Sim.get();
    EXPECT_EQ(R.Sim.get(), Shared); // one artifact object for all
  }

  ServiceStats St = S.stats();
  EXPECT_EQ(St.RunRequests, 8u);
  EXPECT_EQ(St.RunExecutions, 1u);
  EXPECT_EQ(St.RunHits + St.RunWaits, 7u);
  EXPECT_EQ(St.CompileRequests, 8u);
  EXPECT_EQ(St.CompileExecutions, 1u);
}

TEST(ServiceEvictionTest, ByteBudgetEvictsLRUAndRecomputes) {
  ServiceConfig Cfg = workers(2);
  Cfg.CacheBudgetBytes = 1; // every publish overflows: only MRU survives
  CompileService S(Cfg);

  CompileRequest A = CompileRequest::simple("int main() { return 1; }");
  CompileRequest B = CompileRequest::simple("int main() { return 2; }");

  std::shared_ptr<const CompiledArtifact> HeldA =
      S.submitCompile(A).get().Artifact;
  ASSERT_TRUE(HeldA && HeldA->OK);
  EXPECT_EQ(S.stats().CacheEntries, 1u); // A survives: MRU is protected

  ASSERT_TRUE(S.submitCompile(B).get().OK); // publishing B evicts A
  ServiceStats St = S.stats();
  EXPECT_GE(St.Evictions, 1u);
  EXPECT_EQ(St.CacheEntries, 1u);

  // The held shared_ptr outlives eviction; the map entry is gone, so A
  // recomputes on next use (a miss, not a hit).
  EXPECT_NE(HeldA->M->findFunction("main"), nullptr);
  CompileResponse AAgain = S.submitCompile(A).get();
  EXPECT_FALSE(AAgain.CacheHit);
  EXPECT_EQ(S.stats().CompileExecutions, 3u);

  // Distinct artifact objects: the recompute did not resurrect the pointer.
  EXPECT_NE(AAgain.Artifact.get(), HeldA.get());
}

TEST(ServiceDeterminismTest, CachedResponseBitIdenticalToFresh) {
  // The same request against two independent services: one cold compute
  // each; then a cached replay from the first. All three must agree bit
  // for bit — simulated time, counters, step count, and the serialized
  // per-site comm profile.
  CompileRequest CReq = CompileRequest::optimized(Program);
  RunRequest RReq;
  RReq.Nodes = 4;

  CompileService S1(workers(2));
  RunResponse Fresh1 = S1.submitRun(CReq, RReq).get();
  ASSERT_TRUE(Fresh1.OK) << Fresh1.Error;
  RunResponse Cached = S1.submitRun(CReq, RReq).get();
  EXPECT_TRUE(Cached.CacheHit);

  CompileService S2(workers(1));
  RunResponse Fresh2 = S2.submitRun(CReq, RReq).get();
  ASSERT_TRUE(Fresh2.OK) << Fresh2.Error;

  for (const RunResponse *R : {&Cached, &Fresh2}) {
    EXPECT_EQ(R->Sim->TimeNs, Fresh1.Sim->TimeNs);
    EXPECT_EQ(R->Sim->ExitValue.I, Fresh1.Sim->ExitValue.I);
    EXPECT_EQ(R->Sim->StepsExecuted, Fresh1.Sim->StepsExecuted);
    EXPECT_EQ(R->Sim->Counters.total(), Fresh1.Sim->Counters.total());
    EXPECT_EQ(R->Sim->Counters.WordsMoved, Fresh1.Sim->Counters.WordsMoved);
    EXPECT_EQ(R->Sim->Output, Fresh1.Sim->Output);
    EXPECT_EQ(R->Sim->WordsPerNode, Fresh1.Sim->WordsPerNode);
    // The profile is serialized once, on the fresh run, from a
    // service-owned profiler: byte equality here is the "cached responses
    // are indistinguishable" guarantee.
    EXPECT_EQ(R->Sim->ProfileJson, Fresh1.Sim->ProfileJson);
  }
  EXPECT_FALSE(Fresh1.Sim->ProfileJson.empty());
}

TEST(ServiceFailureTest, CompileErrorsAreCachedDeterministically) {
  CompileService S(workers(2));
  CompileRequest Bad = CompileRequest::optimized("int main() { return x; }");

  CompileResponse First = S.submitCompile(Bad).get();
  EXPECT_FALSE(First.OK);
  EXPECT_FALSE(First.Messages.empty());

  // Failures are artifacts too: same key, cached diagnostics, no recompile.
  CompileResponse Again = S.submitCompile(Bad).get();
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Messages, First.Messages);
  EXPECT_EQ(S.stats().CompileExecutions, 1u);

  // A run request against a failing compile fails cleanly with the
  // compiler's diagnostics, and is itself cached.
  RunRequest RReq;
  RunResponse R = S.submitRun(Bad, RReq).get();
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(R.Error, First.Messages);
  EXPECT_TRUE(S.submitRun(Bad, RReq).get().CacheHit);
}

TEST(ServiceTraceTest, ServiceSinkSeesOneSpanPerRequest) {
  ChromeTraceSink Sink;
  ServiceConfig Cfg = workers(2);
  Cfg.Trace = &Sink;
  CompileService S(Cfg);

  CompileRequest CReq = CompileRequest::optimized(Program);
  RunRequest RReq;
  ASSERT_TRUE(S.submitRun(CReq, RReq).get().OK);
  ASSERT_TRUE(S.submitRun(CReq, RReq).get().OK);

  unsigned Spans = 0, Hits = 0;
  for (const TraceEvent &E : Sink.events()) {
    if (E.Name != "svc:run")
      continue;
    ++Spans;
    for (const TraceEvent::Arg &A : E.Args)
      if (A.Key == "hit" && A.Val == "1")
        ++Hits;
  }
  EXPECT_EQ(Spans, 2u);
  EXPECT_EQ(Hits, 1u); // second request was the cache hit
}

TEST(ServiceMetricsTest, RegistryCountersBackTheStatsView) {
  // Each service without an explicit ServiceConfig::Metrics owns a private
  // registry, so counts here are exact regardless of other tests.
  CompileService S(workers(2));
  CompileRequest Opt = CompileRequest::optimized(Program);
  ASSERT_TRUE(S.submitCompile(Opt).get().OK);
  EXPECT_TRUE(S.submitCompile(Opt).get().CacheHit);

  MetricsRegistry &Reg = S.metrics();
  EXPECT_EQ(Reg.counter("svc.requests", {{"op", "compile"},
                                         {"outcome", "miss"}})
                .value(),
            1u);
  EXPECT_EQ(Reg.counter("svc.requests", {{"op", "compile"},
                                         {"outcome", "hit"}})
                    .value() +
                Reg.counter("svc.requests", {{"op", "compile"},
                                             {"outcome", "wait"}})
                    .value(),
            1u);
  // Both requests observed a latency sample, split by outcome.
  EXPECT_EQ(Reg.histogram("svc.request_ns", {{"op", "compile"},
                                             {"outcome", "miss"}})
                .count(),
            1u);
  EXPECT_EQ(Reg.histogram("svc.request_ns", {{"op", "compile"},
                                             {"outcome", "hit"}})
                .count(),
            1u);

  // stats() is a point-in-time view over these same counters and gauges.
  ServiceStats St = S.stats();
  EXPECT_EQ(St.CompileRequests, 2u);
  EXPECT_EQ(St.CompileExecutions, 1u);
  EXPECT_EQ(static_cast<int64_t>(St.CacheEntries),
            Reg.gauge("svc.cache_entries").value());
  EXPECT_EQ(static_cast<int64_t>(St.CacheBytes),
            Reg.gauge("svc.cache_bytes").value());

  // A second service's private registry is untouched by the first.
  CompileService Fresh(workers(1));
  EXPECT_EQ(Fresh.metrics()
                .counter("svc.requests",
                         {{"op", "compile"}, {"outcome", "miss"}})
                .value(),
            0u);
}

TEST(ServeMetricsTest, MetricsOpAnswersWithRegistrySnapshot) {
  // The "metrics" op over the serve protocol returns the wired registry's
  // snapshot; after shutdown drains, the registry holds the final counts:
  // one pipeline execution and one cache hit (or in-flight join) for the
  // two identical runs.
  MetricsRegistry Reg;
  ServeOptions Opts;
  Opts.Service.Workers = 2;
  Opts.Service.Metrics = &Reg;

  std::istringstream In(
      "{\"id\":1,\"op\":\"run\",\"workload\":\"power\",\"nodes\":2}\n"
      "{\"id\":2,\"op\":\"run\",\"workload\":\"power\",\"nodes\":2}\n"
      "{\"id\":3,\"op\":\"metrics\"}\n"
      "{\"id\":4,\"op\":\"shutdown\"}\n");
  std::ostringstream Out;
  EXPECT_EQ(runServeLoop(In, Out, Opts), 4u);

  const std::string Text = Out.str();
  EXPECT_NE(Text.find("\"op\":\"metrics\""), std::string::npos) << Text;
  EXPECT_NE(Text.find("\"svc.requests\""), std::string::npos) << Text;
  EXPECT_NE(Text.find("\"svc.request_ns\""), std::string::npos) << Text;

  uint64_t Miss =
      Reg.counter("svc.requests", {{"op", "run"}, {"outcome", "miss"}})
          .value();
  uint64_t Joined =
      Reg.counter("svc.requests", {{"op", "run"}, {"outcome", "hit"}})
          .value() +
      Reg.counter("svc.requests", {{"op", "run"}, {"outcome", "wait"}})
          .value();
  EXPECT_EQ(Miss, 1u);
  EXPECT_EQ(Joined, 1u);
}

TEST(ServeMetricsTest, GlobalRegistryCarriesStageHistogramsAcrossSessions) {
  // Without an explicit registry the serve loop records into the
  // process-wide one — the same registry Pipeline stages and engines use.
  // A first session executes a run; a second session's "metrics" op then
  // reports those per-stage wall-ns histograms and engine dispatch totals
  // alongside its own (empty) cache counters.
  ServeOptions Opts;
  Opts.Service.Workers = 1;
  {
    std::istringstream In(
        "{\"id\":1,\"op\":\"run\",\"workload\":\"power\",\"nodes\":2}\n"
        "{\"id\":2,\"op\":\"shutdown\"}\n");
    std::ostringstream Out;
    runServeLoop(In, Out, Opts);
    ASSERT_NE(Out.str().find("\"ok\":true"), std::string::npos) << Out.str();
  }
  std::istringstream In(
      "{\"id\":1,\"op\":\"metrics\"}\n{\"id\":2,\"op\":\"shutdown\"}\n");
  std::ostringstream Out;
  runServeLoop(In, Out, Opts);
  EXPECT_NE(Out.str().find("\"pipeline.stage_ns\""), std::string::npos);
  EXPECT_NE(Out.str().find("\"engine.runs\""), std::string::npos);
}

TEST(ServiceShutdownTest, DestructionDrainsPendingRequests) {
  // Futures obtained before destruction must complete: the pool drains its
  // queue (workers finish everything submitted) before members die.
  std::vector<std::future<RunResponse>> Futures;
  {
    CompileService S(workers(2));
    CompileRequest CReq = CompileRequest::optimized(Program);
    for (unsigned N : {2u, 4u, 8u}) {
      RunRequest RReq;
      RReq.Nodes = N;
      Futures.push_back(S.submitRun(CReq, RReq));
    }
  } // destructor joins here
  for (auto &F : Futures) {
    RunResponse R = F.get();
    EXPECT_TRUE(R.OK) << R.Error;
  }
}

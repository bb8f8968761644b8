//===- Request.cpp - Immutable compile/run request values ------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "driver/Request.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

using namespace earthcc;

//===----------------------------------------------------------------------===//
// Canonical key serialization
//===----------------------------------------------------------------------===//

namespace {

/// Builds the canonical key bytes: `name=value;` records with doubles at
/// full precision and strings length-prefixed (so no value can forge a
/// field boundary). Field order is fixed by the emitting code and the
/// leading version tag changes whenever the schema does — two keys compare
/// equal iff they were produced by the same schema from identical fields.
class KeyWriter {
public:
  /// \p Reserve is the size of any large text field (the source), so every
  /// record appends in place without regrowing the buffer; the fixed
  /// records of either key fit in the 640 bytes on top.
  explicit KeyWriter(const char *Tag, size_t Reserve = 0) {
    Bytes.reserve(Reserve + 640);
    Bytes += Tag;
    Bytes += ';';
  }

  void boolean(const char *Name, bool V) {
    open(Name);
    Bytes += V ? '1' : '0';
    Bytes += ';';
  }
  void integer(const char *Name, uint64_t V) {
    open(Name);
    decimal(V);
    Bytes += ';';
  }
  void real(const char *Name, double V) {
    char Buf[40];
    int N = std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    open(Name);
    Bytes.append(Buf, static_cast<size_t>(N));
    Bytes += ';';
  }
  void text(const char *Name, std::string_view V) {
    open(Name);
    decimal(V.size());
    Bytes += ':';
    Bytes += V;
    Bytes += ';';
  }

  std::string take() { return std::move(Bytes); }

private:
  void open(const char *Name) {
    Bytes += Name;
    Bytes += '=';
  }
  void decimal(uint64_t V) {
    char Buf[24];
    char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
    Bytes.append(Buf, End);
  }

  std::string Bytes;
};

} // namespace

uint64_t earthcc::hashKeyBytes(std::string_view Bytes) {
  // FNV-1a, 64-bit.
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string earthcc::keyBytesToHex(uint64_t Key) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)Key);
  return Buf;
}

CompileRequest CompileRequest::simple(std::string Source) {
  CompileRequest R;
  R.Source = std::move(Source);
  R.Optimize = false;
  return R;
}

CompileRequest CompileRequest::optimized(std::string Source) {
  CompileRequest R;
  R.Source = std::move(Source);
  return R;
}

std::string CompileRequest::keyBytes() const {
  KeyWriter W("earthcc-compile-v1", Source.size());
  W.boolean("optimize", Optimize);
  W.boolean("locality", InferLocality);
  W.boolean("read-motion", Comm.EnableReadMotion);
  W.boolean("blocking", Comm.EnableBlocking);
  W.boolean("redundancy-elim", Comm.EnableRedundancyElim);
  W.boolean("write-blocking", Comm.EnableWriteBlocking);
  W.boolean("speculative-reads", Comm.SpeculativeReads);
  W.integer("block-threshold", Comm.BlockThresholdWords);
  W.integer("max-overfetch", Comm.MaxBlockOverfetch);
  W.real("loop-freq", Comm.Placement.LoopFrequencyFactor);
  W.boolean("optimistic-cond", Comm.Placement.OptimisticConditionalReads);
  W.text("source", Source);
  return W.take();
}

uint64_t CompileRequest::key() const { return hashKeyBytes(keyBytes()); }
std::string CompileRequest::keyHex() const { return keyBytesToHex(key()); }

RunRequest::RunRequest() {
  // Mirror MachineConfig's defaults field by field, so the two surfaces
  // cannot drift.
  MachineConfig MC;
  Engine = MC.Engine;
  Dispatch = MC.Dispatch;
  AllowNullReads = MC.AllowNullReads;
  MaxSteps = MC.MaxSteps;
  EUQuantum = MC.EUQuantum;
  Costs = MC.Costs;
  Topo = MC.Topo;
  NetHopNs = MC.NetHopNs;
  NetLinkWordNs = MC.NetLinkWordNs;
  Dist = MC.Dist;
  DistBlockSize = MC.DistBlockSize;
}

MachineConfig RunRequest::machine() const {
  MachineConfig MC;
  MC.NumNodes = Sequential ? 1 : Nodes;
  MC.Costs = Costs;
  MC.Engine = Engine;
  MC.Dispatch = Dispatch;
  MC.SequentialMode = Sequential;
  MC.AllowNullReads = AllowNullReads;
  MC.MaxSteps = MaxSteps;
  MC.EUQuantum = EUQuantum;
  MC.Topo = Topo;
  MC.NetHopNs = NetHopNs;
  MC.NetLinkWordNs = NetLinkWordNs;
  MC.Dist = Dist;
  MC.DistBlockSize = DistBlockSize;
  MC.Trace = Sink;
  MC.Profiler = Profiler;
  return MC;
}

std::string RunRequest::keyBytes() const {
  KeyWriter W("earthcc-run-v3"); // v3: fusion knob removed
  W.text("entry", Entry);
  W.integer("args", Args.size());
  for (const RtValue &A : Args) {
    switch (A.K) {
    case RtValue::Kind::Undef:
      W.text("arg", "undef");
      break;
    case RtValue::Kind::Int:
      W.integer("arg-int", static_cast<uint64_t>(A.I));
      break;
    case RtValue::Kind::Dbl:
      W.real("arg-dbl", A.D);
      break;
    case RtValue::Kind::Ptr:
      W.text("arg-ptr", A.P.str());
      break;
    }
  }
  W.integer("nodes", Sequential ? 1 : Nodes);
  W.boolean("sequential", Sequential);
  // Topology and distribution are keyed because — unlike engine and
  // dispatch — they change the *simulated* results: contention reorders
  // completion times and the distribution moves data between owners. The
  // network parameters ride along for the same reason (they only matter on
  // non-ideal topologies, but keying them unconditionally keeps the schema
  // a pure function of the fields).
  W.text("topology", topologyName(Topo));
  W.text("distribution", distributionName(Dist));
  W.real("net-hop", NetHopNs);
  W.real("net-link-word", NetLinkWordNs);
  W.integer("dist-block", DistBlockSize);
  W.integer("engine", static_cast<uint64_t>(Engine));
  // Dispatch is intentionally absent: unlike Engine (keyed
  // conservatively as part of the artifact's identity), the dispatch loop
  // is a pure host-speed knob on the same bytecode stream — keying it would
  // split the cache between portable and computed-goto builds of the same
  // service fleet.
  W.boolean("null-reads", AllowNullReads);
  W.integer("max-steps", MaxSteps);
  W.integer("quantum", EUQuantum);
  W.real("read-issue", Costs.ReadIssue);
  W.real("write-issue", Costs.WriteIssue);
  W.real("blk-issue", Costs.BlkIssue);
  W.real("net-delay", Costs.NetDelay);
  W.real("su-read", Costs.SUReadService);
  W.real("su-write", Costs.SUWriteService);
  W.real("su-blk", Costs.SUBlkService);
  W.real("su-atomic", Costs.SUAtomicService);
  W.real("per-word", Costs.PerWord);
  W.real("local-fallback", Costs.LocalFallback);
  W.real("local-blk-word", Costs.LocalBlkPerWord);
  W.real("stmt", Costs.StmtCost);
  W.real("copy", Costs.CopyCost);
  W.real("local-access", Costs.LocalAccess);
  W.real("call", Costs.CallCost);
  W.real("return", Costs.ReturnCost);
  W.real("spawn", Costs.SpawnCost);
  W.real("ctx-switch", Costs.CtxSwitch);
  // Sink and Profiler are intentionally absent: instrumentation observes a
  // run without changing its result, so it must not change the cache key.
  return W.take();
}

uint64_t RunRequest::key() const { return hashKeyBytes(keyBytes()); }
std::string RunRequest::keyHex() const { return keyBytesToHex(key()); }

//===----------------------------------------------------------------------===//
// Declarative option table
//===----------------------------------------------------------------------===//

bool earthcc::parseOnOff(const std::string &V, bool &Out) {
  if (V.empty() || V == "on" || V == "true" || V == "1") {
    Out = true;
    return true;
  }
  if (V == "off" || V == "false" || V == "0") {
    Out = false;
    return true;
  }
  return false;
}

namespace {

bool parseUnsignedValue(const std::string &V, unsigned &Out,
                        std::string &Err, const char *What) {
  char *End = nullptr;
  unsigned long N = std::strtoul(V.c_str(), &End, 10);
  if (V.empty() || *End != '\0' || N > 0xFFFFFFFFul) {
    Err = std::string(What) + " expects a non-negative integer, got '" + V +
          "'";
    return false;
  }
  Out = static_cast<unsigned>(N);
  return true;
}

bool parseRealValue(const std::string &V, double &Out, std::string &Err,
                    const char *What) {
  char *End = nullptr;
  double D = std::strtod(V.c_str(), &End);
  if (V.empty() || *End != '\0' || !(D >= 0.0)) {
    Err = std::string(What) + " expects a non-negative number, got '" + V +
          "'";
    return false;
  }
  Out = D;
  return true;
}

bool badOnOff(const char *What, const std::string &V, std::string &Err) {
  Err = std::string(What) + " expects on|off, got '" + V + "'";
  return false;
}

} // namespace

const std::vector<RequestOption> &earthcc::requestOptions() {
  static const std::vector<RequestOption> Table = {
      {"nodes", "N", nullptr, "simulated machine size (default 4)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (!parseUnsignedValue(V, R.Nodes, Err, "nodes"))
           return false;
         if (R.Nodes == 0) {
           Err = "nodes must be >= 1";
           return false;
         }
         if (R.Nodes > MaxSimNodes) {
           Err = "nodes must be <= " + std::to_string(MaxSimNodes) +
                 " (got " + V + ")";
           return false;
         }
         return true;
       }},
      {"topology", "ideal|bus|mesh2d|torus2d|fattree", "EARTHCC_TOPOLOGY",
       "interconnect topology (default ideal, the paper's constant-latency "
       "network; others model link contention and CHANGE simulated results)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (parseTopology(V, R.Topo))
           return true;
         Err = "unknown topology '" + V + "' (valid: " +
               std::string(topologyChoices()) + ")";
         return false;
       }},
      {"distribution", "cyclic|block", nullptr,
       "logical-index -> node mapping for @node placement (default cyclic, "
       "the historical index % nodes)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (parseDistribution(V, R.Dist))
           return true;
         Err = "unknown distribution '" + V + "' (valid: " +
               std::string(distributionChoices()) + ")";
         return false;
       }},
      {"net-hop-ns", "NS", nullptr,
       "per-hop link latency of routed topologies in simulated ns "
       "(default 450)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         return parseRealValue(V, R.NetHopNs, Err, "net-hop-ns");
       }},
      {"net-link-word-ns", "NS", nullptr,
       "per-word link occupancy (bandwidth term) of non-ideal links in "
       "simulated ns (default 160)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         return parseRealValue(V, R.NetLinkWordNs, Err, "net-link-word-ns");
       }},
      {"dist-block", "N", nullptr,
       "indices per block for --distribution=block (default 8)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (!parseUnsignedValue(V, R.DistBlockSize, Err, "dist-block"))
           return false;
         if (R.DistBlockSize == 0) {
           Err = "dist-block must be >= 1";
           return false;
         }
         return true;
       }},
      {"engine", "ast|bytecode", nullptr,
       "execution engine (identical simulated results; host speed only)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (V == "ast") {
           R.Engine = ExecEngine::AST;
           return true;
         }
         if (V == "bytecode") {
           R.Engine = ExecEngine::Bytecode;
           return true;
         }
         Err = "unknown engine '" + V + "' (ast|bytecode)";
         return false;
       }},
      {"dispatch", "goto|switch", "EARTHCC_DISPATCH",
       "bytecode inner-loop dispatch (default goto where the build has "
       "computed goto; identical simulated results)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (V == "goto") {
           R.Dispatch = BcDispatch::ComputedGoto;
           return true;
         }
         if (V == "switch") {
           R.Dispatch = BcDispatch::Switch;
           return true;
         }
         Err = "unknown dispatch '" + V + "' (goto|switch)";
         return false;
       }},
      {"no-opt", nullptr, nullptr, "disable the communication optimization",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         bool On;
         if (!parseOnOff(V, On))
           return badOnOff("no-opt", V, Err);
         C.Optimize = !On;
         return true;
       }},
      {"locality", nullptr, nullptr,
       "run locality inference before optimization",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         return parseOnOff(V, C.InferLocality)
                    ? true
                    : badOnOff("locality", V, Err);
       }},
      {"seq", nullptr, nullptr,
       "sequential-C baseline (1 node, no EARTH operations, no "
       "optimization)",
       [](CompileRequest &C, RunRequest &R, const std::string &V,
          std::string &Err) {
         bool On;
         if (!parseOnOff(V, On))
           return badOnOff("seq", V, Err);
         R.Sequential = On;
         if (On) {
           C.Optimize = false;
           C.InferLocality = false;
         }
         return true;
       }},
      {"threshold", "W", nullptr,
       "blocking threshold in words (default 3, the paper's crossover)",
       [](CompileRequest &C, RunRequest &, const std::string &V,
          std::string &Err) {
         return parseUnsignedValue(V, C.Comm.BlockThresholdWords, Err,
                                   "threshold");
       }},
      {"entry", "NAME", nullptr, "entry function (default main)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         if (V.empty()) {
           Err = "entry expects a function name";
           return false;
         }
         R.Entry = V;
         return true;
       }},
      {"quantum", "N", nullptr,
       "EU scheduling quantum in interpreter steps (0 disables preemption)",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         return parseUnsignedValue(V, R.EUQuantum, Err, "quantum");
       }},
      {"max-steps", "N", nullptr, "interpreter fuel",
       [](CompileRequest &, RunRequest &R, const std::string &V,
          std::string &Err) {
         char *End = nullptr;
         unsigned long long N = std::strtoull(V.c_str(), &End, 10);
         if (V.empty() || *End != '\0') {
           Err = "max-steps expects a non-negative integer, got '" + V + "'";
           return false;
         }
         R.MaxSteps = N;
         return true;
       }},
  };
  return Table;
}

bool earthcc::applyRequestOption(CompileRequest &C, RunRequest &R,
                                 std::string_view Name,
                                 const std::string &Value, std::string &Err) {
  for (const RequestOption &O : requestOptions())
    if (Name == O.Name)
      return O.Apply(C, R, Value, Err);
  Err = "unknown option '" + std::string(Name) + "'";
  return false;
}

bool earthcc::applyRequestEnv(CompileRequest &C, RunRequest &R,
                              std::string &Err) {
  for (const RequestOption &O : requestOptions()) {
    if (!O.Env)
      continue;
    const char *V = std::getenv(O.Env);
    if (!V)
      continue;
    std::string EnvErr;
    if (!O.Apply(C, R, V, EnvErr)) {
      Err = std::string(O.Env) + ": " + EnvErr;
      return false;
    }
  }
  return true;
}

//===- Runtime.h - Simulated EARTH machine state ----------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional state of the simulated EARTH-MANNA machine: a global
/// address space over per-node local memories, runtime values, dynamic
/// operation counters, and machine configuration. Timing (EU/SU clocks,
/// the event queue) lives in the interpreter; this file is pure state.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_EARTH_RUNTIME_H
#define EARTHCC_EARTH_RUNTIME_H

#include "earth/CostModel.h"
#include "earth/NetworkModel.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace earthcc {

class TraceSink;
class CommProfiler;

/// A word address in the global address space: (node, word offset).
struct GlobalAddr {
  int32_t Node = -1;
  uint32_t Offset = 0;

  bool isNull() const { return Node < 0; }
  friend bool operator==(GlobalAddr A, GlobalAddr B) {
    return A.Node == B.Node && A.Offset == B.Offset;
  }
  std::string str() const {
    if (isNull())
      return "null";
    return "n" + std::to_string(Node) + ":" + std::to_string(Offset);
  }
};

/// A dynamically-typed runtime value (one machine word).
struct RtValue {
  enum class Kind { Undef, Int, Dbl, Ptr } K = Kind::Undef;
  int64_t I = 0;
  double D = 0.0;
  GlobalAddr P;

  static RtValue undef() { return RtValue(); }
  static RtValue makeInt(int64_t V) {
    RtValue R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static RtValue makeDbl(double V) {
    RtValue R;
    R.K = Kind::Dbl;
    R.D = V;
    return R;
  }
  static RtValue makePtr(GlobalAddr A) {
    RtValue R;
    R.K = Kind::Ptr;
    R.P = A;
    return R;
  }

  bool isUndef() const { return K == Kind::Undef; }

  /// Truthiness for conditions: nonzero / non-null.
  bool truthy() const {
    switch (K) {
    case Kind::Undef:
      return false;
    case Kind::Int:
      return I != 0;
    case Kind::Dbl:
      return D != 0.0;
    case Kind::Ptr:
      return !P.isNull();
    }
    return false;
  }

  std::string str() const {
    switch (K) {
    case Kind::Undef:
      return "<undef>";
    case Kind::Int:
      return std::to_string(I);
    case Kind::Dbl: {
      std::string S = std::to_string(D);
      return S;
    }
    case Kind::Ptr:
      return P.str();
    }
    return "<bad>";
  }
};

/// Dynamic counts of EARTH runtime operations, as the paper's Figure 10
/// reports them: read-data, write-data and blkmov operations.
struct OpCounters {
  uint64_t ReadData = 0;
  uint64_t WriteData = 0;
  uint64_t BlkMov = 0;
  uint64_t Atomic = 0;
  uint64_t WordsMoved = 0;   ///< Total words crossing the network.
  uint64_t LocalFallbacks = 0; ///< Remote primitives that hit local memory.
  uint64_t Spawns = 0;
  uint64_t CtxSwitches = 0;

  uint64_t total() const { return ReadData + WriteData + BlkMov; }
};

/// Which execution engine runs the simulation. Both produce bit-identical
/// simulated results (time, counters, traces, errors); they differ only in
/// host-side speed. Bytecode lowers each function once to a flat register
/// bytecode (see interp/Bytecode.h) and is the default; AST walks the
/// statement tree directly and remains as the reference implementation.
enum class ExecEngine { AST, Bytecode };

/// How the bytecode engine's inner loop dispatches opcodes. Purely a host
/// performance choice — both loops are generated from the same handler
/// bodies (interp/BytecodeExecLoop.inc) and produce bit-identical simulated
/// results, which the engine-equivalence sweep pins across the axis.
///
///  - ComputedGoto: direct-threaded dispatch via a label-address handler
///    table (GCC/Clang `&&label` extension). The default where available.
///  - Switch: the portable `switch` loop. The only loop compiled in when
///    the build forces portability (-DEARTHCC_PORTABLE_DISPATCH, see the
///    CMake option of the same name); requesting ComputedGoto in such a
///    build silently falls back to Switch.
enum class BcDispatch { ComputedGoto, Switch };

/// Whether this build carries the computed-goto loop at all (GCC/Clang and
/// not forced portable). When false, BcDispatch::ComputedGoto degrades to
/// the switch loop at run time.
inline constexpr bool computedGotoAvailable() {
#if !defined(EARTHCC_PORTABLE_DISPATCH) &&                                     \
    (defined(__GNUC__) || defined(__clang__))
  return true;
#else
  return false;
#endif
}

/// Process-wide default for MachineConfig::Dispatch: computed goto where the
/// build has it, unless the environment sets EARTHCC_DISPATCH=switch. The CI
/// legs use the variable to sweep whole test-suite runs over one loop
/// without touching every harness.
inline BcDispatch defaultDispatch() {
  static const BcDispatch D = [] {
    const char *E = std::getenv("EARTHCC_DISPATCH");
    if (E && std::string_view(E) == "switch")
      return BcDispatch::Switch;
    return computedGotoAvailable() ? BcDispatch::ComputedGoto
                                   : BcDispatch::Switch;
  }();
  return D;
}

/// Machine configuration.
struct MachineConfig {
  unsigned NumNodes = 1;
  CostModel Costs;
  /// Interconnect topology (see earth/NetworkModel.h). Ideal is the paper's
  /// constant-latency EARTH-MANNA network and the default (EARTHCC_TOPOLOGY
  /// overrides, same pattern as EARTHCC_DISPATCH). Unlike the
  /// Engine/Dispatch knobs this CHANGES simulated results, so it is
  /// request-key material in driver/Request.cpp.
  Topology Topo = defaultTopology();
  /// Logical-index -> node mapping for `@node expr` placement (cyclic is
  /// the historical `index % nodes`). Changes simulated results; keyed.
  Distribution Dist = Distribution::Cyclic;
  /// Per-hop link latency of the routed topologies, in simulated ns
  /// (mesh2d/torus2d/fattree; the bus charges a full NetDelay per crossing).
  double NetHopNs = 450.0;
  /// Per-word link occupancy (bandwidth term) of non-ideal links, in
  /// simulated ns per payload word.
  double NetLinkWordNs = 160.0;
  /// Indices per block for Distribution::Block.
  unsigned DistBlockSize = 8;
  /// Execution engine selection (see ExecEngine). Purely a host-performance
  /// choice; simulated results do not depend on it.
  ExecEngine Engine = ExecEngine::Bytecode;
  /// Bytecode inner-loop dispatch strategy (see BcDispatch). Host
  /// performance choice only; simulated results are bit-identical across
  /// both loops.
  BcDispatch Dispatch = defaultDispatch();
  /// Sequential mode: every access is a plain local access (no EARTH
  /// primitives at all) — the paper's "Sequential C" baseline.
  bool SequentialMode = false;
  /// Permit split-phase reads of the null address (returning zero) so that
  /// speculatively hoisted reads do not fault.
  bool AllowNullReads = false;
  uint64_t MaxSteps = 500'000'000; ///< Interpreter fuel.
  /// EU scheduling quantum in interpreter steps. EARTH threads are fine
  /// grained (split at every remote operation), so a coarse fiber must not
  /// monopolize its node's EU; after this many steps a fiber re-enters the
  /// ready queue behind same-time peers. 0 disables preemption.
  unsigned EUQuantum = 64;
  /// Observability: when set, the interpreter emits a structured event for
  /// every split-phase read/write, blkmov, SU service slice, EU fiber
  /// slice, and sync-slot signal (node- and cycle-attributed). Non-owning;
  /// null means tracing off and costs nothing on the hot path.
  TraceSink *Trace = nullptr;
  /// Per-site communication profiling: when set, both engines accumulate
  /// message counts, words moved, latency histograms and a per-node traffic
  /// matrix keyed by CommSites ids (simulated clock, so the profile is
  /// engine- and dispatch-invariant). Non-owning; null means profiling off
  /// and costs one branch per comm operation.
  CommProfiler *Profiler = nullptr;
};

/// Per-node memory plus allocation; the aggregate is the global address
/// space.
class EarthMemory {
public:
  explicit EarthMemory(unsigned NumNodes) : Heaps(NumNodes) {
    // Offset 0 is reserved so that a valid address is never (n, 0) — it
    // keeps "null" distinguishable in diagnostics.
    for (auto &H : Heaps)
      H.resize(1);
  }

  unsigned numNodes() const { return static_cast<unsigned>(Heaps.size()); }

  GlobalAddr allocate(unsigned Node, unsigned Words) {
    assert(Node < Heaps.size() && "allocation on nonexistent node");
    assert(Words > 0 && "zero-sized allocation");
    GlobalAddr A;
    A.Node = static_cast<int32_t>(Node);
    A.Offset = static_cast<uint32_t>(Heaps[Node].size());
    Heaps[Node].resize(Heaps[Node].size() + Words);
    return A;
  }

  bool valid(GlobalAddr A, unsigned Words = 1) const {
    return !A.isNull() && static_cast<size_t>(A.Node) < Heaps.size() &&
           A.Offset + Words <= Heaps[A.Node].size();
  }

  RtValue &word(GlobalAddr A) {
    assert(valid(A) && "bad address");
    return Heaps[A.Node][A.Offset];
  }
  const RtValue &word(GlobalAddr A) const {
    assert(valid(A) && "bad address");
    return Heaps[A.Node][A.Offset];
  }

  /// Total words allocated on \p Node (for distribution diagnostics).
  size_t allocatedWords(unsigned Node) const { return Heaps[Node].size(); }

private:
  std::vector<std::vector<RtValue>> Heaps;
};

} // namespace earthcc

#endif // EARTHCC_EARTH_RUNTIME_H

//===- Bytecode.cpp - Bytecode execution engine ----------------------------===//
//
// Part of the earthcc project.
//
// The register-bytecode twin of the AST walker in Interp.cpp. Every timing
// decision, counter increment, trace emission and error message mirrors the
// walker exactly — the engine-equivalence tests assert bit-identical
// results. What changes is purely the mechanics: dispatch over a flat
// instruction stream instead of a statement tree, and frame storage as one
// contiguous word image indexed by precomputed slots instead of a
// per-variable std::map of heap vectors.
//
//===----------------------------------------------------------------------===//

#include "interp/Bytecode.h"

#include "interp/EngineCommon.h"
#include "interp/Interp.h"
#include "support/CommProfiler.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <memory>
#include <queue>

// Preprocessor mirror of computedGotoAvailable() (earth/Runtime.h): whether
// this translation unit compiles the direct-threaded loop at all.
#if !defined(EARTHCC_PORTABLE_DISPATCH) &&                                     \
    (defined(__GNUC__) || defined(__clang__))
#define EARTHCC_HAVE_COMPUTED_GOTO 1
#else
#define EARTHCC_HAVE_COMPUTED_GOTO 0
#endif

using namespace earthcc;
using namespace earthcc::interp;

namespace {

//===----------------------------------------------------------------------===//
// Fiber state.
//===----------------------------------------------------------------------===//

/// The flat activation image: one word vector for every slot's storage plus
/// one availability time per slot. Parallel-sequence branches share the
/// image (shared_ptr); forall iterations copy it — exactly the sharing the
/// AST walker gets from its per-variable map.
struct BcLocals {
  std::vector<RtValue> Words;
  std::vector<double> Avail;
};

struct Fiber;

/// Join counter for one parallel-construct instance.
struct JoinCtx {
  int Outstanding = 0;
  Fiber *Waiter = nullptr;
  double LatestEnd = 0.0;
};

/// One function activation. PC indexes BF->Code; Joins holds the join
/// contexts of the parallel constructs currently open in this frame
/// (properly nested, so a stack suffices).
struct BcFrame {
  const BytecodeFunction *BF = nullptr;
  unsigned Node = 0;
  int32_t PC = 0;
  std::shared_ptr<BcLocals> Locals;
  const Var *ResultV = nullptr; ///< Result variable in the caller frame.
  int32_t ResultSlot = -1;      ///< Its slot there (-1: none/no storage).
  double WriteSync = 0.0;       ///< Completion of outstanding writes.
  bool Migrated = false;        ///< Entered via a placed call.
  std::vector<std::shared_ptr<JoinCtx>> Joins;
};

struct Fiber {
  uint64_t Id = 0;
  std::vector<BcFrame> Stack;
  std::shared_ptr<JoinCtx> ParentJoin;
  bool Done = false;
};

struct Event {
  double T = 0.0;
  uint64_t Seq = 0;
  Fiber *F = nullptr;
  friend bool operator>(const Event &A, const Event &B) {
    if (A.T != B.T)
      return A.T > B.T;
    return A.Seq > B.Seq;
  }
};

/// Same meaning as the AST walker's StepStatus; see Interp.cpp.
enum class StepStatus { Continue, BlockRetry, YieldAt, WaitJoin, FiberDone };

//===----------------------------------------------------------------------===//
// Engine.
//===----------------------------------------------------------------------===//

class BcInterp {
public:
  BcInterp(const BytecodeModule &BM, const MachineConfig &Cfg)
      : BM(BM), Cfg(Cfg),
        Threaded(computedGotoAvailable() &&
                 Cfg.Dispatch == BcDispatch::ComputedGoto),
        Trc(Cfg.Trace), Prof(Cfg.Profiler),
        Mem(std::max(1u, Cfg.NumNodes)),
        Net(createNetworkModel(Cfg.Topo, Mem.numNodes(), Cfg.Costs,
                               Cfg.NetHopNs, Cfg.NetLinkWordNs)),
        EUClock(Mem.numNodes(), 0.0), LastFiber(Mem.numNodes(), nullptr) {}

  RunResult run(const std::string &Entry, const std::vector<RtValue> &Args);

private:
  const CostModel &cost() const { return Cfg.Costs; }

  //===--------------------------------------------------------------------===
  // Tracing (identical emission sites and payloads to the AST walker).
  //===--------------------------------------------------------------------===

  void traceSpan(const char *Name, const char *Cat, double Ts, double Dur,
                 unsigned Pid, uint32_t Tid,
                 std::vector<TraceEvent::Arg> Args = {}) {
    TraceEvent E;
    E.Name = Name;
    E.Cat = Cat;
    E.Ph = 'X';
    E.TsNs = Ts;
    E.DurNs = Dur;
    E.Pid = Pid;
    E.Tid = Tid;
    E.Args = std::move(Args);
    Trc->event(E);
  }

  void traceInstant(const char *Name, const char *Cat, double Ts,
                    unsigned Pid, uint32_t Tid,
                    std::vector<TraceEvent::Arg> Args = {}) {
    TraceEvent E;
    E.Name = Name;
    E.Cat = Cat;
    E.Ph = 'i';
    E.TsNs = Ts;
    E.Pid = Pid;
    E.Tid = Tid;
    E.Args = std::move(Args);
    Trc->event(E);
  }

  void traceClock(const char *Name, double Ts, unsigned Pid, uint32_t Tid,
                  double Value) {
    TraceEvent E;
    E.Name = Name;
    E.Cat = "clock";
    E.Ph = 'C';
    E.TsNs = Ts;
    E.Pid = Pid;
    E.Tid = Tid;
    E.Args.emplace_back("ns", static_cast<uint64_t>(Value));
    Trc->event(E);
  }

  //===--------------------------------------------------------------------===
  // Slots and values.
  //===--------------------------------------------------------------------===

  [[noreturn]] void noStorage(const BcFrame &Fr, const Var *V) {
    fail("variable '" + V->name() + "' has no storage in '" +
         Fr.BF->Fn->name() + "'");
  }

  RtValue &word(BcFrame &Fr, int32_t Slot, uint32_t Extra = 0) {
    return Fr.Locals->Words[Fr.BF->Slots[Slot].WordOff + Extra];
  }

  double availOf(BcFrame &Fr, const BcOperand &O) {
    if (O.Kind != BcOperand::K::Slot)
      return 0.0;
    if (O.Slot < 0)
      noStorage(Fr, O.V);
    return Fr.Locals->Avail[O.Slot];
  }

  RtValue valueOf(BcFrame &Fr, const BcOperand &O) {
    if (O.Kind != BcOperand::K::Slot)
      return O.Const;
    if (O.Slot < 0)
      noStorage(Fr, O.V);
    const RtValue &V = word(Fr, O.Slot);
    if (V.isUndef())
      fail("read of undefined variable '" + O.V->name() + "' in '" +
           Fr.BF->Fn->name() + "'");
    return V;
  }

  /// \p Slot must be valid; \p V is its variable (for diagnostics).
  GlobalAddr pointerValue(BcFrame &Fr, int32_t Slot, const Var *V) {
    const RtValue &Val = word(Fr, Slot);
    if (Val.isUndef())
      fail("dereference of undefined pointer '" + V->name() + "'");
    if (Val.K == RtValue::Kind::Int && Val.I == 0)
      return GlobalAddr(); // NULL stored into a pointer.
    if (Val.K != RtValue::Kind::Ptr)
      fail("dereference of non-pointer value in '" + V->name() + "'");
    return Val.P;
  }

  /// Hands out a pooled activation image wrapped in a shared_ptr whose
  /// deleter parks it on the free list instead of freeing: activations are
  /// created at extreme rates (one per call, one per forall iteration), and
  /// recycling keeps the slot/avail vector capacity, so a steady-state
  /// activation allocates only the control block.
  std::shared_ptr<BcLocals> acquireLocals() {
    BcLocals *L;
    if (LocalsFree.empty()) {
      LocalsArena.emplace_back();
      L = &LocalsArena.back();
    } else {
      L = LocalsFree.back();
      LocalsFree.pop_back();
    }
    return std::shared_ptr<BcLocals>(
        L, [this](BcLocals *P) { LocalsFree.push_back(P); });
  }

  /// Pooled copy of an activation image (forall iterations capture the
  /// driver frame by value).
  std::shared_ptr<BcLocals> copyLocals(const BcLocals &Src) {
    auto L = acquireLocals();
    *L = Src;
    return L;
  }

  /// Builds the flat activation image of \p BF on \p Node, allocating
  /// memory cells for function-scope shared variables in slot order (the
  /// same order the AST walker's makeLocals allocates them).
  std::shared_ptr<BcLocals> makeLocals(const BytecodeFunction *BF,
                                       unsigned Node) {
    auto L = acquireLocals();
    L->Words.assign(BF->FrameWords, RtValue());
    L->Avail.assign(BF->Slots.size(), 0.0);
    // SharedCellOffs lists the shared-variable cells in slot order — the
    // same allocation order the per-slot scan (and the AST walker's
    // makeLocals) produced.
    for (uint32_t Off : BF->SharedCellOffs)
      L->Words[Off] = RtValue::makePtr(Mem.allocate(Node, 1));
    return L;
  }

  GlobalAddr sharedAddress(BcFrame &Fr, const BcInsn &I) {
    if (I.A >= 0) {
      const RtValue &Cell = word(Fr, I.A);
      assert(Cell.K == RtValue::Kind::Ptr && "shared var has no cell");
      return Cell.P;
    }
    if (I.B >= 0)
      return GlobalSharedAddrs[I.B];
    noStorage(Fr, castStmt<AtomicStmt>(*I.Src).SharedVar);
  }

  //===--------------------------------------------------------------------===
  // Remote transaction timing (SU is a FIFO server per node).
  //===--------------------------------------------------------------------===

  /// \p SuLabel is a pre-interned "su:<op>" literal (EngineCommon.h), so
  /// tracing builds no strings here.
  ///
  /// The latency arithmetic lives in NetworkModel::transaction()
  /// (earth/NetworkModel.h) — the single source of truth shared with the
  /// AST walker's identically-named wrapper in Interp.cpp, so the two
  /// engines cannot drift.
  double transactionComplete(double IssueEnd, unsigned From, unsigned To,
                             double Service, double ExtraWords,
                             uint64_t FwdWords, uint64_t BackWords,
                             const char *SuLabel) {
    NetTransaction Tx = Net->transaction(IssueEnd, From, To, Service,
                                         ExtraWords, FwdWords, BackWords);
    if (Trc) {
      traceSpan(SuLabel, "su", Tx.SuStart, Tx.SuEnd - Tx.SuStart, To,
                TraceTidSU);
      traceClock("su-clock", Tx.SuEnd, To, TraceTidSU, Tx.SuEnd);
    }
    return Tx.DoneAt;
  }

  //===--------------------------------------------------------------------===
  // Conditions (Br / LoopCond / ForallCond encode the pure RValue inline).
  //===--------------------------------------------------------------------===

  double condAvail(BcFrame &Fr, const BcInsn &I) {
    switch (static_cast<RValueKind>(I.RK)) {
    case RValueKind::Opnd:
    case RValueKind::Unary:
      return availOf(Fr, I.X);
    case RValueKind::Binary:
      return std::max(availOf(Fr, I.X), availOf(Fr, I.Y));
    default:
      fail("condition with memory access");
    }
  }

  RtValue condValue(BcFrame &Fr, const BcInsn &I) {
    switch (static_cast<RValueKind>(I.RK)) {
    case RValueKind::Opnd:
      return valueOf(Fr, I.X);
    case RValueKind::Unary:
      return evalUnary(static_cast<UnaryOp>(I.Sub), valueOf(Fr, I.X));
    case RValueKind::Binary:
      return evalBinary(static_cast<BinaryOp>(I.Sub), valueOf(Fr, I.X),
                        valueOf(Fr, I.Y));
    default:
      fail("condition with memory access");
    }
  }

  //===--------------------------------------------------------------------===
  // Scheduling.
  //===--------------------------------------------------------------------===

  void schedule(Fiber *F, double T) { Q.push({T, ++EventSeq, F}); }

  Fiber *newFiber() {
    Fibers.push_back(std::make_unique<Fiber>());
    Fibers.back()->Id = Fibers.size();
    // Growing the frame stack move-constructs every frame below (two
    // refcount bumps per frame for the Locals image); one up-front reserve
    // covers the call depths the workloads actually reach.
    Fibers.back()->Stack.reserve(8);
    return Fibers.back().get();
  }

  void finishFiber(Fiber *F, double End, unsigned Node) {
    F->Done = true;
    if (F == MainFiber)
      EndTime = End;
    if (auto Join = F->ParentJoin) {
      --Join->Outstanding;
      Join->LatestEnd = std::max(Join->LatestEnd, End);
      if (Trc)
        traceInstant("sync-signal", "sync", End, Node, TraceTidEU,
                     {{"fiber", F->Id}, {"outstanding", Join->Outstanding}});
      if (Join->Outstanding == 0 && Join->Waiter) {
        Fiber *W = Join->Waiter;
        Join->Waiter = nullptr;
        schedule(W, Join->LatestEnd);
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Cold-path diagnostics: recover variable names from the source
  // statement when an encoded slot is -1 (variable without frame storage).
  //===--------------------------------------------------------------------===

  [[noreturn]] void noStorageAssignBase(BcFrame &Fr, const BcInsn &I) {
    const auto &A = castStmt<AssignStmt>(*I.Src);
    switch (A.R->kind()) {
    case RValueKind::Load:
      noStorage(Fr, static_cast<const LoadRV &>(*A.R).Base);
    case RValueKind::FieldRead:
      noStorage(Fr, static_cast<const FieldReadRV &>(*A.R).StructVar);
    case RValueKind::AddrOfField:
      noStorage(Fr, static_cast<const AddrOfFieldRV &>(*A.R).Base);
    default:
      fail("assignment base variable has no storage");
    }
  }

  [[noreturn]] void noStorageAssignTarget(BcFrame &Fr, const BcInsn &I) {
    noStorage(Fr, castStmt<AssignStmt>(*I.Src).L.V);
  }

  //===--------------------------------------------------------------------===
  // Basic-instruction execution. Each mirrors its exec* twin in Interp.cpp
  // line for line; PC handling lives in step().
  //===--------------------------------------------------------------------===

  StepStatus execAssign(BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    const auto RK = static_cast<RValueKind>(I.RK);
    const auto LK = static_cast<LValueKind>(I.LK);
    double Need = 0.0;
    switch (RK) {
    case RValueKind::Opnd:
    case RValueKind::Unary:
      Need = availOf(Fr, I.X);
      break;
    case RValueKind::Binary:
      Need = std::max(availOf(Fr, I.X), availOf(Fr, I.Y));
      break;
    case RValueKind::Load:
    case RValueKind::FieldRead:
    case RValueKind::AddrOfField:
      if (I.A < 0)
        noStorageAssignBase(Fr, I);
      Need = Fr.Locals->Avail[I.A];
      break;
    }
    if (LK == LValueKind::Store) {
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      Need = std::max(Need, Fr.Locals->Avail[I.Dst]);
    }
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    // Loads: the one possibly split-phase read form.
    if (RK == RValueKind::Load) {
      assert(LK == LValueKind::Var && "load must target a variable");
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      const Var *BaseV = Fr.BF->Slots[I.A].V;
      GlobalAddr Addr = pointerValue(Fr, I.A, BaseV);
      if (Addr.isNull()) {
        if (!Cfg.AllowNullReads)
          fail("null pointer read via '" + BaseV->name() + "' in '" +
               Fr.BF->Fn->name() + "'");
        Now += cost().ReadIssue;
        word(Fr, I.Dst) = RtValue::makeInt(0);
        Fr.Locals->Avail[I.Dst] = Now;
        return StepStatus::Continue;
      }
      Addr.Offset += I.Off;
      if (!Mem.valid(Addr))
        fail("out-of-bounds read at " + Addr.str());

      const auto Loc = static_cast<Locality>(I.Loc);
      if (Cfg.SequentialMode || Loc == Locality::Local) {
        if (!Cfg.SequentialMode && Loc == Locality::Local &&
            Addr.Node != static_cast<int32_t>(Fr.Node))
          fail("'local' access to remote address " + Addr.str() +
               " from node " + std::to_string(Fr.Node));
        Now += cost().StmtCost + cost().LocalAccess;
        word(Fr, I.Dst) = Mem.word(Addr);
        Fr.Locals->Avail[I.Dst] = Now;
        return StepStatus::Continue;
      }

      ++Ctr.ReadData;
      if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
        ++Ctr.LocalFallbacks;
        if (Trc)
          traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                       {{"op", "read-data"}});
        if (Prof)
          Prof->recordLocal(I.Site, CommOpKind::Read, Fr.Node, 1);
        Now += cost().LocalFallback;
        word(Fr, I.Dst) = Mem.word(Addr);
        Fr.Locals->Avail[I.Dst] = Now;
        return StepStatus::Continue;
      }
      double IssueStart = Now;
      Now += cost().ReadIssue;
      ++Ctr.WordsMoved;
      double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                          cost().SUReadService, 0.0,
                                          /*FwdWords=*/0, /*BackWords=*/1,
                                          SuReadDataLabel);
      if (Trc)
        traceSpan("read-data", "comm", IssueStart, DoneAt - IssueStart,
                  Fr.Node, TraceTidComm,
                  {{"to", Addr.Node}, {"addr", Addr.str()}});
      if (Prof)
        Prof->record(I.Site, CommOpKind::Read, Fr.Node, Addr.Node, 1,
                     IssueStart, DoneAt);
      word(Fr, I.Dst) = Mem.word(Addr);
      Fr.Locals->Avail[I.Dst] = DoneAt;
      return StepStatus::Continue;
    }

    // Pure value computation.
    RtValue Val;
    switch (RK) {
    case RValueKind::FieldRead: {
      const RtValue &W = word(Fr, I.A, I.Off);
      if (W.isUndef()) {
        const auto &FR =
            static_cast<const FieldReadRV &>(*castStmt<AssignStmt>(*I.Src).R);
        fail("read of undefined field '" + FR.FieldName + "' of '" +
             FR.StructVar->name() + "'");
      }
      Val = W;
      break;
    }
    case RValueKind::AddrOfField: {
      GlobalAddr Addr = pointerValue(Fr, I.A, Fr.BF->Slots[I.A].V);
      if (Addr.isNull()) {
        const auto &AF =
            static_cast<const AddrOfFieldRV &>(*castStmt<AssignStmt>(*I.Src).R);
        fail("&(null->" + AF.FieldName + ")");
      }
      Addr.Offset += I.Off;
      Val = RtValue::makePtr(Addr);
      break;
    }
    case RValueKind::Opnd:
      Val = valueOf(Fr, I.X);
      break;
    case RValueKind::Unary:
      Val = evalUnary(static_cast<UnaryOp>(I.Sub), valueOf(Fr, I.X));
      break;
    default:
      Val = evalBinary(static_cast<BinaryOp>(I.Sub), valueOf(Fr, I.X),
                       valueOf(Fr, I.Y));
      break;
    }

    switch (LK) {
    case LValueKind::Var: {
      // Plain copies are register moves; real computation costs a cycle+.
      Now += RK == RValueKind::Opnd ? cost().CopyCost : cost().StmtCost;
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      word(Fr, I.Dst) = Val;
      Fr.Locals->Avail[I.Dst] = Now;
      return StepStatus::Continue;
    }
    case LValueKind::FieldWrite: {
      Now += cost().StmtCost + cost().LocalAccess;
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      // AvailAt is left untouched: a still-pending blkmov gates readers.
      word(Fr, I.Dst, static_cast<uint32_t>(I.B)) = Val;
      return StepStatus::Continue;
    }
    case LValueKind::Store: {
      const Var *PtrV = Fr.BF->Slots[I.Dst].V;
      GlobalAddr Addr = pointerValue(Fr, I.Dst, PtrV);
      if (Addr.isNull())
        fail("null pointer write via '" + PtrV->name() + "'");
      Addr.Offset += static_cast<uint32_t>(I.B);
      if (!Mem.valid(Addr))
        fail("out-of-bounds write at " + Addr.str());

      const auto Loc = static_cast<Locality>(I.Loc);
      if (Cfg.SequentialMode || Loc == Locality::Local) {
        if (!Cfg.SequentialMode && Loc == Locality::Local &&
            Addr.Node != static_cast<int32_t>(Fr.Node))
          fail("'local' store to remote address " + Addr.str());
        Now += cost().StmtCost + cost().LocalAccess;
        Mem.word(Addr) = Val;
        return StepStatus::Continue;
      }

      ++Ctr.WriteData;
      if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
        ++Ctr.LocalFallbacks;
        if (Trc)
          traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                       {{"op", "write-data"}});
        if (Prof)
          Prof->recordLocal(I.Site, CommOpKind::Write, Fr.Node, 1);
        Now += cost().LocalFallback;
        Mem.word(Addr) = Val;
        return StepStatus::Continue;
      }
      double IssueStart = Now;
      Now += cost().WriteIssue;
      ++Ctr.WordsMoved;
      double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                          cost().SUWriteService, 0.0,
                                          /*FwdWords=*/1, /*BackWords=*/0,
                                          SuWriteDataLabel);
      if (Trc)
        traceSpan("write-data", "comm", IssueStart, DoneAt - IssueStart,
                  Fr.Node, TraceTidComm,
                  {{"to", Addr.Node}, {"addr", Addr.str()}});
      if (Prof)
        Prof->record(I.Site, CommOpKind::Write, Fr.Node, Addr.Node, 1,
                     IssueStart, DoneAt);
      Mem.word(Addr) = Val;
      Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
      return StepStatus::Continue;
    }
    }
    return StepStatus::Continue;
  }

  StepStatus execBlkMov(BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    const auto &B = castStmt<BlkMovStmt>(*I.Src);
    if (I.B < 0)
      noStorage(Fr, B.LocalStruct);
    if (I.A < 0)
      noStorage(Fr, B.Ptr);
    const auto Dir = static_cast<BlkMovDir>(I.Sub);
    double Need = Fr.Locals->Avail[I.A];
    if (Dir == BlkMovDir::WriteFromLocal)
      Need = std::max(Need, Fr.Locals->Avail[I.B]);
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    GlobalAddr Addr = pointerValue(Fr, I.A, B.Ptr);
    if (Addr.isNull())
      fail("blkmov through null pointer '" + B.Ptr->name() + "'");
    if (!Mem.valid(Addr, I.Words))
      fail("blkmov out of bounds at " + Addr.str());

    RtValue *Local = &word(Fr, I.B);
    auto copyWords = [&] {
      for (unsigned W = 0; W != I.Words; ++W) {
        GlobalAddr WA = Addr;
        WA.Offset += W;
        if (Dir == BlkMovDir::ReadToLocal)
          Local[W] = Mem.word(WA);
        else
          Mem.word(WA) = Local[W];
      }
    };

    if (Cfg.SequentialMode) {
      Now += cost().StmtCost + cost().LocalAccess * I.Words;
      copyWords();
      if (Dir == BlkMovDir::ReadToLocal)
        Fr.Locals->Avail[I.B] = Now;
      return StepStatus::Continue;
    }

    ++Ctr.BlkMov;
    if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
      ++Ctr.LocalFallbacks;
      if (Trc)
        traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                     {{"op", "blkmov"}, {"words", I.Words}});
      if (Prof)
        Prof->recordLocal(I.Site, CommOpKind::BlkMov, Fr.Node, I.Words);
      Now += cost().LocalFallback + cost().LocalBlkPerWord * I.Words;
      copyWords();
      if (Dir == BlkMovDir::ReadToLocal)
        Fr.Locals->Avail[I.B] = Now;
      return StepStatus::Continue;
    }

    double IssueStart = Now;
    Now += cost().BlkIssue;
    Ctr.WordsMoved += I.Words;
    bool BlkRead = Dir == BlkMovDir::ReadToLocal;
    double DoneAt = transactionComplete(
        Now, Fr.Node, Addr.Node, cost().SUBlkService, I.Words,
        /*FwdWords=*/BlkRead ? 0 : I.Words,
        /*BackWords=*/BlkRead ? I.Words : 0, SuBlkMovLabel);
    if (Trc)
      traceSpan("blkmov", "comm", IssueStart, DoneAt - IssueStart, Fr.Node,
                TraceTidComm,
                {{"to", Addr.Node},
                 {"addr", Addr.str()},
                 {"words", I.Words},
                 {"dir", Dir == BlkMovDir::ReadToLocal ? "read" : "write"}});
    if (Prof)
      Prof->record(I.Site, CommOpKind::BlkMov, Fr.Node, Addr.Node, I.Words,
                   IssueStart, DoneAt);
    copyWords();
    if (Dir == BlkMovDir::ReadToLocal)
      Fr.Locals->Avail[I.B] = DoneAt;
    else
      Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
    return StepStatus::Continue;
  }

  StepStatus execAtomic(BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    const auto Op = static_cast<AtomicOp>(I.Sub);
    double Need = Op == AtomicOp::ValueOf ? 0.0 : availOf(Fr, I.X);
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    GlobalAddr Addr = sharedAddress(Fr, I);
    if (!Cfg.SequentialMode)
      ++Ctr.Atomic; // A plain variable access in the sequential program.
    bool LocalHit =
        Cfg.SequentialMode || Addr.Node == static_cast<int32_t>(Fr.Node);
    double LocalCost =
        Cfg.SequentialMode ? cost().StmtCost : cost().LocalFallback;
    RtValue &Cell = Mem.word(Addr);
    auto sharedName = [&] {
      return I.A >= 0 ? Fr.BF->Slots[I.A].V->name()
                      : BM.SharedGlobals[I.B]->name();
    };

    switch (Op) {
    case AtomicOp::WriteTo:
    case AtomicOp::AddTo: {
      RtValue V = valueOf(Fr, I.X);
      if (Op == AtomicOp::AddTo) {
        if (Cell.isUndef())
          fail("addto() on uninitialized shared variable '" + sharedName() +
               "'");
        Cell = evalBinary(BinaryOp::Add, Cell, V);
      } else {
        Cell = V;
      }
      if (LocalHit) {
        if (Prof && !Cfg.SequentialMode)
          Prof->recordLocal(I.Site, CommOpKind::Atomic, Fr.Node, 0);
        Now += LocalCost;
      } else {
        double IssueStart = Now;
        Now += cost().WriteIssue;
        double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                            cost().SUAtomicService, 0.0,
                                            /*FwdWords=*/0, /*BackWords=*/0,
                                            SuAtomicLabel);
        if (Trc)
          traceSpan("atomic", "comm", IssueStart, DoneAt - IssueStart,
                    Fr.Node, TraceTidComm,
                    {{"to", Addr.Node}, {"var", sharedName()}});
        if (Prof)
          Prof->record(I.Site, CommOpKind::Atomic, Fr.Node, Addr.Node, 0,
                       IssueStart, DoneAt);
        Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
      }
      return StepStatus::Continue;
    }
    case AtomicOp::ValueOf: {
      if (Cell.isUndef())
        fail("valueof() on uninitialized shared variable '" + sharedName() +
             "'");
      if (I.Dst < 0)
        noStorage(Fr, castStmt<AtomicStmt>(*I.Src).Result);
      word(Fr, I.Dst) = Cell;
      if (LocalHit) {
        if (Prof && !Cfg.SequentialMode)
          Prof->recordLocal(I.Site, CommOpKind::Atomic, Fr.Node, 0);
        Now += LocalCost;
        Fr.Locals->Avail[I.Dst] = Now;
      } else {
        double IssueStart = Now;
        Now += cost().ReadIssue;
        double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                            cost().SUAtomicService, 0.0,
                                            /*FwdWords=*/0, /*BackWords=*/0,
                                            SuAtomicLabel);
        Fr.Locals->Avail[I.Dst] = DoneAt;
        if (Trc)
          traceSpan("atomic", "comm", IssueStart, DoneAt - IssueStart,
                    Fr.Node, TraceTidComm,
                    {{"to", Addr.Node}, {"var", sharedName()}});
        if (Prof)
          Prof->record(I.Site, CommOpKind::Atomic, Fr.Node, Addr.Node, 0,
                       IssueStart, DoneAt);
      }
      return StepStatus::Continue;
    }
    }
    return StepStatus::Continue;
  }

  /// Advances Fr.PC itself (before any frame push can invalidate Fr).
  StepStatus execCall(Fiber *F, BcFrame &Fr, const BcInsn &I, double &Now,
                      double &BlockTime) {
    const BcOperand *Args = Fr.BF->ArgPool.data() + I.A;
    const auto Place = static_cast<CallPlacement>(I.Place);
    double Need = 0.0;
    for (uint32_t J = 0; J != I.Words; ++J)
      Need = std::max(Need, availOf(Fr, Args[J]));
    if (Place == CallPlacement::OwnerOf || Place == CallPlacement::AtNode)
      Need = std::max(Need, availOf(Fr, I.Y));
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }
    ++Fr.PC;

    auto targetNode = [&]() -> unsigned {
      if (Cfg.SequentialMode)
        return Fr.Node;
      switch (Place) {
      case CallPlacement::Default:
        return Fr.Node;
      case CallPlacement::Home:
        return 0;
      case CallPlacement::AtNode: {
        int64_t N = valueOf(Fr, I.Y).I;
        if (N < 0)
          fail("@node with negative index");
        // Logical index -> node through the pluggable distribution
        // (earth/NetworkModel.h placeIndex; cyclic is the historical
        // `index % nodes`).
        return placeIndex(static_cast<uint64_t>(N), Mem.numNodes(), Cfg.Dist,
                          Cfg.DistBlockSize);
      }
      case CallPlacement::OwnerOf: {
        RtValue V = valueOf(Fr, I.Y);
        if (V.K != RtValue::Kind::Ptr || V.P.isNull())
          fail("OWNER_OF of null/non-pointer");
        return static_cast<unsigned>(V.P.Node);
      }
      }
      return Fr.Node;
    };

    auto dstSlot = [&]() -> int32_t {
      if (I.Dst < 0)
        noStorage(Fr, castStmt<CallStmt>(*I.Src).Result);
      return I.Dst;
    };

    switch (static_cast<Intrinsic>(I.Sub)) {
    case Intrinsic::None:
      break;
    case Intrinsic::Print: {
      Output.push_back(valueOf(Fr, Args[0]).str());
      Now += cost().StmtCost;
      return StepStatus::Continue;
    }
    case Intrinsic::MyNode:
    case Intrinsic::NumNodes: {
      int32_t D = dstSlot();
      word(Fr, D) = RtValue::makeInt(static_cast<Intrinsic>(I.Sub) ==
                                             Intrinsic::MyNode
                                         ? Fr.Node
                                         : Mem.numNodes());
      Now += cost().StmtCost;
      Fr.Locals->Avail[D] = Now;
      return StepStatus::Continue;
    }
    case Intrinsic::IntSqrt: {
      RtValue V = valueOf(Fr, Args[0]);
      if (V.I < 0)
        fail("isqrt of negative value");
      int32_t D = dstSlot();
      word(Fr, D) = RtValue::makeInt(
          static_cast<int64_t>(std::sqrt(static_cast<double>(V.I))));
      Now += cost().StmtCost * 4;
      Fr.Locals->Avail[D] = Now;
      return StepStatus::Continue;
    }
    case Intrinsic::Sqrt:
    case Intrinsic::Fabs: {
      const bool IsSqrt = static_cast<Intrinsic>(I.Sub) == Intrinsic::Sqrt;
      RtValue V = valueOf(Fr, Args[0]);
      double X = V.K == RtValue::Kind::Dbl ? V.D : static_cast<double>(V.I);
      if (IsSqrt && X < 0)
        fail("sqrt of negative value");
      int32_t D = dstSlot();
      word(Fr, D) = RtValue::makeDbl(IsSqrt ? std::sqrt(X) : std::fabs(X));
      Now += cost().StmtCost * (IsSqrt ? 4 : 2);
      Fr.Locals->Avail[D] = Now;
      return StepStatus::Continue;
    }
    case Intrinsic::PMalloc: {
      RtValue WordsV = valueOf(Fr, Args[0]);
      if (WordsV.I <= 0)
        fail("pmalloc of non-positive size");
      unsigned Node = targetNode();
      GlobalAddr Addr = Mem.allocate(Node, static_cast<unsigned>(WordsV.I));
      int32_t D = dstSlot();
      word(Fr, D) = RtValue::makePtr(Addr);
      Now += cost().StmtCost * 2;
      if (!Cfg.SequentialMode && Node != Fr.Node)
        Now += cost().SpawnCost; // Remote allocation request.
      Fr.Locals->Avail[D] = Now;
      return StepStatus::Continue;
    }
    }

    assert(I.Callee && "unresolved call survived Sema");
    unsigned Target = targetNode();
    bool Migrates = Target != Fr.Node;

    BcFrame NewFr;
    NewFr.BF = I.Callee;
    NewFr.Node = Target;
    NewFr.Locals = makeLocals(I.Callee, Target);
    NewFr.ResultV = castStmt<CallStmt>(*I.Src).Result;
    NewFr.ResultSlot = I.Dst;
    NewFr.Migrated = Migrates;
    Now += cost().CallCost;
    // ParamWordOffs is the callee's lowering-time param-offset cache: one
    // indexed load per argument instead of ParamSlots -> Slots -> WordOff.
    for (uint32_t J = 0; J != I.Words; ++J)
      NewFr.Locals->Words[I.Callee->ParamWordOffs[J]] = valueOf(Fr, Args[J]);

    if (!Migrates) {
      F->Stack.push_back(std::move(NewFr));
      return StepStatus::Continue;
    }
    ++Ctr.Spawns;
    Now += cost().SpawnCost;
    if (Trc)
      traceInstant("migrate", "fiber", Now, Fr.Node, TraceTidEU,
                   {{"fiber", F->Id}, {"to", Target}});
    // Capture the origin before push_back: growing the frame stack may
    // reallocate it and dangle Fr.
    const unsigned FromNode = Fr.Node;
    F->Stack.push_back(std::move(NewFr));
    // Travel to the remote node (ideal: one NetDelay).
    BlockTime = Net->transferDone(FromNode, Target, 0, Now);
    return StepStatus::YieldAt;
  }

  /// Pops the top frame, delivering \p Result (may be null) to the caller.
  StepStatus popFrame(Fiber *F, double &Now, const RtValue *Result,
                      double &BlockTime) {
    BcFrame Done = std::move(F->Stack.back());
    F->Stack.pop_back();
    Now += cost().ReturnCost;

    if (F->Stack.empty()) {
      if (F == MainFiber && Result)
        ExitVal = *Result;
      double End = std::max(Now, Done.WriteSync);
      if (Done.Migrated) // Defensive: base frames are never placed calls.
        End = Net->transferDone(Done.Node, 0, 0, End);
      finishFiber(F, End, Done.Node);
      return StepStatus::FiberDone;
    }

    BcFrame &Parent = F->Stack.back();
    Parent.WriteSync = std::max(Parent.WriteSync, Done.WriteSync);
    double Arrive =
        Done.Migrated ? Net->transferDone(Done.Node, Parent.Node, 0, Now) : Now;
    if (Done.ResultV && Result) {
      if (Done.ResultSlot < 0)
        noStorage(Parent, Done.ResultV);
      word(Parent, Done.ResultSlot) = *Result;
      Parent.Locals->Avail[Done.ResultSlot] = Arrive;
    }
    if (Done.Migrated) {
      BlockTime = Arrive;
      return StepStatus::YieldAt;
    }
    return StepStatus::Continue;
  }

  StepStatus execReturn(Fiber *F, BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    if (I.X.Kind != BcOperand::K::None) {
      double Need = availOf(Fr, I.X);
      if (Need > Now) {
        BlockTime = Need;
        return StepStatus::BlockRetry;
      }
      RtValue Result = valueOf(Fr, I.X);
      return popFrame(F, Now, &Result, BlockTime);
    }
    return popFrame(F, Now, nullptr, BlockTime);
  }

  //===--------------------------------------------------------------------===
  // Fiber run loop (BytecodeExecLoop.inc). The loop body — step accounting
  // plus one handler per opcode, one instruction == one AST-walker step —
  // is written once in the .inc and expanded below the class as two methods:
  // the portable switch loop and, where the build carries it, the
  // direct-threaded computed-goto loop. Selection is per-run (Cfg.Dispatch);
  // both loops produce bit-identical simulated results.
  //===--------------------------------------------------------------------===

  void runFiberSwitch(Fiber *F, double T);
#if EARTHCC_HAVE_COMPUTED_GOTO
  void runFiberThreaded(Fiber *F, double T);
#endif

  void runFiber(Fiber *F, double T) {
#if EARTHCC_HAVE_COMPUTED_GOTO
    if (Threaded) {
      runFiberThreaded(F, T);
      return;
    }
#endif
    runFiberSwitch(F, T);
  }

  //===--------------------------------------------------------------------===
  // State.
  //===--------------------------------------------------------------------===

  const BytecodeModule &BM;
  MachineConfig Cfg;
  /// Run the computed-goto loop (Cfg.Dispatch, degraded to the switch loop
  /// when the build lacks it).
  const bool Threaded;
  TraceSink *Trc = nullptr;
  CommProfiler *Prof = nullptr;
  EarthMemory Mem;
  /// The interconnect: owns the per-node SU clocks and all link state (see
  /// earth/NetworkModel.h).
  std::unique_ptr<NetworkModel> Net;
  OpCounters Ctr;
  std::vector<double> EUClock;
  std::vector<Fiber *> LastFiber;
  /// BcLocals recycling pool (see acquireLocals). The deque owns every
  /// image ever handed out (stable addresses); the free list holds the
  /// currently unreferenced ones. Declared ahead of Q/Fibers so the pool
  /// outlives every frame whose release can still park into it.
  std::deque<BcLocals> LocalsArena;
  std::vector<BcLocals *> LocalsFree;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> Q;
  uint64_t EventSeq = 0;
  std::deque<std::unique_ptr<Fiber>> Fibers;
  std::vector<GlobalAddr> GlobalSharedAddrs; ///< By SharedGlobalIndex.
  std::vector<std::string> Output;
  uint64_t Steps = 0;

  Fiber *MainFiber = nullptr;
  double EndTime = 0.0;
  RtValue ExitVal;
};

// Expand the shared loop body as the portable switch loop, and — where the
// build carries computed goto — again as the direct-threaded loop.
#define EARTHCC_RUNFIBER_NAME runFiberSwitch
#define EARTHCC_DISPATCH_THREADED 0
#include "interp/BytecodeExecLoop.inc"
#undef EARTHCC_RUNFIBER_NAME
#undef EARTHCC_DISPATCH_THREADED

#if EARTHCC_HAVE_COMPUTED_GOTO
#define EARTHCC_RUNFIBER_NAME runFiberThreaded
#define EARTHCC_DISPATCH_THREADED 1
#include "interp/BytecodeExecLoop.inc"
#undef EARTHCC_RUNFIBER_NAME
#undef EARTHCC_DISPATCH_THREADED
#endif

RunResult BcInterp::run(const std::string &Entry,
                        const std::vector<RtValue> &Args) {
  RunResult R;
  const Function *EntryFn = BM.M->findFunction(Entry);
  if (!EntryFn) {
    R.Error = "entry function '" + Entry + "' not found";
    return R;
  }
  if (EntryFn->params().size() != Args.size()) {
    R.Error = "entry function expects " +
              std::to_string(EntryFn->params().size()) + " arguments, got " +
              std::to_string(Args.size());
    return R;
  }
  const BytecodeFunction *EntryBF = BM.function(EntryFn);
  assert(EntryBF && "module lowered without its entry function");

  if (Prof)
    Prof->beginRun(BM.NumSites, Mem.numNodes());

  try {
    GlobalSharedAddrs.reserve(BM.SharedGlobals.size());
    for (size_t I = 0; I != BM.SharedGlobals.size(); ++I)
      GlobalSharedAddrs.push_back(Mem.allocate(0, 1));

    MainFiber = newFiber();
    BcFrame Fr;
    Fr.BF = EntryBF;
    Fr.Node = 0;
    Fr.Locals = makeLocals(EntryBF, 0);
    for (size_t I = 0; I != Args.size(); ++I)
      Fr.Locals->Words[EntryBF->Slots[EntryBF->ParamSlots[I]].WordOff] =
          Args[I];
    MainFiber->Stack.push_back(std::move(Fr));
    schedule(MainFiber, 0.0);

    while (!Q.empty()) {
      Event E = Q.top();
      Q.pop();
      runFiber(E.F, E.T);
    }

    if (!MainFiber->Done) {
      R.Error = "deadlock: entry function never completed";
      return R;
    }
  } catch (RuntimeFailure &Failure) {
    R.Error = Failure.Message;
    return R;
  }

  if (Prof) {
    const std::vector<uint64_t> *PW = Net->transferWords();
    Prof->setNetwork(topologyName(Net->topology()), Net->linkStats(),
                     PW ? *PW : std::vector<uint64_t>{}, EndTime);
  }

  R.OK = true;
  R.TimeNs = EndTime;
  R.ExitValue = ExitVal;
  R.Counters = Ctr;
  R.Output = std::move(Output);
  R.StepsExecuted = Steps;
  for (unsigned N = 0; N != Mem.numNodes(); ++N)
    R.WordsPerNode.push_back(Mem.allocatedWords(N));
  return R;
}

} // namespace

RunResult earthcc::runProgramBytecode(const BytecodeModule &BM,
                                      const MachineConfig &Config,
                                      const std::string &Entry,
                                      const std::vector<RtValue> &Args) {
  return BcInterp(BM, Config).run(Entry, Args);
}

//===- Lower.cpp - SIMPLE -> bytecode lowering -----------------------------===//
//
// Part of the earthcc project.
//
// Flattens each function's structured statement tree into the linear
// instruction stream described in Bytecode.h. The cardinal rule is the
// one-instruction-per-step invariant: every step the AST walker would take
// (basic statement, control push/pop, condition evaluation, join check)
// becomes exactly one instruction, so fiber preemption quanta, step fuel,
// and therefore the whole simulated schedule are preserved bit-for-bit.
//
// Field usage per opcode (the A/B/Off/Words overloads):
//
//   Assign   RK/LK/Sub as in the IR; A = base/struct slot of the RValue;
//            Dst = target slot (Var) or base/struct slot (Store/FieldWrite);
//            Off = RValue-side word offset, B = LValue-side word offset;
//            Loc = locality of the Load (LK == Var) or the Store.
//   Call     Sub = Intrinsic, Place = CallPlacement, Callee set for user
//            calls; A = ArgPool begin, Words = arg count; Y = placement
//            operand; Dst = result slot or -1.
//   Return   X = value operand (Kind None for a bare return).
//   BlkMov   Sub = BlkMovDir; A = pointer slot; B = local-struct slot.
//   Atomic   Sub = AtomicOp; A = frame slot of a function-scope shared
//            variable or -1; B = module-shared index when A == -1;
//            X = value operand; Dst = result slot (ValueOf).
//   Br       cond in RK/Sub/X/Y; A = else target.
//   LoopCond cond in RK/Sub/X/Y; A = true target, B = false target.
//   Switch   X = scrutinee; A = default target; B = CasePool begin,
//            Words = case count. After buildSwitchDispatch: Sub =
//            BcSwitchMode; Dense uses Dst = JumpTables index, Sorted uses
//            Dst = SortedCasePool begin with Off = deduplicated entry
//            count. CasePool itself stays in source order (backends).
//   EndSeq   A = jump target.
//   ParSpawn B = BranchPool begin, Words = branch count.
//   ForallCond cond in RK/Sub/X/Y; A = body fiber entry, B = join target.
//
//===----------------------------------------------------------------------===//

#include "interp/Lower.h"

#include "simple/CommSites.h"

#include <algorithm>
#include <cassert>

using namespace earthcc;

namespace {

/// Condition-shape marker for conditions that are not pure (parity with the
/// AST engine's pureAvail error path). Shared with the backends.
constexpr uint8_t BadCondRK = BcBadCondRK;

class FunctionLowering {
public:
  FunctionLowering(const BytecodeModule &BM, BytecodeFunction &BF,
                   const CommSiteTable &Sites)
      : BM(BM), BF(BF), Sites(Sites) {}

  void run() {
    const SeqStmt &Body = BF.Fn->body();
    lowerSeqChildren(Body);
    int32_t BodyEnd = emit(BcOp::EndSeq);
    patch(BodyEnd, &BcInsn::A, BodyEnd + 1);
    RetPC = emit(BcOp::ImplicitRet);
    // Fiber-entry regions (parallel branches, forall bodies) go after the
    // main stream; lowering one may enqueue more.
    for (size_t I = 0; I != Pending.size(); ++I) {
      PendingRegion R = Pending[I]; // Copy: Pending may reallocate below.
      int32_t Entry = pc();
      if (R.PatchInsn >= 0)
        BF.Code[R.PatchInsn].*R.PatchField = Entry;
      else
        BF.BranchPool[R.PatchPool] = Entry;
      lowerFiberRegion(*R.Entry);
    }
  }

private:
  //===--------------------------------------------------------------------===
  // Emission helpers.
  //===--------------------------------------------------------------------===

  int32_t pc() const { return static_cast<int32_t>(BF.Code.size()); }

  int32_t emit(BcOp Op, const Stmt *Src = nullptr) {
    BcInsn I;
    I.Op = Op;
    I.Src = Src;
    BF.Code.push_back(I);
    return pc() - 1;
  }

  /// The backend-facing construct tag of a non-basic statement (see BcCtor).
  static BcCtor ctorOf(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Seq:
      return castStmt<SeqStmt>(S).Parallel ? BcCtor::Par : BcCtor::Seq;
    case StmtKind::If:
      return BcCtor::If;
    case StmtKind::While:
      return castStmt<WhileStmt>(S).IsDoWhile ? BcCtor::DoWhile
                                              : BcCtor::While;
    case StmtKind::Switch:
      return BcCtor::Switch;
    case StmtKind::Forall:
      return BcCtor::Forall;
    default:
      assert(false && "basic statements are never entered");
      return BcCtor::None;
    }
  }

  void patch(int32_t Insn, int32_t BcInsn::*Field, int32_t Target) {
    BF.Code[Insn].*Field = Target;
  }

  /// Frame slot of \p V, or -1 when the variable has no storage in this
  /// frame (module-level variable) — the engine then reports the same
  /// "no storage" error the AST walker's slot() raises.
  int32_t slotOf(const Var *V) const {
    if (!V)
      return -1;
    size_t Id = V->id();
    if (Id >= BF.Slots.size() || BF.Slots[Id].V != V)
      return -1;
    return static_cast<int32_t>(Id);
  }

  BcOperand lowerOperand(const Operand &O) const {
    BcOperand B;
    if (O.isVar()) {
      B.Kind = BcOperand::K::Slot;
      B.Slot = slotOf(O.getVar());
      B.V = O.getVar();
      return B;
    }
    B.Kind = BcOperand::K::Const;
    const ConstantValue &C = O.getConst();
    B.Const = C.isInt() ? RtValue::makeInt(C.I) : RtValue::makeDbl(C.D);
    return B;
  }

  /// Encodes a pure condition RValue into \p I's RK/Sub/X/Y fields.
  void lowerCond(const RValue &R, BcInsn &I) const {
    switch (R.kind()) {
    case RValueKind::Opnd:
      I.RK = static_cast<uint8_t>(RValueKind::Opnd);
      I.X = lowerOperand(static_cast<const OpndRV &>(R).Val);
      return;
    case RValueKind::Unary: {
      const auto &U = static_cast<const UnaryRV &>(R);
      I.RK = static_cast<uint8_t>(RValueKind::Unary);
      I.Sub = static_cast<uint8_t>(U.Op);
      I.X = lowerOperand(U.Val);
      return;
    }
    case RValueKind::Binary: {
      const auto &B = static_cast<const BinaryRV &>(R);
      I.RK = static_cast<uint8_t>(RValueKind::Binary);
      I.Sub = static_cast<uint8_t>(B.Op);
      I.X = lowerOperand(B.A);
      I.Y = lowerOperand(B.B);
      return;
    }
    default:
      I.RK = BadCondRK; // "condition with memory access" at execution.
      return;
    }
  }

  //===--------------------------------------------------------------------===
  // Basic statements.
  //===--------------------------------------------------------------------===

  void lowerBasic(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      BcInsn &I = BF.Code[emit(BcOp::Assign, &S)];
      I.RK = static_cast<uint8_t>(A.R->kind());
      I.LK = static_cast<uint8_t>(A.L.Kind);
      switch (A.R->kind()) {
      case RValueKind::Opnd:
        I.X = lowerOperand(static_cast<const OpndRV &>(*A.R).Val);
        break;
      case RValueKind::Unary: {
        const auto &U = static_cast<const UnaryRV &>(*A.R);
        I.Sub = static_cast<uint8_t>(U.Op);
        I.X = lowerOperand(U.Val);
        break;
      }
      case RValueKind::Binary: {
        const auto &B = static_cast<const BinaryRV &>(*A.R);
        I.Sub = static_cast<uint8_t>(B.Op);
        I.X = lowerOperand(B.A);
        I.Y = lowerOperand(B.B);
        break;
      }
      case RValueKind::Load: {
        const auto &L = static_cast<const LoadRV &>(*A.R);
        I.A = slotOf(L.Base);
        I.Off = L.OffsetWords;
        I.Loc = static_cast<uint8_t>(L.Loc);
        break;
      }
      case RValueKind::FieldRead: {
        const auto &FR = static_cast<const FieldReadRV &>(*A.R);
        I.A = slotOf(FR.StructVar);
        I.Off = FR.OffsetWords;
        break;
      }
      case RValueKind::AddrOfField: {
        const auto &AF = static_cast<const AddrOfFieldRV &>(*A.R);
        I.A = slotOf(AF.Base);
        I.Off = AF.OffsetWords;
        break;
      }
      }
      I.Dst = slotOf(A.L.V);
      if (A.L.Kind != LValueKind::Var) {
        // Off carries the RValue-side offset; the LValue-side offset rides
        // in B (a Store LHS can coexist with a FieldRead RHS).
        I.B = static_cast<int32_t>(A.L.OffsetWords);
        I.Loc = static_cast<uint8_t>(A.L.Loc);
      }
      I.Site = Sites.idOf(&S); // -1 unless the assign is a comm site.
      return;
    }
    case StmtKind::Call: {
      const auto &C = castStmt<CallStmt>(S);
      int32_t ArgsBegin = static_cast<int32_t>(BF.ArgPool.size());
      for (const Operand &O : C.Args)
        BF.ArgPool.push_back(lowerOperand(O));
      BcInsn &I = BF.Code[emit(BcOp::Call, &S)];
      I.Sub = static_cast<uint8_t>(C.Intrin);
      I.Place = static_cast<uint8_t>(C.Placement);
      I.A = ArgsBegin;
      I.Words = static_cast<uint32_t>(C.Args.size());
      I.Dst = slotOf(C.Result);
      if (C.Placement == CallPlacement::OwnerOf ||
          C.Placement == CallPlacement::AtNode)
        I.Y = lowerOperand(C.PlacementArg);
      if (C.Callee)
        I.Callee = BM.function(C.Callee);
      return;
    }
    case StmtKind::Return: {
      const auto &R = castStmt<ReturnStmt>(S);
      BcInsn &I = BF.Code[emit(BcOp::Return, &S)];
      if (R.Val)
        I.X = lowerOperand(*R.Val);
      return;
    }
    case StmtKind::BlkMov: {
      const auto &B = castStmt<BlkMovStmt>(S);
      BcInsn &I = BF.Code[emit(BcOp::BlkMov, &S)];
      I.Sub = static_cast<uint8_t>(B.Dir);
      I.A = slotOf(B.Ptr);
      I.B = slotOf(B.LocalStruct);
      I.Words = B.Words;
      I.Site = Sites.idOf(&S);
      return;
    }
    case StmtKind::Atomic: {
      const auto &A = castStmt<AtomicStmt>(S);
      BcInsn &I = BF.Code[emit(BcOp::Atomic, &S)];
      I.Sub = static_cast<uint8_t>(A.Op);
      I.A = slotOf(A.SharedVar);
      if (I.A < 0) {
        auto It = BM.SharedGlobalIndex.find(A.SharedVar);
        I.B = It == BM.SharedGlobalIndex.end() ? -1 : It->second;
      }
      I.X = lowerOperand(A.Val);
      I.Dst = slotOf(A.Result);
      I.Site = Sites.idOf(&S);
      return;
    }
    default:
      assert(false && "not a basic statement");
    }
  }

  //===--------------------------------------------------------------------===
  // Structured control.
  //===--------------------------------------------------------------------===

  /// Lowers the children of a (sequential) sequence. The caller emits the
  /// terminating EndSeq, whose target depends on the construct.
  void lowerSeqChildren(const SeqStmt &Seq) {
    assert(!Seq.Parallel && "parallel sequence lowered via lowerCompound");
    for (const StmtPtr &Child : Seq.Stmts) {
      if (Child->isBasic()) {
        lowerBasic(*Child);
        continue;
      }
      // The walker spends one step pushing a non-basic child.
      BF.Code[emit(BcOp::Enter, Child.get())].Ctor =
          static_cast<uint8_t>(ctorOf(*Child));
      lowerCompound(*Child);
    }
  }

  /// Lowers one compound construct as a control-entry region: execution
  /// falls in at the first emitted instruction and leaves at the first
  /// instruction after the region.
  void lowerCompound(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Seq: {
      const auto &Seq = castStmt<SeqStmt>(S);
      if (Seq.Parallel) {
        int32_t Spawn = emit(BcOp::ParSpawn, &S);
        BF.Code[Spawn].B = static_cast<int32_t>(BF.BranchPool.size());
        BF.Code[Spawn].Words = static_cast<uint32_t>(Seq.Stmts.size());
        for (const StmtPtr &Branch : Seq.Stmts) {
          BF.BranchPool.push_back(-1);
          Pending.push_back({Branch.get(), -1, nullptr,
                             static_cast<int32_t>(BF.BranchPool.size()) - 1});
        }
        emit(BcOp::Join, &S);
        return;
      }
      // A nested sequential sequence: children, then its pop step.
      lowerSeqChildren(Seq);
      int32_t SeqEnd = emit(BcOp::EndSeq, &S);
      patch(SeqEnd, &BcInsn::A, SeqEnd + 1);
      return;
    }
    case StmtKind::If: {
      const auto &If = castStmt<IfStmt>(S);
      int32_t Br = emit(BcOp::Br, &S);
      lowerCond(*If.Cond, BF.Code[Br]);
      lowerSeqChildren(*If.Then);
      int32_t ThenEnd = emit(BcOp::EndSeq, If.Then.get());
      patch(Br, &BcInsn::A, pc());
      lowerSeqChildren(*If.Else);
      int32_t ElseEnd = emit(BcOp::EndSeq, If.Else.get());
      int32_t End = emit(BcOp::EndCompound, &S);
      patch(ThenEnd, &BcInsn::A, End);
      patch(ElseEnd, &BcInsn::A, End);
      return;
    }
    case StmtKind::Switch: {
      const auto &Sw = castStmt<SwitchStmt>(S);
      int32_t Dispatch = emit(BcOp::Switch, &S);
      BF.Code[Dispatch].X = lowerOperand(Sw.Val);
      int32_t CasesBegin = static_cast<int32_t>(BF.CasePool.size());
      BF.Code[Dispatch].B = CasesBegin;
      BF.Code[Dispatch].Words = static_cast<uint32_t>(Sw.Cases.size());
      for (const SwitchStmt::Case &C : Sw.Cases)
        BF.CasePool.emplace_back(C.Value, -1);
      std::vector<int32_t> Ends;
      for (size_t CI = 0; CI != Sw.Cases.size(); ++CI) {
        BF.CasePool[CasesBegin + static_cast<int32_t>(CI)].second = pc();
        lowerSeqChildren(*Sw.Cases[CI].Body);
        Ends.push_back(emit(BcOp::EndSeq, Sw.Cases[CI].Body.get()));
      }
      patch(Dispatch, &BcInsn::A, pc());
      lowerSeqChildren(*Sw.Default);
      Ends.push_back(emit(BcOp::EndSeq, Sw.Default.get()));
      int32_t End = emit(BcOp::EndCompound, &S);
      for (int32_t E : Ends)
        patch(E, &BcInsn::A, End);
      return;
    }
    case StmtKind::While: {
      const auto &W = castStmt<WhileStmt>(S);
      if (!W.IsDoWhile) {
        int32_t Cond = emit(BcOp::LoopCond, &S);
        lowerCond(*W.Cond, BF.Code[Cond]);
        patch(Cond, &BcInsn::A, pc()); // True: fall into the body.
        lowerSeqChildren(*W.Body);
        patch(emit(BcOp::EndSeq, W.Body.get()), &BcInsn::A, Cond);
        patch(Cond, &BcInsn::B, pc()); // False: leave the loop.
        return;
      }
      // do-while: the walker spends one step entering the body first.
      BF.Code[emit(BcOp::Enter, &S)].Ctor =
          static_cast<uint8_t>(BcCtor::DoWhileBody);
      int32_t Body = pc();
      lowerSeqChildren(*W.Body);
      int32_t BodyEnd = emit(BcOp::EndSeq, W.Body.get());
      int32_t Cond = emit(BcOp::LoopCond, &S);
      patch(BodyEnd, &BcInsn::A, Cond);
      lowerCond(*W.Cond, BF.Code[Cond]);
      patch(Cond, &BcInsn::A, Body);
      patch(Cond, &BcInsn::B, pc());
      return;
    }
    case StmtKind::Forall: {
      const auto &Fa = castStmt<ForallStmt>(S);
      emit(BcOp::ForallInit, &S);
      lowerSeqChildren(*Fa.Init);
      int32_t InitEnd = emit(BcOp::EndSeq, Fa.Init.get());
      int32_t Cond = emit(BcOp::ForallCond, &S);
      patch(InitEnd, &BcInsn::A, Cond);
      lowerCond(*Fa.Cond, BF.Code[Cond]);
      Pending.push_back({Fa.Body.get(), Cond, &BcInsn::A, -1});
      lowerSeqChildren(*Fa.Step);
      patch(emit(BcOp::EndSeq, Fa.Step.get()), &BcInsn::A, Cond);
      patch(Cond, &BcInsn::B, pc()); // False: proceed to the join.
      emit(BcOp::Join, &S);
      return;
    }
    default:
      assert(false && "basic statement lowered via lowerBasic");
    }
  }

  /// Lowers a fiber-entry region: the statement a freshly spawned fiber's
  /// control stack starts with. When its control unwinds, the fiber's frame
  /// pops (the walker's "control empty -> implicit void return" step), so
  /// every exit path leads to an ImplicitRet.
  void lowerFiberRegion(const Stmt &S) {
    if (const auto *Seq = dynCastStmt<SeqStmt>(&S); Seq && !Seq->Parallel) {
      lowerSeqChildren(*Seq);
      patch(emit(BcOp::EndSeq, Seq), &BcInsn::A, RetPC);
      return;
    }
    if (S.isBasic()) {
      // The AST walker cannot dispatch a bare basic statement from the
      // control stack; Simplify never produces one here. Execute it, then
      // fall into the frame pop.
      lowerBasic(S);
      emit(BcOp::ImplicitRet);
      return;
    }
    lowerCompound(S);
    emit(BcOp::ImplicitRet);
  }

  //===--------------------------------------------------------------------===
  // State.
  //===--------------------------------------------------------------------===

  struct PendingRegion {
    const Stmt *Entry;
    int32_t PatchInsn;            ///< Insn to patch, or -1 for a pool slot.
    int32_t BcInsn::*PatchField;  ///< Field within PatchInsn.
    int32_t PatchPool;            ///< BranchPool slot when PatchInsn < 0.
  };

  const BytecodeModule &BM;
  BytecodeFunction &BF;
  const CommSiteTable &Sites;
  std::vector<PendingRegion> Pending;
  int32_t RetPC = -1;
};

/// Dense-table policy: a switch's deduplicated values get a jump table when
/// the value span wastes at most 3 holes per case (span <= 4 * cases) and
/// the table stays small in absolute terms; everything else binary-searches
/// a sorted copy. Duplicate case values keep the first occurrence, matching
/// the source-order linear scan the engines are specified against.
constexpr uint64_t MaxJumpTableSpan = 4096;

/// Annotates every Switch in BF.Code with its execution strategy
/// (BcSwitchMode in Sub) and builds the side tables. Runs after the
/// function's body is fully lowered, so case targets in CasePool are final.
void buildSwitchDispatch(BytecodeFunction &BF) {
  for (BcInsn &I : BF.Code) {
    if (I.Op != BcOp::Switch)
      continue;
    I.Sub = static_cast<uint8_t>(BcSwitchMode::Linear);
    if (I.Words == 0)
      continue; // Default-only: the empty linear scan is already optimal.

    // Deduplicate first-wins in source order, then sort by value.
    std::vector<std::pair<int64_t, int32_t>> Unique;
    Unique.reserve(I.Words);
    for (uint32_t CI = 0; CI != I.Words; ++CI) {
      const auto &Case = BF.CasePool[I.B + CI];
      bool Seen = false;
      for (const auto &U : Unique)
        if (U.first == Case.first) {
          Seen = true;
          break;
        }
      if (!Seen)
        Unique.push_back(Case);
    }
    std::sort(Unique.begin(), Unique.end());

    const int64_t Lo = Unique.front().first;
    const int64_t Hi = Unique.back().first;
    // Unsigned subtraction gives the correct span even across INT64 bounds;
    // Span == 0 then means the full 2^64 range (never dense).
    const uint64_t Span =
        static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo) + 1;
    if (Unique.size() >= 2 && Span != 0 && Span <= MaxJumpTableSpan &&
        Span <= 4 * Unique.size()) {
      I.Sub = static_cast<uint8_t>(BcSwitchMode::Dense);
      I.Dst = static_cast<int32_t>(BF.JumpTables.size());
      BcJumpTable T;
      T.Lo = Lo;
      T.Begin = static_cast<uint32_t>(BF.JumpPool.size());
      T.Size = static_cast<uint32_t>(Span);
      BF.JumpPool.resize(BF.JumpPool.size() + Span, -1);
      for (const auto &U : Unique)
        BF.JumpPool[T.Begin + static_cast<uint64_t>(U.first) -
                    static_cast<uint64_t>(Lo)] = U.second;
      BF.JumpTables.push_back(T);
    } else {
      I.Sub = static_cast<uint8_t>(BcSwitchMode::Sorted);
      I.Dst = static_cast<int32_t>(BF.SortedCasePool.size());
      I.Off = static_cast<uint32_t>(Unique.size());
      BF.SortedCasePool.insert(BF.SortedCasePool.end(), Unique.begin(),
                               Unique.end());
    }
  }
}

/// Fills the lowering-time inline caches (param word offsets, shared-cell
/// offsets) from the finished frame layout.
void buildLayoutCaches(BytecodeFunction &BF) {
  BF.ParamWordOffs.reserve(BF.ParamSlots.size());
  for (int32_t P : BF.ParamSlots)
    BF.ParamWordOffs.push_back(BF.Slots[P].WordOff);
  for (const BcSlot &S : BF.Slots)
    if (S.SharedCell)
      BF.SharedCellOffs.push_back(S.WordOff);
}

} // namespace

std::shared_ptr<const BytecodeModule> earthcc::lowerModule(const Module &M) {
  auto BM = std::make_shared<BytecodeModule>();
  BM->M = &M;

  // Module-level shared variables, in the order the engines allocate their
  // node-0 cells at run start.
  for (const auto &G : M.globals())
    if (G->kind() == VarKind::Shared) {
      BM->SharedGlobalIndex[G.get()] =
          static_cast<int32_t>(BM->SharedGlobals.size());
      BM->SharedGlobals.push_back(G.get());
    }

  // First pass: frame layouts for every function, so calls can resolve
  // their callees while bodies are lowered in the second pass.
  for (const auto &F : M.functions()) {
    auto BF = std::make_unique<BytecodeFunction>();
    BF->Fn = F.get();
    const auto &Vars = F->vars();
    BF->Slots.reserve(Vars.size());
    uint32_t WordOff = 0;
    for (size_t I = 0; I != Vars.size(); ++I) {
      const Var *V = Vars[I].get();
      assert(V->id() == I && "variable ids must be dense and ordered");
      BcSlot S;
      S.WordOff = WordOff;
      S.Words = std::max(1u, V->type()->sizeInWords());
      S.SharedCell = V->kind() == VarKind::Shared;
      S.V = V;
      WordOff += S.Words;
      BF->Slots.push_back(S);
    }
    BF->FrameWords = WordOff;
    for (const Var *P : F->params())
      BF->ParamSlots.push_back(static_cast<int32_t>(P->id()));
    buildLayoutCaches(*BF);
    BM->ByFn[F.get()] = BF.get();
    BM->Funcs.push_back(std::move(BF));
  }

  // Second pass: function bodies, each stamped with the comm-site ids of
  // the table built over the whole module.
  CommSiteTable Sites = buildCommSiteTable(M);
  BM->NumSites = static_cast<uint32_t>(Sites.size());
  for (const auto &BF : BM->Funcs) {
    FunctionLowering(*BM, *BF, Sites).run();
    buildSwitchDispatch(*BF);
  }
  return BM;
}

const BytecodeModule &earthcc::getOrLowerBytecode(const Module &M) {
  std::shared_ptr<void> &Cache = M.execCache();
  if (!Cache)
    Cache = std::const_pointer_cast<BytecodeModule>(lowerModule(M));
  return *static_cast<const BytecodeModule *>(Cache.get());
}

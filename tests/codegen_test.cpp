//===- codegen_test.cpp - Threaded-C emission tests -------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "codegen/ThreadedC.h"
#include "driver/Pipeline.h"
#include "simple/Printer.h"
#include "workloads/Workloads.h"

#include <fstream>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

using namespace earthcc;

//===----------------------------------------------------------------------===//
// Frozen tree-walking reference emitter.
//
// This is the pre-refactor Threaded-C emitter, kept verbatim as the
// differential oracle: the production emitter consumes the flat bytecode
// stream, and this copy re-derives the same program from the statement tree.
// Their outputs (and thread/sync-slot counts) must match bit-for-bit on
// every workload — that equivalence is what licenses the bytecode as the
// single source of truth for slot numbering. Do not modernize this copy;
// behavior changes belong in src/codegen and must show up here as a diff.
//===----------------------------------------------------------------------===//

namespace treeref {

class Emitter {
public:
  explicit Emitter(const Function &F) : F(F) {}

  std::string run(ThreadedCInfo *Info) {
    OS << "THREADED " << F.name() << "(";
    for (size_t I = 0; I != F.params().size(); ++I) {
      const Var *P = F.params()[I];
      OS << (I ? ", " : "") << P->type()->str() << " " << P->name();
    }
    OS << ") {\n";
    for (const auto &V : F.vars())
      if (V->kind() != VarKind::Param)
        OS << "  " << V->type()->str() << " " << V->name() << ";\n";
    OS << "  SLOT SYNC_SLOTS[];\n";
    OS << "\n  THREAD_0:\n";
    emitSeq(F.body(), 2);
    OS << "  END_THREADED();\n}\n";
    if (Info) {
      Info->Threads = ThreadCount + 1;
      Info->SyncSlots = SlotCount;
    }
    return OS.str();
  }

private:
  void indent(unsigned N) { OS << std::string(N, ' '); }

  unsigned newSlot() { return SlotCount++; }

  void splitThread(unsigned Ind, const std::vector<const Var *> &SyncedVars) {
    ++ThreadCount;
    indent(Ind);
    OS << "END_THREAD(); // fiber boundary\n";
    indent(Ind - 2 < 2 ? 2 : Ind - 2);
    OS << "THREAD_" << ThreadCount << ": // resumes when";
    for (const Var *V : SyncedVars)
      OS << " SLOT(" << Pending[V] << ")->" << V->name();
    OS << " arrive\n";
    for (const Var *V : SyncedVars)
      Pending.erase(V);
  }

  std::vector<const Var *> pendingUses(const Stmt &S) {
    std::vector<const Var *> Used;
    auto use = [&](const Operand &O) {
      if (O.isVar() && Pending.count(O.getVar()))
        Used.push_back(O.getVar());
    };
    auto useVar = [&](const Var *V) {
      if (V && Pending.count(V))
        Used.push_back(V);
    };
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      switch (A.R->kind()) {
      case RValueKind::Opnd:
        use(static_cast<const OpndRV &>(*A.R).Val);
        break;
      case RValueKind::Unary:
        use(static_cast<const UnaryRV &>(*A.R).Val);
        break;
      case RValueKind::Binary: {
        const auto &B = static_cast<const BinaryRV &>(*A.R);
        use(B.A);
        use(B.B);
        break;
      }
      case RValueKind::Load:
        useVar(static_cast<const LoadRV &>(*A.R).Base);
        break;
      case RValueKind::FieldRead:
        useVar(static_cast<const FieldReadRV &>(*A.R).StructVar);
        break;
      case RValueKind::AddrOfField:
        useVar(static_cast<const AddrOfFieldRV &>(*A.R).Base);
        break;
      }
      if (A.L.Kind == LValueKind::Store)
        useVar(A.L.V);
      if (A.L.Kind == LValueKind::FieldWrite)
        useVar(A.L.V);
      return Used;
    }
    case StmtKind::Call: {
      const auto &C = castStmt<CallStmt>(S);
      for (const Operand &O : C.Args)
        use(O);
      use(C.PlacementArg);
      return Used;
    }
    case StmtKind::Return: {
      const auto &R = castStmt<ReturnStmt>(S);
      if (R.Val)
        use(*R.Val);
      return Used;
    }
    case StmtKind::BlkMov: {
      const auto &B = castStmt<BlkMovStmt>(S);
      useVar(B.Ptr);
      if (B.Dir == BlkMovDir::WriteFromLocal)
        useVar(B.LocalStruct);
      return Used;
    }
    case StmtKind::Atomic: {
      const auto &A = castStmt<AtomicStmt>(S);
      use(A.Val);
      return Used;
    }
    case StmtKind::If:
      collectCondUses(*castStmt<IfStmt>(S).Cond, Used);
      return Used;
    case StmtKind::While:
      collectCondUses(*castStmt<WhileStmt>(S).Cond, Used);
      return Used;
    case StmtKind::Switch:
      use(castStmt<SwitchStmt>(S).Val);
      return Used;
    case StmtKind::Forall:
      collectCondUses(*castStmt<ForallStmt>(S).Cond, Used);
      return Used;
    case StmtKind::Seq:
      return Used;
    }
    return Used;
  }

  void collectCondUses(const RValue &R, std::vector<const Var *> &Used) {
    auto use = [&](const Operand &O) {
      if (O.isVar() && Pending.count(O.getVar()))
        Used.push_back(O.getVar());
    };
    switch (R.kind()) {
    case RValueKind::Opnd:
      use(static_cast<const OpndRV &>(R).Val);
      return;
    case RValueKind::Unary:
      use(static_cast<const UnaryRV &>(R).Val);
      return;
    case RValueKind::Binary: {
      const auto &B = static_cast<const BinaryRV &>(R);
      use(B.A);
      use(B.B);
      return;
    }
    default:
      return;
    }
  }

  void emitSeq(const SeqStmt &Seq, unsigned Ind) {
    if (Seq.Parallel) {
      indent(Ind);
      OS << "// parallel sequence: " << Seq.size()
         << " tokens + join slot\n";
      unsigned Join = newSlot();
      for (const auto &Branch : Seq.Stmts) {
        indent(Ind);
        OS << "TOKEN(branch, SLOT(" << Join << ")) {\n";
        emitSeq(castStmt<SeqStmt>(*Branch), Ind + 2);
        indent(Ind);
        OS << "}\n";
      }
      indent(Ind);
      OS << "SYNC_JOIN(SLOT(" << Join << "), " << Seq.size() << ");\n";
      splitThread(Ind, {});
      return;
    }
    for (const auto &Child : Seq.Stmts)
      emitStmt(*Child, Ind);
  }

  void emitStmt(const Stmt &S, unsigned Ind) {
    std::vector<const Var *> Synced = pendingUses(S);
    if (!Synced.empty())
      splitThread(Ind, Synced);

    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      if (A.isRemoteRead()) {
        const auto &L = static_cast<const LoadRV &>(*A.R);
        unsigned Slot = newSlot();
        indent(Ind);
        OS << "GET_SYNC_L(" << L.Base->name() << " + " << L.OffsetWords
           << ", &" << A.L.V->name() << ", SLOT(" << Slot << ")); // "
           << L.Base->name() << "->"
           << (L.FieldName.empty() ? "*" : L.FieldName) << "\n";
        Pending[A.L.V] = Slot;
        return;
      }
      if (A.isRemoteWrite()) {
        indent(Ind);
        OS << "DATA_SYNC_L(" << printRValue(*A.R) << ", " << A.L.V->name()
           << " + " << A.L.OffsetWords << ", WSYNC); // " << A.L.V->name()
           << "->" << A.L.FieldName << "\n";
        return;
      }
      indent(Ind);
      OS << printLValue(A.L) << " = " << printRValue(*A.R) << ";\n";
      return;
    }
    case StmtKind::BlkMov: {
      const auto &B = castStmt<BlkMovStmt>(S);
      unsigned Slot = newSlot();
      indent(Ind);
      if (B.Dir == BlkMovDir::ReadToLocal) {
        OS << "BLKMOV_SYNC(" << B.Ptr->name() << ", &"
           << B.LocalStruct->name() << ", " << B.Words * 8 << ", SLOT("
           << Slot << "));\n";
        Pending[B.LocalStruct] = Slot;
      } else {
        OS << "BLKMOV_SYNC(&" << B.LocalStruct->name() << ", "
           << B.Ptr->name() << ", " << B.Words * 8 << ", WSYNC);\n";
      }
      return;
    }
    case StmtKind::Call: {
      const auto &C = castStmt<CallStmt>(S);
      indent(Ind);
      if (C.Placement != CallPlacement::Default) {
        unsigned Slot = newSlot();
        OS << "INVOKE(";
        switch (C.Placement) {
        case CallPlacement::OwnerOf:
          OS << "OWNER_OF(" << C.PlacementArg.str() << ")";
          break;
        case CallPlacement::AtNode:
          OS << "NODE(" << C.PlacementArg.str() << ")";
          break;
        default:
          OS << "HOME";
          break;
        }
        OS << ", " << C.CalleeName << "(";
        for (size_t I = 0; I != C.Args.size(); ++I)
          OS << (I ? ", " : "") << C.Args[I].str();
        OS << ")";
        if (C.Result) {
          OS << ", &" << C.Result->name() << ", SLOT(" << Slot << ")";
          Pending[C.Result] = Slot;
        }
        OS << ");\n";
        return;
      }
      if (C.Result)
        OS << C.Result->name() << " = ";
      OS << C.CalleeName << "(";
      for (size_t I = 0; I != C.Args.size(); ++I)
        OS << (I ? ", " : "") << C.Args[I].str();
      OS << ");\n";
      return;
    }
    case StmtKind::Return: {
      const auto &R = castStmt<ReturnStmt>(S);
      indent(Ind);
      OS << "RETURN(";
      if (R.Val)
        OS << R.Val->str();
      OS << "); // settles WSYNC before signalling the caller\n";
      return;
    }
    case StmtKind::Atomic: {
      const auto &A = castStmt<AtomicStmt>(S);
      indent(Ind);
      switch (A.Op) {
      case AtomicOp::WriteTo:
        OS << "WRITETO_SYNC(&" << A.SharedVar->name() << ", " << A.Val.str()
           << ", WSYNC);\n";
        return;
      case AtomicOp::AddTo:
        OS << "ADDTO_SYNC(&" << A.SharedVar->name() << ", " << A.Val.str()
           << ", WSYNC);\n";
        return;
      case AtomicOp::ValueOf: {
        unsigned Slot = newSlot();
        OS << "VALUEOF_SYNC(&" << A.SharedVar->name() << ", &"
           << A.Result->name() << ", SLOT(" << Slot << "));\n";
        Pending[A.Result] = Slot;
        return;
      }
      }
      return;
    }
    case StmtKind::If: {
      const auto &If = castStmt<IfStmt>(S);
      indent(Ind);
      OS << "if (" << printRValue(*If.Cond) << ") {\n";
      emitSeq(*If.Then, Ind + 2);
      if (!If.Else->empty()) {
        indent(Ind);
        OS << "} else {\n";
        emitSeq(*If.Else, Ind + 2);
      }
      indent(Ind);
      OS << "}\n";
      return;
    }
    case StmtKind::Switch: {
      const auto &Sw = castStmt<SwitchStmt>(S);
      indent(Ind);
      OS << "switch (" << Sw.Val.str() << ") {\n";
      for (const auto &C : Sw.Cases) {
        indent(Ind);
        OS << "case " << C.Value << ":\n";
        emitSeq(*C.Body, Ind + 2);
        indent(Ind + 2);
        OS << "break;\n";
      }
      indent(Ind);
      OS << "default:\n";
      emitSeq(*Sw.Default, Ind + 2);
      indent(Ind);
      OS << "}\n";
      return;
    }
    case StmtKind::While: {
      const auto &W = castStmt<WhileStmt>(S);
      indent(Ind);
      if (W.IsDoWhile) {
        OS << "do {\n";
        emitSeq(*W.Body, Ind + 2);
        indent(Ind);
        OS << "} while (" << printRValue(*W.Cond) << ");\n";
      } else {
        OS << "while (" << printRValue(*W.Cond) << ") {\n";
        emitSeq(*W.Body, Ind + 2);
        indent(Ind);
        OS << "}\n";
      }
      return;
    }
    case StmtKind::Forall: {
      const auto &Fa = castStmt<ForallStmt>(S);
      unsigned Join = newSlot();
      indent(Ind);
      OS << "// forall driver: spawns one token per iteration\n";
      emitSeq(*Fa.Init, Ind);
      indent(Ind);
      OS << "while (" << printRValue(*Fa.Cond) << ") {\n";
      indent(Ind + 2);
      OS << "TOKEN(iteration, SLOT(" << Join << ")) {\n";
      emitSeq(*Fa.Body, Ind + 4);
      indent(Ind + 2);
      OS << "}\n";
      emitSeq(*Fa.Step, Ind + 2);
      indent(Ind);
      OS << "}\n";
      indent(Ind);
      OS << "SYNC_JOIN(SLOT(" << Join << "), ALL_ITERATIONS);\n";
      splitThread(Ind, {});
      return;
    }
    case StmtKind::Seq:
      emitSeq(castStmt<SeqStmt>(S), Ind);
      return;
    }
  }

  const Function &F;
  std::ostringstream OS;
  std::map<const Var *, unsigned> Pending;
  unsigned SlotCount = 0;
  unsigned ThreadCount = 0;
};

std::string emit(const Function &F, ThreadedCInfo *Info = nullptr) {
  return Emitter(F).run(Info);
}

} // namespace treeref

namespace {

std::unique_ptr<Module> compileOpt(const std::string &Src,
                                   bool Optimize = true) {
  Pipeline P(Optimize ? PipelineOptions::optimized()
                      : PipelineOptions::simple());
  CompileResult CR = P.compile(Src);
  EXPECT_TRUE(CR.OK) << CR.Messages;
  return std::move(CR.M);
}

const char *DistanceSrc = R"(
  struct Point { double x; double y; };
  double distance(Point *p) {
    double d;
    d = sqrt(p->x * p->x + p->y * p->y);
    return d;
  }
)";

TEST(ThreadedCTest, SplitPhaseReadsGetSlots) {
  auto M = compileOpt(DistanceSrc);
  ThreadedCInfo Info;
  std::string Out = emitThreadedC(*M, *M->findFunction("distance"), &Info);
  // The two pipelined reads each get a GET_SYNC_L with their own slot.
  EXPECT_NE(Out.find("GET_SYNC_L(p + 0"), std::string::npos) << Out;
  EXPECT_NE(Out.find("GET_SYNC_L(p + 1"), std::string::npos) << Out;
  EXPECT_EQ(Info.SyncSlots, 2u);
}

TEST(ThreadedCTest, FiberSplitsAtUse) {
  auto M = compileOpt(DistanceSrc);
  ThreadedCInfo Info;
  std::string Out = emitThreadedC(*M, *M->findFunction("distance"), &Info);
  // Issuing the reads and consuming them happens in different threads:
  // the multiply that uses comm1 must live in THREAD_1.
  EXPECT_GE(Info.Threads, 2u) << Out;
  EXPECT_NE(Out.find("THREAD_1:"), std::string::npos) << Out;
  // The sync point names the slots it waits on.
  EXPECT_NE(Out.find("resumes when"), std::string::npos) << Out;
}

TEST(ThreadedCTest, UnoptimizedNeedsMoreThreads) {
  // Without read motion, every load is consumed immediately: each of the
  // four loads forces its own fiber boundary.
  auto Simple = compileOpt(DistanceSrc, /*Optimize=*/false);
  auto Opt = compileOpt(DistanceSrc, /*Optimize=*/true);
  ThreadedCInfo SimpleInfo, OptInfo;
  emitThreadedC(*Simple, *Simple->findFunction("distance"), &SimpleInfo);
  emitThreadedC(*Opt, *Opt->findFunction("distance"), &OptInfo);
  // Redundancy elimination halves the split-phase traffic (4 -> 2 slots);
  // the adjacent-load pairs already overlapped, so the fiber count ties.
  EXPECT_GT(SimpleInfo.SyncSlots, OptInfo.SyncSlots);
  EXPECT_GE(SimpleInfo.Threads, OptInfo.Threads);
}

TEST(ThreadedCTest, BlkmovAndWriteback) {
  auto M = compileOpt(R"(
    struct T { double a; double b; double c; };
    double f(T *p) {
      double v1; double v2; double v3;
      v1 = p->a;
      v2 = p->b;
      v3 = p->c;
      p->a = v1 + 1.0;
      p->b = v2 + 1.0;
      p->c = v3 + 1.0;
      return v1 + v2 + v3;
    }
  )");
  std::string Out = emitThreadedC(*M, *M->findFunction("f"));
  EXPECT_NE(Out.find("BLKMOV_SYNC(p, &bcomm1, 24, SLOT("), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("BLKMOV_SYNC(&bcomm1, p, 24, WSYNC)"),
            std::string::npos)
      << Out;
}

TEST(ThreadedCTest, RemoteWritesAreFireAndForget) {
  auto M = compileOpt(R"(
    struct Point { double x; double y; };
    void set(Point *p, double v) {
      p->x = v;
    }
  )");
  std::string Out = emitThreadedC(*M, *M->findFunction("set"));
  EXPECT_NE(Out.find("DATA_SYNC_L(v, p + 0, WSYNC)"), std::string::npos)
      << Out;
}

TEST(ThreadedCTest, ParallelSequenceSpawnsTokens) {
  auto M = compileOpt(R"(
    int work(int n) { return n * 2; }
    int main() {
      int a; int b;
      {^
        a = work(1);
        b = work(2);
      ^}
      return a + b;
    }
  )");
  std::string Out = emitThreadedC(*M, *M->findFunction("main"));
  EXPECT_NE(Out.find("TOKEN(branch, SLOT("), std::string::npos) << Out;
  EXPECT_NE(Out.find("SYNC_JOIN(SLOT("), std::string::npos) << Out;
}

TEST(ThreadedCTest, PlacedCallsBecomeInvokes) {
  auto M = compileOpt(R"(
    struct node { int v; };
    int probe(node *p) { return p->v; }
    int main() {
      node *x;
      x = pmalloc(sizeof(node))@node(0);
      x->v = 1;
      return probe(x)@OWNER_OF(x);
    }
  )");
  std::string Out = emitThreadedC(*M, *M->findFunction("main"));
  EXPECT_NE(Out.find("INVOKE(OWNER_OF(x), probe(x), &"), std::string::npos)
      << Out;
}

TEST(ThreadedCTest, ForallEmitsIterationTokens) {
  auto M = compileOpt(R"(
    struct node { int v; node *next; };
    int main() {
      shared int s;
      node *p; node *head;
      int r;
      head = pmalloc(sizeof(node))@node(0);
      head->v = 1;
      head->next = NULL;
      writeto(&s, 0);
      forall (p = head; p != NULL; p = p->next) {
        addto(&s, 1);
      }
      r = valueof(&s);
      return r;
    }
  )");
  std::string Out = emitThreadedC(*M, *M->findFunction("main"));
  EXPECT_NE(Out.find("TOKEN(iteration, SLOT("), std::string::npos) << Out;
  EXPECT_NE(Out.find("ADDTO_SYNC(&s, 1, WSYNC)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("VALUEOF_SYNC(&s, &"), std::string::npos)
      << Out;
}

TEST(ThreadedCTest, WholeModuleEmission) {
  auto M = compileOpt(DistanceSrc);
  std::string Out = emitThreadedC(*M);
  EXPECT_NE(Out.find("THREADED distance("), std::string::npos);
  EXPECT_NE(Out.find("END_THREADED()"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Differential and invariance suites: the bytecode-driven emitter against
// the frozen tree-walking reference and the checked-in goldens.
//===----------------------------------------------------------------------===//

/// Every workload x {Simple, Optimized}: per-function text and
/// thread/sync-slot counts must match the tree reference bit-for-bit.
TEST(ThreadedCDifferentialTest, MatchesTreeEmitterOnAllWorkloads) {
  for (const Workload &W : oldenWorkloads()) {
    for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
      CompileResult CR = compileWorkload(W, Mode);
      ASSERT_TRUE(CR.OK) << W.Name << ": " << CR.Messages;
      const Module &M = *CR.M;
      for (const auto &F : M.functions()) {
        ThreadedCInfo TreeInfo, BcInfo;
        std::string Tree = treeref::emit(*F, &TreeInfo);
        std::string Bc = emitThreadedC(M, *F, &BcInfo);
        EXPECT_EQ(Tree, Bc)
            << W.Name << " " << F->name()
            << (Mode == RunMode::Optimized ? " (optimized)" : " (simple)");
        EXPECT_EQ(TreeInfo.Threads, BcInfo.Threads)
            << W.Name << " " << F->name();
        EXPECT_EQ(TreeInfo.SyncSlots, BcInfo.SyncSlots)
            << W.Name << " " << F->name();
      }
    }
  }
}

std::string readGolden(const std::string &Name) {
  std::string Path = std::string(EARTHCC_GOLDEN_DIR) + "/threadedc/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing golden file " << Path
                         << " (regenerate with threadedc_dump)";
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Freshly emitted Threaded-C for every workload matches the checked-in
/// goldens (both modes). CI re-runs the same comparison via threadedc_dump.
TEST(ThreadedCDifferentialTest, MatchesCheckedInGoldens) {
  for (const Workload &W : oldenWorkloads()) {
    for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
      CompileResult CR = compileWorkload(W, Mode);
      ASSERT_TRUE(CR.OK) << W.Name << ": " << CR.Messages;
      const char *Suffix =
          Mode == RunMode::Optimized ? "_opt.tc" : "_simple.tc";
      EXPECT_EQ(readGolden(W.Name + Suffix), emitThreadedC(*CR.M))
          << W.Name << Suffix;
    }
  }
}

} // namespace

//===- frontend_test.cpp - Lexer/Parser/Simplify tests ---------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Simplify.h"
#include "simple/Printer.h"
#include "simple/Verifier.h"

#include <gtest/gtest.h>

using namespace earthcc;

namespace {

std::vector<Token> lex(const std::string &Src, DiagnosticsEngine &Diags) {
  Lexer L(Src, Diags);
  return L.lexAll();
}

std::unique_ptr<Module> compileOK(const std::string &Src) {
  DiagnosticsEngine Diags;
  auto M = compileToSimple(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  return M;
}

//===----------------------------------------------------------------------===//
// Lexer.
//===----------------------------------------------------------------------===//

TEST(LexerTest, BasicTokens) {
  DiagnosticsEngine Diags;
  auto Toks = lex("int x = p->next;", Diags);
  ASSERT_EQ(Toks.size(), 8u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokKind::Identifier);
  EXPECT_EQ(Toks[1].Text, "x");
  EXPECT_EQ(Toks[2].Kind, TokKind::Eq);
  EXPECT_EQ(Toks[3].Kind, TokKind::Identifier);
  EXPECT_EQ(Toks[4].Kind, TokKind::Arrow);
  EXPECT_EQ(Toks[5].Kind, TokKind::Identifier);
  EXPECT_EQ(Toks[6].Kind, TokKind::Semi);
  EXPECT_EQ(Toks[7].Kind, TokKind::Eof);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, ParallelSequenceBrackets) {
  DiagnosticsEngine Diags;
  auto Toks = lex("{^ x ^} { }", Diags);
  EXPECT_EQ(Toks[0].Kind, TokKind::LBraceCaret);
  EXPECT_EQ(Toks[2].Kind, TokKind::CaretRBrace);
  EXPECT_EQ(Toks[3].Kind, TokKind::LBrace);
  EXPECT_EQ(Toks[4].Kind, TokKind::RBrace);
}

TEST(LexerTest, NumbersAndComments) {
  DiagnosticsEngine Diags;
  auto Toks = lex("// line comment\n42 3.5 1e3 /* block\n */ 7", Diags);
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Kind, TokKind::IntLiteral);
  EXPECT_EQ(Toks[0].IntValue, 42);
  EXPECT_EQ(Toks[1].Kind, TokKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(Toks[1].DoubleValue, 3.5);
  EXPECT_EQ(Toks[2].Kind, TokKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(Toks[2].DoubleValue, 1000.0);
  EXPECT_EQ(Toks[3].IntValue, 7);
}

TEST(LexerTest, OperatorsAndLocations) {
  DiagnosticsEngine Diags;
  auto Toks = lex("<= >= == != && || @", Diags);
  EXPECT_EQ(Toks[0].Kind, TokKind::LessEq);
  EXPECT_EQ(Toks[1].Kind, TokKind::GreaterEq);
  EXPECT_EQ(Toks[2].Kind, TokKind::EqEq);
  EXPECT_EQ(Toks[3].Kind, TokKind::NotEq);
  EXPECT_EQ(Toks[4].Kind, TokKind::AmpAmp);
  EXPECT_EQ(Toks[5].Kind, TokKind::PipePipe);
  EXPECT_EQ(Toks[6].Kind, TokKind::At);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Col, 4u);
}

TEST(LexerTest, ReportsBadCharacters) {
  DiagnosticsEngine Diags;
  lex("int $x;", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, UnterminatedComment) {
  DiagnosticsEngine Diags;
  lex("/* never closed", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

// strtoll saturates out-of-range literals to LLONG_MAX without setting an
// error token, so the lexer must check errno itself — otherwise the
// program runs with a silently wrong constant.
TEST(LexerTest, IntLiteralOutOfRangeIsAnError) {
  DiagnosticsEngine Diags;
  lex("x = 99999999999999999999;", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("out of range"), std::string::npos)
      << Diags.str();
  EXPECT_NE(Diags.str().find("99999999999999999999"), std::string::npos)
      << Diags.str();
}

TEST(LexerTest, IntLiteralBoundary) {
  // INT64_MAX itself lexes fine...
  DiagnosticsEngine Diags;
  auto Toks = lex("9223372036854775807", Diags);
  ASSERT_EQ(Toks.size(), 2u); // literal + EOF
  EXPECT_EQ(Toks[0].Kind, TokKind::IntLiteral);
  EXPECT_EQ(Toks[0].IntValue, INT64_MAX);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();

  // ...but one past it is the first out-of-range value.
  DiagnosticsEngine Overflow;
  lex("9223372036854775808", Overflow);
  EXPECT_TRUE(Overflow.hasErrors());
}

//===----------------------------------------------------------------------===//
// Parser.
//===----------------------------------------------------------------------===//

TEST(ParserTest, StructAndFunction) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int value; struct node *next; };\n"
               "int count(struct node *head) { return 0; }",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Unit.Structs.size(), 1u);
  EXPECT_EQ(Unit.Structs[0].Fields.size(), 2u);
  ASSERT_EQ(Unit.Functions.size(), 1u);
  EXPECT_EQ(Unit.Functions[0].Params.size(), 1u);
}

TEST(ParserTest, BareStructNameAsType) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; };\n"
               "int f(node *p) { node *q; q = p; return q->v; }",
               Diags),
           Diags);
  P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, LocalQualifierPlacement) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; };\n"
               "int f(node local *p, node *local q) { return 0; }",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Unit.Functions[0].Params.size(), 2u);
  EXPECT_TRUE(Unit.Functions[0].Params[0].Type.LocalQual);
  EXPECT_TRUE(Unit.Functions[0].Params[1].Type.LocalQual);
}

TEST(ParserTest, CallPlacementAnnotations) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; };\n"
               "int g(node *p) { return 0; }\n"
               "void f(node *p) {\n"
               "  int a, b, c;\n"
               "  a = g(p)@OWNER_OF(p);\n"
               "  b = g(p)@node(3);\n"
               "  c = g(p)@HOME;\n"
               "}",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, ForallAndParallelBlocks) {
  DiagnosticsEngine Diags;
  Parser P(lex("struct node { int v; struct node *next; };\n"
               "void f(node *head) {\n"
               "  node *p;\n"
               "  forall (p = head; p != NULL; p = p->next) {\n"
               "    int x; x = p->v;\n"
               "  }\n"
               "  {^ f(head); f(head); ^}\n"
               "}",
               Diags),
           Diags);
  auto Unit = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, SwitchWithBreaks) {
  DiagnosticsEngine Diags;
  Parser P(lex("int f(int q) {\n"
               "  int r;\n"
               "  switch (q) {\n"
               "  case 0: r = 1; break;\n"
               "  case 1: r = 2; break;\n"
               "  default: r = 3; break;\n"
               "  }\n"
               "  return r;\n"
               "}",
               Diags),
           Diags);
  P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

TEST(ParserTest, RecoversFromErrors) {
  DiagnosticsEngine Diags;
  Parser P(lex("int f() { return 0 }\nint g() { return 1; }", Diags), Diags);
  auto Unit = P.parseUnit();
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Unit.Functions.size(), 2u); // Both functions still parsed.
}

//===----------------------------------------------------------------------===//
// Simplify: lowering into SIMPLE three-address form.
//===----------------------------------------------------------------------===//

/// The paper's Figure 3(a): every indirect reference must become its own
/// basic statement with at most one remote read.
TEST(SimplifyTest, DistanceBecomesThreeAddress) {
  auto M = compileOK(R"(
    struct Point { double x; double y; };
    double distance(Point *p) {
      double dist_p;
      dist_p = sqrt((p->x * p->x) + (p->y * p->y));
      return dist_p;
    }
  )");
  Function *F = M->findFunction("distance");
  ASSERT_NE(F, nullptr);

  int RemoteReads = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (A->isRemoteRead())
        ++RemoteReads;
  });
  // Four loads of p->x / p->y, exactly as the paper's Figure 3(b).
  EXPECT_EQ(RemoteReads, 4);
}

TEST(SimplifyTest, LocalQualifierSuppressesRemote) {
  auto M = compileOK(R"(
    struct Point { double x; double y; };
    double get(Point local *p) {
      double v;
      v = p->x;
      return v;
    }
  )");
  Function *F = M->findFunction("get");
  int RemoteReads = 0, LocalReads = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S)) {
      if (const auto *L = dynCast<LoadRV>(A->R.get())) {
        if (L->isRemote())
          ++RemoteReads;
        else
          ++LocalReads;
      }
    }
  });
  EXPECT_EQ(RemoteReads, 0);
  EXPECT_EQ(LocalReads, 1);
}

TEST(SimplifyTest, NestedStructOffsets) {
  auto M = compileOK(R"(
    struct D { double P; double Q; };
    struct branch { double R; D d; double alpha; };
    double f(branch *br) {
      double v;
      v = br->d.Q;
      return v;
    }
  )");
  Function *F = M->findFunction("f");
  const LoadRV *Load = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (const auto *L = dynCast<LoadRV>(A->R.get()))
        Load = L;
  });
  ASSERT_NE(Load, nullptr);
  EXPECT_EQ(Load->OffsetWords, 2u); // R at 0, d.P at 1, d.Q at 2.
  EXPECT_EQ(Load->FieldName, "d.Q");
}

TEST(SimplifyTest, ChainedArrowsSplit) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int f(node *p) {
      int x;
      x = p->next->next->v;
      return x;
    }
  )");
  Function *F = M->findFunction("f");
  int Loads = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (dynCast<LoadRV>(A->R.get()))
        ++Loads;
  });
  EXPECT_EQ(Loads, 3); // next, next, v — one indirection per statement.
}

TEST(SimplifyTest, ShortCircuitAnd) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int f(node *p) {
      int r;
      r = 0;
      if (p != NULL && p->v > 3) {
        r = 1;
      }
      return r;
    }
  )");
  // The load p->v must be guarded by the null check: it must appear inside
  // an IfStmt, not before it.
  Function *F = M->findFunction("f");
  bool LoadInsideIf = false;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *If = dynCastStmt<IfStmt>(&S)) {
      forEachStmt(*If->Then, [&](const Stmt &Inner) {
        if (const auto *A = dynCastStmt<AssignStmt>(&Inner))
          if (dynCast<LoadRV>(A->R.get()))
            LoadInsideIf = true;
      });
    }
  });
  EXPECT_TRUE(LoadInsideIf);
}

TEST(SimplifyTest, WhileWithComplexCondition) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int sum(node *p) {
      int s;
      s = 0;
      while (p != NULL) {
        s = s + p->v;
        p = p->next;
      }
      return s;
    }
  )");
  Function *F = M->findFunction("sum");
  // The loop condition `p != NULL` is simple: it must remain a While cond.
  const WhileStmt *W = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *WS = dynCastStmt<WhileStmt>(&S))
      W = WS;
  });
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->Cond->kind(), RValueKind::Binary);
}

TEST(SimplifyTest, SharedCounterViaAtomics) {
  auto M = compileOK(R"(
    struct node { int value; struct node *next; };
    int count(node *head, node *x) {
      shared int cnt;
      node *p;
      int v;
      writeto(&cnt, 0);
      forall (p = head; p != NULL; p = p->next) {
        if (p->value == 7) {
          addto(&cnt, 1);
        }
      }
      v = valueof(&cnt);
      return v;
    }
  )");
  Function *F = M->findFunction("count");
  int Atomics = 0;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (S.kind() == StmtKind::Atomic)
      ++Atomics;
  });
  EXPECT_EQ(Atomics, 3);
}

TEST(SimplifyTest, PMallocTakesTargetType) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    node *make(int where) {
      node *p;
      p = pmalloc(sizeof(node))@node(where);
      p->v = 0;
      p->next = NULL;
      return p;
    }
  )");
  Function *F = M->findFunction("make");
  const CallStmt *Call = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *C = dynCastStmt<CallStmt>(&S))
      Call = C;
  });
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->Intrin, Intrinsic::PMalloc);
  ASSERT_NE(Call->Result, nullptr);
  EXPECT_TRUE(Call->Result->type()->isPointer());
  EXPECT_EQ(Call->Placement, CallPlacement::AtNode);
  ASSERT_EQ(Call->Args.size(), 1u);
  ASSERT_TRUE(Call->Args[0].isConst());
  EXPECT_EQ(Call->Args[0].getConst().I, 2);
}

TEST(SimplifyTest, ParallelSequenceLowersToParSeq) {
  auto M = compileOK(R"(
    struct node { int v; struct node *next; };
    int work(node *p) { return 1; }
    int f(node *head, node *x) {
      int c1, c2;
      {^
        c1 = work(head)@OWNER_OF(x);
        c2 = f(head, x);
      ^}
      return c1 + c2;
    }
  )");
  Function *F = M->findFunction("f");
  const SeqStmt *Par = nullptr;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *Seq = dynCastStmt<SeqStmt>(&S))
      if (Seq->Parallel)
        Par = Seq;
  });
  ASSERT_NE(Par, nullptr);
  EXPECT_EQ(Par->size(), 2u);
}

TEST(SimplifyTest, ForLoopLowersToWhile) {
  auto M = compileOK(R"(
    int f(int n) {
      int i, s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        s = s + i;
      }
      return s;
    }
  )");
  Function *F = M->findFunction("f");
  bool HasWhile = false;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (S.kind() == StmtKind::While)
      HasWhile = true;
  });
  EXPECT_TRUE(HasWhile);
}

TEST(SimplifyTest, IntDoublePromotion) {
  auto M = compileOK(R"(
    double f(int a, double b) {
      double r;
      r = a + b;
      return r;
    }
  )");
  Function *F = M->findFunction("f");
  bool HasConversion = false;
  forEachStmt(F->body(), [&](const Stmt &S) {
    if (const auto *A = dynCastStmt<AssignStmt>(&S))
      if (const auto *U = dynCast<UnaryRV>(A->R.get()))
        if (U->Op == UnaryOp::IntToDouble)
          HasConversion = true;
  });
  EXPECT_TRUE(HasConversion);
}

TEST(SimplifyTest, ConstantFoldingAtInt64Boundaries) {
  // Compile-time folds must match the engines' defined semantics: unary
  // minus wraps (interp::wrapSub) and double->int saturates with NaN -> 0
  // (interp::doubleToIntSat). The bare `-I` / `static_cast<int64_t>(D)`
  // folds were UB on exactly these boundary literals — under UBSan this
  // test trapped before the folds were routed through the helpers.
  auto M = compileOK(R"(
    int main() {
      int hi; int lo; int edge;
      hi = 1e300;
      lo = -1e300;
      edge = -9223372036854775807;
      return hi + lo + edge;
    }
  )");
  std::string IR = printModule(*M);
  // 1e300 saturates to INT64_MAX; -1e300 (folded through the double Neg
  // first) saturates to INT64_MIN.
  EXPECT_NE(IR.find("= 9223372036854775807"), std::string::npos) << IR;
  EXPECT_NE(IR.find("= -9223372036854775808"), std::string::npos) << IR;
  EXPECT_NE(IR.find("= -9223372036854775807"), std::string::npos) << IR;
}

//===----------------------------------------------------------------------===//
// Semantic errors.
//===----------------------------------------------------------------------===//

TEST(SemaErrorTest, UndeclaredIdentifier) {
  DiagnosticsEngine Diags;
  compileToSimple("int f() { return missing; }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, UnknownField) {
  DiagnosticsEngine Diags;
  compileToSimple("struct node { int v; };\n"
                  "int f(node *p) { return p->w; }",
                  Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, SharedNeedsAtomics) {
  DiagnosticsEngine Diags;
  compileToSimple("int f() { shared int s; s = 3; return 0; }", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, WrongArgCount) {
  DiagnosticsEngine Diags;
  compileToSimple("int g(int a, int b) { return a; }\n"
                  "int f() { return g(1); }",
                  Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, PointerArithmeticRejected) {
  DiagnosticsEngine Diags;
  compileToSimple("struct node { int v; };\n"
                  "int f(node *p, node *q) { return p < q; }",
                  Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SemaErrorTest, StructSelfContainmentRejected) {
  DiagnosticsEngine Diags;
  compileToSimple("struct node { node inner; };", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Nesting limit: input nested past MaxNestingDepth gets one located
// diagnostic instead of exhausting the stack.
//===----------------------------------------------------------------------===//

/// \p Body wrapped in a function with an int local `x`.
std::string inMain(const std::string &Body) {
  return "int main() { int x; x = 0;\n" + Body + "\nreturn x; }";
}

std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (unsigned I = 0; I != N; ++I)
    Out += S;
  return Out;
}

void expectTooDeep(const std::string &Src) {
  DiagnosticsEngine Diags;
  compileToSimple(Src, Diags);
  ASSERT_EQ(Diags.errorCount(), 1u) << Diags.str().substr(0, 500);
  const Diagnostic &D = Diags.all().front();
  EXPECT_NE(D.Message.find("nesting too deep"), std::string::npos)
      << D.Message;
  EXPECT_NE(D.Message.find(std::to_string(MaxNestingDepth)),
            std::string::npos)
      << D.Message;
  EXPECT_EQ(D.Loc.Line, 2u) << D.str();
  EXPECT_GT(D.Loc.Col, 1u) << D.str();
}

TEST(NestingLimitTest, DeepIfNesting) {
  expectTooDeep(inMain(repeat("if (x) ", 5000) + "x = 1;"));
}

TEST(NestingLimitTest, DeepParentheses) {
  expectTooDeep(
      inMain("x = " + repeat("(", 20000) + "1" + repeat(")", 20000) + ";"));
}

TEST(NestingLimitTest, LongUnaryChain) {
  expectTooDeep(inMain("x = " + repeat("- ", 50000) + "1;"));
}

TEST(NestingLimitTest, LongElseIfChain) {
  std::string Chain = "if (x == 0) x = 1;";
  for (unsigned I = 1; I != 5000; ++I)
    Chain += " else if (x == " + std::to_string(I) + ") x = 1;";
  expectTooDeep(inMain(Chain));
}

TEST(NestingLimitTest, LongBinaryChain) {
  expectTooDeep(inMain("x = 1" + repeat(" + 1", 99999) + ";"));
}

TEST(NestingLimitTest, C99MinimumsStillCompile) {
  // 127 nested blocks and 63 nested parentheses, each well inside the limit.
  compileOK(inMain(repeat("{ ", 127) + "x = 1;" + repeat(" }", 127)));
  compileOK(inMain("x = " + repeat("(", 63) + "1" + repeat(")", 63) + ";"));
  compileOK(inMain("x = 1" + repeat(" + 1", 200) + ";"));
}

} // namespace

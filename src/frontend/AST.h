//===- AST.h - Abstract syntax of the EARTH-C dialect -----------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parse tree produced by the Parser and consumed by the Simplify
/// lowering. It mirrors source syntax (nested expressions, for loops,
/// parallel blocks) before three-address simplification.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_FRONTEND_AST_H
#define EARTHCC_FRONTEND_AST_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace earthcc {
namespace ast {

//===----------------------------------------------------------------------===//
// Types (syntactic).
//===----------------------------------------------------------------------===//

/// A source-level type: base type + pointer depth + qualifiers.
struct TypeSpec {
  enum class Base { Int, Double, Void, Struct } BaseKind = Base::Int;
  std::string StructName; ///< For Base::Struct.
  unsigned PointerDepth = 0;
  bool LocalQual = false;  ///< `local` pointer qualifier.
  bool SharedQual = false; ///< `shared` storage qualifier.
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Expressions.
//===----------------------------------------------------------------------===//

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression node; a closed variant (Kind + per-kind fields) keeps the AST
/// small and easy to pattern-match in the lowering.
struct Expr {
  enum class Kind {
    IntLit,    ///< 42 (also NULL, lowered as 0)
    DoubleLit, ///< 3.14
    Ident,     ///< x
    Unary,     ///< -e, !e
    Binary,    ///< e1 op e2 (arith / compare / && / ||)
    Deref,     ///< *e
    AddrOf,    ///< &e
    Member,    ///< e.f or e->f (IsArrow distinguishes)
    Call,      ///< f(args) with optional @placement
    SizeOf     ///< sizeof(struct X) — size in machine words
  };

  /// Binary operator spellings (comparisons and logicals included).
  enum class BinOp {
    Add, Sub, Mul, Div, Rem,
    Lt, Le, Gt, Ge, Eq, Ne,
    LAnd, LOr
  };
  enum class UnOp { Neg, Not };

  /// Placement annotation on a call.
  enum class PlaceKind { None, OwnerOf, AtNode, Home };

  Kind K;
  SourceLoc Loc;

  // Literals.
  int64_t IntValue = 0;
  double DoubleValue = 0.0;

  // Ident / Member field / Call callee / SizeOf struct name.
  std::string Name;

  // Unary/Binary/Deref/AddrOf/Member operands.
  UnOp UOp = UnOp::Neg;
  BinOp BOp = BinOp::Add;
  ExprPtr Lhs; ///< Also the sole operand of unary forms and Member base.
  ExprPtr Rhs;

  // Member.
  bool IsArrow = false;

  // Call.
  std::vector<ExprPtr> Args;
  PlaceKind Place = PlaceKind::None;
  ExprPtr PlaceArg;

  /// Height of the tree rooted here (1 for a leaf). The parser bounds it by
  /// MaxNestingDepth, so every later recursive walk has a bounded depth.
  unsigned Height = 1;

  explicit Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}
};

//===----------------------------------------------------------------------===//
// Statements.
//===----------------------------------------------------------------------===//

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// A local variable declaration (possibly with an initializer).
struct VarDecl {
  TypeSpec Type;
  std::string Name;
  ExprPtr Init; ///< May be null.
  SourceLoc Loc;
};

struct Stmt {
  enum class Kind {
    Block,    ///< { ... } — sequential
    ParBlock, ///< {^ ... ^} — parallel sequence
    Decl,
    ExprStmt, ///< call-expression used as a statement
    Assign,   ///< lvalue = expr
    If,
    While,
    DoWhile,
    For,
    Forall,
    Switch,
    Return
  };

  Kind K;
  SourceLoc Loc;

  // Block / ParBlock.
  std::vector<StmtPtr> Body;

  // Decl.
  std::vector<VarDecl> Decls;

  // ExprStmt / Assign / Return (value) / condition holders.
  ExprPtr Lhs;  ///< Assign target; If/While/DoWhile/Switch condition; Return value.
  ExprPtr Rhs;  ///< Assign source; ExprStmt expression.

  // If.
  StmtPtr Then;
  StmtPtr Else; ///< May be null.

  // While / DoWhile / For / Forall body.
  StmtPtr LoopBody;

  // For / Forall: init and step are full statements (assignments).
  StmtPtr Init;
  StmtPtr Step;
  ExprPtr Cond;

  // Switch.
  struct SwitchCase {
    int64_t Value = 0;
    bool IsDefault = false;
    std::vector<StmtPtr> Body;
  };
  std::vector<SwitchCase> Cases;

  explicit Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}
};

//===----------------------------------------------------------------------===//
// Top-level declarations.
//===----------------------------------------------------------------------===//

struct FieldDecl {
  TypeSpec Type;
  std::string Name;
  SourceLoc Loc;
};

struct StructDecl {
  std::string Name;
  std::vector<FieldDecl> Fields;
  SourceLoc Loc;
};

struct ParamDecl {
  TypeSpec Type;
  std::string Name;
  SourceLoc Loc;
};

struct FuncDecl {
  TypeSpec ReturnType;
  std::string Name;
  std::vector<ParamDecl> Params;
  StmtPtr Body; ///< Null for a prototype.
  SourceLoc Loc;
};

struct GlobalDecl {
  VarDecl Decl;
};

/// One parsed translation unit.
struct TranslationUnit {
  std::vector<StructDecl> Structs;
  std::vector<FuncDecl> Functions;
  std::vector<GlobalDecl> Globals;
};

} // namespace ast
} // namespace earthcc

#endif // EARTHCC_FRONTEND_AST_H

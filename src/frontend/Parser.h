//===- Parser.h - Recursive-descent parser for EARTH-C ----------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_FRONTEND_PARSER_H
#define EARTHCC_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <set>
#include <vector>

namespace earthcc {

/// The deepest nesting the parser accepts, counted two ways: recursion
/// depth (nested statements, parenthesized sub-expressions, unary
/// operators) and expression tree height (which also covers left-deep
/// binary chains, built by a loop). Deeper input is rejected with a located
/// diagnostic instead of exhausting the stack here or in a later recursive
/// pass. C99 only requires 127 nested blocks and 63 nested parentheses.
constexpr unsigned MaxNestingDepth = 256;

/// Parses a token stream into an ast::TranslationUnit.
///
/// The parser tracks declared struct tags so that a bare identifier can be
/// used as a type name once its struct is declared (a lightweight stand-in
/// for C typedefs, matching how the Olden sources read).
class Parser {
public:
  Parser(std::vector<Token> Tokens, DiagnosticsEngine &Diags);

  /// Parses the whole unit. On errors, diagnostics are recorded and a
  /// best-effort AST is returned; callers must check Diags.hasErrors().
  ast::TranslationUnit parseUnit();

private:
  // Token stream helpers.
  const Token &cur() const { return Tokens[Pos]; }
  const Token &peek(unsigned Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  Token consume() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }
  bool check(TokKind K) const { return cur().is(K); }
  bool accept(TokKind K);
  bool expect(TokKind K, const char *Context);
  void syncToStmtBoundary();
  /// Reports an error unless the parse was abandoned (see abandon()).
  void error(SourceLoc Loc, const std::string &Message);

  // Nesting limits (MaxNestingDepth).
  /// Reports nesting deeper than the limit at \p Loc, then skips to the end
  /// of input so the parse unwinds without further diagnostics.
  void abandon(SourceLoc Loc);
  /// Counts one level of parser recursion for the enclosing scope.
  class NestingScope {
  public:
    explicit NestingScope(Parser &P);
    ~NestingScope() { --P.Depth; }
    /// True when this level exceeds the limit (the parse is abandoned).
    bool tooDeep() const { return P.Abandoned; }

  private:
    Parser &P;
  };
  /// Sets \p E's Height from its operands, abandoning the parse when it
  /// exceeds the limit.
  ast::ExprPtr withHeight(ast::ExprPtr E);
  ast::ExprPtr makeBinary(ast::Expr::BinOp Op, SourceLoc Loc, ast::ExprPtr L,
                          ast::ExprPtr R);
  ast::ExprPtr makeUnary(ast::Expr::Kind K, SourceLoc Loc, ast::ExprPtr E);

  // Type parsing.
  bool startsTypeSpec() const;
  ast::TypeSpec parseTypeSpec();

  // Declarations.
  void parseTopLevel(ast::TranslationUnit &Unit);
  ast::StructDecl parseStructDecl();
  void parseFunctionOrGlobal(ast::TranslationUnit &Unit);

  // Statements.
  ast::StmtPtr parseStmt();
  ast::StmtPtr parseBlock(bool Parallel);
  ast::StmtPtr parseIf();
  ast::StmtPtr parseWhile();
  ast::StmtPtr parseDoWhile();
  ast::StmtPtr parseForOrForall(bool Parallel);
  ast::StmtPtr parseSwitch();
  ast::StmtPtr parseReturn();
  ast::StmtPtr parseDeclStmt();
  ast::StmtPtr parseExprOrAssign();
  ast::StmtPtr parseSimpleStmtNoSemi(); ///< For for-loop init/step clauses.

  // Expressions.
  ast::ExprPtr parseExpr();
  ast::ExprPtr parseLOr();
  ast::ExprPtr parseLAnd();
  ast::ExprPtr parseEquality();
  ast::ExprPtr parseRelational();
  ast::ExprPtr parseAdditive();
  ast::ExprPtr parseMultiplicative();
  ast::ExprPtr parseUnary();
  ast::ExprPtr parsePostfix();
  ast::ExprPtr parsePrimary();

  std::vector<Token> Tokens;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  std::set<std::string> StructNames;
  unsigned Depth = 0;     ///< Current recursion depth (NestingScope).
  bool Abandoned = false; ///< Nesting limit hit; the rest is skipped.
};

} // namespace earthcc

#endif // EARTHCC_FRONTEND_PARSER_H

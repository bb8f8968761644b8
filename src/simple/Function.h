//===- Function.h - SIMPLE functions and modules ----------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function and Module: ownership roots of the SIMPLE IR. A Function owns
/// its variables and its (structured) body; a Module owns its functions,
/// global variables, and type context.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SIMPLE_FUNCTION_H
#define EARTHCC_SIMPLE_FUNCTION_H

#include "simple/Stmt.h"

#include <memory>
#include <string>
#include <vector>

namespace earthcc {

/// A SIMPLE function: parameters, owned local variables, and a structured
/// body. Every variable referenced by the body is owned here (or is a
/// module-level global/shared variable).
class Function {
public:
  Function(std::string Name, const Type *RetTy)
      : Name(std::move(Name)), RetTy(RetTy),
        Body(std::make_unique<SeqStmt>()) {}

  const std::string &name() const { return Name; }
  const Type *returnType() const { return RetTy; }

  const std::vector<Var *> &params() const { return Params; }
  SeqStmt &body() { return *Body; }
  const SeqStmt &body() const { return *Body; }
  void setBody(std::unique_ptr<SeqStmt> NewBody) { Body = std::move(NewBody); }

  /// Creates a parameter (in declaration order).
  Var *addParam(const std::string &ParamName, const Type *Ty);

  /// Creates a named local variable. \p Kind may be VarKind::Local or
  /// VarKind::Shared (EARTH-C allows function-scope shared variables, as in
  /// the paper's Figure 1(a)).
  Var *addLocal(const std::string &LocalName, const Type *Ty,
                VarKind Kind = VarKind::Local);

  /// Creates a compiler temporary ("tempN" by default).
  Var *addTemp(const Type *Ty, VarKind Kind = VarKind::Temp);

  /// All variables owned by this function, in creation order.
  const std::vector<std::unique_ptr<Var>> &vars() const { return Vars; }

  /// Finds a param/local by name (not temps), or nullptr.
  Var *findVar(const std::string &VarName) const;

  /// Assigns fresh sequential labels (1, 2, ...) to every statement in the
  /// body, pre-order. Returns the number of statements labeled.
  int relabel();

  /// Finds the statement with label \p L, or nullptr.
  Stmt *findStmt(int L);

private:
  std::string Name;
  const Type *RetTy;
  std::vector<Var *> Params;
  std::vector<std::unique_ptr<Var>> Vars;
  std::unique_ptr<SeqStmt> Body;
  unsigned NextVarId = 0;
  unsigned NextTempNum = 1;
  unsigned NextCommNum = 1;
  unsigned NextBlockNum = 1;
};

/// A whole EARTH-C translation unit in SIMPLE form.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  TypeContext &types() { return Types; }
  const TypeContext &types() const { return Types; }

  /// Creates a function; names are unique (returns nullptr on collision).
  Function *createFunction(const std::string &Name, const Type *RetTy);

  Function *findFunction(const std::string &Name) const;

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }

  /// Creates a module-level variable (VarKind::Global or VarKind::Shared).
  Var *addGlobal(const std::string &Name, const Type *Ty, VarKind Kind);

  Var *findGlobal(const std::string &Name) const;
  const std::vector<std::unique_ptr<Var>> &globals() const { return Globals; }

  /// Opaque per-module cache slot for execution-engine artifacts (the
  /// lowered bytecode form). Owned by the module so the cache can never
  /// outlive it or alias another module; mutable so lowering can memoize
  /// behind a const reference. Typed void to keep the IR layer independent
  /// of the interpreter. Mutating transform entry points must call
  /// invalidateExecCache() so stale bytecode can never run after the IR
  /// changes.
  std::shared_ptr<void> &execCache() const { return ExecCache; }

  /// Drops any memoized execution-engine artifact. Must be called by every
  /// transform that mutates the IR, so a lowering performed earlier cannot
  /// silently diverge from the code that would execute. This covers the
  /// Switch tables and Call/shared-cell inline caches too — they live
  /// inside the cached BytecodeModule, so resetting the slot drops them
  /// atomically with the code.
  void invalidateExecCache() const { ExecCache.reset(); }

private:
  TypeContext Types;
  std::vector<std::unique_ptr<Function>> Funcs;
  std::vector<std::unique_ptr<Var>> Globals;
  mutable std::shared_ptr<void> ExecCache;
  unsigned NextGlobalId = 1u << 20; ///< Disjoint from function-local ids.
};

} // namespace earthcc

#endif // EARTHCC_SIMPLE_FUNCTION_H

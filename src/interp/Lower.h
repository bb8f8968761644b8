//===- Lower.h - SIMPLE -> bytecode lowering --------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-time lowering pass from the structured SIMPLE IR to the flat
/// bytecode the simulator's default engine executes. Lowering is pure
/// (the module is not modified) and deterministic; the emitted stream obeys
/// the one-instruction-per-step invariant documented in Bytecode.h.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_INTERP_LOWER_H
#define EARTHCC_INTERP_LOWER_H

#include "interp/Bytecode.h"

namespace earthcc {

/// Lowers every function of \p M into a fresh BytecodeModule.
std::shared_ptr<const BytecodeModule> lowerModule(const Module &M);

/// Returns \p M's lowered form, lowering on first use and memoizing in the
/// module's execution cache — so compile-once/run-many harnesses lower
/// exactly once no matter how many times they run the module.
const BytecodeModule &getOrLowerBytecode(const Module &M);

} // namespace earthcc

#endif // EARTHCC_INTERP_LOWER_H

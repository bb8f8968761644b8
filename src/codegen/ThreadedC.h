//===- ThreadedC.h - Threaded-C code emission -------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase III of the EARTH-McCAT pipeline: lowering optimized SIMPLE into
/// Threaded-C, the explicitly-threaded C dialect of the EARTH runtime.
/// This emitter produces the textual Threaded-C program:
///
///  - every split-phase operation becomes an EARTH primitive with an
///    explicit sync slot (`GET_SYNC_L`, `DATA_SYNC_L`, `BLKMOV_SYNC`);
///  - fibers are split at synchronization points: a statement that *uses*
///    the result of an outstanding split-phase operation starts a new
///    thread (`THREAD_n:`) guarded by the slot's sync count, which is how
///    EARTH overlaps communication with computation;
///  - parallel sequences and forall loops become TOKEN spawns plus a join
///    slot; placed calls become INVOKE tokens.
///
/// The emitter consumes the *flat bytecode stream* the simulator executes
/// (interp/Lower.cpp), not the SIMPLE statement tree: construct structure is
/// decoded from the BcCtor-tagged Enter instructions and the patched jump
/// targets, and sync-slot numbering, frame-slot layout, and dead-label
/// facts come from the shared backend view (interp/BackendView.h). The
/// bytecode is therefore the single source of truth for slot numbering —
/// the engines and every backend agree by construction.
///
/// The earthcc execution path interprets the same bytecode on the simulator
/// (see DESIGN.md), so this emitter is a faithful *presentation* of Phase
/// III rather than a second execution engine; tests pin down the thread
/// partitioning and the slot discipline.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_CODEGEN_THREADEDC_H
#define EARTHCC_CODEGEN_THREADEDC_H

#include "interp/Lower.h"

#include <string>

namespace earthcc {

/// Statistics of one function's lowering.
struct ThreadedCInfo {
  unsigned Threads = 0;   ///< Fibers the body was partitioned into.
  unsigned SyncSlots = 0; ///< Sync slots allocated.
};

/// Emits Threaded-C for one lowered function. \p Info (optional) receives
/// counts.
std::string emitThreadedC(const BytecodeModule &BM, const BytecodeFunction &BF,
                          ThreadedCInfo *Info = nullptr);

/// Convenience overload: lowers \p M on first use (memoized on the module's
/// execution cache) and emits \p F.
std::string emitThreadedC(const Module &M, const Function &F,
                          ThreadedCInfo *Info = nullptr);

/// Emits Threaded-C for a whole lowered module.
std::string emitThreadedC(const BytecodeModule &BM);

/// Convenience overload: lowers \p M on first use, then emits every function.
std::string emitThreadedC(const Module &M);

} // namespace earthcc

#endif // EARTHCC_CODEGEN_THREADEDC_H

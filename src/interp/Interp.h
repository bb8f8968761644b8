//===- Interp.h - Execute SIMPLE programs on simulated EARTH ----*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A discrete-event interpreter that runs SIMPLE programs on the simulated
/// EARTH-MANNA machine. Key modeling decisions (see DESIGN.md):
///
///  - *Split-phase remote operations with dataflow synchronization.* A
///    remote read charges its issue cost to the EU and marks the target
///    variable's slot available at the transaction's completion time
///    (issue + network + SU service + network). The fiber only blocks when
///    a statement *uses* a value that is not yet available — so programs
///    whose reads are hoisted overlap communication with computation, and
///    unoptimized programs pay the full sequential latency. This is
///    exactly the mechanism the paper's optimization exploits.
///
///  - *Fibers and non-preemptive EUs.* Parallel sequences and forall loops
///    spawn fibers; each node's EU runs one fiber until it blocks (EARTH
///    runs threads to completion), then switches (with a context-switch
///    cost) to the next ready fiber. Placed calls (@OWNER_OF, @node, @HOME)
///    migrate the calling fiber to the target node for the callee's
///    duration.
///
///  - *SU contention.* Each node's synchronization unit is a FIFO server;
///    its queue time is folded into each transaction's completion time.
///
///  - *Write synchronization.* Remote writes are fire-and-forget; their
///    completion times accumulate into the enclosing activation and a fiber
///    only settles (signals its parent) once its outstanding writes are
///    done, mirroring EARTH sync slots.
///
/// Memory effects are applied immediately (EARTH-C's non-interference rule
/// makes values independent of timing), so results are deterministic and
/// identical across node counts and optimization levels — which the test
/// suite checks.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_INTERP_INTERP_H
#define EARTHCC_INTERP_INTERP_H

#include "earth/Runtime.h"
#include "simple/Function.h"

#include <string>
#include <vector>

namespace earthcc {

/// Outcome of one simulated program run.
struct RunResult {
  bool OK = false;
  std::string Error;            ///< Set when OK is false.
  double TimeNs = 0.0;          ///< Completion time of the entry fiber.
  RtValue ExitValue;            ///< Entry function's return value.
  OpCounters Counters;
  std::vector<std::string> Output; ///< print() lines, in emission order.
  uint64_t StepsExecuted = 0;
  std::vector<size_t> WordsPerNode; ///< Heap words allocated per node.

  /// Always 0: the bytecode engine dispatches one instruction per step.
  /// Kept because the benchmark harness (perfbench/) reads it.
  uint64_t FusedSteps = 0;
};

/// Runs \p Entry (default "main") of \p M on a simulated machine described
/// by \p Config. \p Args supplies the entry function's parameters.
RunResult runProgram(const Module &M, const MachineConfig &Config,
                     const std::string &Entry = "main",
                     const std::vector<RtValue> &Args = {});

} // namespace earthcc

#endif // EARTHCC_INTERP_INTERP_H

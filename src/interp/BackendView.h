//===- BackendView.h - Backend-visible view of lowered bytecode -*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared lowering layer between the execution engines and the code
/// generators. Lower.cpp produces the executable facts (frame-slot layout,
/// flat instruction stream, pool tables); this view derives the facts a
/// *backend* additionally needs, so every consumer of the bytecode agrees on
/// them by construction instead of re-deriving them from the statement tree:
///
///  - **Sync-slot allocation.** Every split-phase instruction (remote load,
///    BlkMov, placed Call, atomic valueof, parallel/forall join) is assigned
///    a sync-slot number in *emission order* — the order a structured
///    backend walks the stream, with fiber-entry regions spliced in at their
///    spawn sites. Threaded-C's `SLOT(n)` numbers come from here.
///
///  - **Dead-label elimination.** A program point is a live label only if
///    some instruction actually jumps to it (a non-fallthrough EndSeq, a
///    branch/loop/switch target, or a fiber-region entry). Fallthrough
///    EndSeq targets and interior points need no label.
///
///  - **Presentation strings.** Field names and source-shaped text for
///    diagnostics-grade output (impure conditions, storage-less variables).
///    They are extracted from BcInsn::Src once, here, at view-build time —
///    the backend itself never touches the statement tree.
///
/// The view is a pure function of the lowered BytecodeFunction: building it
/// never mutates the module or the memoized bytecode cache.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_INTERP_BACKENDVIEW_H
#define EARTHCC_INTERP_BACKENDVIEW_H

#include "interp/Bytecode.h"

#include <string>
#include <vector>

namespace earthcc {

/// Backend-facing annotations over one lowered function's instruction
/// stream. Indexed by pc throughout.
struct BcBackendView {
  const BytecodeFunction *BF = nullptr;

  /// The frame-pop instruction terminating the main region. Every region's
  /// final EndSeq targets this pc (fiber regions re-use it as their exit).
  int32_t RetPC = -1;

  /// Sync slot assigned to the instruction at each pc, -1 when it needs
  /// none. Numbering is dense and in emission order (see file comment);
  /// ParSpawn and ForallInit carry their construct's join slot.
  std::vector<int32_t> SyncSlotAt;

  /// Total sync slots allocated.
  uint32_t SyncSlotCount = 0;

  /// 1 when the pc is a live jump target after dead-label elimination.
  std::vector<uint8_t> LiveLabel;

  /// Presentation facts a textual backend cannot reconstruct from the
  /// instruction fields alone, resolved from Src once at view-build time
  /// (the same diagnostics channel BcOperand::V serves for the engines).
  /// The Var pointers equal BcSlot::V whenever the corresponding slot has
  /// frame storage, and additionally cover storage-less variables (module
  /// globals) whose slot is -1.
  struct InsnNotes {
    const Var *AV = nullptr;   ///< RValue base (Load/FieldRead/AddrOfField),
                               ///< BlkMov pointer, or atomic shared variable.
    const Var *BV = nullptr;   ///< BlkMov local struct.
    const Var *DstV = nullptr; ///< LValue variable / call or atomic result.
    uint8_t RLoc = 0;  ///< Locality of a Load RValue. BcInsn::Loc carries the
                       ///< *store* locality when the LValue is indirect, so
                       ///< the load side is preserved here.
    std::string RField;     ///< Field name of a Load/FieldRead/AddrOfField.
    std::string LField;     ///< Field name of a Store/FieldWrite.
    std::string CondText;   ///< Printed condition when RK == BcBadCondRK
                            ///< (impure conditions carry no operands).
    std::string CalleeName; ///< Source-level callee name of a Call.
  };
  std::vector<InsnNotes> Notes;
};

/// Builds the backend view of \p BF (a function of \p BM's plain streams).
BcBackendView buildBackendView(const BytecodeModule &BM,
                               const BytecodeFunction &BF);

/// Structure-decode helper: the pc of the EndSeq that terminates the
/// sequence level starting at \p PC, skipping nested constructs. \p PC must
/// be the first instruction of a sequence level (e.g. the instruction after
/// an Enter).
int32_t bcSeqEnd(const BytecodeFunction &BF, int32_t PC);

/// Structure-decode helper: the first pc after the construct whose Enter
/// instruction is at \p EnterPC.
int32_t bcConstructEnd(const BytecodeFunction &BF, int32_t EnterPC);

} // namespace earthcc

#endif // EARTHCC_INTERP_BACKENDVIEW_H

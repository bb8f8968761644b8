//===- Request.h - Immutable compile/run request values ---------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The redesigned request surface of the driver. Historically the knobs
/// accreted across three places — PipelineOptions (inheriting the flat
/// CommOptions), MachineConfig, and ad-hoc environment overrides like
/// EARTHCC_DISPATCH — and every entry point (CLI, benches, tests, observers)
/// wired them by hand. This file collapses that surface into two plain
/// value types:
///
///  - CompileRequest: everything that determines the compiled artifact
///    (source text + phase toggles + communication-selection policy).
///  - RunRequest: everything that determines one simulated execution of a
///    compiled artifact (entry, args, machine shape, engine, cost model).
///
/// Both are hashable content: keyBytes() is a canonical, versioned
/// serialization of exactly the fields that can change the result, and
/// key() is its 64-bit FNV-1a hash. These are the *same bytes* the
/// CompileService hashes for its content-addressed artifact cache, so "two
/// requests collide in the cache" and "two requests are semantically
/// identical" are one property by construction. Host-only knobs
/// (RunRequest::Dispatch — bit-identical results at any setting) and
/// per-request instrumentation (RunRequest::Sink / Profiler — observe
/// without perturbing) are deliberately excluded from the key bytes.
///
/// The declarative option table (requestOptions()) maps every externally
/// settable knob — CLI flag, `--serve` JSON field, environment variable —
/// onto these requests through one shared setter per knob, so the
/// command-line driver and the service protocol cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_DRIVER_REQUEST_H
#define EARTHCC_DRIVER_REQUEST_H

#include "earth/Runtime.h"
#include "transform/CommSelection.h"

#include <string>
#include <string_view>
#include <vector>

namespace earthcc {

/// Everything that determines a compiled artifact. Treat as an immutable
/// value once built: fill the fields (directly or through the option
/// table), then pass by const reference; Pipeline and CompileService never
/// mutate a request.
struct CompileRequest {
  std::string Source;        ///< EARTH-C source text.
  bool Optimize = true;      ///< Run communication selection (Phase II).
  bool InferLocality = false; ///< Run locality inference first.
  CommOptions Comm;          ///< Communication-selection policy.

  /// The paper's "simple" program version: no communication optimization.
  static CompileRequest simple(std::string Source);
  /// The paper's "optimized" version: full communication selection.
  static CompileRequest optimized(std::string Source);

  /// Canonical, versioned serialization of every result-determining field.
  /// Equal bytes <=> semantically identical compile. This is the cache key
  /// the CompileService content-addresses artifacts by.
  std::string keyBytes() const;
  uint64_t key() const;      ///< FNV-1a 64 of keyBytes().
  std::string keyHex() const; ///< key() as 16 lowercase hex digits.
};

/// Everything that determines one simulated execution of a compiled
/// module. Defaults mirror MachineConfig (engine, dispatch, fuel, quantum,
/// cost model), with Nodes defaulting to the CLI's historical 4.
struct RunRequest {
  std::string Entry = "main";
  std::vector<RtValue> Args;  ///< Entry function arguments.
  unsigned Nodes = 4;         ///< Simulated machine size.
  bool Sequential = false;    ///< Sequential-C baseline (forces 1 node).
  ExecEngine Engine;          ///< Execution engine (default: bytecode;
                              ///< keyed: see keyBytes()).
  /// Bytecode inner-loop dispatch (computed goto vs portable switch).
  /// Host wall-clock knob with bit-identical results, so it is excluded
  /// from keyBytes(): the
  /// dispatch loop must never change which cached result a request maps
  /// to, and a request served on a portable build and a computed-goto
  /// build hits the same cache line.
  BcDispatch Dispatch;
  bool AllowNullReads;
  uint64_t MaxSteps;
  unsigned EUQuantum;
  CostModel Costs;
  /// Interconnect topology and the network-model parameters (see
  /// earth/NetworkModel.h). Unlike Engine/Dispatch these CHANGE
  /// simulated results — contention reorders completion times — so all of
  /// them are key material in keyBytes().
  Topology Topo;
  double NetHopNs;
  double NetLinkWordNs;
  /// Logical-index -> node mapping for `@node` placement. Changes which
  /// node owns each datum, hence simulated results; keyed.
  Distribution Dist;
  unsigned DistBlockSize;

  /// Per-request instrumentation. Observes the run without perturbing it,
  /// so both are excluded from keyBytes(): attaching a sink or profiler
  /// must never change which cached result a request maps to.
  TraceSink *Sink = nullptr;
  CommProfiler *Profiler = nullptr;

  RunRequest();

  /// This request as the interpreter's MachineConfig (Sink/Profiler are
  /// forwarded; Sequential forces one node).
  MachineConfig machine() const;

  /// Canonical serialization of the result-determining fields. Engine is
  /// keyed *conservatively*: simulated results are bit-identical across
  /// engines (the equivalence suite pins it), but the service treats
  /// "how was this computed" as part of the artifact's identity rather
  /// than relying on that theorem at cache-lookup time.
  std::string keyBytes() const;
  uint64_t key() const;
  std::string keyHex() const;
};

/// FNV-1a 64-bit over \p Bytes — the content hash behind request keys.
uint64_t hashKeyBytes(std::string_view Bytes);
std::string keyBytesToHex(uint64_t Key);

//===----------------------------------------------------------------------===//
// Declarative option table
//===----------------------------------------------------------------------===//

/// One externally settable knob: the CLI spells it `--name[=value]`, a
/// `--serve` JSON request spells it `"name": value`, and (when Env is set)
/// the environment spells it `ENV=value`. All three go through the same
/// Apply function, so the surfaces cannot drift.
struct RequestOption {
  const char *Name;  ///< Flag / JSON field name (no leading dashes).
  /// Help text for the value ("N", "on|off", "ast|bytecode"); nullptr for
  /// boolean knobs, which need no value on the CLI (implied "on") but
  /// still accept on|off / true|false everywhere.
  const char *Value;
  const char *Env;   ///< Environment override variable, or nullptr.
  const char *Help;
  /// Applies value \p V to the request pair. Returns false with \p Err set
  /// on a malformed value. An empty \p V means "flag present without a
  /// value" (booleans read it as "on").
  bool (*Apply)(CompileRequest &C, RunRequest &R, const std::string &V,
                std::string &Err);
};

/// The full table, in help order.
const std::vector<RequestOption> &requestOptions();

/// Applies one option by name. Returns false with \p Err set when the name
/// is unknown or the value malformed.
bool applyRequestOption(CompileRequest &C, RunRequest &R,
                        std::string_view Name, const std::string &Value,
                        std::string &Err);

/// Applies every environment override in the table (options whose Env
/// variable is set in the process environment). Returns false with \p Err
/// set on the first malformed value.
bool applyRequestEnv(CompileRequest &C, RunRequest &R, std::string &Err);

/// Parses "on"/"true"/"1"/"" as true and "off"/"false"/"0" as false.
bool parseOnOff(const std::string &V, bool &Out);

} // namespace earthcc

#endif // EARTHCC_DRIVER_REQUEST_H

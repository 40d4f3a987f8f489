// Structural fingerprint of a loop nest: the cache key of the staged
// compilation API.
//
// The whole analysis pipeline — dependence equations, PDM (Hermite form of
// the stacked distance lattices), Algorithm 1, Theorem 2 partitioning — is
// a function of the nest's *structure* only: depth plus the linear parts F
// and constant parts f0 of every array access, with statements and arrays
// identified positionally. Loop bounds never enter (the paper's analysis
// is unbounded; bounds reappear only at code generation and execution), so
// two nests that differ only in extent share one fingerprint and therefore
// one cached plan. Array *names* are canonicalized to first-appearance
// ordinals: renaming arrays preserves the dependence structure, so it
// preserves the fingerprint.
#pragma once

#include <cstdint>
#include <string>

#include "loopir/nest.h"

namespace vdep {

struct Fingerprint {
  /// FNV-1a of `key` — picks the cache shard and speeds up comparison.
  std::uint64_t hash = 0;
  /// Canonical structural description; the authoritative identity (cache
  /// lookups compare keys, never hashes alone, so a 64-bit collision can
  /// degrade sharing but never correctness).
  std::string key;

  bool operator==(const Fingerprint& o) const {
    return hash == o.hash && key == o.key;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

/// Fingerprints the structure of `nest` (bounds and array shapes excluded).
Fingerprint structural_fingerprint(const loopir::LoopNest& nest);

/// Canonical rendering of everything structural_fingerprint deliberately
/// ignores: the loop bounds (nest.to_string() renders loops and body) plus
/// the array shapes. fingerprint + bounds_render identifies a nest up to
/// execution equivalence of emitted and native code — it keys the
/// codegen, jit and executable memos of PlanArtifact.
std::string bounds_render(const loopir::LoopNest& nest);

}  // namespace vdep

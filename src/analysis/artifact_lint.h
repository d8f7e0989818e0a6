#pragma once

#include <string>
#include <string_view>

#include "analysis/diagnostics.h"
#include "common/result.h"

/// \file artifact_lint.h
/// Static validation of the library's binary artifacts from raw bytes —
/// no GeqoSystem, catalog, or model is needed, so a linter can gate files
/// before they ever reach the serving path. The linter owns no format
/// walker: it sniffs the magic (common/format_magic.h), runs the format's
/// one decoder — the same function the loader runs before binding — and
/// reports each decode error as a Diagnostic, so the linter and the loader
/// reach the same verdict on the same bytes. The decoders:
///
///   GEQOSNAP  DecodeSystemSnapshot (core/geqo_system.h): header,
///             calibration, GEQOMODL model state, checksum footer. Codes
///             snapshot.* / model.*.
///   GEQOCATG  serve::DecodeCatalogSegment (serve/equivalence_catalog.h):
///             header, canonical hashes, GEQOHNSW graph, union-find parents,
///             verifier memo, end magic, checksum footer. Codes catalog.* /
///             hnsw.*.
///   GEQOMODL  nn::DecodeState (nn/serialize.h). Codes model.*.
///   GEQOHNSW  ann::DecodeHnsw (ann/hnsw.h). Codes hnsw.*.
///   GEQOSHRD  serve::DecodeShardedSnapshot (serve/sharded_catalog.h):
///             header, per-entry shard ids, per-shard GEQOCATG segments,
///             pending-verification tail, end magic, checksum footer. Codes
///             sharded.* plus the per-segment catalog.* / hnsw.* codes.
///   GEQOMANI  serve::persist::DecodeManifest (serve/persist/manifest.h).
///             Codes manifest.*.
///   GEQOWALG  serve::persist::DecodeWal (serve/persist/wal.h): header then
///             FNV-1a-framed mutation records. Codes wal.*.
///
/// Two policies are the linter's own. A torn WAL tail (or a file shorter
/// than its header) is a finding — recovery truncates it, but a cleanly
/// closed store syncs its logs — while mid-log corruption is a decode
/// error. And a decoded state dict that announces the EMF trunk gets the
/// layer-graph shape proof (CheckEmfStateShapes), inside a system snapshot
/// against the input dim its agnostic layout implies. Codes emf.*.
///
/// Diagnostics carry byte-offset contexts ("offset 123") pointing at the
/// section that violated its invariant.

namespace geqo::analysis {

enum class ArtifactKind : uint8_t {
  kUnknown,
  kSystemSnapshot,
  kServingCatalog,
  kModelState,
  kHnswIndex,
  kShardedCatalog,
  kStoreManifest,
  kWalLog,
};

std::string_view ArtifactKindToString(ArtifactKind kind);

/// Identifies an artifact by its leading magic (8 bytes).
ArtifactKind SniffArtifact(std::string_view bytes);

/// Lints \p bytes as whichever artifact its magic announces. Unknown magic
/// is itself a finding (artifact.unknown-magic). Empty result = valid.
Diagnostics LintArtifactBytes(std::string_view bytes);

/// Reads and lints \p path; Status errors are I/O-level only (unreadable
/// file), all content problems come back as diagnostics.
Result<Diagnostics> LintArtifactFile(const std::string& path);

}  // namespace geqo::analysis

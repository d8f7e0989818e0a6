#pragma once

#include <cstdint>

/// \file format_magic.h
/// The magic numbers and format versions of every binary artifact the
/// library writes. Centralized so the writers (core, serve, nn, ann) and the
/// static artifact linter (analysis) agree on one definition per format —
/// a linter that re-declared these privately could silently drift.

namespace geqo::io {

/// Decoder sanity bounds shared by the formats below: a stored tensor or
/// embedding dimension beyond kMaxStoredDim is a corrupt length, not a real
/// model (the largest is ~10^7 scalars), and a shard count beyond
/// kMaxStoredShards is one ShardedCatalogOptions::Validate would refuse.
constexpr uint64_t kMaxStoredDim = uint64_t{1} << 24;
constexpr uint64_t kMaxStoredShards = 4096;

/// GeqoSystem snapshot ("GEQOSNAP"): header + calibration + model state,
/// followed by a whole-payload FNV-1a checksum footer (since v2).
constexpr uint64_t kSystemSnapshotMagic = 0x4745514f534e4150ULL;
constexpr uint64_t kSystemSnapshotVersion = 2;

/// Serving catalog snapshot ("GEQOCATG" ... "CATGEND!"): entries, HNSW
/// graph, class forest, verifier memo, plus the v2 checksum footer. v3
/// widened each memo entry with the (check_lo, check_hi) secondary-hash
/// pair that closes the 64-bit canonical-hash collision hole.
constexpr uint64_t kCatalogMagic = 0x4745514f43415447ULL;
constexpr uint64_t kCatalogEndMagic = 0x43415447454e4421ULL;
constexpr uint64_t kCatalogVersion = 3;

/// Sharded serving catalog container ("GEQOSHRD" ... "SHRDEND!"): shard
/// count, the global-id → shard routing map, one length-prefixed GEQOCATG
/// segment per shard, and the pending-verification tail (entry-id pairs the
/// async verifier plane had not yet drained at save time), all inside one
/// checksum footer.
constexpr uint64_t kShardedCatalogMagic = 0x4745514f53485244ULL;
constexpr uint64_t kShardedCatalogEndMagic = 0x53485244454e4421ULL;
constexpr uint64_t kShardedCatalogVersion = 1;

/// Catalog store manifest ("GEQOMANI" ... "MANIEND!"): the authoritative
/// name of a store directory's live base segment and delta-log tail (store
/// kind, shard count, base segment id + entry count, ordered log ids),
/// inside one checksum footer. Published atomically by write-to-temp +
/// rename; recovery replays exactly the logs the manifest names.
constexpr uint64_t kManifestMagic = 0x4745514f4d414e49ULL;
constexpr uint64_t kManifestEndMagic = 0x4d414e49454e4421ULL;
constexpr uint64_t kManifestVersion = 1;
/// The manifest's store-kind word: every store holds one ShardedCatalog.
/// Kind 1 (the retired single-catalog store) and any other value are
/// rejected by the loader and the linter alike.
constexpr uint64_t kManifestShardedKind = 2;

/// Catalog delta-log partition ("GEQOWALG"): a fixed header (magic, version,
/// file id, shard index) followed by individually-framed mutation records —
/// each length-prefixed with its own FNV-1a footer (common/log_io.h), so a
/// torn tail is detected per record and truncated at recovery instead of
/// discarding the whole log.
constexpr uint64_t kWalMagic = 0x4745514f57414c47ULL;
constexpr uint64_t kWalVersion = 1;

/// Model state section ("GEQOMODL"): named tensors, no framing of its own —
/// it is embedded in the system snapshot and in standalone state files.
constexpr uint64_t kModelStateMagic = 0x4745514f4d4f444cULL;

/// HNSW index section ("GEQOHNSW" ... "HNSWEND!"; layout:
/// HnswIndex::Serialize). Only this version decodes: others, including v2
/// with its quantization block, are refused (hnsw.version).
constexpr uint64_t kHnswMagic = 0x4745514f484e5357ULL;
constexpr uint64_t kHnswEndMagic = 0x484e5357454e4421ULL;
constexpr uint64_t kHnswVersion = 3;

}  // namespace geqo::io

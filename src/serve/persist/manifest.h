#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file manifest.h
/// The catalog store's manifest ("GEQOMANI"): the single authoritative
/// record of which files in a store directory are live. Recovery is defined
/// entirely by it — load the named base segment, replay the named logs in
/// order, garbage-collect everything else — and publication is atomic:
/// the manifest is written to MANIFEST.tmp, synced, then renamed over
/// MANIFEST, so a crash at any byte leaves either the old or the new state,
/// never a hybrid.
///
/// State machine across a compaction (base B, logs L1..Ln, new log Ln+1,
/// new base B'):
///   M0 {base B,  logs L1..Ln}        — steady state
///   M1 {base B,  logs L1..Ln, Ln+1}  — rotation published; writers moved
///                                      to Ln+1, outstanding pending pairs
///                                      re-logged into Ln+1
///   M2 {base B', logs Ln+1}          — B' (a fold of B + L1..Ln and any
///                                      Ln+1 prefix; replay is idempotent)
///                                      published; B and L1..Ln are garbage
/// A crash between M1 and M2 recovers from M1 (B' is unreferenced and
/// collected); a crash after M2 recovers from M2 (B, L1..Ln collected).

namespace geqo::serve::persist {

/// The decoded manifest. Its store-kind word is always
/// io::kManifestShardedKind, so it is not a field here.
struct ManifestState {
  uint64_t num_shards = 1;        ///< log partitions per generation
  uint64_t base_id = 0;           ///< base segment file id; 0 = no base yet
  uint64_t base_entry_count = 0;  ///< entries folded into the base
  uint64_t next_file_id = 1;      ///< ids below this are spoken for
  std::vector<uint64_t> log_ids;  ///< live log generations, replay order
};

/// File-name schema inside a store directory.
std::string ManifestFileName();                      // "MANIFEST"
std::string BaseSegmentFileName(uint64_t id);        // "base-000007.seg"
std::string WalPartitionFileName(uint64_t id, uint64_t shard);
                                                     // "wal-000007.s003.log"

/// Writes \p state to dir/MANIFEST via the tmp + fsync + rename protocol.
/// Passes kill points "manifest-tmp" (tmp durable, not yet renamed) and
/// "manifest-renamed" (new manifest live, caller not yet resumed).
Status WriteManifest(const std::string& dir, const ManifestState& state);

/// Reads and fully validates dir/MANIFEST (checksum, magic/version, field
/// plausibility, log-id ordering).
Result<ManifestState> ReadManifest(const std::string& dir);

}  // namespace geqo::serve::persist

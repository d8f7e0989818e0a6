#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/status.h"

/// \file wal.h
/// The delta-log ("GEQOWALG") partition format and its writer/reader. One
/// partition holds one shard's mutation stream for one log generation:
///
///   header:  u64 magic | u64 version | u64 file id | u64 shard index
///   records: framed per common/log_io.h (u32 size | payload | u64 FNV-1a)
///
/// Record payload grammar (BinaryWriter encoding, type byte first):
///   kAddEntry  u8 type | u64 gid | u64 canonical_hash | u64 check_hash
///   kVerdict   u8 type | u64 key_lo | u64 key_hi
///                      | u64 check_lo | u64 check_hi | u8 verdict
///   kUnion     u8 type | u64 a_gid | u64 b_gid
///   kPending   u8 type | u64 query_gid | u64 member_gid
///
/// Replay semantics are idempotent by construction: an add whose gid is
/// already present re-verifies its hashes and is skipped; verdict inserts
/// overwrite equal state; unions of already-joined classes are no-ops; a
/// pending pair whose class has since been decided is dropped by the
/// memo-first classification replay. That is what makes "replay the tail
/// over the base" safe when the base was compacted past a log prefix.

namespace geqo::serve::persist {

enum class WalRecordType : uint8_t {
  kAddEntry = 1,
  kVerdict = 2,
  kUnion = 3,
  kPending = 4,
};

/// One decoded delta-log record (union-style; see the grammar above).
struct WalRecord {
  WalRecordType type = WalRecordType::kAddEntry;
  uint64_t gid = 0;      ///< kAddEntry
  uint64_t a = 0;        ///< canonical_hash / key_lo / a_gid / query_gid
  uint64_t b = 0;        ///< check_hash / key_hi / b_gid / member_gid
  uint64_t c = 0;        ///< check_lo (kVerdict)
  uint64_t d = 0;        ///< check_hi (kVerdict)
  uint8_t verdict = 0;   ///< EquivalenceVerdict byte (kVerdict)

  static WalRecord Add(uint64_t gid, uint64_t canonical, uint64_t check) {
    WalRecord r;
    r.type = WalRecordType::kAddEntry;
    r.gid = gid;
    r.a = canonical;
    r.b = check;
    return r;
  }
  static WalRecord Verdict(uint64_t key_lo, uint64_t key_hi, uint64_t check_lo,
                           uint64_t check_hi, uint8_t verdict) {
    WalRecord r;
    r.type = WalRecordType::kVerdict;
    r.a = key_lo;
    r.b = key_hi;
    r.c = check_lo;
    r.d = check_hi;
    r.verdict = verdict;
    return r;
  }
  static WalRecord Union(uint64_t a_gid, uint64_t b_gid) {
    WalRecord r;
    r.type = WalRecordType::kUnion;
    r.a = a_gid;
    r.b = b_gid;
    return r;
  }
  static WalRecord Pending(uint64_t query_gid, uint64_t member_gid) {
    WalRecord r;
    r.type = WalRecordType::kPending;
    r.a = query_gid;
    r.b = member_gid;
    return r;
  }
};

/// Serializes \p record into its framed payload bytes (no frame).
std::string EncodeWalRecord(const WalRecord& record);

/// \brief Appender for one log partition. Writes through stdio (FILE*) so
/// Sync() can reach fsync(2); destructors close without syncing.
class WalWriter {
 public:
  /// Creates (truncates) \p path and writes the partition header. The
  /// header is flushed but not synced — callers sync before publishing the
  /// file id in a manifest.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   uint64_t file_id,
                                                   uint64_t shard);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed record; flushes the stdio buffer when \p flush (an
  /// un-flushed record does not survive _exit/SIGKILL). Passes the
  /// "wal-append" kill point after a successful flush.
  Status Append(const WalRecord& record, bool flush);
  /// fflush + fsync — the durability barrier Checkpoint uses.
  Status Sync();

  const std::string& path() const { return path_; }
  uint64_t records_appended() const { return appended_; }

 private:
  WalWriter(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_;
  std::string path_;
  uint64_t appended_ = 0;
};

/// Everything recovery needs to know about one partition on disk: the
/// decoded GEQOWALG file.
struct WalReplay {
  uint64_t file_id = 0;
  uint64_t shard = 0;
  std::vector<WalRecord> records;  ///< the clean prefix, in append order
  size_t clean_size = 0;           ///< truncation target when torn
  bool torn = false;               ///< a torn tail follows the clean prefix
  /// The file ends before the header completes — legal only for the newest
  /// log generation (created-but-unpublished during a crash); it holds no
  /// records and recovery rewrites it.
  bool header_torn = false;
};

/// Decodes a GEQOWALG partition — the one decoder of the format, shared by
/// ReadWalFile and geqo_lint. A torn state is data, not an error: a file
/// shorter than its header comes back header_torn, and bytes past the last
/// valid frame come back as torn with the clean prefix's size. Refused
/// with wal.* codes: bad magic/version, file id 0, an implausible shard,
/// mid-log corruption, and any checksum-valid record that breaks the
/// grammar — unknown type, wrong payload size, verdict byte out of range,
/// non-normalized memo key, a self-union, or an add whose gid is not above
/// every earlier add in the partition. A checksum-valid record cannot be
/// torn, so these mean corruption or a software bug, never truncation.
bool DecodeWal(std::string_view bytes, WalReplay* out,
               io::DecodeErrors* errors);

/// Reads one partition and decodes it with DecodeWal; the header must name
/// \p expect_file_id / \p expect_shard (the manifest slot it was read for).
Result<WalReplay> ReadWalFile(const std::string& path, uint64_t expect_file_id,
                              uint64_t expect_shard);

}  // namespace geqo::serve::persist

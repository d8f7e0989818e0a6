#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"

/// \file log_io.h
/// Per-record integrity framing for append-only delta logs — the
/// record-granular counterpart of checksum_io.h's whole-payload footer.
/// Each record is written as
///
///   u32 payload_size | payload bytes | u64 FNV-1a(payload)
///
/// so a log interrupted mid-append (process killed, disk full) has a
/// well-defined *clean prefix*: scanning stops at the first frame that is
/// short or fails its checksum, and recovery truncates the file back to the
/// clean prefix instead of rejecting the whole log. A bad frame that is
/// followed by a checksum-valid frame cannot be a torn tail — appends are
/// sequential, so bytes after the torn point were never written — and is
/// reported as mid-log corruption, which recovery refuses to truncate over.

namespace geqo::io {

/// Framing overhead per record: the u32 length prefix + the u64 checksum.
constexpr size_t kFrameOverhead = sizeof(uint32_t) + sizeof(uint64_t);

/// Appends one framed record to \p out.
inline void AppendFramedRecord(std::string* out, std::string_view payload) {
  const uint32_t size = static_cast<uint32_t>(payload.size());
  const uint64_t checksum = HashBytes(payload.data(), payload.size());
  out->append(reinterpret_cast<const char*>(&size), sizeof(size));
  out->append(payload.data(), payload.size());
  out->append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
}

/// Outcome of scanning a byte range for framed records.
struct FramedScan {
  /// The checksum-valid record payloads, in append order (views into the
  /// scanned bytes).
  std::vector<std::string_view> records;
  /// Byte offset (from the start of \p bytes) one past the last valid
  /// frame — the truncation target when the tail is torn.
  size_t clean_size = 0;
  /// Bytes remain past clean_size that do not form a valid frame.
  bool torn = false;
  /// A checksum-valid frame parses *after* the bad one: the damage is not a
  /// torn tail but corruption inside the log (bit rot, tampering) —
  /// truncating would silently drop durable records, so callers must fail.
  bool mid_corruption = false;
};

/// True when a checksum-valid frame starts at \p offset.
inline bool ValidFrameAt(std::string_view bytes, size_t offset) {
  if (offset + sizeof(uint32_t) > bytes.size()) return false;
  uint32_t size = 0;
  std::memcpy(&size, bytes.data() + offset, sizeof(size));
  const size_t end = offset + sizeof(uint32_t) + size + sizeof(uint64_t);
  if (size > bytes.size() || end > bytes.size()) return false;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + offset + sizeof(uint32_t) + size,
              sizeof(stored));
  return stored == HashBytes(bytes.data() + offset + sizeof(uint32_t), size);
}

/// Scans \p bytes from \p offset, collecting the clean prefix of framed
/// records and classifying whatever ends it (nothing / torn tail / mid-log
/// corruption).
inline FramedScan ScanFramedRecords(std::string_view bytes, size_t offset) {
  FramedScan out;
  size_t pos = offset;
  while (pos < bytes.size()) {
    if (!ValidFrameAt(bytes, pos)) {
      out.torn = true;
      // Distinguish a torn tail from interior damage: if the bad frame's
      // length field still delimits a plausible successor frame, or any
      // later byte begins a valid frame, durable records live beyond the
      // damage and truncation would lose them.
      if (pos + sizeof(uint32_t) <= bytes.size()) {
        uint32_t bad_size = 0;
        std::memcpy(&bad_size, bytes.data() + pos, sizeof(bad_size));
        const size_t next = pos + sizeof(uint32_t) + bad_size + sizeof(uint64_t);
        if (bad_size <= bytes.size() && next < bytes.size() &&
            ValidFrameAt(bytes, next)) {
          out.mid_corruption = true;
        }
      }
      break;
    }
    uint32_t size = 0;
    std::memcpy(&size, bytes.data() + pos, sizeof(size));
    out.records.emplace_back(bytes.substr(pos + sizeof(uint32_t), size));
    pos += sizeof(uint32_t) + size + sizeof(uint64_t);
  }
  out.clean_size = pos;
  return out;
}

}  // namespace geqo::io

#pragma once

#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

#include "common/binary_io.h"
#include "common/hash.h"
#include "common/status.h"

/// \file checksum_io.h
/// Whole-payload integrity framing for the v2 snapshot formats: the payload
/// bytes are followed by an 8-byte FNV-1a checksum over everything before
/// it. Truncation, bit flips anywhere in the payload, and trailing garbage
/// all surface as one loud checksum mismatch instead of whatever the
/// structural parser happens to trip over (or, worse, silently accepts).

namespace geqo::io {

/// Checksum of a payload, as stored in the footer.
inline uint64_t PayloadChecksum(std::string_view payload) {
  return HashBytes(payload.data(), payload.size());
}

/// Writes \p payload followed by its checksum footer.
inline Status WriteChecksummed(std::ostream& os, const std::string& payload,
                               const std::string& context) {
  const uint64_t checksum = PayloadChecksum(payload);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!os.good()) return Status::IoError("write failed while saving " + context);
  return Status::OK();
}

/// Strips and verifies the checksum footer of \p bytes, reporting
/// `<prefix>.truncated` (shorter than the footer) or `<prefix>.checksum`.
/// The payload is returned even on a mismatch, so the structural decode can
/// still narrow the damage; the error already fails the load.
inline std::string_view CheckFooter(std::string_view bytes,
                                    const std::string& prefix,
                                    DecodeErrors* errors) {
  if (bytes.size() < sizeof(uint64_t)) {
    Reject(errors, prefix + ".truncated", 0,
           "file is shorter than the checksum footer");
    return {};
  }
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload_size, sizeof(stored));
  if (stored != PayloadChecksum(bytes.substr(0, payload_size))) {
    Reject(errors, prefix + ".checksum", payload_size,
           "payload checksum mismatch: the file is corrupt, truncated, or "
           "carries trailing bytes");
  }
  return bytes.substr(0, payload_size);
}

}  // namespace geqo::io

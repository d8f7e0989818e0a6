#pragma once

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

/// \file binary_io.h
/// The writer and the bounded reader behind every versioned binary format
/// (model state, HNSW graph, catalog segment, sharded snapshot, store
/// manifest, delta log). Each format has exactly one decode function, in the
/// module that writes it; loaders and geqo_lint both call it. A decoder
/// reads through ByteReader — which never reads past its input and lets a
/// decoder ask whether a stored count fits before sizing a container from
/// it — and reports what it refuses as DecodeErrors carrying the lint code
/// geqo_lint prints, so the linter and the loader cannot disagree on bytes.

namespace geqo::io {

/// \brief Buffered little-endian-as-host writer over an std::ostream.
///
/// The host format is not translated: snapshots are an on-disk cache for the
/// machine that wrote them, not an interchange format (same stance as the
/// model state files).
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os, std::string context)
      : os_(os), context_(std::move(context)) {}

  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  /// Signed values are stored as their two's-complement u64 image.
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  void String(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  void Bytes(const void* data, size_t size) { Raw(data, size); }

  Status status() const {
    if (os_.good()) return Status::OK();
    return Status::IoError("write failed while saving " + context_);
  }

 private:
  void Raw(const void* data, size_t size) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }

  std::ostream& os_;
  std::string context_;
};

/// One reason a decoder refused its input: the lint code geqo_lint reports
/// for it (e.g. "catalog.memo-order"), the byte offset of the offending
/// field, and a human-readable message.
struct DecodeError {
  std::string code;
  size_t offset = 0;
  std::string message;
};

/// Everything one decode found wrong, in discovery order. A decoder stops
/// at an error that leaves the rest unreadable and walks on past one that
/// does not (a checksum mismatch, an out-of-range calibration value), so
/// the linter can narrow the damage. A loader refuses on any entry.
using DecodeErrors = std::vector<DecodeError>;

/// Appends an error and returns false, so a decoder can `return Reject(..)`.
inline bool Reject(DecodeErrors* errors, std::string code, size_t offset,
                   std::string message) {
  errors->push_back({std::move(code), offset, std::move(message)});
  return false;
}

/// A loader's Status for a failed decode: the first error, under \p context.
inline Status DecodeStatus(const DecodeErrors& errors,
                           const std::string& context) {
  if (errors.empty()) return Status::OK();
  const DecodeError& first = errors.front();
  return Status::InvalidArgument(context + ": " + first.message + " (" +
                                 first.code + " at offset " +
                                 std::to_string(first.offset) + ")");
}

/// \brief Bounded reader over a byte view that latches its first failure.
///
/// A read past the end fails the reader and returns a zero value; every
/// later read fails too, so a run of reads can be checked once via ok().
/// Offsets count from the start of the view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t offset() const { return offset_; }
  bool ok() const { return ok_; }
  bool AtEnd() const { return offset_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - offset_; }

  uint64_t U64() { return Fixed<uint64_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint8_t U8() { return Fixed<uint8_t>(); }
  float F32() { return Fixed<float>(); }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  /// The next \p size bytes as a view into the input (empty on failure).
  std::string_view Bytes(uint64_t size) {
    if (!ok_ || remaining() < size) {
      ok_ = false;
      return {};
    }
    const std::string_view out = bytes_.substr(offset_, size);
    offset_ += size;
    return out;
  }

  /// A u64 length-prefixed string of at most \p max_length bytes.
  std::string_view String(uint64_t max_length) {
    const uint64_t length = U64();
    if (ok_ && length > max_length) ok_ = false;
    return Bytes(length);
  }

  /// True when \p count items of \p item_size bytes fit in what is left.
  /// Decoders ask this before sizing any container from a stored count, so
  /// no allocation outgrows the input.
  bool Fits(uint64_t count, size_t item_size) const {
    return ok_ && count <= remaining() / item_size;
  }

  /// Reports \p code when bytes remain past the end of the decoded format.
  void ExpectEnd(DecodeErrors* errors, const char* code, const char* after) {
    if (ok_ && !AtEnd()) {
      Reject(errors, code, offset_,
             std::to_string(remaining()) + " unexpected bytes after " + after);
    }
  }

 private:
  template <typename T>
  T Fixed() {
    T value{};
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return value;
    }
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::string_view bytes_;
  size_t offset_ = 0;
  bool ok_ = true;
};

}  // namespace geqo::io

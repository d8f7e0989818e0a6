#include "serve/verifier_memo.h"

#include <algorithm>
#include <vector>

namespace geqo::serve {

void VerifierMemo::Serialize(io::BinaryWriter& writer) const {
  std::vector<std::pair<PairFingerprint, Entry>> sorted(entries_.begin(),
                                                        entries_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer.U64(sorted.size());
  for (const auto& [key, entry] : sorted) {
    writer.U64(key.lo);
    writer.U64(key.hi);
    writer.U64(entry.check.lo);
    writer.U64(entry.check.hi);
    writer.U8(static_cast<uint8_t>(entry.verdict));
  }
}

void VerifierMemo::Restore(const std::vector<MemoRecord>& records) {
  entries_.clear();
  entries_.reserve(records.size());
  for (const MemoRecord& record : records) {
    entries_.emplace(record.key, Entry{record.check, record.verdict});
  }
}

bool DecodeVerifierMemo(io::ByteReader* reader, std::vector<MemoRecord>* out,
                        io::DecodeErrors* errors) {
  // Per entry: key (lo, hi), check (lo, hi), verdict byte.
  constexpr size_t kEntrySize = 4 * sizeof(uint64_t) + 1;
  const size_t memo_offset = reader->offset();
  const uint64_t count = reader->U64();
  if (!reader->Fits(count, kEntrySize)) {
    return io::Reject(errors, "catalog.truncated", memo_offset,
                      "verifier memo is cut off");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const size_t entry_offset = reader->offset();
    MemoRecord record;
    record.key.lo = reader->U64();
    record.key.hi = reader->U64();
    record.check.lo = reader->U64();
    record.check.hi = reader->U64();
    const uint8_t verdict = reader->U8();
    if (record.key.lo > record.key.hi) {
      return io::Reject(errors, "catalog.memo-key", entry_offset,
                        "memo entry " + std::to_string(i) +
                            " is not a normalized pair fingerprint (lo > hi)");
    }
    if (!out->empty() && !(out->back().key < record.key)) {
      return io::Reject(errors, "catalog.memo-order", entry_offset,
                        "memo entries are not strictly sorted at entry " +
                            std::to_string(i));
    }
    if (record.key.lo == record.key.hi && record.check.lo > record.check.hi) {
      return io::Reject(errors, "catalog.memo-check", entry_offset,
                        "memo entry " + std::to_string(i) +
                            " violates the check-pair normalization on a key "
                            "tie (check_lo > check_hi while lo == hi)");
    }
    if (verdict > static_cast<uint8_t>(EquivalenceVerdict::kUnknown)) {
      return io::Reject(errors, "catalog.memo-verdict", entry_offset,
                        "memo entry " + std::to_string(i) +
                            " has verdict byte " + std::to_string(verdict) +
                            " outside the tri-state range");
    }
    record.verdict = static_cast<EquivalenceVerdict>(verdict);
    out->push_back(record);
  }
  return true;
}

}  // namespace geqo::serve

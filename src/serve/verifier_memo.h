#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/hash.h"
#include "common/status.h"
#include "plan/canonicalize.h"
#include "verify/verifier.h"

/// \file verifier_memo.h
/// Memoization of verifier verdicts across probes, keyed by the
/// order-normalized canonical plan-pair fingerprint (see FingerprintPair).
/// Verification is the serving loop's dominant cost and its outcome is a
/// pure function of the two canonical plans (given fixed VerifierOptions),
/// so every verdict — including kUnknown, which is a deterministic budget
/// outcome, not a transient failure — is safe to cache and to persist.
///
/// Soundness: CanonicalHash is 64 bits, so two *distinct* canonical plans
/// can collide on the fingerprint key — and a memo that trusted the key
/// alone would then silently serve the wrong cached verdict, including an
/// unsound kEquivalent. Every entry therefore also stores the pair of
/// independent secondary hashes (CanonicalCheckHash) of the two plans,
/// normalized consistently with the key. A lookup whose check pair does not
/// match the stored one is reported as a collision and treated as a miss;
/// the subsequent Insert overwrites the colliding entry with the fresh
/// verdict. Snapshots persist the check pair, and geqo_lint rejects memos
/// whose entries violate the normalization invariant.

namespace geqo::serve {

/// \brief The secondary-hash pair stored with (and demanded of) each memo
/// entry, aligned with the key's (lo, hi) order.
struct MemoCheck {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const MemoCheck&) const = default;
};

/// \brief A memo key plus the check pair that authenticates it.
struct CheckedPair {
  PairFingerprint key;
  MemoCheck check;
};

/// \brief Builds the checked memo key for two plans' (canonical hash,
/// canonical check hash) pairs. The check values follow the key's order
/// normalization: check.lo belongs to the plan whose canonical hash became
/// key.lo; on a primary-hash tie the check pair itself is ordered, so the
/// result stays symmetric in its arguments.
inline CheckedPair MakeCheckedPair(uint64_t hash_a, uint64_t check_a,
                                   uint64_t hash_b, uint64_t check_b) {
  CheckedPair out;
  out.key = FingerprintPair(hash_a, hash_b);
  if (hash_a < hash_b) {
    out.check = MemoCheck{check_a, check_b};
  } else if (hash_b < hash_a) {
    out.check = MemoCheck{check_b, check_a};
  } else {
    out.check = MemoCheck{std::min(check_a, check_b),
                          std::max(check_a, check_b)};
  }
  return out;
}

/// \brief One decoded memo entry.
struct MemoRecord {
  PairFingerprint key;
  MemoCheck check;
  EquivalenceVerdict verdict = EquivalenceVerdict::kUnknown;
};

/// \brief Decodes the memo section of a GEQOCATG segment at \p reader's
/// position — the one decoder of the section, shared by the catalog loader
/// and geqo_lint. Entries must be strictly sorted normalized keys (as
/// VerifierMemo::Serialize writes them), each with a check pair normalized
/// on a key tie and a verdict byte in the tri-state range. Refusals carry
/// catalog.* codes; returns false when the walk had to stop.
bool DecodeVerifierMemo(io::ByteReader* reader, std::vector<MemoRecord>* out,
                        io::DecodeErrors* errors);

/// \brief A persistent fingerprint → verdict cache with collision detection.
class VerifierMemo {
 public:
  struct LookupOutcome {
    /// The cached verdict, absent on a miss or a collision.
    std::optional<EquivalenceVerdict> verdict;
    /// True when an entry for the key exists but its check pair differs —
    /// a detected 64-bit CanonicalHash collision.
    bool collision = false;
  };

  /// The cached verdict for \p key, provided the stored check pair matches
  /// \p check; a mismatch is a collision and yields no verdict.
  LookupOutcome Lookup(const PairFingerprint& key,
                       const MemoCheck& check) const {
    LookupOutcome out;
    const auto it = entries_.find(key);
    if (it == entries_.end()) return out;
    if (it->second.check != check) {
      out.collision = true;
      return out;
    }
    out.verdict = it->second.verdict;
    return out;
  }

  /// Caches \p verdict for \p key/\p check. An existing entry with a
  /// different check pair (a collision) is overwritten — last verifier
  /// outcome wins; the evicted entry's plans will simply re-verify.
  void Insert(const PairFingerprint& key, const MemoCheck& check,
              EquivalenceVerdict verdict) {
    entries_[key] = Entry{check, verdict};
  }

  size_t size() const { return entries_.size(); }

  /// Writes size + (lo, hi, check_lo, check_hi, verdict) tuples sorted by
  /// fingerprint, so equal memo contents always serialize to identical
  /// bytes.
  void Serialize(io::BinaryWriter& writer) const;

  /// Replaces the contents with decoded \p records.
  void Restore(const std::vector<MemoRecord>& records);

 private:
  struct Entry {
    MemoCheck check;
    EquivalenceVerdict verdict;
  };

  struct KeyHash {
    size_t operator()(const PairFingerprint& key) const {
      return static_cast<size_t>(HashCombine(key.lo, key.hi));
    }
  };

  std::unordered_map<PairFingerprint, Entry, KeyHash> entries_;
};

}  // namespace geqo::serve

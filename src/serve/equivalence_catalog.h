#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ann/hnsw.h"
#include "filters/schema_filter.h"
#include "pipeline/geqo.h"
#include "serve/union_find.h"
#include "serve/verifier_memo.h"

/// \file equivalence_catalog.h
/// The per-shard serving engine behind serve::ShardedCatalog
/// (sharded_catalog.h), the one public serving catalog (§1, §7.7).
/// GEqO's motivating deployment is a stream of incoming subexpressions
/// checked against an ever-growing repository of cached/materialized
/// views, not a one-shot O(|W|^2) batch; one EquivalenceCatalog holds one
/// shard of that repository:
///
///   - entries: canonicalized, instance-encoded plans, each embedded once
///     through the EMF trunk (singleton agnostic map, so the embedding never
///     shifts as the catalog grows) into one persistent HNSW index;
///   - the incremental SF signature map, the union-find of proven
///     equivalence classes, and the verifier memo (canonical pair
///     fingerprint plus an independent secondary check-hash pair — a
///     detected collision is a miss, never a wrong verdict).
///
/// The engine never calls the verifier. ProbeReadOnly runs SF -> VMF -> EMF
/// against the shard and classifies each candidate class from the memo and
/// the classes alone; WalkAgenda is the one memo-first walk over a class's
/// verification agenda (root first, then the surviving members) that
/// classification, the async verifier plane, and crash recovery all share.
/// ShardedCatalog owns locking, global ids, journaling, and verification.
///
/// Thread-safety: none of its own. Const members are safe to run
/// concurrently with each other; mutation (AddWithEmbedding, memo inserts,
/// unions) needs exclusive access — ShardedCatalog's shard lock provides
/// both.

namespace geqo::serve {

/// \brief Serving configuration: the filter cascade parameters, reusing the
/// batch pipeline's options (ablation toggles included).
struct CatalogOptions {
  GeqoOptions pipeline;

  Status Validate() const { return pipeline.Validate(); }
};

/// \brief The non-owned component wiring every serving catalog is built
/// from; all pointers must outlive the catalog (GeqoSystem::ServeComponents
/// borrows them from the system).
struct CatalogComponents {
  const Catalog* db_catalog = nullptr;
  ml::EmfModel* model = nullptr;
  const EncodingLayout* instance_layout = nullptr;
  const EncodingLayout* agnostic_layout = nullptr;
  ValueRange value_range;
};

/// \brief Immediate classification of one filter survivor (see
/// ShardedCatalog): kProven/kRefuted are decided from the memo and
/// equivalence classes alone; kLikely carries the filter evidence (EMF
/// score) and — unless the pair is memoized kUnknown — is upgraded later by
/// the background verifier plane.
enum class MatchVerdict : uint8_t { kProven = 0, kLikely = 1, kRefuted = 2 };

std::string_view MatchVerdictToString(MatchVerdict verdict);

/// \brief One classified filter survivor of a probe.
struct ProbeMatch {
  size_t id = 0;  ///< catalog entry id (shard-local or global, per context)
  MatchVerdict verdict = MatchVerdict::kLikely;
  /// EMF score of the (query, entry) pair; 1.0 when the EMF stage is off.
  float score = 1.0f;
};

/// \brief A decoded GEQOCATG segment (layout:
/// EquivalenceCatalog::ExportSnapshot).
struct CatalogSegmentImage {
  uint64_t schema_fingerprint = 0;  ///< CatalogFingerprint of the db schema
  uint64_t embedding_dim = 0;
  std::vector<uint64_t> canonical_hashes;  ///< one per entry, Add order
  ann::HnswImage index;
  std::vector<size_t> parents;  ///< compressed min-root class forest
  std::vector<MemoRecord> memo;
};

/// \brief Decodes one GEQOCATG segment, checksum footer included — the one
/// decoder of the format, shared by the sharded catalog loader and
/// geqo_lint. Proves the index agrees with the header (dim, entry count),
/// the class forest is compressed with minimum roots, and the memo is
/// sorted and normalized. Refusals carry catalog.* and hnsw.* codes with
/// segment-relative offsets.
bool DecodeCatalogSegment(std::string_view bytes, CatalogSegmentImage* out,
                          io::DecodeErrors* errors);

/// \brief One shard's entries, index, classes, and memo (see file comment).
class EquivalenceCatalog {
 public:
  /// Invalid \p options poison the catalog: ProbeReadOnly and
  /// ExportSnapshot return the validation error.
  EquivalenceCatalog(const CatalogComponents& wiring, CatalogOptions options);

  size_t size() const { return entries_.size(); }
  size_t NumClasses() const { return classes_.NumClasses(); }
  /// Representative (oldest member) of \p id's equivalence class.
  size_t ClassOf(size_t id) const { return classes_.Find(id); }
  /// All members of \p id's class, sorted ascending.
  std::vector<size_t> ClassMembers(size_t id) const;
  const PlanPtr& plan(size_t id) const { return entries_[id].plan; }
  size_t memo_size() const { return memo_.size(); }

 private:
  friend class ShardedCatalog;

  struct Entry {
    PlanPtr plan;
    uint64_t canonical_hash = 0;
    uint64_t check_hash = 0;  ///< CanonicalCheckHash (memo collision guard)
    EncodedPlan encoded;  ///< instance encoding (embedding lives in the index)
  };

  /// Everything a probe or an add needs to know about one incoming plan.
  struct QueryContext {
    PlanPtr plan;
    uint64_t canonical_hash = 0;
    uint64_t check_hash = 0;
    SfSignature signature;
    EncodedPlan encoded;
    /// EMF-trunk embedding under the singleton agnostic map: the VMF probe
    /// key, and on an add the vector inserted into the index.
    std::vector<float> embedding;
  };

  /// Filter-cascade output.
  struct FilterOutcome {
    std::vector<size_t> candidates;  ///< surviving ids, ascending
    std::vector<float> scores;       ///< EMF scores aligned with candidates
  };

  /// One candidate class the probe could not decide from the memo alone:
  /// the verification agenda (class root first, then the surviving
  /// members) handed to the async verifier plane, which resumes the walk
  /// at \p first_miss — the agenda prefix before it is memoized kUnknown.
  struct ClassDecision {
    std::vector<size_t> agenda;
    size_t first_miss = 0;
  };

  /// Outcome of the const, lock-friendly probe: filters plus memo/class
  /// classification, never a verifier call and never a state mutation.
  struct ReadProbeResult {
    std::vector<ProbeMatch> matches;  ///< one per filter survivor, ascending
    std::vector<size_t> proven_ids;   ///< class-expanded, sorted ascending
    std::optional<size_t> representative;
    size_t memo_hits = 0;
    size_t class_shortcuts = 0;
    size_t collisions = 0;
    std::vector<ClassDecision> pending;
    std::vector<StageReport> stages;  ///< sf, vmf, emf, classify
  };

  /// Where a memo-first walk of a verification agenda stopped.
  struct AgendaWalk {
    /// First decisive (kEquivalent / kNotEquivalent) memoized verdict.
    std::optional<EquivalenceVerdict> decision;
    /// True when the walk stopped at a pair the memo does not hold.
    bool missed = false;
    /// Agenda position of the decisive verdict or of the miss;
    /// agenda.size() when every pair is memoized kUnknown.
    size_t stop = 0;
    size_t memo_hits = 0;
    size_t collisions = 0;
  };

  /// The one preparation step of every probe and add: canonicalizes,
  /// hashes, signs, instance-encodes, and embeds \p plan through the EMF
  /// trunk (singleton agnostic map). Reads only the immutable wiring, so it
  /// runs with no lock at all.
  static Result<QueryContext> PrepareQuery(const CatalogComponents& wiring,
                                           const VmfOptions& vmf,
                                           const PlanPtr& plan);
  /// PrepareQuery without the embedding: the cheap per-entry state a
  /// snapshot import re-derives (the embeddings come from the segment).
  static Result<QueryContext> DescribeQuery(const CatalogComponents& wiring,
                                            const PlanPtr& plan);

  /// Inserts a prepared entry, indexing its embedding; returns the new
  /// local id.
  size_t AddWithEmbedding(QueryContext query);
  /// Runs SF -> VMF -> EMF, appending the three stage reports to \p stages.
  Result<FilterOutcome> RunFilters(const QueryContext& query,
                                   std::vector<StageReport>* stages) const;
  /// Filters plus classification (see ReadProbeResult).
  Result<ReadProbeResult> ProbeReadOnly(const QueryContext& query) const;
  /// The memo-first walk: looks up (query, agenda[i]) for i = \p start...,
  /// skipping memoized kUnknown, and stops at the first decisive verdict or
  /// the first miss.
  AgendaWalk WalkAgenda(uint64_t query_hash, uint64_t query_check,
                        const std::vector<size_t>& agenda,
                        size_t start) const;
  /// Pairs whose verdict a class decision transfers without a lookup:
  /// class size minus lookups when proven, agenda size minus lookups when
  /// refuted, none otherwise.
  size_t ClassShortcuts(EquivalenceVerdict decision,
                        const std::vector<size_t>& agenda,
                        size_t lookups) const;
  CheckedPair MemoKey(uint64_t query_hash, uint64_t query_check,
                      size_t id) const;
  void UpdateGauges() const;

  /// Writes the GEQOCATG segment ShardedCatalog's GEQOSHRD container
  /// carries per shard: header (magic, version, db-catalog fingerprint,
  /// embedding dim), per-entry canonical hashes, the HNSW graph + vectors,
  /// the equivalence classes, and the memo cache.
  Status ExportSnapshot(std::ostream& os) const;

  /// Binds a decoded GEQOCATG segment to this process. \p plans must be
  /// the shard's entries in Add order (the segment stores their canonical
  /// hashes, not the plans). Fails loudly on a different database schema, a
  /// different model embedding dim, or mismatched plans. Only cheap state
  /// (signatures, instance encodings) is re-derived — embeddings come from
  /// the segment and memoized verdicts are never re-proved.
  static Result<std::unique_ptr<EquivalenceCatalog>> FromSegment(
      CatalogSegmentImage image, const CatalogComponents& wiring,
      const std::vector<PlanPtr>& plans, CatalogOptions options);

  CatalogComponents wiring_;
  CatalogOptions options_;
  Status options_status_;  ///< construction-time validation verdict

  std::vector<Entry> entries_;
  /// Incremental SF: signature -> member ids (ascending by construction).
  std::map<SfSignature, std::vector<size_t>> sf_groups_;
  std::unique_ptr<ann::HnswIndex> index_;
  UnionFind classes_;
  VerifierMemo memo_;
};

}  // namespace geqo::serve

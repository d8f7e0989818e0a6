#include "serve/equivalence_catalog.h"

#include <algorithm>
#include <sstream>

#include "analysis/plan_validator.h"
#include "common/binary_io.h"
#include "common/checksum_io.h"
#include "common/format_magic.h"
#include "filters/emf_filter.h"
#include "filters/vmf.h"
#include "obs/metrics.h"
#include "pipeline/stage_scope.h"
#include "plan/canonicalize.h"
#include "workload/labeled_data.h"

namespace geqo::serve {

std::string_view MatchVerdictToString(MatchVerdict verdict) {
  switch (verdict) {
    case MatchVerdict::kProven:
      return "proven";
    case MatchVerdict::kLikely:
      return "likely";
    case MatchVerdict::kRefuted:
      return "refuted";
  }
  return "invalid";
}

EquivalenceCatalog::EquivalenceCatalog(const CatalogComponents& wiring,
                                       CatalogOptions options)
    : wiring_(wiring),
      options_(std::move(options)),
      options_status_(options_.Validate()) {
  // Only build the index once the options are known-valid (the HnswIndex
  // constructor enforces its parameters with aborts, not Status).
  if (options_status_.ok()) {
    index_ = std::make_unique<ann::HnswIndex>(wiring_.model->embedding_dim(),
                                              options_.pipeline.vmf.hnsw);
  }
}

std::vector<size_t> EquivalenceCatalog::ClassMembers(size_t id) const {
  const size_t root = classes_.Find(id);
  std::vector<size_t> members;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (classes_.Find(i) == root) members.push_back(i);
  }
  return members;
}

Result<EquivalenceCatalog::QueryContext> EquivalenceCatalog::PrepareQuery(
    const CatalogComponents& wiring, const PlanPtr& plan) {
  const Catalog& db_catalog = *wiring.db_catalog;
  QueryContext query;
  query.plan = plan;
  // Canonicalize exactly once: both hashes and the debug fixed-point check
  // below consume the same canonical form.
  const PlanPtr canonical = Canonicalize(plan);
  // Debug-gated boundary checks: the incoming plan must be valid, and its
  // canonical form must be a Canonicalize fixed point (the canonical hash
  // below is only meaningful if canonicalization is idempotent).
  if (analysis::DebugValidationEnabled()) {
    analysis::DebugValidatePlan(plan, db_catalog, "serve.PrepareQuery");
    analysis::DebugValidateCanonical(canonical, db_catalog,
                                     "serve.PrepareQuery/canonical");
  }
  query.canonical_hash = canonical->Hash();
  query.check_hash = CanonicalCheckHash(canonical);
  GEQO_ASSIGN_OR_RETURN(query.signature, SchemaSignature(plan, db_catalog));
  GEQO_ASSIGN_OR_RETURN(std::vector<EncodedPlan> encoded,
                        EncodeWorkload({plan}, *wiring.instance_layout,
                                       db_catalog, wiring.value_range));
  query.encoded = std::move(encoded[0]);
  return query;
}

Result<std::vector<float>> EquivalenceCatalog::EmbedQuery(
    const CatalogComponents& wiring, const VmfOptions& vmf_options,
    const QueryContext& query) {
  // The embedding uses the singleton agnostic map (see EmbedSingle): it
  // depends only on the plan, so it is computed exactly once per entry for
  // the catalog's whole lifetime, across any number of later Adds.
  const VectorMatchingFilter vmf(wiring.model, wiring.instance_layout,
                                 wiring.agnostic_layout, vmf_options);
  return vmf.EmbedSingle(query.encoded);
}

void EquivalenceCatalog::UpdateGauges() const {
  if (!obs::MetricsEnabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("serve.index_size").Set(static_cast<double>(size()));
  registry.GetGauge("serve.classes").Set(static_cast<double>(NumClasses()));
  registry.GetGauge("serve.memo_size").Set(static_cast<double>(memo_.size()));
}

size_t EquivalenceCatalog::AddWithEmbedding(
    QueryContext query, const std::vector<float>& embedding) {
  const size_t id = index_->Add(embedding);
  GEQO_CHECK(id == entries_.size());
  sf_groups_[query.signature].push_back(id);
  entries_.push_back(Entry{std::move(query.plan), query.canonical_hash,
                           query.check_hash, std::move(query.encoded)});
  const size_t class_id = classes_.Add();
  GEQO_CHECK(class_id == id);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().GetCounter("serve.adds").Add(1);
    UpdateGauges();
  }
  return id;
}

Result<EquivalenceCatalog::FilterOutcome> EquivalenceCatalog::RunFilters(
    const QueryContext& query, std::vector<StageReport>* stages) const {
  const GeqoOptions& opt = options_.pipeline;
  FilterOutcome out;

  // Stage 1: schema filter via the incremental signature map — O(log groups)
  // instead of re-grouping the workload.
  StageReport sf_report = MakeStage("sf", opt.use_sf);
  StageScope sf_scope("serve.sf");
  std::vector<size_t> pool;
  if (opt.use_sf) {
    const auto it = sf_groups_.find(query.signature);
    if (it != sf_groups_.end()) pool = it->second;
  } else {
    pool.resize(entries_.size());
    for (size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  }
  sf_report.pairs_in = entries_.size();
  sf_report.pairs_out = pool.size();
  sf_scope.Finish(&sf_report);
  stages->push_back(std::move(sf_report));

  // Stage 2: VMF as one radius search of the shared persistent index,
  // intersected with the SF pool.
  StageReport vmf_report = MakeStage("vmf", opt.use_vmf);
  StageScope vmf_scope("serve.vmf");
  std::vector<size_t> candidates;
  if (opt.use_vmf && !pool.empty()) {
    const VectorMatchingFilter vmf(wiring_.model, wiring_.instance_layout,
                                   wiring_.agnostic_layout, opt.vmf);
    GEQO_ASSIGN_OR_RETURN(const std::vector<float> embedding,
                          vmf.EmbedSingle(query.encoded));
    std::vector<size_t> hits;
    for (const ann::Neighbor& neighbor :
         index_->SearchRadius(embedding.data(), opt.vmf.radius)) {
      hits.push_back(neighbor.id);
    }
    std::sort(hits.begin(), hits.end());
    std::set_intersection(pool.begin(), pool.end(), hits.begin(), hits.end(),
                          std::back_inserter(candidates));
  } else {
    candidates = pool;
  }
  vmf_report.pairs_in = pool.size();
  vmf_report.pairs_out = candidates.size();
  vmf_scope.Finish(&vmf_report);
  stages->push_back(std::move(vmf_report));

  // Stage 3: EMF scoring of (query, entry) pairs — slot 0 is the query, the
  // entries are viewed in place. Survivors keep their score (1.0 when the
  // stage is disabled) for the async path's Likely classification.
  StageReport emf_report = MakeStage("emf", opt.use_emf);
  StageScope emf_scope("serve.emf");
  emf_report.pairs_in = candidates.size();
  std::vector<float> survivor_scores;
  if (opt.use_emf && !candidates.empty()) {
    const EquivalenceModelFilter emf(wiring_.model, wiring_.instance_layout,
                                     wiring_.agnostic_layout, opt.emf);
    std::vector<const EncodedPlan*> views;
    views.reserve(candidates.size() + 1);
    views.push_back(&query.encoded);
    std::vector<std::pair<size_t, size_t>> pairs;
    pairs.reserve(candidates.size());
    for (size_t k = 0; k < candidates.size(); ++k) {
      views.push_back(&entries_[candidates[k]].encoded);
      pairs.emplace_back(0, k + 1);
    }
    GEQO_ASSIGN_OR_RETURN(const std::vector<float> scores,
                          emf.Scores(pairs, views));
    std::vector<size_t> surviving;
    for (size_t k = 0; k < candidates.size(); ++k) {
      if (scores[k] >= opt.emf.threshold) {
        surviving.push_back(candidates[k]);
        survivor_scores.push_back(scores[k]);
      }
    }
    candidates = std::move(surviving);
  } else {
    survivor_scores.assign(candidates.size(), 1.0f);
  }
  emf_report.pairs_out = candidates.size();
  emf_scope.Finish(&emf_report);
  stages->push_back(std::move(emf_report));

  out.candidates = std::move(candidates);
  out.scores = std::move(survivor_scores);
  return out;
}

CheckedPair EquivalenceCatalog::MemoKey(uint64_t query_hash,
                                        uint64_t query_check,
                                        size_t id) const {
  const Entry& entry = entries_[id];
  return MakeCheckedPair(query_hash, query_check, entry.canonical_hash,
                         entry.check_hash);
}

EquivalenceCatalog::AgendaWalk EquivalenceCatalog::WalkAgenda(
    uint64_t query_hash, uint64_t query_check,
    const std::vector<size_t>& agenda, size_t start) const {
  // The class-at-a-time cascade, memo side: the root (agenda[0]) decides
  // the class — members are mutually proven equivalent, so either decisive
  // verdict transfers — and only a kUnknown (budget exhaustion /
  // unsupported fragment) moves on to the next surviving member, since
  // q ~ member and member ~ root compose just as well.
  AgendaWalk walk;
  for (walk.stop = start; walk.stop < agenda.size(); ++walk.stop) {
    const CheckedPair key = MemoKey(query_hash, query_check, agenda[walk.stop]);
    const VerifierMemo::LookupOutcome memoized =
        memo_.Lookup(key.key, key.check);
    if (memoized.collision) ++walk.collisions;
    if (!memoized.verdict) {
      walk.missed = true;
      return walk;
    }
    ++walk.memo_hits;
    if (*memoized.verdict != EquivalenceVerdict::kUnknown) {
      walk.decision = *memoized.verdict;
      return walk;
    }
  }
  return walk;
}

size_t EquivalenceCatalog::ClassShortcuts(EquivalenceVerdict decision,
                                          const std::vector<size_t>& agenda,
                                          size_t lookups) const {
  size_t decided = 0;
  if (decision == EquivalenceVerdict::kEquivalent) {
    decided = classes_.ClassSize(agenda.front());
  } else if (decision == EquivalenceVerdict::kNotEquivalent) {
    decided = agenda.size();
  }
  return decided > lookups ? decided - lookups : 0;
}

Result<EquivalenceCatalog::ReadProbeResult> EquivalenceCatalog::ProbeReadOnly(
    const QueryContext& query) const {
  GEQO_RETURN_NOT_OK(options_status_);
  const GeqoOptions& opt = options_.pipeline;
  ReadProbeResult result;
  GEQO_ASSIGN_OR_RETURN(FilterOutcome filtered,
                        RunFilters(query, &result.stages));

  // Stage 4 (read-only): classify each survivor from the memo and the class
  // forest alone. Proven/Refuted verdicts are final; everything else is
  // Likely, and classes with at least one un-memoized pair go on the pending
  // agenda for the async verifier plane. No verifier call, no mutation.
  StageReport classify = MakeStage("classify", opt.run_verifier);
  StageScope classify_scope("serve.classify");
  classify.pairs_in = filtered.candidates.size();
  std::map<size_t, float> score_of;
  for (size_t k = 0; k < filtered.candidates.size(); ++k) {
    score_of[filtered.candidates[k]] = filtered.scores[k];
  }
  std::vector<size_t> proven_roots;
  if (!opt.run_verifier) {
    // Batch-pipeline parity: without the verifier, the filter survivors are
    // the (approximate) equivalences — final, nothing pending.
    for (const size_t id : filtered.candidates) {
      result.matches.push_back(
          ProbeMatch{id, MatchVerdict::kProven, score_of[id]});
      result.proven_ids.push_back(id);
      proven_roots.push_back(classes_.Find(id));
    }
  } else if (!filtered.candidates.empty()) {
    std::map<size_t, std::vector<size_t>> by_class;
    for (const size_t id : filtered.candidates) {
      by_class[classes_.Find(id)].push_back(id);
    }
    for (const auto& [root, class_candidates] : by_class) {
      // The agenda: root first, then the surviving members. A miss defers
      // the whole class to the async plane, which resumes at the miss.
      std::vector<size_t> agenda;
      agenda.push_back(root);
      for (const size_t id : class_candidates) {
        if (id != root) agenda.push_back(id);
      }
      const AgendaWalk walk =
          WalkAgenda(query.canonical_hash, query.check_hash, agenda, 0);
      result.memo_hits += walk.memo_hits;
      result.collisions += walk.collisions;
      MatchVerdict match_verdict = MatchVerdict::kLikely;
      if (walk.missed) {
        result.pending.push_back(ClassDecision{std::move(agenda), walk.stop});
      } else if (walk.decision) {
        result.class_shortcuts +=
            ClassShortcuts(*walk.decision, agenda, walk.memo_hits);
        if (*walk.decision == EquivalenceVerdict::kEquivalent) {
          match_verdict = MatchVerdict::kProven;
          proven_roots.push_back(root);
          const std::vector<size_t> members = ClassMembers(root);
          result.proven_ids.insert(result.proven_ids.end(), members.begin(),
                                   members.end());
        } else {
          match_verdict = MatchVerdict::kRefuted;
        }
      }
      // No decision and no miss: every agenda pair is memoized kUnknown —
      // the verifier already gave up on this class, so it stays Likely
      // forever (the async plane would re-derive exactly that).
      for (const size_t id : class_candidates) {
        result.matches.push_back(ProbeMatch{id, match_verdict, score_of[id]});
      }
    }
  }
  std::sort(result.matches.begin(), result.matches.end(),
            [](const ProbeMatch& a, const ProbeMatch& b) { return a.id < b.id; });
  std::sort(result.proven_ids.begin(), result.proven_ids.end());
  result.proven_ids.erase(
      std::unique(result.proven_ids.begin(), result.proven_ids.end()),
      result.proven_ids.end());
  if (!proven_roots.empty()) {
    result.representative =
        *std::min_element(proven_roots.begin(), proven_roots.end());
  }
  classify.pairs_out = result.matches.size();
  classify_scope.Finish(&classify);
  result.stages.push_back(std::move(classify));
  return result;
}

Status EquivalenceCatalog::ExportSnapshot(std::ostream& os) const {
  GEQO_RETURN_NOT_OK(options_status_);
  // Buffer the payload so the v2 checksum footer can cover it whole.
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "catalog snapshot");
  writer.U64(io::kCatalogMagic);
  writer.U64(io::kCatalogVersion);
  writer.U64(CatalogFingerprint(*wiring_.db_catalog));
  writer.U64(wiring_.model->embedding_dim());
  writer.U64(entries_.size());
  for (const Entry& entry : entries_) writer.U64(entry.canonical_hash);
  GEQO_RETURN_NOT_OK(writer.status());
  GEQO_RETURN_NOT_OK(index_->Serialize(payload));
  for (const size_t parent : classes_.CompressedParents()) {
    writer.U64(parent);
  }
  memo_.Serialize(writer);
  writer.U64(io::kCatalogEndMagic);
  GEQO_RETURN_NOT_OK(writer.status());
  return io::WriteChecksummed(os, payload.str(), "catalog snapshot");
}

Result<std::unique_ptr<EquivalenceCatalog>> EquivalenceCatalog::ImportSnapshot(
    std::istream& is, const CatalogComponents& wiring,
    const std::vector<PlanPtr>& plans, CatalogOptions options) {
  // The v2 footer checksums the whole payload: corruption anywhere —
  // including trailing bytes after the end marker — fails here, before any
  // section is interpreted.
  GEQO_ASSIGN_OR_RETURN(const std::string payload,
                        io::ReadChecksummed(is, "catalog snapshot"));
  std::istringstream stream(payload);
  io::BinaryReader reader(stream, "catalog snapshot");
  const uint64_t magic = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  if (magic != io::kCatalogMagic) {
    return Status::InvalidArgument(
        "catalog snapshot: bad magic (not a catalog snapshot)");
  }
  const uint64_t version = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  if (version != io::kCatalogVersion) {
    return Status::InvalidArgument(
        "catalog snapshot: unsupported version " + std::to_string(version) +
        " (expected " + std::to_string(io::kCatalogVersion) + ")");
  }
  const uint64_t saved_fingerprint = reader.U64();
  const uint64_t saved_dim = reader.U64();
  const uint64_t count = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  const uint64_t expected_fingerprint = CatalogFingerprint(*wiring.db_catalog);
  if (saved_fingerprint != expected_fingerprint) {
    return Status::InvalidArgument(
        "catalog snapshot: database schema fingerprint mismatch (snapshot " +
        std::to_string(saved_fingerprint) + ", current " +
        std::to_string(expected_fingerprint) +
        ") — the snapshot was built against a different catalog");
  }
  if (saved_dim != wiring.model->embedding_dim()) {
    return Status::InvalidArgument(
        "catalog snapshot: embedding dim mismatch (snapshot " +
        std::to_string(saved_dim) + ", model " +
        std::to_string(wiring.model->embedding_dim()) + ")");
  }
  if (count != plans.size()) {
    return Status::InvalidArgument(
        "catalog snapshot: entry count mismatch (snapshot " +
        std::to_string(count) + ", caller supplied " +
        std::to_string(plans.size()) + " plans)");
  }
  std::vector<uint64_t> hashes(count);
  for (auto& hash : hashes) hash = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());

  auto catalog =
      std::make_unique<EquivalenceCatalog>(wiring, std::move(options));
  GEQO_RETURN_NOT_OK(catalog->options_status_);
  // Re-derive only the cheap per-entry state (signature, instance encoding,
  // the two canonical hashes); embeddings come from the serialized index
  // below and memoized verdicts from the memo section — nothing is
  // re-embedded or re-proved.
  for (size_t i = 0; i < plans.size(); ++i) {
    GEQO_ASSIGN_OR_RETURN(QueryContext query,
                          PrepareQuery(wiring, plans[i]));
    if (query.canonical_hash != hashes[i]) {
      return Status::InvalidArgument(
          "catalog snapshot: plan " + std::to_string(i) +
          " does not match the snapshot (canonical hash " +
          std::to_string(query.canonical_hash) + ", snapshot expects " +
          std::to_string(hashes[i]) + ") — plans must be passed in Add order");
    }
    catalog->sf_groups_[query.signature].push_back(i);
    catalog->entries_.push_back(Entry{std::move(query.plan),
                                      query.canonical_hash, query.check_hash,
                                      std::move(query.encoded)});
  }
  GEQO_ASSIGN_OR_RETURN(catalog->index_, ann::HnswIndex::Deserialize(stream));
  if (catalog->index_->size() != count) {
    return Status::InvalidArgument(
        "catalog snapshot: index holds " +
        std::to_string(catalog->index_->size()) + " vectors for " +
        std::to_string(count) + " entries (corrupt snapshot)");
  }
  if (catalog->index_->dim() != saved_dim) {
    return Status::InvalidArgument(
        "catalog snapshot: index dim does not match header (corrupt "
        "snapshot)");
  }
  std::vector<size_t> parents(count);
  for (auto& parent : parents) parent = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  GEQO_RETURN_NOT_OK(catalog->classes_.Restore(std::move(parents)));
  GEQO_RETURN_NOT_OK(catalog->memo_.Deserialize(reader));
  if (reader.U64() != io::kCatalogEndMagic) {
    reader.Fail("missing end marker");
  }
  GEQO_RETURN_NOT_OK(reader.status());
  if (!reader.AtEof()) {
    return Status::InvalidArgument(
        "catalog snapshot: trailing bytes after end marker (corrupt "
        "snapshot)");
  }
  if (obs::MetricsEnabled()) catalog->UpdateGauges();
  return catalog;
}

}  // namespace geqo::serve

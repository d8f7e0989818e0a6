#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "ann/hnsw.h"
#include "core/geqo_system.h"
#include "filters/emf_filter.h"
#include "filters/schema_filter.h"
#include "filters/vmf.h"
#include "serve/sharded_catalog.h"
#include "serve/union_find.h"
#include "verify/verifier.h"
#include "workload/labeled_data.h"

/// \file serve_test_util.h
/// Helpers for the serving suites: the synchronous serving step that must
/// succeed, and an independent oracle for the catalog's equivalence
/// partition.

namespace geqo::testing {

/// The synchronous step (serve::ProbeAndDrain), which must succeed.
inline serve::VerifiedProbe ProbeVerified(serve::ShardedCatalog& catalog,
                                          const PlanPtr& plan) {
  auto step = serve::ProbeAndDrain(catalog, plan);
  GEQO_CHECK(step.ok()) << step.status().ToString();
  return std::move(*step);
}

/// The synchronous step (serve::ProbeAddAndDrain), which must succeed.
inline serve::VerifiedProbe ProbeAddVerified(serve::ShardedCatalog& catalog,
                                             const PlanPtr& plan) {
  auto step = serve::ProbeAddAndDrain(catalog, plan);
  GEQO_CHECK(step.ok()) << step.status().ToString();
  return std::move(*step);
}

/// Members of \p id's class other than \p id: after ProbeAddVerified, the
/// entries the new query was proven equivalent to.
inline std::vector<size_t> EquivalentsOf(const serve::ShardedCatalog& catalog,
                                         size_t id) {
  std::vector<size_t> members = catalog.ClassMembers(id);
  members.erase(std::remove(members.begin(), members.end(), id),
                members.end());
  return members;
}

/// The synchronous class-at-a-time cascade, rebuilt from the public filter,
/// index, verifier, and union-find pieces: each ProbeAdd filters the query
/// against every entry (SF signature, VMF radius search, EMF threshold),
/// verifies each candidate class root first — moving on to the surviving
/// members only past a kUnknown — and joins every proven class. It shares
/// no serving code with the catalog it checks.
class CascadeOracle {
 public:
  explicit CascadeOracle(GeqoSystem& system)
      : system_(system),
        options_(system.options().pipeline),
        verifier_(&system.catalog(), options_.verifier) {
    GEQO_CHECK(options_.run_verifier);
  }

  void ProbeAdd(const PlanPtr& plan) {
    const Catalog& catalog = system_.catalog();
    auto signature = SchemaSignature(plan, catalog);
    GEQO_CHECK(signature.ok()) << signature.status().ToString();
    auto encoded = EncodeWorkload({plan}, system_.instance_layout(), catalog,
                                  system_.value_range());
    GEQO_CHECK(encoded.ok()) << encoded.status().ToString();
    const VectorMatchingFilter vmf(&system_.model(), &system_.instance_layout(),
                                   &system_.agnostic_layout(), options_.vmf);
    auto embedding = vmf.EmbedSingle((*encoded)[0]);
    GEQO_CHECK(embedding.ok()) << embedding.status().ToString();

    std::vector<size_t> candidates;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!options_.use_sf || entries_[i].signature == *signature) {
        candidates.push_back(i);
      }
    }
    if (options_.use_vmf && !candidates.empty()) {
      std::vector<size_t> hits;
      for (const ann::Neighbor& neighbor :
           index_->SearchRadius(embedding->data(), options_.vmf.radius)) {
        hits.push_back(neighbor.id);
      }
      std::sort(hits.begin(), hits.end());
      std::vector<size_t> kept;
      std::set_intersection(candidates.begin(), candidates.end(),
                            hits.begin(), hits.end(),
                            std::back_inserter(kept));
      candidates = std::move(kept);
    }
    if (options_.use_emf && !candidates.empty()) {
      const EquivalenceModelFilter emf(&system_.model(),
                                       &system_.instance_layout(),
                                       &system_.agnostic_layout(),
                                       options_.emf);
      std::vector<const EncodedPlan*> views = {&(*encoded)[0]};
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t k = 0; k < candidates.size(); ++k) {
        views.push_back(&entries_[candidates[k]].encoded);
        pairs.emplace_back(0, k + 1);
      }
      auto scores = emf.Scores(pairs, views);
      GEQO_CHECK(scores.ok()) << scores.status().ToString();
      std::vector<size_t> kept;
      for (size_t k = 0; k < candidates.size(); ++k) {
        if ((*scores)[k] >= options_.emf.threshold) {
          kept.push_back(candidates[k]);
        }
      }
      candidates = std::move(kept);
    }

    std::map<size_t, std::vector<size_t>> by_class;
    for (const size_t id : candidates) {
      by_class[classes_.Find(id)].push_back(id);
    }
    std::vector<size_t> proven_roots;
    for (const auto& [root, members] : by_class) {
      EquivalenceVerdict verdict =
          verifier_.CheckEquivalence(plan, entries_[root].plan);
      for (const size_t id : members) {
        if (verdict != EquivalenceVerdict::kUnknown) break;
        if (id != root) {
          verdict = verifier_.CheckEquivalence(plan, entries_[id].plan);
        }
      }
      if (verdict == EquivalenceVerdict::kEquivalent) {
        proven_roots.push_back(root);
      }
    }

    if (index_ == nullptr) {
      index_ = std::make_unique<ann::HnswIndex>(embedding->size(),
                                                options_.vmf.hnsw);
    }
    index_->Add(*embedding);
    entries_.push_back(Entry{plan, *signature, std::move((*encoded)[0])});
    const size_t id = classes_.Add();
    for (const size_t root : proven_roots) classes_.Union(id, root);
  }

  size_t ClassOf(size_t id) const { return classes_.Find(id); }
  size_t NumClasses() const { return classes_.NumClasses(); }

 private:
  struct Entry {
    PlanPtr plan;
    SfSignature signature;
    EncodedPlan encoded;
  };

  GeqoSystem& system_;
  GeqoOptions options_;
  SpesVerifier verifier_;
  std::vector<Entry> entries_;
  std::unique_ptr<ann::HnswIndex> index_;
  serve::UnionFind classes_;
};

/// Replays \p catalog's entries (in global Add order) through the
/// CascadeOracle and demands the same same-class relation for every entry
/// pair.
inline void ExpectOracleAgreement(GeqoSystem& system,
                                  const serve::ShardedCatalog& catalog) {
  CascadeOracle oracle(system);
  for (size_t gid = 0; gid < catalog.size(); ++gid) {
    oracle.ProbeAdd(catalog.plan(gid));
  }
  for (size_t i = 0; i < catalog.size(); ++i) {
    for (size_t j = i + 1; j < catalog.size(); ++j) {
      EXPECT_EQ(catalog.ClassOf(i) == catalog.ClassOf(j),
                oracle.ClassOf(i) == oracle.ClassOf(j))
          << "entries " << i << " and " << j
          << " disagree with the oracle replay";
    }
  }
  EXPECT_EQ(catalog.NumClasses(), oracle.NumClasses());
}

}  // namespace geqo::testing

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "exec/executor.h"

/// \file result_cache.h
/// Budgeted result caching (§7.7): given a workload whose equivalence
/// classes are known (detected by GEqO), materialize one representative
/// result per class under a storage budget — most-expensive-first, using
/// past runtime statistics — and serve later class members from the cache.
/// ResultCacheSimulator replays a fully-profiled workload offline;
/// OnlineResultCache makes the same value-ordered admission decision one
/// query at a time, for the serving loop where classes arrive incrementally
/// (serve::ShardedCatalog::ProbeAdd supplies the class ids).

namespace geqo {

/// \brief One workload entry's measured execution profile.
struct QueryProfile {
  size_t query_index = 0;
  size_t equivalence_class = 0;  ///< class id within the workload
  double execution_seconds = 0.0;
  size_t result_bytes = 0;
};

/// \brief Outcome of simulating the cache at one storage budget.
struct CacheSimulation {
  size_t budget_bytes = 0;
  size_t used_bytes = 0;
  size_t classes_materialized = 0;
  double baseline_seconds = 0.0;  ///< workload cost with no cache
  double cached_seconds = 0.0;    ///< workload cost with the cache
  double ReductionPercent() const {
    if (baseline_seconds <= 0.0) return 0.0;
    return 100.0 * (baseline_seconds - cached_seconds) / baseline_seconds;
  }
};

/// \brief Simulates the §7.7 caching policy over measured profiles.
///
/// Classes are considered most-expensive-first (total time saved by caching
/// = the summed cost of every occurrence after the first, plus re-serving
/// the representative at ~zero cost). A class is materialized if its result
/// fits the remaining budget. The full-materialization footprint (one
/// representative per class) is the 100% budget reference point.
class ResultCacheSimulator {
 public:
  explicit ResultCacheSimulator(std::vector<QueryProfile> profiles)
      : profiles_(std::move(profiles)) {}

  /// Bytes needed to materialize one representative of every class.
  size_t FullMaterializationBytes() const;

  /// Simulates a run with \p budget_bytes of cache storage.
  CacheSimulation Simulate(size_t budget_bytes) const;

 private:
  std::vector<QueryProfile> profiles_;
};

/// \brief One access to the online cache.
///
/// Replaces the old positional-scalar OnQuery(size_t, double, size_t)
/// signature: callers name every field, and the access carries the query's
/// identity (class id + canonical plan hash) alongside its cost profile so
/// serving loops can correlate cache decisions with catalog probes.
struct CacheRequest {
  size_t equivalence_class = 0;  ///< class id (e.g. ShardedCatalog::ClassOf)
  uint64_t canonical_hash = 0;   ///< canonical plan signature of the query
  double execution_seconds = 0.0;  ///< cost of a fresh execution
  size_t result_bytes = 0;         ///< materialized size of the result
};

/// \brief Outcome of one OnlineResultCache::OnQuery call.
struct CacheAccess {
  size_t equivalence_class = 0;  ///< echoed from the request
  uint64_t canonical_hash = 0;   ///< echoed from the request
  bool hit = false;       ///< served from a materialized representative
  bool admitted = false;  ///< this access materialized the class
  bool evicted = false;   ///< admission displaced at least one other class
  /// What the caller pays for this access: 0 on a hit, the measured
  /// execution time otherwise.
  double charged_seconds = 0.0;
};

/// \brief Cumulative OnlineResultCache counters.
struct OnlineCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t admissions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;  ///< admission attempts that lost on value or size
  size_t used_bytes = 0;
  double saved_seconds = 0.0;     ///< summed cost of all hits
  double executed_seconds = 0.0;  ///< summed cost of all misses
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief Online (streaming) version of the §7.7 policy.
///
/// The first access to a class always executes: there is no evidence of
/// reuse yet and the simulator's value function (time saved = everything
/// after the first occurrence) is exactly zero. From the second access on,
/// the class has demonstrated reuse and is admitted if its accumulated
/// saved-seconds value beats the cheapest residents needed to make room
/// (lower-value residents are evicted). This converges to the simulator's
/// most-expensive-first choice as observations accumulate.
class OnlineResultCache {
 public:
  explicit OnlineResultCache(size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Records one access described by \p request and returns the cache's
  /// decision for it. The request's identity fields are echoed into the
  /// returned CacheAccess.
  CacheAccess OnQuery(const CacheRequest& request);

  bool Contains(size_t equivalence_class) const {
    const auto it = classes_.find(equivalence_class);
    return it != classes_.end() && it->second.materialized;
  }

  size_t budget_bytes() const { return budget_bytes_; }
  const OnlineCacheStats& stats() const { return stats_; }

 private:
  struct ClassState {
    bool materialized = false;
    size_t result_bytes = 0;
    uint64_t representative_hash = 0;  ///< canonical hash of the resident
    double saved_seconds = 0.0;  ///< accumulated value (post-first accesses)
    size_t accesses = 0;
  };

  /// Evicts lowest-value residents until \p needed_bytes fit; returns false
  /// (leaving the cache untouched) if even that would not make room or the
  /// candidate's \p value does not beat the victims'.
  bool MakeRoom(size_t needed_bytes, double value, size_t* evicted);

  size_t budget_bytes_;
  std::map<size_t, ClassState> classes_;
  OnlineCacheStats stats_;
};

}  // namespace geqo

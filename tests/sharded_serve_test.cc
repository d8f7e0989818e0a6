#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lock_rank.h"
#include "core/geqo_system.h"
#include "serve/sharded_catalog.h"
#include "serve_test_util.h"
#include "test_util.h"
#include "workload/schemas.h"

// The sharded serving catalog's concurrency contract: probes never block
// behind verification, concurrent probers and adders agree with an
// independent replay of the synchronous cascade, proofs are never
// retracted, the async plane loses no verdicts across a drain, and
// GEQOSHRD snapshots round-trip the pending-verification tail. The whole
// suite runs under the TSan lane of scripts/check.sh.

namespace geqo {
namespace {

using serve::MatchVerdict;
using serve::ProbeMatch;
using serve::ShardedCatalog;
using serve::ShardedCatalogOptions;
using serve::ShardedProbeResult;
using testing::MustParse;

class ShardedServeTest : public ::testing::Test {
 protected:
  static GeqoSystem& System() {
    static GeqoSystem* system = [] {
      static Catalog catalog = MakeTpchCatalog();
      GeqoSystemOptions options;
      options.model.conv1_size = 32;
      options.model.conv2_size = 32;
      options.model.fc1_size = 32;
      options.model.fc2_size = 16;
      options.model.dropout = 0.2f;
      options.training.epochs = 8;
      options.synthetic_data.num_base_queries = 40;
      auto* out = new GeqoSystem(&catalog, options);
      GEQO_CHECK_OK(out->TrainOnSyntheticWorkload(0xC0DE).status());
      return out;
    }();
    return *system;
  }

  /// Four signature groups (lineitem, supplier, orders, customer) so the
  /// plans spread across shards; each group carries equivalent rewrites and
  /// the lineitem group a near-miss.
  static std::vector<PlanPtr> StreamPlans() {
    const Catalog& catalog = System().catalog();
    return {
        MustParse("SELECT l_orderkey FROM lineitem WHERE l_quantity + 5 > 25",
                  catalog),
        MustParse("SELECT l_orderkey FROM lineitem WHERE 20 < l_quantity",
                  catalog),
        MustParse("SELECT l_orderkey FROM lineitem WHERE l_quantity > 20",
                  catalog),
        MustParse("SELECT l_orderkey FROM lineitem WHERE l_quantity > 21",
                  catalog),
        MustParse("SELECT s_suppkey FROM supplier WHERE s_acctbal > 40",
                  catalog),
        MustParse("SELECT s_suppkey FROM supplier WHERE 40 < s_acctbal",
                  catalog),
        MustParse("SELECT o_orderkey FROM orders WHERE o_totalprice > 100",
                  catalog),
        MustParse("SELECT o_orderkey FROM orders WHERE 100 < o_totalprice",
                  catalog),
        MustParse("SELECT c_custkey FROM customer WHERE c_acctbal > 10",
                  catalog),
        MustParse("SELECT c_custkey FROM customer WHERE 10 < c_acctbal",
                  catalog),
    };
  }

  static std::unique_ptr<ShardedCatalog> Open(size_t num_shards,
                                              size_t verifier_threads) {
    ShardedCatalogOptions options;
    options.catalog.pipeline = System().options().pipeline;
    options.num_shards = num_shards;
    options.verifier_threads = verifier_threads;
    return System().OpenShardedCatalog(options);
  }

  /// The partition-agreement oracle (see serve_test_util.h).
  static void ExpectOracleAgreement(const ShardedCatalog& sharded) {
    testing::ExpectOracleAgreement(System(), sharded);
  }
};

TEST_F(ShardedServeTest, InvalidOptionsArePoison) {
  ShardedCatalogOptions options;
  options.catalog.pipeline = System().options().pipeline;
  options.num_shards = 0;
  auto zero_shards = System().OpenShardedCatalog(options);
  EXPECT_FALSE(zero_shards->Probe(StreamPlans()[0]).ok());

  options.num_shards = 2;
  options.verifier_threads = 0;
  options.verify_queue_capacity = 8;  // bounded queue with no consumer
  auto deadlock_prone = System().OpenShardedCatalog(options);
  EXPECT_FALSE(deadlock_prone->ProbeAdd(StreamPlans()[0]).ok());
}

TEST_F(ShardedServeTest, DeferredModeMatchesOracleAfterDrain) {
  auto sharded = Open(/*num_shards=*/3, /*verifier_threads=*/0);
  const std::vector<PlanPtr> plans = StreamPlans();
  for (const PlanPtr& plan : plans) {
    const auto result = sharded->ProbeAdd(plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  // Nothing verified yet: equivalences are still queued classes.
  EXPECT_GT(sharded->PendingVerifications(), 0u);
  sharded->DrainPendingVerifications();
  EXPECT_EQ(sharded->PendingVerifications(), 0u);
  ExpectOracleAgreement(*sharded);

  // Once drained, a repeat probe answers decisively from the memo and the
  // class forest — nothing new reaches the async plane.
  const auto probe = sharded->Probe(plans[2]);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->pending_classes, 0u);
  ASSERT_TRUE(probe->representative.has_value());
  EXPECT_EQ(*probe->representative, 0u);
  std::vector<size_t> proven;
  for (const ProbeMatch& match : probe->matches) {
    if (match.verdict == MatchVerdict::kProven) proven.push_back(match.id);
    EXPECT_NE(match.verdict, MatchVerdict::kLikely);
  }
  EXPECT_EQ(probe->proven_ids, (std::vector<size_t>{0, 1, 2}));

  // Stage accounting carries the shard tag and the prepare stage, and
  // seconds is the stage sum (same contract as the unsharded probe path).
  ASSERT_FALSE(probe->stages.empty());
  EXPECT_EQ(probe->stages.front().name, "prepare");
  double stage_sum = 0.0;
  for (const StageReport& stage : probe->stages) {
    if (stage.name != "prepare") {
      EXPECT_EQ(stage.shard, static_cast<int>(probe->shard)) << stage.name;
    }
    stage_sum += stage.seconds;
  }
  EXPECT_DOUBLE_EQ(probe->seconds, stage_sum);
}

TEST_F(ShardedServeTest, BackgroundWorkersLoseNoVerdicts) {
  auto sharded = Open(/*num_shards=*/4, /*verifier_threads=*/2);
  for (const PlanPtr& plan : StreamPlans()) {
    ASSERT_TRUE(sharded->ProbeAdd(plan).ok());
  }
  sharded->DrainPendingVerifications();
  EXPECT_EQ(sharded->PendingVerifications(), 0u);
  const auto stats = sharded->stats();
  EXPECT_EQ(stats.verify_tasks_completed, stats.verify_tasks_enqueued);
  ExpectOracleAgreement(*sharded);
}

TEST_F(ShardedServeTest, ConcurrentProbersAndAddersAgreeWithOracle) {
  auto sharded = Open(/*num_shards=*/4, /*verifier_threads=*/2);
  const std::vector<PlanPtr> plans = StreamPlans();
  // Warm start so probers have something to hit from the first iteration.
  for (const PlanPtr& plan : plans) {
    ASSERT_TRUE(sharded->ProbeAdd(plan).ok());
  }

  constexpr int kProbers = 4;
  constexpr int kAdders = 2;
  constexpr int kProbeRounds = 25;
  std::atomic<bool> failed{false};
  // Every probe result a prober saw, for the no-retraction check below.
  std::vector<std::vector<ShardedProbeResult>> seen(kProbers);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProbers; ++p) {
    threads.emplace_back([&, p] {
      for (int round = 0; round < kProbeRounds; ++round) {
        const auto result = sharded->Probe(plans[(p + round) % plans.size()]);
        if (!result.ok()) {
          failed = true;
          return;
        }
        seen[p].push_back(*result);
      }
    });
  }
  for (int a = 0; a < kAdders; ++a) {
    threads.emplace_back([&] {
      for (const PlanPtr& plan : plans) {
        if (!sharded->ProbeAdd(plan).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());
  ASSERT_EQ(sharded->size(), plans.size() * (1 + kAdders));

  sharded->DrainPendingVerifications();
  EXPECT_EQ(sharded->PendingVerifications(), 0u);

  // Proofs are monotone: everything a mid-stream probe reported proven is
  // still one class in the final state, never split back apart.
  for (const auto& prober_results : seen) {
    for (const ShardedProbeResult& result : prober_results) {
      if (!result.representative.has_value()) continue;
      const size_t root = sharded->ClassOf(*result.representative);
      for (const size_t id : result.proven_ids) {
        EXPECT_EQ(sharded->ClassOf(id), root);
      }
    }
  }

  ExpectOracleAgreement(*sharded);

  const auto stats = sharded->stats();
  EXPECT_EQ(stats.adds, plans.size() * (1 + kAdders));
  EXPECT_EQ(stats.probes,
            plans.size() * (1 + kAdders) + kProbers * kProbeRounds);
  EXPECT_EQ(stats.verify_tasks_completed, stats.verify_tasks_enqueued);
}

TEST_F(ShardedServeTest, SnapshotRoundTripsStateAndPendingTail) {
  auto original = Open(/*num_shards=*/3, /*verifier_threads=*/0);
  const std::vector<PlanPtr> plans = StreamPlans();
  std::vector<PlanPtr> in_add_order;
  for (const PlanPtr& plan : plans) {
    ASSERT_TRUE(original->ProbeAdd(plan).ok());
    in_add_order.push_back(plan);
  }
  ASSERT_GT(original->PendingVerifications(), 0u);
  const size_t pending_before = original->PendingVerifications();

  std::stringstream snapshot;
  ASSERT_TRUE(original->ExportSnapshot(snapshot).ok());

  ShardedCatalogOptions load_options;
  load_options.catalog.pipeline = System().options().pipeline;
  load_options.verifier_threads = 0;
  load_options.num_shards = 9999;  // ignored: the snapshot's count wins
  auto loaded_or =
      System().ImportShardedSnapshot(snapshot, in_add_order, load_options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  auto loaded = std::move(*loaded_or);

  EXPECT_EQ(loaded->num_shards(), 3u);
  EXPECT_EQ(loaded->size(), original->size());
  EXPECT_EQ(loaded->memo_size(), original->memo_size());
  // The pending-verification backlog survived the restart (every queued
  // task here is entry-entry, so none are dropped).
  EXPECT_EQ(loaded->PendingVerifications(), pending_before);
  EXPECT_EQ(loaded->stats().dropped_probe_tasks, 0u);

  // Draining the restored backlog converges to the same classes as draining
  // the uninterrupted catalog — and the drained snapshots are bit-identical.
  original->DrainPendingVerifications();
  loaded->DrainPendingVerifications();
  EXPECT_EQ(loaded->PendingVerifications(), 0u);
  for (size_t gid = 0; gid < original->size(); ++gid) {
    EXPECT_EQ(loaded->ClassOf(gid), original->ClassOf(gid)) << gid;
  }
  std::ostringstream original_bytes;
  std::ostringstream loaded_bytes;
  ASSERT_TRUE(original->ExportSnapshot(original_bytes).ok());
  ASSERT_TRUE(loaded->ExportSnapshot(loaded_bytes).ok());
  EXPECT_EQ(original_bytes.str(), loaded_bytes.str());
}

TEST_F(ShardedServeTest, OverlappingSavesUnderActiveVerifierLoad) {
  ShardedCatalogOptions options;
  options.catalog.pipeline = System().options().pipeline;
  // Stall each verifier call so the Saves below land while workers are
  // mid-task with a queued backlog — the shape where Pause() used to wait
  // forever for an idle signal TaskDone only sent on an empty queue.
  options.catalog.pipeline.verifier.modeled_invocation_stall_seconds = 0.002;
  options.num_shards = 3;
  options.verifier_threads = 2;
  auto sharded = System().OpenShardedCatalog(options);
  const std::vector<PlanPtr> plans = StreamPlans();
  for (const PlanPtr& plan : plans) {
    ASSERT_TRUE(sharded->ProbeAdd(plan).ok());
  }

  // Overlapping exports from several threads: the queue pause must nest, so
  // no export observes workers retiring tasks mid-snapshot.
  constexpr int kSavers = 3;
  std::vector<std::string> snapshots(kSavers);
  std::atomic<bool> save_failed{false};
  std::vector<std::thread> savers;
  for (int i = 0; i < kSavers; ++i) {
    savers.emplace_back([&, i] {
      std::ostringstream bytes;
      if (sharded->ExportSnapshot(bytes).ok()) {
        snapshots[i] = bytes.str();
      } else {
        save_failed = true;
      }
    });
  }
  for (std::thread& saver : savers) saver.join();
  ASSERT_FALSE(save_failed.load());

  sharded->DrainPendingVerifications();
  EXPECT_EQ(sharded->PendingVerifications(), 0u);
  const auto stats = sharded->stats();
  EXPECT_EQ(stats.verify_tasks_completed, stats.verify_tasks_enqueued);
  ExpectOracleAgreement(*sharded);

  // Every snapshot captured a consistent state: restoring one and draining
  // its saved pending tail converges to the same classes as the catalog
  // that was never interrupted — no pending verification was lost to an
  // overlapping Save.
  for (int i = 0; i < kSavers; ++i) {
    std::stringstream stream(snapshots[i]);
    ShardedCatalogOptions load_options;
    load_options.catalog.pipeline = System().options().pipeline;
    load_options.verifier_threads = 0;
    auto loaded_or = System().ImportShardedSnapshot(stream, plans, load_options);
    ASSERT_TRUE(loaded_or.ok())
        << "snapshot " << i << ": " << loaded_or.status().ToString();
    auto loaded = std::move(*loaded_or);
    loaded->DrainPendingVerifications();
    for (size_t gid = 0; gid < sharded->size(); ++gid) {
      EXPECT_EQ(loaded->ClassOf(gid), sharded->ClassOf(gid))
          << "snapshot " << i << ", entry " << gid;
    }
  }
}

TEST_F(ShardedServeTest, ProbePreparationDoesNotRaceShardZeroInserts) {
  // Regression: preparation once ran on shard 0's *live* catalog, so every
  // probe's prepare/embed stage read a guarded member with no lock while
  // shard-0 inserts mutated it — a data race TSan flags and the thread-
  // safety annotations reject. Preparation now reads only the immutable
  // component wiring. With one shard, every add lands on shard 0,
  // maximizing pressure on that path.
  auto sharded = Open(/*num_shards=*/1, /*verifier_threads=*/2);
  const std::vector<PlanPtr> plans = StreamPlans();
  ASSERT_TRUE(sharded->ProbeAdd(plans[0]).ok());

  constexpr int kProbers = 3;
  constexpr int kAdders = 3;
  constexpr int kRounds = 20;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProbers; ++p) {
    threads.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        if (!sharded->Probe(plans[(p + round) % plans.size()]).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (int a = 0; a < kAdders; ++a) {
    threads.emplace_back([&] {
      for (const PlanPtr& plan : plans) {
        if (!sharded->ProbeAdd(plan).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());
  sharded->DrainPendingVerifications();
  ExpectOracleAgreement(*sharded);
}

TEST_F(ShardedServeTest, ServeLatticeIsRankCleanIncludingSnapshotImport) {
  // Regression: ImportSnapshot used to install the rebuilt global map and
  // per-shard state through unlocked writes to guarded members. It now
  // stages everything in locals and installs under the shard locks, then
  // the map lock — ascending rank order. Running the full serve workout
  // with the runtime rank checker armed turns any ordering regression
  // (here or anywhere on the probe/add/verify/export/import paths) into a
  // deterministic abort, on every schedule.
  analysis::SetLockRankCheckingForTest(true);
  struct RestoreChecker {
    ~RestoreChecker() { analysis::SetLockRankCheckingForTest(false); }
  } restore;

  auto sharded = Open(/*num_shards=*/3, /*verifier_threads=*/2);
  const std::vector<PlanPtr> plans = StreamPlans();
  std::vector<PlanPtr> in_add_order;
  for (const PlanPtr& plan : plans) {
    ASSERT_TRUE(sharded->ProbeAdd(plan).ok());
    in_add_order.push_back(plan);
  }
  ASSERT_TRUE(sharded->Probe(plans[0]).ok());

  std::stringstream snapshot;
  ASSERT_TRUE(sharded->ExportSnapshot(snapshot).ok());
  ShardedCatalogOptions load_options;
  load_options.catalog.pipeline = System().options().pipeline;
  load_options.verifier_threads = 0;
  auto loaded_or =
      System().ImportShardedSnapshot(snapshot, in_add_order, load_options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  auto loaded = std::move(*loaded_or);
  loaded->DrainPendingVerifications();
  sharded->DrainPendingVerifications();
  for (size_t gid = 0; gid < sharded->size(); ++gid) {
    EXPECT_EQ(loaded->ClassOf(gid), sharded->ClassOf(gid)) << gid;
  }
}

TEST_F(ShardedServeTest, ProbeOnlyPendingTasksAreDroppedAtSaveAndCounted) {
  auto sharded = Open(/*num_shards=*/2, /*verifier_threads=*/0);
  const std::vector<PlanPtr> plans = StreamPlans();
  ASSERT_TRUE(sharded->ProbeAdd(plans[0]).ok());
  // A plain probe of an equivalent rewrite queues a task whose query is not
  // a catalog entry — unsaveable by design.
  const auto probe = sharded->Probe(plans[1]);
  ASSERT_TRUE(probe.ok());
  ASSERT_GT(probe->pending_classes, 0u);
  // The probe itself reports that its tasks cannot survive a restart.
  EXPECT_EQ(probe->probe_only_pending, probe->pending_classes);

  std::ostringstream bytes;
  ASSERT_TRUE(sharded->ExportSnapshot(bytes).ok());
  EXPECT_GT(sharded->stats().dropped_probe_tasks, 0u);

  // The probe-only task was dropped from the snapshot but not from the live
  // queue: draining still applies its verdict to the memo.
  sharded->DrainPendingVerifications();
  const auto again = sharded->Probe(plans[1]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->pending_classes, 0u);
  EXPECT_GT(again->memo_hits, 0u);
}

}  // namespace
}  // namespace geqo

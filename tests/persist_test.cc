#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/checksum_io.h"
#include "common/format_magic.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/geqo_system.h"
#include "serve/persist/catalog_store.h"
#include "serve/persist/kill_point.h"
#include "serve/persist/manifest.h"
#include "workload/generator.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

// Crash-recovery matrix for the LSM-style catalog store. Each scenario
// forks a child that arms a kill point (kill_point.h) and drives the store
// until _exit(137) fires at exactly that write-path boundary, then the
// parent reopens the half-written directory and proves recovery:
//
//   - kills between ops (after each add record, during checkpoint rotation,
//     mid-compaction, pre-manifest-swap, pre-GC) recover to a catalog whose
//     ExportSnapshot bytes are IDENTICAL to an uninterrupted reference;
//   - kills inside a multi-record op (mid-ProbeAdd) recover to the exact
//     durable log prefix: two independent recoveries of the same directory
//     are bit-identical, and the store keeps serving;
//   - a torn log tail is truncated (once), counted, and gone on the next
//     open; recovery itself can be killed and re-run idempotently;
//   - legacy one-shot snapshot files are rejected loudly, as is a store
//     whose manifest names the retired single-catalog kind.
//
// "Single" scenarios run the synchronous deployment — one shard, no
// background verifier threads, the plane drained after every ProbeAdd —
// and "Sharded" ones two shards with the backlog left queued.

namespace geqo::serve {
namespace {

namespace fs = std::filesystem;

class PersistTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog());
    GeqoSystemOptions options;
    options.model.conv1_size = 8;
    options.model.conv2_size = 8;
    options.model.fc1_size = 8;
    options.model.fc2_size = 4;
    // Wide-open funnel (untrained EMF): probes reach the exact verifier, so
    // the stream below proves equivalences, memoizes verdicts, and unions
    // classes — every record type flows through the log.
    options.pipeline.vmf.radius = 6.0f;
    options.pipeline.emf.threshold = 0.0f;
    system_ = new GeqoSystem(catalog_, options);

    // 8 generated subexpressions + 4 rewrites of the early ones.
    Rng rng(0xD15C);
    QueryGenerator generator(catalog_, GeneratorOptions());
    Rewriter rewriter(catalog_);
    plans_ = new std::vector<PlanPtr>(generator.GenerateMany(8, &rng));
    for (size_t i = 0; i < 4; ++i) {
      auto variant = rewriter.RewriteOnce((*plans_)[i], &rng);
      GEQO_CHECK(variant.ok());
      plans_->push_back(*variant);
    }
  }

  static void TearDownTestSuite() {
    delete plans_;
    delete system_;
    delete catalog_;
    plans_ = nullptr;
    system_ = nullptr;
    catalog_ = nullptr;
  }

  /// A fresh, empty store directory under the test tmpdir.
  static std::string StoreDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/persist_" + name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    return dir;
  }

  /// No background compaction worker: a forked child must not start
  /// threads (ThreadSanitizer refuses thread creation after a
  /// multi-threaded fork), and the streams here never reach a threshold.
  /// Maintenance scenarios compact explicitly.
  static DurabilityOptions NoBackgroundCompaction() {
    DurabilityOptions durability;
    durability.compact_after_records = 0;
    return durability;
  }

  static Result<std::unique_ptr<CatalogStore>> OpenSingle(
      const std::string& dir,
      const std::vector<PlanPtr>& plans = *plans_) {
    return system_->OpenShardedCatalogStore(
        dir, plans, ShardedCatalogOptions::Synchronous(
                        system_->options().pipeline),
        NoBackgroundCompaction());
  }

  static Result<std::unique_ptr<CatalogStore>> OpenShardedStore(
      const std::string& dir) {
    ShardedCatalogOptions options;
    options.num_shards = 2;
    options.verifier_threads = 0;  // deferred mode: deterministic streams
    return system_->OpenShardedCatalogStore(dir, *plans_, options,
                                            NoBackgroundCompaction());
  }

  static std::string SnapshotBytes(const CatalogStore& store) {
    std::ostringstream out;
    GEQO_CHECK_OK(store.ExportSnapshot(out));
    return out.str();
  }

  /// Forks a child that arms \p kill_point on hit \p hits and runs \p body;
  /// returns the child's exit code (137 when the kill fired, 0 when the
  /// body ran to completion without reaching the armed hit).
  static int RunKilledChild(const char* kill_point, int hits,
                            const std::function<void()>& body) {
    const pid_t pid = fork();
    GEQO_CHECK(pid >= 0);
    if (pid == 0) {
      persist::SetKillPoint(kill_point, hits);
      body();
      std::_Exit(0);
    }
    int status = 0;
    GEQO_CHECK(waitpid(pid, &status, 0) == pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static Catalog* catalog_;
  static GeqoSystem* system_;
  static std::vector<PlanPtr>* plans_;
};

Catalog* PersistTest::catalog_ = nullptr;
GeqoSystem* PersistTest::system_ = nullptr;
std::vector<PlanPtr>* PersistTest::plans_ = nullptr;

// ---------------------------------------------------------------------------
// Exact recovery at every record boundary: an add-only stream appends one
// record per op, so "killed after record k" is "killed between ops" for all
// k — the recovered + re-applied store must be bit-identical to a store
// that was never interrupted.

TEST_F(PersistTest, SingleAddStreamKilledAfterEveryRecordIsExact) {
  const std::string ref_dir = StoreDir("add_ref");
  std::string ref_bytes;
  {
    auto ref = OpenSingle(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*ref)->sharded()->Add(plan).ok());
    }
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }

  for (int k = 1;; ++k) {
    const std::string dir = StoreDir("add_kill");
    const int code = RunKilledChild("wal-append", k, [&] {
      auto store = OpenSingle(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->sharded()->Add(plan).ok());
      }
      GEQO_CHECK_OK((*store)->Close());
    });
    if (code == 0) {
      // Hit k exceeds the stream's record count: the matrix is exhausted.
      ASSERT_GT(k, static_cast<int>(plans_->size()));
      break;
    }
    ASSERT_EQ(code, 137) << "kill after record " << k;

    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const size_t recovered = (*store)->sharded()->size();
    EXPECT_EQ(recovered, static_cast<size_t>(k))
        << "every flushed add record must survive the crash";
    for (size_t i = recovered; i < plans_->size(); ++i) {
      ASSERT_TRUE((*store)->sharded()->Add((*plans_)[i]).ok());
    }
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes)
        << "recovery after record " << k
        << " + re-applied tail diverged from the uninterrupted reference";
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST_F(PersistTest, ShardedAddStreamKilledAfterEveryRecordIsExact) {
  const std::string ref_dir = StoreDir("shadd_ref");
  std::string ref_bytes;
  {
    auto ref = OpenShardedStore(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*ref)->sharded()->Add(plan).ok());
    }
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }

  for (int k = 1;; ++k) {
    const std::string dir = StoreDir("shadd_kill");
    const int code = RunKilledChild("wal-append", k, [&] {
      auto store = OpenShardedStore(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->sharded()->Add(plan).ok());
      }
      GEQO_CHECK_OK((*store)->Close());
    });
    if (code == 0) {
      ASSERT_GT(k, static_cast<int>(plans_->size()));
      break;
    }
    ASSERT_EQ(code, 137) << "kill after record " << k;

    auto store = OpenShardedStore(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const size_t recovered = (*store)->sharded()->size();
    EXPECT_EQ(recovered, static_cast<size_t>(k));
    for (size_t i = recovered; i < plans_->size(); ++i) {
      ASSERT_TRUE((*store)->sharded()->Add((*plans_)[i]).ok());
    }
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes)
        << "sharded recovery after record " << k << " diverged";
    ASSERT_TRUE((*store)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// Maintenance kill points: the full probe stream (verdicts, unions, memo)
// lands before the crash, which fires inside Checkpoint / Compact — log
// rotation, the mid-base export, the pre-manifest-swap window, and the
// pre-GC window. All state is durable by then, so recovery must be exact.

TEST_F(PersistTest, MaintenanceKillPointsRecoverBitIdentical) {
  const std::string ref_dir = StoreDir("maint_ref");
  std::string ref_bytes;
  {
    auto ref = OpenSingle(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE(ProbeAddAndDrain(*(*ref)->sharded(), plan).ok());
    }
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }

  for (const char* kill_point :
       {"manifest-tmp", "manifest-renamed", "compact-mid-base",
        "compact-pre-manifest", "compact-pre-gc"}) {
    const std::string dir = StoreDir("maint_kill");
    const int code = RunKilledChild("noop", 1, [&] {
      auto store = OpenSingle(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK(ProbeAddAndDrain(*(*store)->sharded(), plan).ok());
      }
      // Arm only now: Open's own rotation writes the manifest too, and the
      // crash under test is the one during maintenance.
      persist::SetKillPoint(kill_point);
      GEQO_CHECK_OK((*store)->Checkpoint());
      GEQO_CHECK_OK((*store)->Compact());
      GEQO_CHECK_OK((*store)->Close());
    });
    ASSERT_EQ(code, 137) << kill_point << " never fired";

    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok())
        << kill_point << ": " << store.status().ToString();
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes)
        << "crash at " << kill_point << " lost or invented state";
    // The recovered store keeps serving and checkpointing.
    ASSERT_TRUE((*store)->Checkpoint().ok()) << kill_point;
    ASSERT_TRUE((*store)->Compact().ok()) << kill_point;
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes) << kill_point;
    ASSERT_TRUE((*store)->Close().ok()) << kill_point;
  }
}

TEST_F(PersistTest, ShardedCheckpointKillRecoversPendingTail) {
  const std::string ref_dir = StoreDir("shmaint_ref");
  std::string ref_bytes;
  size_t ref_pending = 0;
  {
    auto ref = OpenShardedStore(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*ref)->sharded()->ProbeAdd(plan).ok());
    }
    ref_pending = (*ref)->sharded()->PendingVerifications();
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }
  // Deferred mode plus rewrites guarantees a non-empty pending tail, so the
  // crash window covers pending re-logging at rotation.
  ASSERT_GT(ref_pending, 0u);

  for (const char* kill_point : {"manifest-tmp", "manifest-renamed"}) {
    const std::string dir = StoreDir("shmaint_kill");
    const int code = RunKilledChild("noop", 1, [&] {
      auto store = OpenShardedStore(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->sharded()->ProbeAdd(plan).ok());
      }
      persist::SetKillPoint(kill_point);
      GEQO_CHECK_OK((*store)->Checkpoint());
      GEQO_CHECK_OK((*store)->Close());
    });
    ASSERT_EQ(code, 137) << kill_point << " never fired";

    auto store = OpenShardedStore(dir);
    ASSERT_TRUE(store.ok())
        << kill_point << ": " << store.status().ToString();
    EXPECT_EQ((*store)->sharded()->PendingVerifications(), ref_pending)
        << kill_point << " dropped or duplicated pending verifications";
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes) << kill_point;
    ASSERT_TRUE((*store)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// Kills inside a multi-record op (mid-ProbeAdd): the durable prefix is a
// legal catalog state, and recovering it must be deterministic — two
// independent recoveries of copies of the same crashed directory agree to
// the byte, and the recovered store still serves.

TEST_F(PersistTest, MidProbeKillsRecoverDeterministically) {
  for (const int k : {2, 5, 9, 14}) {
    const std::string dir = StoreDir("midprobe_kill");
    const int code = RunKilledChild("wal-append", k, [&] {
      auto store = OpenSingle(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK(ProbeAddAndDrain(*(*store)->sharded(), plan).ok());
      }
      GEQO_CHECK_OK((*store)->Close());
    });
    ASSERT_EQ(code, 137) << "probe stream appended fewer than " << k
                         << " records";

    // Copy the crashed directory BEFORE recovery mutates it (rotation,
    // truncation), then recover both copies independently.
    const std::string twin = StoreDir("midprobe_twin");
    fs::copy(dir, twin);

    auto first = OpenSingle(dir);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string first_bytes = SnapshotBytes(**first);
    auto twin_store = OpenSingle(twin);
    ASSERT_TRUE(twin_store.ok()) << twin_store.status().ToString();
    EXPECT_EQ(first_bytes, SnapshotBytes(**twin_store))
        << "recovery of the same crash image (record " << k
        << ") is not deterministic";
    ASSERT_TRUE((*twin_store)->Close().ok());

    // The recovered store keeps serving: finish the stream and close.
    for (size_t i = (*first)->sharded()->size(); i < plans_->size(); ++i) {
      ASSERT_TRUE(ProbeAddAndDrain(*(*first)->sharded(), (*plans_)[i]).ok());
    }
    ASSERT_TRUE((*first)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// Recovery is itself crash-safe: replay does not mutate the directory (the
// only write, tail truncation, is idempotent), so a kill mid-replay
// followed by a second recovery lands on the uninterrupted result.

TEST_F(PersistTest, KillDuringReplayThenRecoverAgainIsExact) {
  const std::string dir = StoreDir("replay_kill");
  std::string ref_bytes;
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE(ProbeAddAndDrain(*(*store)->sharded(), plan).ok());
    }
    ref_bytes = SnapshotBytes(**store);
    ASSERT_TRUE((*store)->Close().ok());
  }

  // Die while applying the 3rd replayed record, then once more on the 7th.
  for (const int k : {3, 7}) {
    const int code = RunKilledChild("replay-record", k, [&] {
      auto reopened = OpenSingle(dir);
      GEQO_CHECK(reopened.ok());
    });
    ASSERT_EQ(code, 137) << "replay-record hit " << k << " never fired";
  }

  auto recovered = OpenSingle(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SnapshotBytes(**recovered), ref_bytes);
  ASSERT_TRUE((*recovered)->Close().ok());
}

// ---------------------------------------------------------------------------
// Torn tails: garbage past the last valid frame is truncated exactly once,
// counted in stats, and gone from disk on the next open.

TEST_F(PersistTest, TornTailIsTruncatedOnceAndCounted) {
  const std::string dir = StoreDir("torn");
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*store)->sharded()->Add((*plans_)[i]).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }

  // Append a torn half-record to every log partition the manifest lists.
  const auto manifest = persist::ReadManifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_FALSE(manifest->log_ids.empty());
  size_t damaged = 0;
  for (const uint64_t id : manifest->log_ids) {
    const std::string path =
        dir + "/" + persist::WalPartitionFileName(id, 0);
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (!probe) continue;
    const auto clean_size = probe.tellg();
    probe.close();
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "torn-half-frame";
    out.close();
    ASSERT_GT(fs::file_size(path), static_cast<uint64_t>(clean_size));
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->stats().torn_tails_truncated, damaged);
    EXPECT_EQ((*store)->sharded()->size(), 3u)
        << "truncation must not cost valid records";
    ASSERT_TRUE((*store)->Close().ok());
  }
  {
    // The truncation is durable: a second open sees clean logs.
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->stats().torn_tails_truncated, 0u);
    EXPECT_EQ((*store)->sharded()->size(), 3u);
    ASSERT_TRUE((*store)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// Loud failures: legacy snapshot files and wrong-kind opens must not be
// silently adopted or clobbered.

TEST_F(PersistTest, LegacySnapshotFileIsRejectedLoudly) {
  const std::string path = StoreDir("legacy") + ".snapshot";
  const ShardedCatalogOptions options =
      ShardedCatalogOptions::Synchronous(system_->options().pipeline);
  {
    auto serving = system_->OpenShardedCatalog(options);
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE(ProbeAddAndDrain(*serving, plan).ok());
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(serving->ExportSnapshot(out).ok());
  }
  auto store = OpenSingle(path);
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().ToString().find("not a store directory"),
            std::string::npos)
      << store.status().ToString();
  // The misuse did not destroy the snapshot: it still imports.
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(system_->ImportShardedSnapshot(in, *plans_, options).ok());
  std::remove(path.c_str());
}

TEST_F(PersistTest, WrongKindOpenIsRejected) {
  // Single-catalog stores (manifest kind 1) are retired: a directory whose
  // manifest still names that kind must fail to open, loudly, instead of
  // being recovered as a sharded store.
  const std::string dir = StoreDir("kind");
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->sharded()->Add((*plans_)[0]).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Rewrite the manifest's kind word (after magic and version) to 1 and
  // refresh the checksum footer, so only the kind check can object.
  const std::string manifest_path = dir + "/" + persist::ManifestFileName();
  std::string bytes;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::string payload = bytes.substr(0, bytes.size() - sizeof(uint64_t));
  uint64_t kind = 0;
  std::memcpy(&kind, payload.data() + 16, sizeof(kind));
  ASSERT_EQ(kind, io::kManifestShardedKind);
  kind = 1;
  std::memcpy(payload.data() + 16, &kind, sizeof(kind));
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(io::WriteChecksummed(out, payload, "manifest").ok());
  }
  auto reopened = OpenSingle(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().ToString().find("store kind 1"),
            std::string::npos)
      << reopened.status().ToString();
}

// A store reopened with fewer plans than logged entries fails loudly
// instead of replaying garbage.

TEST_F(PersistTest, ReopenWithTruncatedPlanListFailsLoudly) {
  const std::string dir = StoreDir("plans");
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*store)->sharded()->Add(plan).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  const std::vector<PlanPtr> short_plans(plans_->begin(),
                                         plans_->begin() + 2);
  auto reopened = OpenSingle(dir, short_plans);
  EXPECT_FALSE(reopened.ok());
}

}  // namespace
}  // namespace geqo::serve

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/work_queue.h"
#include "serve/persist/journal.h"
#include "serve/persist/manifest.h"
#include "serve/persist/wal.h"
#include "serve/sharded_catalog.h"

/// \file catalog_store.h
/// serve::CatalogStore — durable, incrementally-persisted serving state
/// behind one API, replacing the old Save(path)/Load(path) snapshot
/// quartets. A store is a directory in LSM style:
///
///   MANIFEST            versioned, checksummed root (manifest.h): names
///                       the live base segment + the live log generations
///   base-000007.seg     a GEQOSHRD snapshot (the fold of all state up to
///                       some point)
///   wal-000009.s000.log delta-log partitions (wal.h): one per shard per
///                       generation, carrying every mutation since the base
///
/// The store owns one ShardedCatalog (a one-shard catalog with
/// verifier_threads = 0 is the synchronous deployment) and attaches itself
/// to it as a CatalogJournal:
/// each add / verdict / union / pending-enqueue appends one framed record
/// to the owning shard's partition at mutation time. Recovery is
/// manifest-driven: load the base, replay the log tail (truncating a torn
/// final record), rebuild the async verification backlog from the pending
/// pairs, garbage-collect everything the manifest does not name.
///
///   Checkpoint()  fsync every partition + rotate to a fresh generation —
///                 a durability barrier whose pause is O(shards), never a
///                 full catalog serialize.
///   Compact()     fold base + sealed generations into a new base segment
///                 and drop the sealed logs (the M0 -> M1 -> M2 manifest
///                 walk documented in manifest.h). This also runs on a
///                 background worker once the delta log passes
///                 DurabilityOptions::compact_after_records, without
///                 blocking Probe/Add (the export takes shard *shared*
///                 locks).
///
/// Journal appends cannot fail the serving path (the mutation is already
/// applied), so append errors latch: status() reports the first failure,
/// and Checkpoint()/Close() refuse to pretend durability that was not
/// achieved.

namespace geqo::serve::persist {

/// \brief Write-path durability knobs.
struct DurabilityOptions {
  /// Create the store directory when it does not exist; when false, Open
  /// of a missing directory fails with NotFound.
  bool create_if_missing = true;
  /// fflush each appended record so it survives _exit/SIGKILL of this
  /// process (the crash model the recovery tests exercise). Disabling
  /// batches records in the stdio buffer: cheaper, but a crash can lose
  /// the tail since the last Checkpoint.
  bool flush_each_append = true;
  /// fsync each appended record (survives power loss, not just process
  /// death). Implies a disk round-trip per mutation — measure first.
  bool sync_each_append = false;
  /// Fold the log into a fresh base segment, on a background worker, once
  /// this many records have accumulated since the last base. 0 disables
  /// automatic compaction (explicit Compact() still works).
  size_t compact_after_records = 4096;

  Status Validate() const;
};

/// \brief Store-level counters (session-local; stats() snapshots them).
struct CatalogStoreStats {
  uint64_t wal_records_appended = 0;
  uint64_t wal_records_replayed = 0;   ///< applied during the last Open
  uint64_t replay_dropped_records = 0; ///< lost to torn tails / gid gaps
  uint64_t torn_tails_truncated = 0;   ///< partitions truncated at Open
  uint64_t records_since_base = 0;     ///< compaction-threshold progress
  uint64_t checkpoints = 0;
  uint64_t compactions = 0;
  uint64_t gc_files_removed = 0;
  double last_checkpoint_pause_seconds = 0.0;
  double recovery_seconds = 0.0;  ///< Open's base-load + replay wall time
};

/// \brief A durable catalog store: owns the serving catalog, its delta
/// log, and the manifest that binds them.
class CatalogStore final : public CatalogJournal {
 public:
  /// Opens (or creates) the store at \p dir. \p plans must hold every
  /// entry ever added, in global Add order — the same contract as
  /// ShardedCatalog::ImportSnapshot; surplus plans are ignored. On
  /// recovery the shard count comes from the manifest (routing must stay
  /// consistent with the ids already logged); \p options.num_shards
  /// applies only to a freshly created store. Passing a path to a one-shot
  /// snapshot *file* fails loudly: snapshots are imported via
  /// ShardedCatalog::ImportSnapshot and re-persisted by adding into a
  /// fresh store.
  static Result<std::unique_ptr<CatalogStore>> Open(
      const std::string& dir, const CatalogComponents& components,
      const std::vector<PlanPtr>& plans,
      ShardedCatalogOptions options = ShardedCatalogOptions(),
      DurabilityOptions durability = DurabilityOptions());

  /// Closes best-effort (see Close()).
  ~CatalogStore() override;
  CatalogStore(const CatalogStore&) = delete;
  CatalogStore& operator=(const CatalogStore&) = delete;

  /// The owned catalog; null after Close().
  ShardedCatalog* sharded() { return sharded_.get(); }
  const std::string& dir() const { return dir_; }

  /// Durability barrier: fsync every live partition, then rotate to a
  /// fresh log generation. The pause is O(num_shards) syncs plus one
  /// manifest write — independent of catalog size, which is the point
  /// (the old API's only barrier was a full snapshot serialize). Returns
  /// any latched append error: a failed journal write means the barrier
  /// is a lie, and this is where it surfaces.
  Status Checkpoint();

  /// Folds the base + sealed log generations into a new base segment and
  /// drops the sealed logs. Safe to call concurrently with serving.
  Status Compact();

  /// Stops the background worker, releases the catalog (joining its
  /// verifier pool, so final verdicts still reach the log), syncs and
  /// closes every partition, and returns the first latched error. The
  /// store is inert afterwards: sharded() returns null and no
  /// further mutation can be journaled. Idempotent. Undrained pending
  /// verifications stay in the log and are re-enqueued by the next Open.
  Status Close();

  /// One-shot GEQOSHRD export of the owned catalog, for artifact
  /// interchange — the durable state is the directory itself.
  Status ExportSnapshot(std::ostream& os) const;

  /// First latched background/journal error, or OK.
  Status status() const;
  CatalogStoreStats stats() const;

  // CatalogJournal — called by the owned catalog, not by users.
  void OnAdd(size_t shard, uint64_t gid, uint64_t canonical_hash,
             uint64_t check_hash) override;
  void OnVerdict(size_t shard, uint64_t key_lo, uint64_t key_hi,
                 uint64_t check_lo, uint64_t check_hi,
                 uint8_t verdict) override;
  void OnUnion(size_t shard, uint64_t a_gid, uint64_t b_gid) override;
  void OnPending(size_t shard, uint64_t query_gid,
                 uint64_t member_gid) override;
  void OnPendingResolved(size_t shard, uint64_t query_gid,
                         uint64_t member_gid) override;

 private:
  /// One live log partition. handle.mu orders appends against the writer
  /// swap a rotation performs. Nothing blocking is acquired under it
  /// except the compaction queue's own lock (rank kWalHandle <
  /// kWorkQueue: AppendRecord pushes a compaction request while holding
  /// the handle).
  struct WalHandle {
    Mutex mu{analysis::LockRank::kWalHandle};
    std::unique_ptr<WalWriter> writer GEQO_GUARDED_BY(mu);
  };

  /// (shard, query gid, member gid) — a journaled pending pair not yet
  /// reported resolved; rotation re-logs these so sealed generations can
  /// be dropped without losing the verification backlog.
  using PendingKey = std::tuple<uint64_t, uint64_t, uint64_t>;

  CatalogStore(std::string dir, DurabilityOptions durability);

  /// Manifest-driven recovery: base import + log-tail replay (torn tails
  /// truncated, gid gaps dropped loudly). The surviving pending pairs come
  /// back through \p pending_pairs for the caller to rebuild into verify
  /// tasks once the journal is attached.
  Status Recover(const ManifestState& manifest,
                 const CatalogComponents& components,
                 const std::vector<PlanPtr>& plans,
                 ShardedCatalogOptions options,
                 std::vector<std::pair<uint64_t, uint64_t>>* pending_pairs);
  /// Creates generation next_file_id (one partition per shard), publishes
  /// the manifest naming it, and swaps the live writers. With \p
  /// relog_pending, outstanding pending pairs are re-appended into the
  /// fresh generation (the step that makes compaction safe).
  Status RotateLocked(bool relog_pending) GEQO_REQUIRES(store_mu_);
  /// Deletes every schema-matching file the manifest does not name.
  void CollectGarbageLocked() GEQO_REQUIRES(store_mu_);
  void AppendRecord(size_t shard, const WalRecord& record);
  void LatchError(const Status& status);
  void MaybeScheduleCompaction();
  void CompactionWorkerLoop();

  const std::string dir_;
  const DurabilityOptions durability_;
  uint64_t num_shards_ = 1;

  // Set until Close releases it. Declared before handles_ so accidental
  // destruction without Close() still tears down in a safe order via
  // ~CatalogStore's explicit Close().
  std::unique_ptr<ShardedCatalog> sharded_;

  /// Guards manifest_ and rotation/compaction manifest edits. Lock order:
  /// store_mu_ -> handle.mu (ranks kStore < kWalHandle); journal hooks
  /// take only handle.mu (they run under a shard lock and must never wait
  /// on a compaction).
  mutable Mutex store_mu_{analysis::LockRank::kStore};
  ManifestState manifest_ GEQO_GUARDED_BY(store_mu_);
  /// The vector itself is fixed after Open (only the per-handle writers
  /// swap, under each handle's own mu).
  std::vector<std::unique_ptr<WalHandle>> handles_;
  bool closed_ GEQO_GUARDED_BY(store_mu_) = false;

  Mutex pending_mu_{analysis::LockRank::kPendingSet};
  std::set<PendingKey> outstanding_pending_ GEQO_GUARDED_BY(pending_mu_);

  mutable Mutex status_mu_{analysis::LockRank::kStatus};
  Status first_error_ GEQO_GUARDED_BY(status_mu_);

  /// Serializes compactions (worker vs explicit Compact()). Ranks below
  /// everything else here: a compaction takes store_mu_, shard locks, and
  /// handle locks while holding it.
  Mutex compact_mu_{analysis::LockRank::kCompaction};
  WorkQueue<int> compact_queue_;
  std::thread compact_worker_;
  std::atomic<bool> compaction_scheduled_{false};

  std::atomic<uint64_t> wal_records_appended_{0};
  std::atomic<uint64_t> records_since_base_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> compactions_{0};
  uint64_t wal_records_replayed_ = 0;     ///< written only during Open
  uint64_t replay_dropped_records_ = 0;   ///< written only during Open
  uint64_t torn_tails_truncated_ = 0;     ///< written only during Open
  std::atomic<uint64_t> gc_files_removed_{0};
  std::atomic<double> last_checkpoint_pause_seconds_{0.0};
  double recovery_seconds_ = 0.0;
};

}  // namespace geqo::serve::persist

namespace geqo::serve {
// The store is the serving layer's durability API; let callers spell it
// serve::CatalogStore without reaching into the persist namespace.
using persist::CatalogStore;
using persist::CatalogStoreStats;
using persist::DurabilityOptions;
}  // namespace geqo::serve

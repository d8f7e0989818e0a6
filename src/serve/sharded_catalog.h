#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "common/work_queue.h"
#include "serve/equivalence_catalog.h"
#include "serve/persist/journal.h"

/// \file sharded_catalog.h
/// The serving catalog (§7.7): a ShardedCatalog partitions one logical
/// equivalence catalog across N >= 1 EquivalenceCatalog shards routed by
/// SF signature, and moves verification off the probe path onto an async
/// background plane. It is the only public serving catalog: a caller that
/// wants the classic synchronous contract — each ProbeAdd verified before
/// the next — opens one shard with verifier_threads = 0 and calls
/// DrainPendingVerifications() after each ProbeAdd — the
/// ShardedCatalogOptions::Synchronous() deployment, stepped by
/// ProbeAddAndDrain (serving_demo and bench_serve do exactly that).
///
/// Why sharding by SF signature is complete: two equivalent subexpressions
/// necessarily scan the same table set and return the same output arity
/// (§2.2.1) — i.e. they share an SF signature — so every equivalence class
/// lives entirely inside one shard and cross-shard traffic never exists.
/// Routing uses the signature even when the pipeline's use_sf ablation
/// toggle is off (the toggle still controls the *filter stage* within the
/// routed shard).
///
/// Concurrency model:
///   - Each shard carries a reader-writer lock. Probe takes the shard's
///     shared lock and runs EquivalenceCatalog::ProbeReadOnly — a const
///     filter-plus-classification pass that never calls the verifier and
///     never mutates — so probes of one shard proceed concurrently with
///     each other and block only behind that shard's brief Add critical
///     section, never behind verification. Preparation (canonicalize,
///     encode, embed) reads only the immutable component wiring and runs
///     with no lock at all.
///   - Add/ProbeAdd prepare and embed OUTSIDE any lock (the expensive part),
///     then take the shard's unique lock only for the index insert and
///     bookkeeping. AddBatch fans the prepare/embed work through the global
///     thread pool and applies the inserts in input order, so assigned ids
///     are deterministic regardless of thread count.
///   - Probe returns immediately with per-candidate MatchVerdicts: kProven /
///     kRefuted straight from the memo and class forest, kLikely (with the
///     EMF score) for anything undecided. Undecided classes are enqueued on
///     a WorkQueue; a pool of background verifier threads — each owning its
///     own SpesVerifier — drains them, memoizes the verdicts, and folds
///     proofs into the owning shard's union-find, upgrading what a later
///     probe of the same pair will see. Classification, the plane, and
///     recovery walk a class's agenda through the same memo-first walk
///     (EquivalenceCatalog::WalkAgenda); the plane resumes where
///     classification stopped. DrainPendingVerifications() is the barrier
///     that makes "no lost async verdicts" testable.
///   - With verifier_threads == 0 the plane is *deferred*: tasks queue up
///     and DrainPendingVerifications() processes them inline on the caller.
///     Deterministic by construction — the mode the replay tests and the
///     snapshot pending-tail tests use.
///
/// Global ids: entries get densely-increasing global ids in Add order,
/// mapped to (shard, local) slots. All public results speak global ids.
///
/// Snapshots: ExportSnapshot/ImportSnapshot use the GEQOSHRD container —
/// shard count, the gid -> shard routing map, one length-prefixed GEQOCATG
/// segment per shard, and the pending-verification tail (entry-entry pairs
/// not yet drained), so a restarted service resumes both the catalog state
/// and the unfinished verification backlog. Probe-only pending tasks (whose
/// query is not an entry) are dropped at export with a warning and counted;
/// a restarted client simply re-probes. Durable incremental persistence
/// (delta log + compaction + manifest) lives in serve::CatalogStore
/// (persist/catalog_store.h), fed by the CatalogJournal hooks: this class
/// journals its own mutations with *global* ids under the owning shard's
/// lock, so each shard's log partition is a self-consistent mutation
/// stream. The shard catalogs themselves carry no journal.

namespace geqo::serve {

namespace persist {
class CatalogStore;
}  // namespace persist

/// \brief Configuration of a sharded serving deployment.
struct ShardedCatalogOptions {
  /// Per-shard catalog (filter cascade) options.
  CatalogOptions catalog;
  /// Number of shards; routing is HashSignature % num_shards.
  size_t num_shards = 4;
  /// Background verifier threads; 0 = deferred mode (tasks queue until
  /// DrainPendingVerifications drains them inline on the caller).
  size_t verifier_threads = 1;
  /// Verify-queue capacity bound (producers block when full); 0 = unbounded.
  /// Requires verifier_threads > 0 — a bounded queue with no consumer would
  /// deadlock the producer.
  size_t verify_queue_capacity = 0;

  Status Validate() const;

  /// The synchronous deployment: one shard, no background verifier
  /// threads, \p pipeline for the filter cascade. Drive it through
  /// ProbeAndDrain / ProbeAddAndDrain.
  static ShardedCatalogOptions Synchronous(const GeqoOptions& pipeline);
};

/// \brief Monotonic serving counters, aggregated across shards and the
/// async plane. Readable concurrently at any time (atomics snapshot).
struct ShardedCatalogStats {
  uint64_t adds = 0;
  uint64_t probes = 0;
  uint64_t verify_tasks_enqueued = 0;
  uint64_t verify_tasks_completed = 0;
  uint64_t async_verifier_calls = 0;  ///< proofs attempted by the plane
  uint64_t async_memo_hits = 0;       ///< plane tasks settled from the memo
  uint64_t async_unions = 0;          ///< class merges folded by the plane
  /// Pair verdicts the plane derived via classes instead of lookups.
  uint64_t async_class_shortcuts = 0;
  uint64_t memo_collisions = 0;       ///< check-pair mismatches (all paths)
  uint64_t dropped_probe_tasks = 0;   ///< probe-only tasks dropped at Save
};

/// \brief Outcome of one async-path probe. Ids are global.
struct ShardedProbeResult {
  /// One entry per filter survivor, ascending by id, each classified
  /// kProven / kLikely(score) / kRefuted (see MatchVerdict).
  std::vector<ProbeMatch> matches;
  /// Every member of every already-proven class, sorted ascending.
  std::vector<size_t> proven_ids;
  /// Smallest proven class representative, if any.
  std::optional<size_t> representative;
  size_t shard = 0;  ///< the shard the probe routed to
  size_t memo_hits = 0;
  size_t class_shortcuts = 0;
  /// Candidate classes handed to the async verifier plane by this probe.
  size_t pending_classes = 0;
  /// Of those, classes enqueued *without* a catalog entry id — i.e. by a
  /// plain Probe. Their verification tasks exist only in this process: no
  /// snapshot or store can name the query across a restart, so they are
  /// dropped at export/shutdown (see stats().dropped_probe_tasks) and the
  /// client re-probes. Always 0 for ProbeAdd, whose tasks carry the entry.
  size_t probe_only_pending = 0;
  /// prepare + the shard's sf/vmf/emf/classify stages (tagged with shard).
  std::vector<StageReport> stages;
  /// Total probe latency, measured from Probe entry: the sum of the stage
  /// seconds (prepare included), mirroring GeqoResult::total_seconds, so
  /// stage accounting always explains the reported latency.
  double seconds = 0.0;
};

/// \brief Outcome of ProbeAdd: the probe plus the new entry's global id.
struct ShardedProbeAddResult {
  ShardedProbeResult probe;
  size_t id = 0;
};

/// \brief A sharded, concurrently-servable equivalence catalog with an
/// async verification plane.
class ShardedCatalog {
 public:
  /// \p components' pointees must outlive this object and match the
  /// artifacts the model was trained with (GeqoSystem::OpenShardedCatalog
  /// wires this up). Background verifier threads start immediately (when
  /// verifier_threads > 0). Invalid \p options poison the catalog: every
  /// entry point returns the validation error.
  explicit ShardedCatalog(
      const CatalogComponents& components,
      ShardedCatalogOptions options = ShardedCatalogOptions());
  /// Closes the verify queue and joins the worker pool. Pending tasks that
  /// were not drained are discarded — Save first if they matter.
  ~ShardedCatalog();

  ShardedCatalog(const ShardedCatalog&) = delete;
  ShardedCatalog& operator=(const ShardedCatalog&) = delete;

  /// Registers \p plan (prepare + embed outside the lock, brief unique-lock
  /// insert); returns its global id. Thread-safe.
  Result<size_t> Add(const PlanPtr& plan);

  /// Adds \p plans, fanning the prepare/embed work through the global
  /// thread pool; inserts happen in input order, so the returned ids are
  /// plans' positions appended to the current size — deterministic for any
  /// thread count. Thread-safe (concurrent AddBatch calls interleave
  /// batches, not elements).
  Result<std::vector<size_t>> AddBatch(const std::vector<PlanPtr>& plans);

  /// Classifies \p plan against its routed shard under a shared lock:
  /// returns immediately with Proven/Likely/Refuted matches, enqueueing
  /// undecided classes for the async plane. Never blocks behind another
  /// probe or a verification; blocks only behind the shard's brief Add
  /// critical section. Thread-safe.
  Result<ShardedProbeResult> Probe(const PlanPtr& plan);

  /// Probe + Add as one exclusive critical section on the routed shard; the
  /// new entry joins every already-proven class synchronously, and pending
  /// classes carry the entry id so async proofs union it in later.
  /// Thread-safe.
  Result<ShardedProbeAddResult> ProbeAdd(const PlanPtr& plan);

  /// Blocks until every queued verification task has been fully applied
  /// (memo + unions). In deferred mode (verifier_threads == 0) the backlog
  /// is processed inline on the calling thread.
  void DrainPendingVerifications();

  /// Queued plus in-flight verification tasks.
  size_t PendingVerifications() const { return queue_.outstanding(); }

  size_t size() const;
  size_t num_shards() const { return shards_.size(); }
  size_t NumClasses() const;
  size_t memo_size() const;
  /// Members of \p gid's equivalence class, as sorted global ids.
  std::vector<size_t> ClassMembers(size_t gid) const;
  /// Representative (smallest global id) of \p gid's class.
  size_t ClassOf(size_t gid) const;
  PlanPtr plan(size_t gid) const;
  ShardedCatalogStats stats() const;
  const ShardedCatalogOptions& options() const { return options_; }

  /// Writes the one-shot GEQOSHRD export (see file comment). Pauses the
  /// verify queue so the pending tail is captured atomically, then resumes
  /// it. Probe-only pending tasks cannot be named across a restart: they
  /// are dropped with a logged warning and counted (the old Save silently
  /// bumped a counter). Durable deployments go through CatalogStore; this
  /// is for one-shot artifact interchange. The old Save(path)/Load(path)
  /// pairs are gone.
  Status ExportSnapshot(std::ostream& os) const;

  /// Restores a GEQOSHRD export. \p plans must be all entries in global Add
  /// order (the snapshot stores their canonical hashes, not the plans). The
  /// shard count is adopted from the snapshot (routing must stay consistent
  /// with the ids already assigned); \p options.num_shards is ignored. The
  /// pending-verification tail is re-enqueued, ready for the worker pool or
  /// a DrainPendingVerifications call.
  static Result<std::unique_ptr<ShardedCatalog>> ImportSnapshot(
      std::istream& is, const CatalogComponents& components,
      const std::vector<PlanPtr>& plans,
      ShardedCatalogOptions options = ShardedCatalogOptions());

  /// Attaches (or detaches, with nullptr) the mutation journal. Hooks fire
  /// in commit order under the owning shard's lock, speaking global ids;
  /// the per-shard catalogs carry no journal of their own. The journal must
  /// outlive this object or be detached first. Owned by CatalogStore.
  void AttachJournal(persist::CatalogJournal* journal) { journal_ = journal; }

 private:
  friend class persist::CatalogStore;
  /// Sentinel for "the probing plan is not a catalog entry".
  static constexpr size_t kNoEntry = ~static_cast<size_t>(0);

  /// One undecided candidate class, bound for the verifier plane.
  struct VerifyTask {
    size_t shard = 0;
    PlanPtr query_plan;
    uint64_t query_hash = 0;
    uint64_t query_check = 0;
    /// The query's own local id when it was ProbeAdd'ed (async proofs then
    /// union it into the proven class); kNoEntry for plain probes.
    size_t query_local = kNoEntry;
    /// Shard-local verification agenda, class root first — the
    /// class-at-a-time cascade, walked memo-first from \p first_miss (the
    /// prefix before it was memoized kUnknown when the task was built).
    std::vector<size_t> agenda;
    size_t first_miss = 0;
    /// The (query gid, member gid) pending pairs journaled for this task;
    /// ProcessTask reports them resolved when the task retires. Empty for
    /// probe-only tasks and when no journal is attached.
    std::vector<std::pair<uint64_t, uint64_t>> logged_pairs;
    Stopwatch enqueued;  ///< verify-lag clock, started at enqueue
  };

  struct Shard {
    /// Guards catalog (its entries, index, classes, memo) and to_global.
    /// This capability also carries the shard's HNSW single-writer
    /// contract: hnsw::Index::Add is not safe against concurrent Add OR
    /// Search (see ann/hnsw.h), and both only ever run through the
    /// pt-guarded catalog below — Search under this lock held shared,
    /// Add under it held exclusive.
    mutable SharedMutex mu{analysis::LockRank::kShard};
    std::unique_ptr<EquivalenceCatalog> catalog GEQO_PT_GUARDED_BY(mu);
    std::vector<size_t> to_global
        GEQO_GUARDED_BY(mu);  ///< local id -> global id (ascending)
  };

  /// Plan plus its precomputed embedding, ready for the locked insert.
  struct PreparedAdd {
    EquivalenceCatalog::QueryContext query;
    std::vector<float> embedding;
  };

  /// RAII shared lock over every shard in index order (see the .cc).
  class AllShardsReadLock;

  size_t ShardOf(const SfSignature& signature) const;
  /// Lock-free preparation + embedding over the shared wiring.
  Result<PreparedAdd> PrepareAdd(const PlanPtr& plan) const;
  /// Inserts into \p shard (index, classes, global map) and journals the
  /// add; returns the new shard-local id. The caller holds the shard's
  /// unique lock.
  size_t InsertLocked(Shard& shard, size_t sid, PreparedAdd prepared)
      GEQO_REQUIRES(shard.mu);
  /// Insert under the shard's unique lock; returns the new global id.
  size_t CommitAdd(PreparedAdd prepared);
  /// Sets the stage-sum latency and records the probe's serve.* metrics.
  void FinishProbe(ShardedProbeResult* result) const;
  /// Rewrites a shard-local ReadProbeResult into \p out with global ids and
  /// shard-tagged stages; the caller must hold \p shard's lock (shared or
  /// unique) so to_global is stable.
  void TranslateLocked(const Shard& shard, size_t sid,
                       EquivalenceCatalog::ReadProbeResult& read,
                       ShardedProbeResult* out) const
      GEQO_REQUIRES_SHARED(shard.mu);
  /// Converts a probe's undecided classes into ready-to-queue VerifyTasks,
  /// resolving global ids for the journal pairs; the caller must hold \p
  /// shard's lock (shared or unique) so to_global is stable.
  std::vector<VerifyTask> BuildPendingTasksLocked(
      const Shard& shard, size_t sid, const PlanPtr& query_plan,
      uint64_t query_hash, uint64_t query_check, size_t query_local,
      std::vector<EquivalenceCatalog::ClassDecision> pending) const
      GEQO_REQUIRES_SHARED(shard.mu);
  /// Journals each task's pending pairs (before the push, so a resolution
  /// can never be journaled ahead of its pending record), then enqueues.
  /// Must be called with no shard lock held (the queue may block when
  /// bounded, and in deferred mode the caller later drains inline).
  void EnqueueTasks(std::vector<VerifyTask> tasks);
  /// Recovery-side appliers, used by persist::CatalogStore while the
  /// journal is detached (so replay never re-journals itself):
  /// re-derives an entry through the normal Add path, verifying the logged
  /// hashes match (replay determinism check);
  Result<size_t> ReplayAdd(const PlanPtr& plan, uint64_t canonical_hash,
                           uint64_t check_hash);
  /// folds a logged verdict into the owning shard's memo;
  Status ReplayVerdict(size_t shard, const CheckedPair& key,
                       EquivalenceVerdict verdict);
  /// re-joins two entries' classes (idempotent);
  Status ReplayUnion(uint64_t a_gid, uint64_t b_gid);
  /// and rebuilds the async backlog from recovered (query gid, member gid)
  /// pending pairs: pairs are grouped per query by current class root and
  /// walked memo-first (WalkAgenda) — a memoized kEquivalent applies its
  /// union and the class is dropped, an all-kUnknown agenda is dropped,
  /// any memo miss keeps the whole class as one VerifyTask. The
  /// pairs of kept tasks come back through \p kept (the store re-logs
  /// them); EnqueueRecoveredTasks pushes without journaling.
  Result<std::vector<VerifyTask>> BuildRecoveredTasks(
      const std::vector<std::pair<uint64_t, uint64_t>>& pairs,
      std::vector<std::pair<uint64_t, uint64_t>>* kept);
  void EnqueueRecoveredTasks(std::vector<VerifyTask> tasks);
  /// Serializes the GEQOSHRD container with an *empty* pending tail (a
  /// CatalogStore base segment: the pending backlog lives in the delta log,
  /// not the base). Takes every shard's shared lock; concurrent probes
  /// proceed, adds briefly block. \p entry_count reports the entries
  /// captured.
  Status ExportBase(std::ostream& os, uint64_t* entry_count) const;
  /// Shared body of ExportSnapshot/ExportBase; caller holds all shard
  /// locks + the map lock. \p pending is null for a base export. The
  /// dynamically sized all-shards lock set is beyond the static analysis
  /// (which needs lock expressions it can name), so this one body opts
  /// out; the runtime rank checker still validates the acquisition order
  /// on every export.
  Status WriteSnapshotLocked(std::ostream& os,
                             const std::vector<VerifyTask>* pending) const
      GEQO_NO_THREAD_SAFETY_ANALYSIS;
  void WorkerLoop();
  /// Applies one task: the memo-first agenda walk from task.first_miss,
  /// verifier calls outside any lock, memo insert + union under the
  /// shard's unique lock. \p idle_proofs runs the (lock-free) proof at
  /// idle scheduling priority; shard locks are always taken at the
  /// caller's normal priority.
  void ProcessTask(const VerifyTask& task, SpesVerifier& verifier,
                   bool idle_proofs);
  void UpdateQueueGauge() const;

  const CatalogComponents wiring_;
  ShardedCatalogOptions options_;
  Status options_status_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards global_map_. Lock order: shard.mu before map_mu_ (ranks kShard
  /// < kCatalogMap); never acquire a shard lock while holding map_mu_.
  mutable SharedMutex map_mu_{analysis::LockRank::kCatalogMap};
  std::vector<std::pair<size_t, size_t>> global_map_
      GEQO_GUARDED_BY(map_mu_);  ///< gid -> (shard, local)

  mutable WorkQueue<VerifyTask> queue_;
  std::vector<std::thread> workers_;
  /// Deferred-mode drain serialization (verifier_threads == 0). Ranks
  /// below the shard locks: the inline drain takes shard locks while
  /// holding it.
  Mutex drain_mu_{analysis::LockRank::kVerifyDrain};
  std::unique_ptr<SpesVerifier> drain_verifier_ GEQO_GUARDED_BY(drain_mu_);

  std::atomic<uint64_t> adds_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> verify_tasks_enqueued_{0};
  std::atomic<uint64_t> verify_tasks_completed_{0};
  std::atomic<uint64_t> async_verifier_calls_{0};
  std::atomic<uint64_t> async_memo_hits_{0};
  std::atomic<uint64_t> async_unions_{0};
  std::atomic<uint64_t> async_class_shortcuts_{0};
  std::atomic<uint64_t> memo_collisions_{0};
  mutable std::atomic<uint64_t> dropped_probe_tasks_{0};

  /// Mutation journal (delta-log feed); null when not persisted. Set once
  /// before concurrent use (AttachJournal is not thread-safe).
  persist::CatalogJournal* journal_ = nullptr;
};

/// \brief One synchronous serving step: a Probe or ProbeAdd and the drain
/// that settles it, with the verification work the step cost.
struct VerifiedProbe {
  ShardedProbeResult probe;
  size_t id = 0;  ///< the new entry's global id (ProbeAdd only)
  /// Proofs the drained plane ran for this step.
  size_t verifier_calls = 0;
  /// The probe's own memo hits and class shortcuts plus the plane's.
  size_t memo_hits = 0;
  size_t class_shortcuts = 0;
  double drain_seconds = 0.0;  ///< wall time of the drain
};

/// Probe (or ProbeAdd) \p plan, then DrainPendingVerifications(): on a
/// Synchronous() catalog this is the classic contract, each query verified
/// before the next. The work is read from stats() deltas, so it is exact
/// only while no other thread drives \p catalog.
Result<VerifiedProbe> ProbeAndDrain(ShardedCatalog& catalog,
                                    const PlanPtr& plan);
Result<VerifiedProbe> ProbeAddAndDrain(ShardedCatalog& catalog,
                                       const PlanPtr& plan);

}  // namespace geqo::serve

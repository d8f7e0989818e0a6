#include "serve/sharded_catalog.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <istream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/binary_io.h"
#include "common/checksum_io.h"
#include "common/format_magic.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/stage_scope.h"

namespace geqo::serve {

namespace {

constexpr size_t kMaxVerifierThreads = 256;

double SumStageSeconds(const std::vector<StageReport>& stages) {
  double total = 0.0;
  for (const StageReport& stage : stages) total += stage.seconds;
  return total;
}

/// Background proofs should lose every CPU race against foreground
/// Probe/Add clients, but a worker must NEVER hold a shard lock while in
/// the idle scheduling class — a preempted idle lock-holder starves the
/// probes waiting on that shard (classic priority inversion). So demotion
/// is scoped: ScopedIdleSched wraps only the lock-free CheckEquivalence
/// call, and is enabled only when the thread is guaranteed to be able to
/// switch back (the kernel gates leaving SCHED_IDLE behind CAP_SYS_NICE /
/// RLIMIT_NICE; a thread stuck at idle would reintroduce the inversion).
bool CanUseIdleProofPriority() {
#if defined(__linux__) && defined(SCHED_IDLE)
  if (geteuid() == 0) return true;
  rlimit lim{};
  if (getrlimit(RLIMIT_NICE, &lim) != 0) return false;
  // rlim_cur >= 20 permits re-acquiring nice 0 (SCHED_OTHER's default),
  // which is what leaving SCHED_IDLE requires of an unprivileged thread.
  return lim.rlim_cur >= 20;
#else
  return false;
#endif
}

class ScopedIdleSched {
 public:
  explicit ScopedIdleSched(bool enable) {
#if defined(__linux__) && defined(SCHED_IDLE)
    if (!enable) return;
    if (pthread_getschedparam(pthread_self(), &saved_policy_, &saved_param_) !=
        0) {
      return;
    }
    sched_param idle{};
    demoted_ =
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) == 0;
#else
    (void)enable;
#endif
  }
  ~ScopedIdleSched() {
#if defined(__linux__) && defined(SCHED_IDLE)
    if (demoted_) {
      pthread_setschedparam(pthread_self(), saved_policy_, &saved_param_);
    }
#endif
  }
  ScopedIdleSched(const ScopedIdleSched&) = delete;
  ScopedIdleSched& operator=(const ScopedIdleSched&) = delete;

 private:
#if defined(__linux__) && defined(SCHED_IDLE)
  int saved_policy_ = 0;
  sched_param saved_param_{};
  bool demoted_ = false;
#endif
};

}  // namespace

/// Holds every shard's shared lock, acquired in index order so concurrent
/// exports cannot deadlock (kShard is the one same-rank-nestable rank in
/// the lattice — see analysis/lock_rank.h). The static analysis cannot
/// model a dynamically sized lock set, so acquisition opts out; the
/// runtime rank checker still validates each lock_shared on every run.
class ShardedCatalog::AllShardsReadLock {
 public:
  explicit AllShardsReadLock(const std::vector<std::unique_ptr<Shard>>& shards)
      GEQO_NO_THREAD_SAFETY_ANALYSIS : shards_(shards) {
    for (const auto& shard : shards_) shard->mu.lock_shared();
  }
  ~AllShardsReadLock() GEQO_NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
      (*it)->mu.unlock_shared();
    }
  }
  AllShardsReadLock(const AllShardsReadLock&) = delete;
  AllShardsReadLock& operator=(const AllShardsReadLock&) = delete;

 private:
  const std::vector<std::unique_ptr<Shard>>& shards_;
};

Status ShardedCatalogOptions::Validate() const {
  GEQO_RETURN_NOT_OK(catalog.Validate());
  if (num_shards == 0) {
    return Status::InvalidArgument("sharded catalog: num_shards must be >= 1");
  }
  if (num_shards > io::kMaxStoredShards) {
    return Status::InvalidArgument(
        "sharded catalog: num_shards " + std::to_string(num_shards) +
        " exceeds the sanity bound " + std::to_string(io::kMaxStoredShards));
  }
  if (verifier_threads > kMaxVerifierThreads) {
    return Status::InvalidArgument(
        "sharded catalog: verifier_threads " +
        std::to_string(verifier_threads) + " exceeds the sanity bound " +
        std::to_string(kMaxVerifierThreads));
  }
  if (verify_queue_capacity != 0 && verifier_threads == 0) {
    return Status::InvalidArgument(
        "sharded catalog: a bounded verify queue requires verifier_threads "
        "> 0 (a full queue with no consumer would block producers forever)");
  }
  return Status::OK();
}

ShardedCatalogOptions ShardedCatalogOptions::Synchronous(
    const GeqoOptions& pipeline) {
  ShardedCatalogOptions options;
  options.catalog.pipeline = pipeline;
  options.num_shards = 1;
  options.verifier_threads = 0;
  return options;
}

ShardedCatalog::ShardedCatalog(const CatalogComponents& components,
                               ShardedCatalogOptions options)
    : wiring_(components),
      options_(std::move(options)),
      options_status_(options_.Validate()),
      queue_(options_.verify_queue_capacity) {
  if (!options_status_.ok()) return;  // poisoned: every entry point reports it
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    WriterLock lock(shard->mu);  // pre-publication, but keeps TSA unconditional
    shard->catalog =
        std::make_unique<EquivalenceCatalog>(wiring_, options_.catalog);
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(options_.verifier_threads);
  for (size_t i = 0; i < options_.verifier_threads; ++i) {
    workers_.emplace_back(&ShardedCatalog::WorkerLoop, this);
  }
}

ShardedCatalog::~ShardedCatalog() {
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
}

size_t ShardedCatalog::ShardOf(const SfSignature& signature) const {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& table : signature.tables) {
    hash = HashCombine(hash, HashString(table));
  }
  hash = HashCombine(hash, signature.num_output_columns);
  return static_cast<size_t>(hash % shards_.size());
}

void ShardedCatalog::UpdateQueueGauge() const {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global()
      .GetGauge("serve.verify_queue_depth")
      .Set(static_cast<double>(queue_.outstanding()));
}

size_t ShardedCatalog::InsertLocked(Shard& shard, size_t sid,
                                    EquivalenceCatalog::QueryContext query) {
  const uint64_t canonical_hash = query.canonical_hash;
  const uint64_t check_hash = query.check_hash;
  const size_t local = shard.catalog->AddWithEmbedding(std::move(query));
  size_t gid = 0;
  {
    WriterLock map_lock(map_mu_);
    gid = global_map_.size();
    global_map_.emplace_back(sid, local);
  }
  shard.to_global.push_back(gid);
  // Journal under the shard lock: each shard's log partition is a
  // self-consistent stream (this entry's later verdicts/unions/pendings
  // land behind its add record).
  if (journal_ != nullptr) {
    journal_->OnAdd(sid, gid, canonical_hash, check_hash);
  }
  adds_.fetch_add(1, std::memory_order_relaxed);
  return local;
}

size_t ShardedCatalog::CommitAdd(EquivalenceCatalog::QueryContext query) {
  const size_t sid = ShardOf(query.signature);
  Shard& shard = *shards_[sid];
  WriterLock lock(shard.mu);
  return shard.to_global[InsertLocked(shard, sid, std::move(query))];
}

Result<size_t> ShardedCatalog::Add(const PlanPtr& plan) {
  GEQO_RETURN_NOT_OK(options_status_);
  obs::Span span("serve.ShardedAdd");
  GEQO_ASSIGN_OR_RETURN(EquivalenceCatalog::QueryContext query,
                        EquivalenceCatalog::PrepareQuery(
                            wiring_, options_.catalog.pipeline.vmf, plan));
  return CommitAdd(std::move(query));
}

Result<std::vector<size_t>> ShardedCatalog::AddBatch(
    const std::vector<PlanPtr>& plans) {
  GEQO_RETURN_NOT_OK(options_status_);
  obs::Span span("serve.ShardedAddBatch");
  const size_t n = plans.size();
  // Prepare + embed (the expensive part) in parallel on the global pool;
  // commit sequentially in input order so ids are deterministic.
  std::vector<std::optional<EquivalenceCatalog::QueryContext>> items(n);
  std::vector<Status> statuses(n);
  ParallelFor(0, n, [&](size_t i) {
    Result<EquivalenceCatalog::QueryContext> prepared =
        EquivalenceCatalog::PrepareQuery(wiring_,
                                         options_.catalog.pipeline.vmf,
                                         plans[i]);
    if (prepared.ok()) {
      items[i] = std::move(*prepared);
    } else {
      statuses[i] = prepared.status();
    }
  });
  for (const Status& status : statuses) GEQO_RETURN_NOT_OK(status);
  std::vector<size_t> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(CommitAdd(std::move(*items[i])));
  }
  return ids;
}

void ShardedCatalog::TranslateLocked(const Shard& shard, size_t sid,
                                     EquivalenceCatalog::ReadProbeResult& read,
                                     ShardedProbeResult* out) const {
  out->matches.reserve(read.matches.size());
  for (const ProbeMatch& match : read.matches) {
    out->matches.push_back(
        ProbeMatch{shard.to_global[match.id], match.verdict, match.score});
  }
  // to_global is strictly increasing in the local id, so sorted local lists
  // translate to sorted global lists.
  out->proven_ids.reserve(read.proven_ids.size());
  for (const size_t id : read.proven_ids) {
    out->proven_ids.push_back(shard.to_global[id]);
  }
  if (read.representative) {
    out->representative = shard.to_global[*read.representative];
  }
  out->memo_hits = read.memo_hits;
  out->class_shortcuts = read.class_shortcuts;
  for (StageReport& stage : read.stages) {
    stage.shard = static_cast<int>(sid);
    out->stages.push_back(std::move(stage));
  }
}

std::vector<ShardedCatalog::VerifyTask> ShardedCatalog::BuildPendingTasksLocked(
    const Shard& shard, size_t sid, const PlanPtr& query_plan,
    uint64_t query_hash, uint64_t query_check, size_t query_local,
    std::vector<EquivalenceCatalog::ClassDecision> pending) const {
  std::vector<VerifyTask> tasks;
  tasks.reserve(pending.size());
  for (EquivalenceCatalog::ClassDecision& decision : pending) {
    VerifyTask task;
    task.shard = sid;
    task.query_plan = query_plan;
    task.query_hash = query_hash;
    task.query_check = query_check;
    task.query_local = query_local;
    task.agenda = std::move(decision.agenda);
    task.first_miss = decision.first_miss;
    if (query_local != kNoEntry && journal_ != nullptr) {
      const uint64_t query_gid = shard.to_global[query_local];
      task.logged_pairs.reserve(task.agenda.size());
      for (const size_t member : task.agenda) {
        task.logged_pairs.emplace_back(query_gid, shard.to_global[member]);
      }
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

void ShardedCatalog::EnqueueTasks(std::vector<VerifyTask> tasks) {
  if (tasks.empty()) return;
  for (VerifyTask& task : tasks) {
    // Pending records go to the journal before the push: once a worker can
    // see the task, its resolution must never outrun the pending record.
    if (journal_ != nullptr) {
      for (const auto& [query_gid, member_gid] : task.logged_pairs) {
        journal_->OnPending(task.shard, query_gid, member_gid);
      }
    }
    if (queue_.Push(std::move(task))) {
      verify_tasks_enqueued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  UpdateQueueGauge();
}

Result<ShardedProbeResult> ShardedCatalog::Probe(const PlanPtr& plan) {
  GEQO_RETURN_NOT_OK(options_status_);
  // Span + stage clock at entry: PrepareQuery's canonicalize/encode/embed
  // cost is part of the reported probe latency (see
  // ShardedProbeResult::seconds).
  obs::Span span("serve.ShardedProbe");
  StageReport prepare = MakeStage("prepare", true);
  StageScope prepare_scope("serve.prepare");
  Result<EquivalenceCatalog::QueryContext> prepared =
      EquivalenceCatalog::PrepareQuery(wiring_, options_.catalog.pipeline.vmf,
                                       plan);
  GEQO_RETURN_NOT_OK(prepared.status());
  prepare.pairs_in = 1;
  prepare.pairs_out = 1;
  prepare_scope.Finish(&prepare);

  const size_t sid = ShardOf(prepared->signature);
  Shard& shard = *shards_[sid];
  ShardedProbeResult result;
  result.shard = sid;
  result.stages.push_back(std::move(prepare));
  EquivalenceCatalog::ReadProbeResult read;
  std::vector<VerifyTask> tasks;
  {
    ReaderLock lock(shard.mu);
    GEQO_ASSIGN_OR_RETURN(read, shard.catalog->ProbeReadOnly(*prepared));
    TranslateLocked(shard, sid, read, &result);
    result.pending_classes = read.pending.size();
    tasks = BuildPendingTasksLocked(shard, sid, prepared->plan,
                                    prepared->canonical_hash,
                                    prepared->check_hash, kNoEntry,
                                    std::move(read.pending));
  }
  probes_.fetch_add(1, std::memory_order_relaxed);
  memo_collisions_.fetch_add(read.collisions, std::memory_order_relaxed);
  // A plain probe's tasks are process-local (the query is not an entry, so
  // nothing durable can re-derive them) — surfaced so callers know these
  // classes will not survive an export or a restart.
  result.probe_only_pending = result.pending_classes;
  EnqueueTasks(std::move(tasks));
  FinishProbe(&result);
  return result;
}

Result<ShardedProbeAddResult> ShardedCatalog::ProbeAdd(const PlanPtr& plan) {
  GEQO_RETURN_NOT_OK(options_status_);
  obs::Span span("serve.ShardedProbeAdd");
  StageReport prepare = MakeStage("prepare", true);
  StageScope prepare_scope("serve.prepare");
  // Embed outside the lock.
  Result<EquivalenceCatalog::QueryContext> prepared =
      EquivalenceCatalog::PrepareQuery(wiring_, options_.catalog.pipeline.vmf,
                                       plan);
  GEQO_RETURN_NOT_OK(prepared.status());
  prepare.pairs_in = 1;
  prepare.pairs_out = 1;
  prepare_scope.Finish(&prepare);

  const size_t sid = ShardOf(prepared->signature);
  Shard& shard = *shards_[sid];
  ShardedProbeAddResult result;
  result.probe.shard = sid;
  result.probe.stages.push_back(std::move(prepare));
  const PlanPtr query_plan = prepared->plan;
  const uint64_t query_hash = prepared->canonical_hash;
  const uint64_t query_check = prepared->check_hash;
  EquivalenceCatalog::ReadProbeResult read;
  std::vector<VerifyTask> tasks;
  {
    // Probe + insert + sync unions as one exclusive critical section on the
    // routed shard: the probe's verdicts and the join set stay consistent.
    WriterLock lock(shard.mu);
    GEQO_ASSIGN_OR_RETURN(read, shard.catalog->ProbeReadOnly(*prepared));
    std::set<size_t> roots;
    for (const size_t id : read.proven_ids) {
      roots.insert(shard.catalog->classes_.Find(id));
    }
    const size_t local = InsertLocked(shard, sid, std::move(*prepared));
    result.id = shard.to_global[local];
    for (const size_t root : roots) {
      if (shard.catalog->classes_.Union(local, root) && journal_ != nullptr) {
        journal_->OnUnion(sid, result.id, shard.to_global[root]);
      }
    }
    TranslateLocked(shard, sid, read, &result.probe);
    result.probe.pending_classes = read.pending.size();
    tasks = BuildPendingTasksLocked(shard, sid, query_plan, query_hash,
                                    query_check, local,
                                    std::move(read.pending));
  }
  probes_.fetch_add(1, std::memory_order_relaxed);
  memo_collisions_.fetch_add(read.collisions, std::memory_order_relaxed);
  EnqueueTasks(std::move(tasks));
  FinishProbe(&result.probe);
  return result;
}

void ShardedCatalog::FinishProbe(ShardedProbeResult* result) const {
  result->seconds = SumStageSeconds(result->stages);
  if (!obs::MetricsEnabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("serve.probes").Add(1);
  registry.GetCounter("serve.memo_hits").Add(result->memo_hits);
  registry.GetCounter("serve.class_shortcuts").Add(result->class_shortcuts);
  registry.GetCounter("serve.pending_classes").Add(result->pending_classes);
  registry.GetHistogram("serve.probe_seconds").Observe(result->seconds);
}

void ShardedCatalog::WorkerLoop() {
  const bool idle_proofs = CanUseIdleProofPriority();
  // Each worker owns its verifier: CheckEquivalence mutates per-instance
  // stats, so instances are thread-confined (same rule as the pipeline's
  // per-thread verifiers).
  SpesVerifier verifier(wiring_.db_catalog, options_.catalog.pipeline.verifier);
  while (std::optional<VerifyTask> task = queue_.Pop()) {
    ProcessTask(*task, verifier, idle_proofs);
    queue_.TaskDone();
    UpdateQueueGauge();
  }
}

void ShardedCatalog::ProcessTask(const VerifyTask& task,
                                 SpesVerifier& verifier, bool idle_proofs) {
  Shard& shard = *shards_[task.shard];
  const VerifierStats before = verifier.stats();
  // Resume the memo-first walk where classification stopped. Lookups run
  // under the shard's shared lock; each miss is proved with no lock held
  // and folds back in under a brief unique lock, and a kUnknown moves the
  // walk on to the next member. Shortcuts follow the class rule with every
  // agenda pair up to the decisive one counted as a lookup.
  std::optional<EquivalenceVerdict> decision;
  size_t shortcuts = 0;
  size_t proofs = 0;
  size_t pos = task.first_miss;
  while (pos < task.agenda.size()) {
    EquivalenceCatalog::AgendaWalk walk;
    CheckedPair memo_key;
    PlanPtr entry_plan;
    {
      ReaderLock lock(shard.mu);
      walk = shard.catalog->WalkAgenda(task.query_hash, task.query_check,
                                       task.agenda, pos);
      if (walk.decision) {
        shortcuts = shard.catalog->ClassShortcuts(*walk.decision, task.agenda,
                                                  walk.stop + 1);
      } else if (walk.missed) {
        const size_t id = task.agenda[walk.stop];
        memo_key = shard.catalog->MemoKey(task.query_hash, task.query_check,
                                          id);
        entry_plan = shard.catalog->plan(id);
      }
    }
    async_memo_hits_.fetch_add(walk.memo_hits, std::memory_order_relaxed);
    memo_collisions_.fetch_add(walk.collisions, std::memory_order_relaxed);
    pos = walk.stop;
    if (!walk.missed) {
      decision = walk.decision;
      break;
    }
    async_verifier_calls_.fetch_add(1, std::memory_order_relaxed);
    ++proofs;
    const EquivalenceVerdict proved = [&] {
      // Idle priority for the proof only — never across a lock.
      ScopedIdleSched idle(idle_proofs);
      return verifier.CheckEquivalence(task.query_plan, entry_plan);
    }();
    WriterLock lock(shard.mu);
    shard.catalog->memo_.Insert(memo_key.key, memo_key.check, proved);
    if (journal_ != nullptr) {
      journal_->OnVerdict(task.shard, memo_key.key.lo, memo_key.key.hi,
                          memo_key.check.lo, memo_key.check.hi,
                          static_cast<uint8_t>(proved));
    }
    if (proved != EquivalenceVerdict::kUnknown) {
      decision = proved;
      shortcuts = shard.catalog->ClassShortcuts(proved, task.agenda, pos + 1);
      break;
    }
    ++pos;
  }
  if (decision == EquivalenceVerdict::kEquivalent &&
      task.query_local != kNoEntry) {
    // The query is itself an entry (ProbeAdd): fold the proof into the
    // shard's class forest, upgrading what later probes see.
    const size_t decided_member = task.agenda[pos];
    WriterLock lock(shard.mu);
    if (shard.catalog->classes_.Union(task.query_local, decided_member)) {
      async_unions_.fetch_add(1, std::memory_order_relaxed);
      if (journal_ != nullptr) {
        journal_->OnUnion(task.shard, shard.to_global[task.query_local],
                          shard.to_global[decided_member]);
      }
    }
  }
  async_class_shortcuts_.fetch_add(shortcuts, std::memory_order_relaxed);
  // The task is fully applied: its journaled pending pairs are no longer
  // outstanding (the store stops re-logging them at the next rotation).
  if (journal_ != nullptr) {
    for (const auto& [query_gid, member_gid] : task.logged_pairs) {
      journal_->OnPendingResolved(task.shard, query_gid, member_gid);
    }
  }
  verify_tasks_completed_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("serve.verify_tasks").Add(1);
    registry.GetCounter("serve.verifier_calls").Add(proofs);
    registry.GetCounter("serve.class_shortcuts").Add(shortcuts);
    registry.GetHistogram("serve.verify_lag_seconds")
        .Observe(task.enqueued.ElapsedSeconds());
    FoldVerifierStatsToMetrics(verifier.stats().DeltaSince(before));
  }
}

void ShardedCatalog::DrainPendingVerifications() {
  if (!workers_.empty()) {
    queue_.WaitIdle();
    UpdateQueueGauge();
    return;
  }
  // Deferred mode: process the backlog inline. drain_mu_ makes this the
  // queue's only consumer, so size() > 0 guarantees Pop() will not block.
  MutexLock drain_lock(drain_mu_);
  if (!drain_verifier_) {
    drain_verifier_ = std::make_unique<SpesVerifier>(
        wiring_.db_catalog, options_.catalog.pipeline.verifier);
  }
  while (queue_.size() > 0) {
    std::optional<VerifyTask> task = queue_.Pop();
    if (!task) break;
    ProcessTask(*task, *drain_verifier_, /*idle_proofs=*/false);
    queue_.TaskDone();
  }
  UpdateQueueGauge();
}

size_t ShardedCatalog::size() const {
  ReaderLock lock(map_mu_);
  return global_map_.size();
}

size_t ShardedCatalog::NumClasses() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    total += shard->catalog->NumClasses();
  }
  return total;
}

size_t ShardedCatalog::memo_size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderLock lock(shard->mu);
    total += shard->catalog->memo_size();
  }
  return total;
}

std::vector<size_t> ShardedCatalog::ClassMembers(size_t gid) const {
  std::pair<size_t, size_t> slot;
  {
    ReaderLock lock(map_mu_);
    GEQO_CHECK(gid < global_map_.size());
    slot = global_map_[gid];
  }
  const Shard& shard = *shards_[slot.first];
  ReaderLock lock(shard.mu);
  std::vector<size_t> members;
  for (const size_t local : shard.catalog->ClassMembers(slot.second)) {
    members.push_back(shard.to_global[local]);
  }
  return members;
}

size_t ShardedCatalog::ClassOf(size_t gid) const {
  std::pair<size_t, size_t> slot;
  {
    ReaderLock lock(map_mu_);
    GEQO_CHECK(gid < global_map_.size());
    slot = global_map_[gid];
  }
  const Shard& shard = *shards_[slot.first];
  ReaderLock lock(shard.mu);
  return shard.to_global[shard.catalog->ClassOf(slot.second)];
}

PlanPtr ShardedCatalog::plan(size_t gid) const {
  std::pair<size_t, size_t> slot;
  {
    ReaderLock lock(map_mu_);
    GEQO_CHECK(gid < global_map_.size());
    slot = global_map_[gid];
  }
  const Shard& shard = *shards_[slot.first];
  ReaderLock lock(shard.mu);
  return shard.catalog->plan(slot.second);
}

ShardedCatalogStats ShardedCatalog::stats() const {
  ShardedCatalogStats out;
  out.adds = adds_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.verify_tasks_enqueued =
      verify_tasks_enqueued_.load(std::memory_order_relaxed);
  out.verify_tasks_completed =
      verify_tasks_completed_.load(std::memory_order_relaxed);
  out.async_verifier_calls =
      async_verifier_calls_.load(std::memory_order_relaxed);
  out.async_memo_hits = async_memo_hits_.load(std::memory_order_relaxed);
  out.async_unions = async_unions_.load(std::memory_order_relaxed);
  out.async_class_shortcuts =
      async_class_shortcuts_.load(std::memory_order_relaxed);
  out.memo_collisions = memo_collisions_.load(std::memory_order_relaxed);
  out.dropped_probe_tasks =
      dropped_probe_tasks_.load(std::memory_order_relaxed);
  return out;
}

Status ShardedCatalog::WriteSnapshotLocked(
    std::ostream& os, const std::vector<VerifyTask>* pending) const {
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "sharded catalog snapshot");
  writer.U64(io::kShardedCatalogMagic);
  writer.U64(io::kShardedCatalogVersion);
  writer.U64(shards_.size());
  writer.U64(global_map_.size());
  for (const auto& [sid, local] : global_map_) writer.U64(sid);
  GEQO_RETURN_NOT_OK(writer.status());
  for (const auto& shard : shards_) {
    std::ostringstream segment;
    GEQO_RETURN_NOT_OK(shard->catalog->ExportSnapshot(segment));
    const std::string bytes = segment.str();
    writer.U64(bytes.size());
    writer.Bytes(bytes.data(), bytes.size());
  }
  // The pending tail: (query gid, member gid) pairs for tasks whose query
  // is a catalog entry. Probe-only tasks have no entry to name across a
  // restart — they are dropped loudly, and the client just re-probes. A
  // base export (null \p pending) writes an empty tail: a store's backlog
  // travels in the delta log, never the base segment.
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  size_t dropped = 0;
  if (pending != nullptr) {
    for (const VerifyTask& task : *pending) {
      if (task.query_local == kNoEntry) {
        ++dropped;
        continue;
      }
      const std::vector<size_t>& to_global = shards_[task.shard]->to_global;
      for (const size_t member : task.agenda) {
        pairs.emplace_back(to_global[task.query_local], to_global[member]);
      }
    }
  }
  if (dropped > 0) {
    dropped_probe_tasks_.fetch_add(dropped, std::memory_order_relaxed);
    GEQO_LOG(kWarning)
        << "sharded catalog export: dropping " << dropped
        << " probe-only pending verification task(s) — their queries are "
           "not catalog entries and cannot be re-derived after a restart; "
           "affected clients must re-probe (see "
           "ShardedProbeResult::probe_only_pending and "
           "stats().dropped_probe_tasks)";
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("serve.dropped_probe_tasks")
          .Add(dropped);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  writer.U64(pairs.size());
  for (const auto& [query_gid, member_gid] : pairs) {
    writer.U64(query_gid);
    writer.U64(member_gid);
  }
  writer.U64(io::kShardedCatalogEndMagic);
  GEQO_RETURN_NOT_OK(writer.status());
  return io::WriteChecksummed(os, payload.str(), "sharded catalog snapshot");
}

Status ShardedCatalog::ExportSnapshot(std::ostream& os) const {
  GEQO_RETURN_NOT_OK(options_status_);
  // Freeze the async plane: Pause waits for in-flight tasks to apply their
  // side effects, after which the backlog is exactly SnapshotPending().
  // Pauses nest, so with overlapping exports the queue stays frozen until
  // the last one Resumes — no export can observe workers retiring tasks
  // mid-shot.
  queue_.Pause();
  Status status = [&]() -> Status {
    const std::vector<VerifyTask> pending = queue_.SnapshotPending();
    // Lock every shard (index order, so concurrent exports cannot deadlock)
    // plus the global map for one consistent cross-shard view.
    AllShardsReadLock shard_locks(shards_);
    ReaderLock map_lock(map_mu_);
    return WriteSnapshotLocked(os, &pending);
  }();
  queue_.Resume();
  return status;
}

Status ShardedCatalog::ExportBase(std::ostream& os,
                                  uint64_t* entry_count) const {
  GEQO_RETURN_NOT_OK(options_status_);
  // No queue pause: the backlog is not captured (the store's delta log
  // carries it), so probes and the verifier plane keep running while the
  // base serializes under shared locks; only adds briefly block.
  AllShardsReadLock shard_locks(shards_);
  ReaderLock map_lock(map_mu_);
  if (entry_count != nullptr) *entry_count = global_map_.size();
  return WriteSnapshotLocked(os, nullptr);
}

bool DecodeShardedSnapshot(std::string_view bytes, ShardedSnapshotImage* out,
                           io::DecodeErrors* errors) {
  const std::string_view payload = io::CheckFooter(bytes, "sharded", errors);
  io::ByteReader reader(payload);
  if (reader.U64() != io::kShardedCatalogMagic || !reader.ok()) {
    return io::Reject(errors, "sharded.magic", 0, "missing GEQOSHRD magic");
  }
  const size_t version_offset = reader.offset();
  const uint64_t version = reader.U64();
  if (!reader.ok() || version != io::kShardedCatalogVersion) {
    return io::Reject(errors, "sharded.version", version_offset,
                      "unsupported sharded catalog version " +
                          std::to_string(version));
  }
  const size_t shards_offset = reader.offset();
  out->num_shards = reader.U64();
  const size_t count_offset = reader.offset();
  const uint64_t count = reader.U64();
  if (!reader.ok()) {
    return io::Reject(errors, "sharded.truncated", 0,
                      "container header is cut off");
  }
  const uint64_t num_shards = out->num_shards;
  if (num_shards == 0 || num_shards > io::kMaxStoredShards) {
    return io::Reject(errors, "sharded.shard-count", shards_offset,
                      "implausible shard count " + std::to_string(num_shards));
  }
  if (!reader.Fits(count, sizeof(uint64_t))) {
    return io::Reject(errors, "sharded.entry-count", count_offset,
                      "entry count " + std::to_string(count) +
                          " exceeds what the file can hold");
  }
  const size_t routing_offset = reader.offset();
  out->shard_of.resize(count);
  std::vector<uint64_t> per_shard(num_shards, 0);
  for (uint64_t gid = 0; gid < count; ++gid) {
    const uint64_t sid = reader.U64();
    if (sid >= num_shards) {
      return io::Reject(errors, "sharded.shard-range", routing_offset,
                        "entry " + std::to_string(gid) + " routes to shard " +
                            std::to_string(sid) + " of " +
                            std::to_string(num_shards));
    }
    out->shard_of[gid] = sid;
    ++per_shard[sid];
  }
  out->segments.clear();
  for (uint64_t sid = 0; sid < num_shards; ++sid) {
    const size_t segment_offset = reader.offset();
    const uint64_t segment_size = reader.U64();
    const std::string_view segment = reader.Bytes(segment_size);
    if (!reader.ok()) {
      return io::Reject(errors, "sharded.truncated", segment_offset,
                        "shard " + std::to_string(sid) +
                            " segment is cut off");
    }
    // Segment errors carry segment-relative offsets; anchor them with a
    // container-level note.
    const size_t errors_before = errors->size();
    DecodeCatalogSegment(segment, &out->segments.emplace_back(), errors);
    if (errors->size() > errors_before) {
      return io::Reject(errors, "sharded.segment", segment_offset,
                        "shard " + std::to_string(sid) +
                            " segment failed the catalog decode "
                            "(segment-relative offsets above)");
    }
    const size_t segment_count =
        out->segments.back().canonical_hashes.size();
    if (segment_count != per_shard[sid]) {
      return io::Reject(errors, "sharded.segment-count", segment_offset,
                        "shard " + std::to_string(sid) + " segment holds " +
                            std::to_string(segment_count) +
                            " entries but the routing table assigns it " +
                            std::to_string(per_shard[sid]));
    }
  }
  // Pending-verification tail: sorted, deduplicated (query gid, member gid)
  // pairs. Both endpoints must exist and share a shard — equivalence classes
  // never span shards, so a cross-shard pair is corruption.
  const size_t pending_offset = reader.offset();
  const uint64_t num_pending = reader.U64();
  if (!reader.Fits(num_pending, 2 * sizeof(uint64_t))) {
    return io::Reject(errors, "sharded.truncated", pending_offset,
                      "pending-verification tail is cut off");
  }
  out->pending.clear();
  out->pending.reserve(num_pending);
  for (uint64_t i = 0; i < num_pending; ++i) {
    const size_t pair_offset = reader.offset();
    const uint64_t query_gid = reader.U64();
    const uint64_t member_gid = reader.U64();
    if (query_gid >= count || member_gid >= count) {
      return io::Reject(
          errors, "sharded.pending-range", pair_offset,
          "pending pair " + std::to_string(i) + " names entry " +
              std::to_string(query_gid >= count ? query_gid : member_gid) +
              " beyond the " + std::to_string(count) + " stored entries");
    }
    if (out->shard_of[query_gid] != out->shard_of[member_gid]) {
      return io::Reject(errors, "sharded.pending-shard", pair_offset,
                        "pending pair " + std::to_string(i) +
                            " spans shards — equivalence classes never do");
    }
    if (!out->pending.empty() &&
        out->pending.back() >= std::make_pair(query_gid, member_gid)) {
      return io::Reject(errors, "sharded.pending-order", pair_offset,
                        "pending pairs are not strictly sorted at pair " +
                            std::to_string(i));
    }
    out->pending.emplace_back(query_gid, member_gid);
  }
  const size_t end_offset = reader.offset();
  if (reader.U64() != io::kShardedCatalogEndMagic || !reader.ok()) {
    return io::Reject(errors, "sharded.end-magic", end_offset,
                      "sharded catalog is missing its end marker");
  }
  reader.ExpectEnd(errors, "sharded.trailing", "the end marker");
  return true;
}

Result<std::unique_ptr<ShardedCatalog>> ShardedCatalog::ImportSnapshot(
    std::istream& is, const CatalogComponents& components,
    const std::vector<PlanPtr>& plans, ShardedCatalogOptions options) {
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  ShardedSnapshotImage image;
  io::DecodeErrors errors;
  DecodeShardedSnapshot(bytes, &image, &errors);
  GEQO_RETURN_NOT_OK(io::DecodeStatus(errors, "sharded catalog snapshot"));
  const uint64_t num_shards = image.num_shards;
  const size_t count = image.shard_of.size();
  if (count != plans.size()) {
    return Status::InvalidArgument(
        "sharded catalog snapshot: entry count mismatch (snapshot " +
        std::to_string(count) + ", caller supplied " +
        std::to_string(plans.size()) + " plans)");
  }

  // Routing must stay consistent with the ids already assigned, so the
  // shard count is adopted from the snapshot regardless of the option.
  options.num_shards = num_shards;
  auto catalog = std::make_unique<ShardedCatalog>(components, options);
  GEQO_RETURN_NOT_OK(catalog->options_status_);

  // Split the global plan list into per-shard lists (local order == global
  // order restricted to the shard) and rebuild both id maps. Everything is
  // staged in locals and installed under the proper locks only once the
  // whole snapshot has bound — no guarded member is ever written (or read,
  // for the pending tail below) without its lock.
  std::vector<std::vector<PlanPtr>> shard_plans(num_shards);
  std::vector<std::pair<size_t, size_t>> gmap;
  std::vector<std::vector<size_t>> to_global(num_shards);
  gmap.reserve(count);
  for (size_t gid = 0; gid < count; ++gid) {
    const size_t sid = image.shard_of[gid];
    gmap.emplace_back(sid, shard_plans[sid].size());
    to_global[sid].push_back(gid);
    shard_plans[sid].push_back(plans[gid]);
  }
  std::vector<std::unique_ptr<EquivalenceCatalog>> shard_catalogs(num_shards);
  for (size_t sid = 0; sid < num_shards; ++sid) {
    Result<std::unique_ptr<EquivalenceCatalog>> loaded =
        EquivalenceCatalog::FromSegment(std::move(image.segments[sid]),
                                        components, shard_plans[sid],
                                        options.catalog);
    if (!loaded.ok()) {
      return Status(loaded.status().code(), "sharded catalog snapshot: shard " +
                                                std::to_string(sid) + ": " +
                                                loaded.status().message());
    }
    shard_catalogs[sid] = std::move(*loaded);
  }
  std::vector<VerifyTask> pending;
  pending.reserve(image.pending.size());
  for (const auto& [query_gid, member_gid] : image.pending) {
    const size_t sid = image.shard_of[query_gid];
    const size_t query_local = gmap[query_gid].second;
    const auto& entry = shard_catalogs[sid]->entries_[query_local];
    VerifyTask task;
    task.shard = sid;
    task.query_plan = entry.plan;
    task.query_hash = entry.canonical_hash;
    task.query_check = entry.check_hash;
    task.query_local = query_local;
    task.agenda = {gmap[member_gid].second};
    pending.push_back(std::move(task));
  }
  // Install the staged state. The worker pool is already running but can
  // see nothing until the backlog below is pushed; the locks keep the
  // guarded-by contract unconditional (shard before map, ranks ascending).
  for (size_t sid = 0; sid < num_shards; ++sid) {
    Shard& shard = *catalog->shards_[sid];
    WriterLock lock(shard.mu);
    shard.catalog = std::move(shard_catalogs[sid]);
    shard.to_global = std::move(to_global[sid]);
  }
  {
    WriterLock map_lock(catalog->map_mu_);
    catalog->global_map_ = std::move(gmap);
  }
  // Re-arm the verification backlog only once the whole snapshot has
  // validated (the worker pool may start consuming immediately).
  for (VerifyTask& task : pending) {
    if (catalog->queue_.Push(std::move(task))) {
      catalog->verify_tasks_enqueued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  catalog->UpdateQueueGauge();
  return catalog;
}

Result<size_t> ShardedCatalog::ReplayAdd(const PlanPtr& plan,
                                         uint64_t canonical_hash,
                                         uint64_t check_hash) {
  GEQO_RETURN_NOT_OK(options_status_);
  GEQO_ASSIGN_OR_RETURN(EquivalenceCatalog::QueryContext query,
                        EquivalenceCatalog::PrepareQuery(
                            wiring_, options_.catalog.pipeline.vmf, plan));
  if (query.canonical_hash != canonical_hash ||
      query.check_hash != check_hash) {
    return Status::InvalidArgument(
        "catalog store replay: plan does not match the logged add record "
        "(canonical hash " + std::to_string(query.canonical_hash) +
        ", log expects " + std::to_string(canonical_hash) +
        ") — plans must be passed in Add order");
  }
  return CommitAdd(std::move(query));
}

Status ShardedCatalog::ReplayVerdict(size_t shard, const CheckedPair& pair,
                                     EquivalenceVerdict verdict) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument(
        "catalog store replay: verdict record names shard " +
        std::to_string(shard) + " of " + std::to_string(shards_.size()) +
        " (corrupt log)");
  }
  Shard& s = *shards_[shard];
  WriterLock lock(s.mu);
  s.catalog->memo_.Insert(pair.key, pair.check, verdict);
  return Status::OK();
}

Status ShardedCatalog::ReplayUnion(uint64_t a_gid, uint64_t b_gid) {
  std::pair<size_t, size_t> a_slot;
  std::pair<size_t, size_t> b_slot;
  {
    ReaderLock lock(map_mu_);
    if (a_gid >= global_map_.size() || b_gid >= global_map_.size()) {
      return Status::InvalidArgument(
          "catalog store replay: union record references entry beyond the "
          "catalog (corrupt log)");
    }
    a_slot = global_map_[a_gid];
    b_slot = global_map_[b_gid];
  }
  if (a_slot.first != b_slot.first) {
    return Status::InvalidArgument(
        "catalog store replay: union record spans shards — classes never do "
        "(corrupt log)");
  }
  Shard& shard = *shards_[a_slot.first];
  WriterLock lock(shard.mu);
  shard.catalog->classes_.Union(a_slot.second, b_slot.second);
  return Status::OK();
}

Result<std::vector<ShardedCatalog::VerifyTask>>
ShardedCatalog::BuildRecoveredTasks(
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs,
    std::vector<std::pair<uint64_t, uint64_t>>* kept) {
  GEQO_RETURN_NOT_OK(options_status_);
  kept->clear();
  std::map<uint64_t, std::vector<uint64_t>> by_query;
  for (const auto& [query_gid, member_gid] : pairs) {
    by_query[query_gid].push_back(member_gid);
  }
  std::vector<VerifyTask> tasks;
  const size_t total = size();
  for (auto& [query_gid, members] : by_query) {
    if (query_gid >= total) {
      return Status::InvalidArgument(
          "catalog store replay: pending pair references entry " +
          std::to_string(query_gid) + " beyond the catalog (corrupt log)");
    }
    std::pair<size_t, size_t> query_slot;
    {
      ReaderLock map_lock(map_mu_);
      query_slot = global_map_[query_gid];
    }
    const size_t sid = query_slot.first;
    const size_t query_local = query_slot.second;
    Shard& shard = *shards_[sid];
    // Unique lock: a memoized kEquivalent applies its union right here.
    WriterLock lock(shard.mu);
    // Regroup the members by their *current* class root — unions that
    // landed after the pending records may have merged classes since.
    std::map<size_t, std::vector<size_t>> by_root;
    std::set<size_t> seen;
    for (const uint64_t member_gid : members) {
      if (member_gid >= total) {
        return Status::InvalidArgument(
            "catalog store replay: pending pair references entry " +
            std::to_string(member_gid) + " beyond the catalog (corrupt log)");
      }
      std::pair<size_t, size_t> member_slot;
      {
        // Nested under the shard lock: kShard < kCatalogMap, ascending.
        ReaderLock map_lock(map_mu_);
        member_slot = global_map_[member_gid];
      }
      if (member_slot.first != sid) {
        return Status::InvalidArgument(
            "catalog store replay: pending pair spans shards — classes "
            "never do (corrupt log)");
      }
      if (!seen.insert(member_slot.second).second) continue;
      by_root[shard.catalog->classes_.Find(member_slot.second)].push_back(
          member_slot.second);
    }
    const auto& query_entry = shard.catalog->entries_[query_local];
    for (auto& [root, locals] : by_root) {
      // Rebuild the class agenda — current root first, then the members
      // ascending — and walk it memo-first like a probe would.
      std::sort(locals.begin(), locals.end());
      std::vector<size_t> agenda;
      agenda.push_back(root);
      for (const size_t member : locals) {
        if (member != root) agenda.push_back(member);
      }
      const EquivalenceCatalog::AgendaWalk walk = shard.catalog->WalkAgenda(
          query_entry.canonical_hash, query_entry.check_hash, agenda, 0);
      if (walk.missed) {
        VerifyTask task;
        task.shard = sid;
        task.query_plan = query_entry.plan;
        task.query_hash = query_entry.canonical_hash;
        task.query_check = query_entry.check_hash;
        task.query_local = query_local;
        task.agenda = std::move(agenda);
        task.first_miss = walk.stop;
        task.logged_pairs.reserve(task.agenda.size());
        for (const size_t member : task.agenda) {
          task.logged_pairs.emplace_back(query_gid, shard.to_global[member]);
          kept->push_back(task.logged_pairs.back());
        }
        tasks.push_back(std::move(task));
      } else if (walk.decision == EquivalenceVerdict::kEquivalent) {
        // The log holds the decisive verdict but the crash landed before
        // the union record: fold the proof in now — exactly what
        // ProcessTask would have done on its first memo hit.
        shard.catalog->classes_.Union(query_local, agenda[walk.stop]);
      }
      // kNotEquivalent / all-kUnknown: the class is settled; drop.
    }
  }
  return tasks;
}

void ShardedCatalog::EnqueueRecoveredTasks(std::vector<VerifyTask> tasks) {
  // No journaling: the surviving pairs' pending records already live in the
  // replayed log generations (and the store re-logs them at compaction).
  for (VerifyTask& task : tasks) {
    if (queue_.Push(std::move(task))) {
      verify_tasks_enqueued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  UpdateQueueGauge();
}

namespace {

/// Shared body of ProbeAndDrain/ProbeAddAndDrain: \p call runs the probe
/// into the result; the drain and the plane's stats() delta follow.
template <typename Call>
Result<VerifiedProbe> StepAndDrain(ShardedCatalog& catalog, Call call) {
  const ShardedCatalogStats before = catalog.stats();
  VerifiedProbe out;
  GEQO_RETURN_NOT_OK(call(&out));
  Stopwatch drain;
  catalog.DrainPendingVerifications();
  out.drain_seconds = drain.ElapsedSeconds();
  const ShardedCatalogStats after = catalog.stats();
  out.verifier_calls = after.async_verifier_calls - before.async_verifier_calls;
  out.memo_hits =
      out.probe.memo_hits + (after.async_memo_hits - before.async_memo_hits);
  out.class_shortcuts =
      out.probe.class_shortcuts +
      (after.async_class_shortcuts - before.async_class_shortcuts);
  return out;
}

}  // namespace

Result<VerifiedProbe> ProbeAndDrain(ShardedCatalog& catalog,
                                    const PlanPtr& plan) {
  return StepAndDrain(catalog, [&](VerifiedProbe* out) -> Status {
    GEQO_ASSIGN_OR_RETURN(out->probe, catalog.Probe(plan));
    return Status::OK();
  });
}

Result<VerifiedProbe> ProbeAddAndDrain(ShardedCatalog& catalog,
                                       const PlanPtr& plan) {
  return StepAndDrain(catalog, [&](VerifiedProbe* out) -> Status {
    GEQO_ASSIGN_OR_RETURN(ShardedProbeAddResult result, catalog.ProbeAdd(plan));
    out->probe = std::move(result.probe);
    out->id = result.id;
    return Status::OK();
  });
}

}  // namespace geqo::serve

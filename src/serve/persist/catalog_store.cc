#include "serve/persist/catalog_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/persist/kill_point.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace geqo::serve::persist {

namespace fs = std::filesystem;

namespace {

/// What a file name inside a store directory claims to be.
enum class StoreFileKind { kManifest, kManifestTmp, kBase, kWal, kForeign };

bool ParseDigits(std::string_view text, uint64_t* out) {
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

StoreFileKind ClassifyStoreFile(const std::string& name, uint64_t* id,
                                uint64_t* shard) {
  if (name == ManifestFileName()) return StoreFileKind::kManifest;
  if (name == ManifestFileName() + ".tmp") return StoreFileKind::kManifestTmp;
  // "base-NNNNNN.seg"
  if (name.size() == 15 && name.rfind("base-", 0) == 0 &&
      name.compare(11, 4, ".seg") == 0 &&
      ParseDigits(std::string_view(name).substr(5, 6), id)) {
    return StoreFileKind::kBase;
  }
  // "wal-NNNNNN.sNNN.log"
  if (name.size() == 19 && name.rfind("wal-", 0) == 0 &&
      name.compare(10, 2, ".s") == 0 && name.compare(15, 4, ".log") == 0 &&
      ParseDigits(std::string_view(name).substr(4, 6), id) &&
      ParseDigits(std::string_view(name).substr(12, 3), shard)) {
    return StoreFileKind::kWal;
  }
  return StoreFileKind::kForeign;
}

/// Writes \p bytes to \p path and fsyncs before closing — a base segment
/// must be durable before a manifest names it. Passes "compact-mid-base"
/// with only a flushed prefix on disk, emulating a crash mid-fold.
Status WriteFileDurable(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  const size_t half = bytes.size() / 2;
  bool ok = std::fwrite(bytes.data(), 1, half, file) == half;
  ok = ok && std::fflush(file) == 0;
  if (ok) KillPoint("compact-mid-base");
  ok = ok && std::fwrite(bytes.data() + half, 1, bytes.size() - half, file) ==
                 bytes.size() - half;
  ok = ok && std::fflush(file) == 0;
#ifdef __unix__
  ok = ok && ::fsync(fileno(file)) == 0;
#endif
  const int close_rc = std::fclose(file);
  if (!ok || close_rc != 0) {
    return Status::IoError("cannot write " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status DurabilityOptions::Validate() const {
  if (sync_each_append && !flush_each_append) {
    return Status::InvalidArgument(
        "durability options: sync_each_append requires flush_each_append "
        "(an unflushed record cannot be synced)");
  }
  return Status::OK();
}

CatalogStore::CatalogStore(std::string dir, DurabilityOptions durability)
    : dir_(std::move(dir)), durability_(durability) {}

CatalogStore::~CatalogStore() {
  const Status status = Close();
  if (!status.ok()) {
    GEQO_LOG(kError) << "catalog store " << dir_
                     << ": close failed in destructor: " << status.message();
  }
}

Result<std::unique_ptr<CatalogStore>> CatalogStore::Open(
    const std::string& dir, const CatalogComponents& components,
    const std::vector<PlanPtr>& plans, ShardedCatalogOptions options,
    DurabilityOptions durability) {
  obs::Span span("persist.Open");
  GEQO_RETURN_NOT_OK(durability.Validate());
  if (components.db_catalog == nullptr || components.model == nullptr ||
      components.instance_layout == nullptr ||
      components.agnostic_layout == nullptr) {
    return Status::InvalidArgument("catalog store: null component wiring");
  }
  std::error_code ec;
  const fs::file_status st = fs::status(dir, ec);
  if (fs::is_regular_file(st)) {
    return Status::InvalidArgument(
        "catalog store " + dir +
        ": path is a file, not a store directory. One-shot snapshot files "
        "are no longer opened directly — restore them with "
        "ImportShardedSnapshot and persist by adding into a fresh store "
        "directory (see serve/persist/catalog_store.h)");
  }
  if (!fs::exists(st)) {
    if (!durability.create_if_missing) {
      return Status::NotFound("catalog store " + dir +
                              " does not exist (create_if_missing is off)");
    }
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::IoError("cannot create catalog store " + dir + ": " +
                             ec.message());
    }
  } else if (!fs::is_directory(st)) {
    return Status::InvalidArgument(
        "catalog store " + dir +
        " is not a store directory — if this is a legacy one-shot snapshot "
        "(GEQOSHRD), restore it with ImportShardedSnapshot and re-save it by "
        "opening a CatalogStore");
  }

  Stopwatch recovery_watch;
  std::unique_ptr<CatalogStore> store(new CatalogStore(dir, durability));
  std::vector<std::pair<uint64_t, uint64_t>> pending_pairs;
  if (fs::exists(dir + "/" + ManifestFileName())) {
    GEQO_ASSIGN_OR_RETURN(const ManifestState manifest, ReadManifest(dir));
    GEQO_RETURN_NOT_OK(store->Recover(manifest, components, plans,
                                      std::move(options), &pending_pairs));
  } else {
    // Fresh store. A crash before the very first manifest publish can
    // leave schema-matching strays (MANIFEST.tmp, an unreferenced first
    // generation) — those are garbage. Anything else means the caller
    // pointed us at a directory that is not ours: refuse loudly.
    std::vector<fs::path> strays;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      uint64_t id = 0, shard = 0;
      if (ClassifyStoreFile(name, &id, &shard) == StoreFileKind::kForeign) {
        return Status::InvalidArgument(
            "catalog store " + dir + ": directory holds foreign file '" +
            name + "'; refusing to initialize a store in it");
      }
      strays.push_back(entry.path());
    }
    for (const fs::path& stray : strays) {
      GEQO_LOG(kWarning) << "catalog store " << dir
                         << ": removing unreferenced leftover "
                         << stray.filename().string()
                         << " (crash before the first manifest publish)";
      std::error_code rm;
      if (fs::remove(stray, rm)) store->gc_files_removed_.fetch_add(1);
    }
    GEQO_RETURN_NOT_OK(options.Validate());
    store->num_shards_ = options.num_shards;
    store->sharded_ =
        std::make_unique<ShardedCatalog>(components, std::move(options));
    store->manifest_.num_shards = store->num_shards_;
  }

  for (uint64_t s = 0; s < store->num_shards_; ++s) {
    store->handles_.push_back(std::make_unique<WalHandle>());
  }
  {
    // Both paths end the same way: open a fresh log generation, publish
    // the manifest naming it, and collect whatever that manifest orphans
    // (pre-crash bases, unpublished generations, tmp files).
    MutexLock lock(store->store_mu_);
    GEQO_RETURN_NOT_OK(store->RotateLocked(/*relog_pending=*/false));
    store->CollectGarbageLocked();
  }

  // Compaction worker, then journal, then backlog: appends (which may
  // schedule a compaction) start only once the journal is attached, and
  // recovered tasks retire through the normal ProcessTask path, so their
  // verdicts must reach the log.
  if (durability.compact_after_records > 0) {
    store->compact_worker_ =
        std::thread(&CatalogStore::CompactionWorkerLoop, store.get());
  }
  store->sharded_->AttachJournal(store.get());
  if (!pending_pairs.empty()) {
    std::vector<std::pair<uint64_t, uint64_t>> kept;
    GEQO_ASSIGN_OR_RETURN(
        auto tasks, store->sharded_->BuildRecoveredTasks(pending_pairs, &kept));
    {
      MutexLock lock(store->pending_mu_);
      for (const auto& task : tasks) {
        for (const auto& [query, member] : task.logged_pairs) {
          store->outstanding_pending_.insert({task.shard, query, member});
        }
      }
    }
    store->sharded_->EnqueueRecoveredTasks(std::move(tasks));
  }
  store->recovery_seconds_ = recovery_watch.ElapsedSeconds();
  if (obs::MetricsEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetHistogram("persist.recovery_seconds")
        .Observe(store->recovery_seconds_);
    registry.GetCounter("persist.replayed_records")
        .Add(store->wal_records_replayed_);
  }
  return store;
}

Status CatalogStore::Recover(
    const ManifestState& manifest, const CatalogComponents& components,
    const std::vector<PlanPtr>& plans, ShardedCatalogOptions options,
    std::vector<std::pair<uint64_t, uint64_t>>* pending_pairs) {
  manifest_ = manifest;
  num_shards_ = manifest.num_shards;

  // The base segment (or a fresh catalog when none was compacted yet).
  if (manifest.base_id != 0) {
    if (plans.size() < manifest.base_entry_count) {
      return Status::InvalidArgument(
          "catalog store " + dir_ + ": base segment holds " +
          std::to_string(manifest.base_entry_count) + " entries but only " +
          std::to_string(plans.size()) + " plans were supplied");
    }
    const std::string base_path =
        dir_ + "/" + BaseSegmentFileName(manifest.base_id);
    std::ifstream in(base_path, std::ios::binary);
    if (!in) {
      return Status::IoError("cannot open base segment " + base_path + ": " +
                             std::strerror(errno));
    }
    const std::vector<PlanPtr> base_plans(
        plans.begin(),
        plans.begin() + static_cast<size_t>(manifest.base_entry_count));
    GEQO_ASSIGN_OR_RETURN(
        sharded_, ShardedCatalog::ImportSnapshot(in, components, base_plans,
                                                 std::move(options)));
    if (sharded_->num_shards() != num_shards_) {
      return Status::InvalidArgument(
          "catalog store " + dir_ + ": base segment shard count " +
          std::to_string(sharded_->num_shards()) +
          " disagrees with the manifest's " + std::to_string(num_shards_) +
          " (corrupt store)");
    }
  } else {
    options.num_shards = num_shards_;  // the manifest is the truth
    GEQO_RETURN_NOT_OK(options.Validate());
    sharded_ = std::make_unique<ShardedCatalog>(components, std::move(options));
  }

  // Read every referenced partition: generation order, shard order. A
  // referenced partition was synced before its manifest published, so a
  // missing file or torn header is corruption; a torn *tail* is the
  // expected crash shape and truncates to the clean prefix.
  struct Partition {
    uint64_t shard = 0;
    std::string path;
    std::vector<WalRecord> records;  ///< non-add records, append order
  };
  std::vector<Partition> partitions;
  std::vector<WalRecord> adds;
  for (const uint64_t gen : manifest.log_ids) {
    for (uint64_t s = 0; s < num_shards_; ++s) {
      const std::string path = dir_ + "/" + WalPartitionFileName(gen, s);
      GEQO_ASSIGN_OR_RETURN(WalReplay replay, ReadWalFile(path, gen, s));
      if (replay.header_torn) {
        return Status::InvalidArgument(
            path +
            ": torn header on a manifest-referenced partition (corrupt "
            "store)");
      }
      if (replay.torn) {
        GEQO_LOG(kWarning) << path << ": torn tail truncated to "
                           << replay.clean_size << " bytes ("
                           << replay.records.size() << " records survive)";
        std::error_code ec;
        fs::resize_file(path, replay.clean_size, ec);
        if (ec) {
          return Status::IoError("cannot truncate torn tail of " + path +
                                 ": " + ec.message());
        }
        ++torn_tails_truncated_;
        if (obs::MetricsEnabled()) {
          obs::MetricsRegistry::Global()
              .GetCounter("persist.torn_tails")
              .Increment();
        }
      }
      Partition part;
      part.shard = s;
      part.path = path;
      for (WalRecord& record : replay.records) {
        if (record.type == WalRecordType::kAddEntry) {
          adds.push_back(record);
        } else {
          part.records.push_back(record);
        }
      }
      partitions.push_back(std::move(part));
    }
  }

  // Phase A: adds. Global ids are dense in Add order but interleave
  // across shard partitions, so merge-sort by gid and re-derive each
  // entry through the normal Add path. A gid gap means a torn tail ate
  // an add on one shard while a later add on another survived — the
  // survivors are unreachable (ids must stay dense) and are dropped,
  // along with anything referencing them below.
  std::stable_sort(adds.begin(), adds.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.gid < b.gid;
                   });
  size_t cursor = 0;
  for (; cursor < adds.size(); ++cursor) {
    const WalRecord& record = adds[cursor];
    const size_t size = sharded_->size();
    if (record.gid < size) {  // already folded into the base, or a dup
      ++wal_records_replayed_;
      continue;
    }
    if (record.gid > size) break;  // gap — handled after the loop
    if (record.gid >= plans.size()) {
      return Status::InvalidArgument(
          "catalog store " + dir_ + ": log names entry " +
          std::to_string(record.gid) + " but only " +
          std::to_string(plans.size()) + " plans were supplied");
    }
    KillPoint("replay-record");
    GEQO_ASSIGN_OR_RETURN(
        const size_t got,
        sharded_->ReplayAdd(plans[record.gid], record.a, record.b));
    if (got != record.gid) {
      return Status::Internal("catalog store " + dir_ +
                              ": replay assigned entry id " +
                              std::to_string(got) + " where the log says " +
                              std::to_string(record.gid));
    }
    ++wal_records_replayed_;
  }
  if (cursor < adds.size()) {
    const uint64_t dropped = adds.size() - cursor;
    replay_dropped_records_ += dropped;
    GEQO_LOG(kWarning) << "catalog store " << dir_
                       << ": add record for entry " << adds[cursor].gid
                       << " follows a torn-tail gap at id " << sharded_->size()
                       << "; dropping " << dropped
                       << " unreachable add record(s)";
  }
  const size_t live = sharded_->size();

  // Phase B: verdicts, unions, pendings — per partition in scan order.
  // Each shard's stream is self-consistent (hooks fire under the shard
  // lock, and classes never cross shards), so per-partition order is the
  // only order that matters.
  std::set<std::pair<uint64_t, uint64_t>> pending_set;
  for (const Partition& part : partitions) {
    for (const WalRecord& record : part.records) {
      switch (record.type) {
        case WalRecordType::kVerdict: {
          if (record.a > record.b ||
              (record.a == record.b && record.c > record.d)) {
            return Status::InvalidArgument(
                part.path + ": verdict key violates the memo's order "
                            "normalization (corrupt log)");
          }
          KillPoint("replay-record");
          const CheckedPair pair{PairFingerprint{record.a, record.b},
                                 MemoCheck{record.c, record.d}};
          const auto verdict =
              static_cast<EquivalenceVerdict>(record.verdict);
          GEQO_RETURN_NOT_OK(
              sharded_->ReplayVerdict(part.shard, pair, verdict));
          ++wal_records_replayed_;
          break;
        }
        case WalRecordType::kUnion: {
          if (record.a >= live || record.b >= live) {
            ++replay_dropped_records_;
            GEQO_LOG(kWarning)
                << part.path << ": dropping union of entries " << record.a
                << " and " << record.b
                << " — at least one add was lost to a torn tail";
            break;
          }
          KillPoint("replay-record");
          GEQO_RETURN_NOT_OK(sharded_->ReplayUnion(record.a, record.b));
          ++wal_records_replayed_;
          break;
        }
        case WalRecordType::kPending: {
          if (record.a >= live || record.b >= live) {
            ++replay_dropped_records_;
            break;
          }
          pending_set.insert({record.a, record.b});
          ++wal_records_replayed_;
          break;
        }
        case WalRecordType::kAddEntry:
          return Status::Internal(part.path +
                                  ": add record routed to phase B");
      }
    }
  }
  pending_pairs->assign(pending_set.begin(), pending_set.end());
  return Status::OK();
}

Status CatalogStore::RotateLocked(bool relog_pending) {
  ManifestState next = manifest_;
  const uint64_t new_id = next.next_file_id++;
  std::vector<std::unique_ptr<WalWriter>> writers;
  writers.reserve(num_shards_);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    GEQO_ASSIGN_OR_RETURN(
        auto writer,
        WalWriter::Create(dir_ + "/" + WalPartitionFileName(new_id, s),
                          new_id, s));
    // The header must be durable before the manifest names the file —
    // a referenced partition with a torn header is treated as corruption.
    GEQO_RETURN_NOT_OK(writer->Sync());
    writers.push_back(std::move(writer));
  }
  next.log_ids.push_back(new_id);
  GEQO_RETURN_NOT_OK(WriteManifest(dir_, next));
  manifest_ = std::move(next);
  for (uint64_t s = 0; s < num_shards_; ++s) {
    MutexLock lock(handles_[s]->mu);
    handles_[s]->writer = std::move(writers[s]);
  }
  if (relog_pending) {
    // Sealed generations are about to become garbage (compaction's M2):
    // carry the unresolved verification backlog into the new generation
    // so it survives the drop. Duplicates with records a racing probe
    // just appended are deduped at replay.
    std::vector<PendingKey> outstanding;
    {
      MutexLock lock(pending_mu_);
      outstanding.assign(outstanding_pending_.begin(),
                         outstanding_pending_.end());
    }
    for (const auto& [shard, query, member] : outstanding) {
      MutexLock lock(handles_[shard]->mu);
      GEQO_RETURN_NOT_OK(handles_[shard]->writer->Append(
          WalRecord::Pending(query, member), durability_.flush_each_append));
    }
  }
  return Status::OK();
}

void CatalogStore::CollectGarbageLocked() {
  std::set<std::string> live;
  live.insert(ManifestFileName());
  if (manifest_.base_id != 0) {
    live.insert(BaseSegmentFileName(manifest_.base_id));
  }
  for (const uint64_t gen : manifest_.log_ids) {
    for (uint64_t s = 0; s < num_shards_; ++s) {
      live.insert(WalPartitionFileName(gen, s));
    }
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t id = 0, shard = 0;
    if (ClassifyStoreFile(name, &id, &shard) == StoreFileKind::kForeign) {
      continue;  // not ours to touch
    }
    if (live.count(name) != 0) continue;
    std::error_code rm;
    if (fs::remove(entry.path(), rm)) {
      gc_files_removed_.fetch_add(1);
      GEQO_LOG(kInfo) << "catalog store " << dir_
                      << ": collected unreferenced " << name;
      if (obs::MetricsEnabled()) {
        obs::MetricsRegistry::Global()
            .GetCounter("persist.gc_files")
            .Increment();
      }
    }
  }
}

Status CatalogStore::Checkpoint() {
  obs::Span span("persist.Checkpoint");
  Stopwatch watch;
  {
    MutexLock lock(store_mu_);
    if (closed_) {
      return Status::InvalidArgument("checkpoint on a closed catalog store");
    }
    bool any_records = false;
    for (const auto& handle : handles_) {
      MutexLock hl(handle->mu);
      if (handle->writer == nullptr) continue;
      const Status status = handle->writer->Sync();
      if (!status.ok()) {
        LatchError(status);
        return status;
      }
      any_records = any_records || handle->writer->records_appended() > 0;
    }
    // Rotating an empty generation would grow the manifest for nothing —
    // the sync above already made "nothing new" durable.
    if (any_records) {
      const Status status = RotateLocked(/*relog_pending=*/false);
      if (!status.ok()) {
        LatchError(status);
        return status;
      }
    }
  }
  const double pause = watch.ElapsedSeconds();
  last_checkpoint_pause_seconds_.store(pause);
  checkpoints_.fetch_add(1);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetHistogram("persist.checkpoint_pause_seconds")
        .Observe(pause);
  }
  return status();
}

Status CatalogStore::Compact() {
  obs::Span span("persist.Compact");
  MutexLock compact_lock(compact_mu_);
  Stopwatch watch;
  uint64_t new_base_id = 0;
  std::vector<uint64_t> sealed;
  {
    MutexLock lock(store_mu_);
    if (closed_) {
      return Status::InvalidArgument("compact on a closed catalog store");
    }
    sealed = manifest_.log_ids;
    new_base_id = manifest_.next_file_id++;  // burned even if we fail below
    // M1: rotate so sealed generations stop growing, and re-log the
    // unresolved pending backlog into the generation that survives M2.
    GEQO_RETURN_NOT_OK(RotateLocked(/*relog_pending=*/true));
  }
  records_since_base_.store(0);

  // Fold the live state into the new base — outside store_mu_, so the
  // journal hooks (and serving itself) keep flowing.
  // Any mutation that lands after the rotation is either captured by
  // this export (it happened before the export's locks) or journaled in
  // the surviving generation (hooks append after applying) — often both,
  // which replay's idempotence absorbs.
  std::ostringstream base_bytes;
  uint64_t entry_count = 0;
  GEQO_RETURN_NOT_OK(sharded_->ExportBase(base_bytes, &entry_count));
  GEQO_RETURN_NOT_OK(WriteFileDurable(
      dir_ + "/" + BaseSegmentFileName(new_base_id), base_bytes.str()));
  KillPoint("compact-pre-manifest");
  {
    MutexLock lock(store_mu_);
    if (closed_) {
      return Status::InvalidArgument("store closed during compaction");
    }
    // M2: publish the fold, un-reference the sealed generations.
    ManifestState next = manifest_;
    next.base_id = new_base_id;
    next.base_entry_count = entry_count;
    next.log_ids.erase(
        std::remove_if(next.log_ids.begin(), next.log_ids.end(),
                       [&](uint64_t id) {
                         return std::find(sealed.begin(), sealed.end(), id) !=
                                sealed.end();
                       }),
        next.log_ids.end());
    GEQO_RETURN_NOT_OK(WriteManifest(dir_, next));
    manifest_ = std::move(next);
    KillPoint("compact-pre-gc");
    CollectGarbageLocked();
  }
  compactions_.fetch_add(1);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetHistogram("persist.compaction_seconds")
        .Observe(watch.ElapsedSeconds());
  }
  return Status::OK();
}

Status CatalogStore::Close() {
  {
    MutexLock lock(store_mu_);
    if (closed_) return status();
  }
  // Order matters: stop the compaction worker (it dereferences the
  // catalog), then release the catalog (joining its verifier pool — the
  // workers' final verdicts flow through the still-open writers), then
  // sync and close the partitions.
  compact_queue_.Close();
  if (compact_worker_.joinable()) compact_worker_.join();
  sharded_.reset();
  {
    MutexLock lock(store_mu_);
    for (const auto& handle : handles_) {
      MutexLock hl(handle->mu);
      if (handle->writer != nullptr) {
        LatchError(handle->writer->Sync());
        handle->writer.reset();
      }
    }
    closed_ = true;
  }
  return status();
}

Status CatalogStore::ExportSnapshot(std::ostream& os) const {
  if (sharded_ != nullptr) return sharded_->ExportSnapshot(os);
  return Status::InvalidArgument("export on a closed catalog store");
}

Status CatalogStore::status() const {
  MutexLock lock(status_mu_);
  return first_error_;
}

CatalogStoreStats CatalogStore::stats() const {
  CatalogStoreStats out;
  out.wal_records_appended = wal_records_appended_.load();
  out.wal_records_replayed = wal_records_replayed_;
  out.replay_dropped_records = replay_dropped_records_;
  out.torn_tails_truncated = torn_tails_truncated_;
  out.records_since_base = records_since_base_.load();
  out.checkpoints = checkpoints_.load();
  out.compactions = compactions_.load();
  out.gc_files_removed = gc_files_removed_.load();
  out.last_checkpoint_pause_seconds = last_checkpoint_pause_seconds_.load();
  out.recovery_seconds = recovery_seconds_;
  return out;
}

void CatalogStore::LatchError(const Status& status) {
  if (status.ok()) return;
  MutexLock lock(status_mu_);
  if (first_error_.ok()) {
    first_error_ = status;
    GEQO_LOG(kError) << "catalog store " << dir_
                     << ": journal error latched: " << status.message();
  }
}

void CatalogStore::AppendRecord(size_t shard, const WalRecord& record) {
  WalHandle& handle = *handles_[shard];
  MutexLock lock(handle.mu);
  if (handle.writer == nullptr) {
    LatchError(Status::Internal("journal append after Close"));
    return;
  }
  Status status = handle.writer->Append(record, durability_.flush_each_append);
  if (status.ok() && durability_.sync_each_append) {
    status = handle.writer->Sync();
  }
  if (!status.ok()) {
    LatchError(status);
    return;
  }
  wal_records_appended_.fetch_add(1);
  records_since_base_.fetch_add(1);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().GetCounter("persist.wal_appends")
        .Increment();
  }
  MaybeScheduleCompaction();
}

void CatalogStore::MaybeScheduleCompaction() {
  if (durability_.compact_after_records == 0) return;
  if (records_since_base_.load() < durability_.compact_after_records) return;
  if (compaction_scheduled_.exchange(true)) return;
  compact_queue_.Push(0);
}

void CatalogStore::CompactionWorkerLoop() {
  while (compact_queue_.Pop().has_value()) {
    // Clear the dedup flag before folding, so appends landing mid-fold
    // can schedule the next round.
    compaction_scheduled_.store(false);
    LatchError(Compact());
    compact_queue_.TaskDone();
  }
}

void CatalogStore::OnAdd(size_t shard, uint64_t gid, uint64_t canonical_hash,
                         uint64_t check_hash) {
  AppendRecord(shard, WalRecord::Add(gid, canonical_hash, check_hash));
}

void CatalogStore::OnVerdict(size_t shard, uint64_t key_lo, uint64_t key_hi,
                             uint64_t check_lo, uint64_t check_hi,
                             uint8_t verdict) {
  AppendRecord(shard,
               WalRecord::Verdict(key_lo, key_hi, check_lo, check_hi,
                                  verdict));
}

void CatalogStore::OnUnion(size_t shard, uint64_t a_gid, uint64_t b_gid) {
  AppendRecord(shard, WalRecord::Union(a_gid, b_gid));
}

void CatalogStore::OnPending(size_t shard, uint64_t query_gid,
                             uint64_t member_gid) {
  {
    // Into the outstanding set *before* the append: a rotation between
    // the two would otherwise drop the pair from its re-log sweep while
    // the record lands in a generation about to be sealed.
    MutexLock lock(pending_mu_);
    outstanding_pending_.insert({shard, query_gid, member_gid});
  }
  AppendRecord(shard, WalRecord::Pending(query_gid, member_gid));
}

void CatalogStore::OnPendingResolved(size_t shard, uint64_t query_gid,
                                     uint64_t member_gid) {
  MutexLock lock(pending_mu_);
  outstanding_pending_.erase({shard, query_gid, member_gid});
}

}  // namespace geqo::serve::persist

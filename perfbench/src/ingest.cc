// `ingest`: writes beside reads on a durable sharded store. One writer
// ProbeAdds fresh subexpressions (with planted rewrites, so the async
// verifier has work) into OpenShardedCatalogStore under the default flush
// policy, long enough for several compactions; one prober issues Probe
// calls on a fixed open-loop schedule, each timed from its due time. At the
// end the verifier drains, the store closes, and a cold reopen is timed and
// checked against what was acknowledged. Only this workload exercises
// persistence and the async verification plane under write load.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "inputs.h"
#include "layers.h"
#include "plan/canonicalize.h"
#include "serve/persist/catalog_store.h"
#include "workload.h"

namespace perfbench {
namespace {

// Thread budget: writer + prober + 1 background verifier + the store's
// compaction worker; the pool runs inline.
constexpr size_t kShards = 4;
constexpr size_t kVerifierThreads = 1;
constexpr size_t kWarm = 1500;
/// The writer makes exactly this many adds, then the phase ends (or at
/// --seconds, whichever comes first). On a 4-vCPU x86-64 KVM guest they
/// took 7-11 s, so a 20 s phase leaves the writer about 2x headroom. A
/// fixed count keeps the catalog, and so the process's memory, the same
/// size however fast the program adds.
constexpr size_t kStream = 10000;
constexpr double kPlantedShare = 0.1;
constexpr size_t kProbes = 4000;
/// Low enough that the prober is mostly idle: probe latency then shows lock
/// waits and stalls rather than the prober's own queue, which on a host
/// whose speed varies would otherwise set the tail.
constexpr double kProbesPerSecond = 100.0;
/// Add throughput is the median over the full windows of this length
/// while the writer runs.
constexpr double kWindowSeconds = 1.0;
/// The bounded probe tail. Above the p75, probe latency from the due time
/// is set by lock waits behind the writer, compaction stalls and the
/// prober's own wake-up delay, which swing with the host's speed from run
/// to run; the report still prints the p99/p99.9 over all probes.
constexpr double kProbeTail = 0.75;
constexpr size_t kReopens = 3;
/// Adds replayed on a durable and a non-durable catalog to price the WAL.
constexpr size_t kAppendReplay = 1000;

using geqo::PlanPtr;
using geqo::serve::CatalogStore;

geqo::serve::ShardedCatalogOptions ServeOptions(geqo::GeqoSystem& system) {
  geqo::serve::ShardedCatalogOptions options;
  options.catalog.pipeline = system.pipeline().options();
  options.num_shards = kShards;
  options.verifier_threads = kVerifierThreads;
  return options;
}

class IngestWorkload final : public Workload {
 public:
  explicit IngestWorkload(std::string work_dir)
      : dir_(std::move(work_dir) + "/ingest-store-" +
             std::to_string(::getpid())) {}

  ~IngestWorkload() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove_all(dir_ + "-replay", ec);
  }

  const char* name() const override { return "ingest"; }

  double Setup(uint64_t seed) override {
    store_.reset();
    trained_ = TrainedSystem();
    trained_ = TrainSystem();
    inputs_ = MakeIngestInputs(*trained_.catalog, kWarm, kStream,
                               kPlantedShare, kProbes, seed);
    geqo::ThreadPool::SetGlobalThreads(1);
    store_ = OpenStore(dir_, {});
    auto ids = store_->sharded()->AddBatch(inputs_.warm);
    GEQO_CHECK(ids.ok()) << ids.status().ToString();
    store_->sharded()->DrainPendingVerifications();
    // Warm the probe path (lazy kernel and index state) off the clock.
    for (size_t i = 0; i < 64; ++i) {
      GEQO_CHECK(store_->sharded()->Probe(inputs_.probes[i]).ok());
    }
    store_->sharded()->DrainPendingVerifications();
    std::printf("# ingest: %zu warm entries, up to %zu streamed adds (%zu "
                "planted rewrites), %zu probes at %.0f/s; flush_each_append="
                "%d sync_each_append=%d compact_after_records=%zu\n",
                inputs_.warm.size(), inputs_.stream.size(),
                inputs_.planted.size(), inputs_.probes.size(),
                kProbesPerSecond, durability_.flush_each_append ? 1 : 0,
                durability_.sync_each_append ? 1 : 0,
                durability_.compact_after_records);
    return trained_.train_seconds;
  }

  PhaseResult Measure(double seconds) override {
    geqo::serve::ShardedCatalog& catalog = *store_->sharded();
    const geqo::serve::ShardedCatalogStats before = catalog.stats();
    PhaseResult out;
    std::atomic<uint64_t> pending_max{0};
    std::atomic<bool> add_failed{false};
    std::atomic<bool> writer_done{false};
    Writer writer(seconds);
    Prober prober;
    geqo::Stopwatch wall;
    const auto start = std::chrono::steady_clock::now();

    std::thread writer_thread([&] {
      for (size_t i = 0; i < inputs_.stream.size(); ++i) {
        if (wall.ElapsedSeconds() >= seconds) break;
        ++writer.attempted;
        geqo::Stopwatch watch;
        ScopedSpan span("serve.probe_add");
        auto added = catalog.ProbeAdd(inputs_.stream[i]);
        if (!added.ok()) {
          ++writer.failed;
          add_failed = true;
          break;  // a lost add would shift every later id
        }
        const double latency = watch.ElapsedSeconds();
        RecordStageSpans(added->probe.stages);
        writer.stages.Add(added->probe.stages, added->probe.memo_hits);
        if (added->id != kWarm + i) {
          writer.bad_id = true;
          break;
        }
        writer.acked = i + 1;
        writer.latency_us.push_back(latency * 1e6);
        writer.done.Add(wall.ElapsedSeconds());
        RaiseMax(&pending_max, catalog.PendingVerifications());
      }
      writer.end_s = wall.ElapsedSeconds();
      writer_done = true;
    });
    // Probes run beside the writes: the prober stops when the writer does.
    std::thread prober_thread([&] {
      for (size_t k = 0;; ++k) {
        const double due = static_cast<double>(k) / kProbesPerSecond;
        if (due >= seconds) break;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::duration<double>(due)));
        if (writer_done) break;
        prober.late_ms.push_back((wall.ElapsedSeconds() - due) * 1e3);
        ++prober.attempted;
        ScopedSpan span("serve.probe");
        auto probed = catalog.Probe(inputs_.probes[k % inputs_.probes.size()]);
        if (!probed.ok()) {
          ++prober.failed;
          continue;
        }
        RecordStageSpans(probed->stages);
        prober.stages.Add(probed->stages, probed->memo_hits);
        prober.latency_ms.push_back((wall.ElapsedSeconds() - due) * 1e3);
      }
    });
    writer_thread.join();
    prober_thread.join();
    out.wall_s = wall.ElapsedSeconds();
    out.attempted = writer.attempted + prober.attempted;
    out.failed = writer.failed + prober.failed;
    if (writer.bad_id) {
      out.correct = false;
      out.error = "ProbeAdd acknowledged an entry out of add order";
      return out;
    }
    if (add_failed) {
      out.correct = false;
      out.error = "a ProbeAdd failed; the acknowledged stream has a gap";
      return out;
    }
    std::printf("  writer: %zu of %zu adds in %.2f s%s\n", writer.acked,
                inputs_.stream.size(), writer.end_s,
                writer.acked < inputs_.stream.size() ? " (stopped at the deadline)"
                                                     : "");

    out.ops_per_s = Median(writer.done.Rates(writer.end_s));
    std::vector<double> sorted = prober.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    out.latency_p50_ms = Percentile(sorted, 0.5);
    out.latency_tail_ms = Percentile(sorted, kProbeTail);
    Report::PrintSummary("ingest.probe_ms (from due)", Summarize(prober.latency_ms),
                         "ms");
    Report::PrintSummary("ingest.probe_add_us", Summarize(writer.latency_us),
                         "us");
    const Summary late = Summarize(prober.late_ms);
    Report::PrintSummary("ingest.generator_late_ms", late, "ms");

    Values& layers = out.layers;
    StageSamples stages = writer.stages;
    stages.Merge(prober.stages);
    stages.Report(&layers);
    layers["ingest.generator_late_p99_ms"] = late.tail;

    geqo::Stopwatch drain;
    catalog.DrainPendingVerifications();
    layers["serve.drain_s"] = drain.ElapsedSeconds();
    const geqo::serve::ShardedCatalogStats after = catalog.stats();
    const uint64_t async_memo = after.async_memo_hits - before.async_memo_hits;
    const uint64_t async_calls =
        after.async_verifier_calls - before.async_verifier_calls;
    const uint64_t memo = stages.memo_hits + async_memo;
    layers["serve.memo_hit_ratio"] = Ratio(memo, memo + async_calls);
    layers["serve.verify_tasks"] = static_cast<double>(
        after.verify_tasks_enqueued - before.verify_tasks_enqueued);
    layers["serve.async_verifier_calls"] = static_cast<double>(async_calls);
    layers["serve.pending_max"] = static_cast<double>(pending_max.load());

    // Class partition and recall, after the verifier drained.
    const size_t entries = kWarm + writer.acked;
    std::vector<size_t> partition(entries);
    for (size_t gid = 0; gid < entries; ++gid) {
      partition[gid] = catalog.ClassOf(gid);
    }
    for (const auto& [source, rewrite] : inputs_.planted) {
      if (rewrite >= entries) continue;
      ++out.recall_planted;
      if (partition[source] == partition[rewrite]) ++out.recall_found;
    }

    geqo::Stopwatch checkpoint;
    const geqo::Status checkpointed = store_->Checkpoint();
    layers["persist.checkpoint_ms"] = checkpoint.ElapsedMillis();
    const geqo::serve::CatalogStoreStats store_stats = store_->stats();
    layers["persist.compactions"] = static_cast<double>(store_stats.compactions);
    layers["persist.wal_records"] =
        static_cast<double>(store_stats.wal_records_appended);
    const geqo::Status closed = store_->Close();
    store_.reset();
    if (!checkpointed.ok() || !closed.ok()) {
      out.correct = false;
      out.error = "store checkpoint/close failed: " +
                  (checkpointed.ok() ? closed : checkpointed).ToString();
      return out;
    }
    std::printf("  %zu entries acknowledged (%zu streamed), %llu WAL records, "
                "%llu compactions, %s, %s\n",
                entries, writer.acked,
                static_cast<unsigned long long>(store_stats.wal_records_appended),
                static_cast<unsigned long long>(store_stats.compactions),
                FormatRatio("serve.memo_hit_ratio", memo, memo + async_calls)
                    .c_str(),
                FormatRatio("recall", out.recall_found, out.recall_planted)
                    .c_str());

    // Cold reopen: the recovered store must hold exactly the acknowledged
    // entries, with the class partition seen before Close.
    std::vector<PlanPtr> plans = inputs_.warm;
    plans.insert(plans.end(), inputs_.stream.begin(),
                 inputs_.stream.begin() +
                     static_cast<std::ptrdiff_t>(writer.acked));
    std::vector<double> recover_s;
    for (size_t r = 0; r < kReopens; ++r) {
      geqo::Stopwatch reopen;
      std::unique_ptr<CatalogStore> reopened;
      {
        ScopedSpan span("persist.recover");
        reopened = OpenStore(dir_, plans);
      }
      recover_s.push_back(reopen.ElapsedSeconds());
      if (r == 0) {
        layers["persist.replayed_records"] =
            static_cast<double>(reopened->stats().wal_records_replayed);
      }
      const std::string mismatch = CompareRecovered(*reopened, plans, partition);
      const geqo::Status reclosed = reopened->Close();
      if (!mismatch.empty() || !reclosed.ok()) {
        out.correct = false;
        out.error = mismatch.empty() ? reclosed.ToString() : mismatch;
        return out;
      }
    }
    layers["persist.recover_s"] = Median(recover_s);
    std::printf("  cold reopen: median %.4f s over %zu reopens, %.0f records "
                "replayed; reopened store matches the acknowledged entries "
                "and class partition\n",
                Median(recover_s), kReopens, layers["persist.replayed_records"]);
    return out;
  }

  void Replay(Values* layers) override {
    // The WAL's share of ProbeAdd: the same adds on a durable store and on a
    // non-durable catalog, one after the other with nothing else running.
    const size_t adds = std::min(kAppendReplay, inputs_.stream.size());
    const std::string replay_dir = dir_ + "-replay";
    std::vector<double> durable_us;
    {
      std::unique_ptr<CatalogStore> store = OpenStore(replay_dir, {});
      durable_us = TimeAdds(*store->sharded(), adds);
      GEQO_CHECK(store->Close().ok());
    }
    std::error_code ec;
    std::filesystem::remove_all(replay_dir, ec);
    std::vector<double> memory_us;
    {
      auto catalog =
          trained_.system->OpenShardedCatalog(ServeOptions(*trained_.system));
      memory_us = TimeAdds(*catalog, adds);
    }
    (*layers)["persist.append_us"] = Median(durable_us) - Median(memory_us);
    std::printf("  ProbeAdd p50: durable %.2f us vs non-durable %.2f us over "
                "%zu adds\n",
                Median(durable_us), Median(memory_us), adds);

    constexpr size_t kReplayPlans = 3000;
    std::vector<PlanPtr> plans = inputs_.warm;
    plans.insert(plans.end(), inputs_.stream.begin(),
                 inputs_.stream.begin() +
                     static_cast<std::ptrdiff_t>(kReplayPlans - kWarm));
    std::vector<std::pair<size_t, size_t>> pairs;
    for (const auto& pair : inputs_.planted) {
      if (pair.second < plans.size()) pairs.push_back(pair);
    }
    ReplayFilterLayers(*trained_.system, plans, pairs, layers);
  }

 private:
  struct Writer {
    explicit Writer(double seconds) : done(kWindowSeconds, seconds) {}
    uint64_t attempted = 0;
    uint64_t failed = 0;
    size_t acked = 0;
    bool bad_id = false;
    double end_s = 0.0;  ///< when the writer stopped
    std::vector<double> latency_us;
    WindowCounter done;
    StageSamples stages;
  };
  struct Prober {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<double> latency_ms;  ///< completion minus due time
    std::vector<double> late_ms;     ///< send time minus due time
    StageSamples stages;
  };

  std::unique_ptr<CatalogStore> OpenStore(const std::string& dir,
                                          const std::vector<PlanPtr>& plans) {
    if (plans.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    auto store = trained_.system->OpenShardedCatalogStore(
        dir, plans, ServeOptions(*trained_.system), durability_);
    GEQO_CHECK(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  /// Warm entries plus the first \p adds stream ProbeAdds, timed per add.
  std::vector<double> TimeAdds(geqo::serve::ShardedCatalog& catalog,
                               size_t adds) {
    GEQO_CHECK(catalog.AddBatch(inputs_.warm).ok());
    catalog.DrainPendingVerifications();
    std::vector<double> us;
    for (size_t i = 0; i < adds; ++i) {
      geqo::Stopwatch watch;
      GEQO_CHECK(catalog.ProbeAdd(inputs_.stream[i]).ok());
      us.push_back(watch.ElapsedSeconds() * 1e6);
    }
    catalog.DrainPendingVerifications();
    return us;
  }

  static std::string CompareRecovered(CatalogStore& store,
                                      const std::vector<PlanPtr>& plans,
                                      const std::vector<size_t>& partition) {
    geqo::serve::ShardedCatalog& catalog = *store.sharded();
    if (catalog.size() != plans.size()) {
      return "reopened store holds " + std::to_string(catalog.size()) +
             " entries, " + std::to_string(plans.size()) + " acknowledged";
    }
    for (size_t gid = 0; gid < plans.size(); ++gid) {
      if (geqo::CanonicalHash(catalog.plan(gid)) !=
          geqo::CanonicalHash(plans[gid])) {
        return "reopened entry " + std::to_string(gid) + " is not the plan "
               "acknowledged under that id";
      }
      if (catalog.ClassOf(gid) != partition[gid]) {
        return "reopened class partition differs at entry " +
               std::to_string(gid);
      }
    }
    return "";
  }

  const std::string dir_;
  const geqo::serve::DurabilityOptions durability_;  ///< the default policy
  TrainedSystem trained_;
  IngestInputs inputs_;
  std::unique_ptr<CatalogStore> store_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestWorkload(const std::string& work_dir) {
  return std::make_unique<IngestWorkload>(work_dir);
}

}  // namespace perfbench

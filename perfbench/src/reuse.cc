// `reuse`: the online compute-reuse loop as a steady closed loop. Client
// threads serve Zipf-skewed arrivals of recurring query classes: the
// CanonicalHash exact tier first, ShardedCatalog::ProbeAdd for texts never
// seen, then OnlineResultCache::OnQuery, then ExecutionSession::Execute on
// a miss. The executor, cache and hash tier do most of the work; the
// EMF/HNSW probe path is light.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/result_cache.h"
#include "exec/session.h"
#include "inputs.h"
#include "layers.h"
#include "plan/canonicalize.h"
#include "serve/sharded_catalog.h"
#include "workload.h"

namespace perfbench {
namespace {

// Thread budget: 2 clients + 1 background verifier; the pool runs inline.
constexpr size_t kClients = 2;
constexpr size_t kVerifierThreads = 1;
constexpr size_t kShards = 4;
constexpr size_t kClasses = 300;
constexpr size_t kVariantsPerClass = 3;
constexpr size_t kOneOff = 3000;
constexpr size_t kArrivals = size_t{1} << 21;
/// Arrivals served during set-up (with a time cap) before measuring.
constexpr size_t kWarmupArrivals = 30000;
constexpr double kWarmupSeconds = 5.0;
/// The cache holds a third of the distinct class results.
constexpr size_t kBudgetDivisor = 3;
/// Throughput is the median over windows of this length.
constexpr double kWindowSeconds = 0.5;
/// The bounded query tail, over the whole phase. About one query in eight
/// misses the cache and executes, so p95 falls among executions. p99 and
/// above are printed, not bounded: they are set by the few most expensive
/// classes, ProbeAdds of never-seen texts and lock waits behind them, and
/// swing from run to run.
constexpr double kQueryTail = 0.95;
/// Query latencies kept per client (a uniform sample of all its queries),
/// so the phase's memory does not grow with its throughput.
constexpr size_t kLatencySamples = size_t{1} << 16;
/// The cache values a class by a deterministic cost estimate (rows scanned
/// plus rows produced, at this price per row) rather than a measured time,
/// so its admission decisions do not depend on the host's timing noise.
constexpr double kSecondsPerRow = 1e-8;

using geqo::PlanPtr;
using geqo::RowSet;

class ReuseWorkload final : public Workload {
 public:
  const char* name() const override { return "reuse"; }

  double Setup(uint64_t seed) override {
    // Release the previous state, catalog first (it joins its verifier and
    // borrows the trained system).
    catalog_.reset();
    cache_.reset();
    database_.reset();
    trained_ = TrainedSystem();
    trained_ = TrainSystem();
    inputs_ = MakeReuseInputs(*trained_.catalog, kClasses, kVariantsPerClass,
                              kOneOff, kArrivals, kWarmupArrivals, seed);
    database_ = std::make_unique<geqo::Database>(
        geqo::Database::Generate(*trained_.catalog, inputs_.data));
    geqo::ThreadPool::SetGlobalThreads(1);

    geqo::serve::ShardedCatalogOptions options;
    options.catalog.pipeline = trained_.system->pipeline().options();
    options.num_shards = kShards;
    options.verifier_threads = kVerifierThreads;
    catalog_ = trained_.system->OpenShardedCatalog(options);

    // Warm catalog: every class base is an entry. Executing each base once
    // measures the distinct-result bytes the cache budget is sized from and
    // warms the executor.
    text_hash_.clear();
    for (const PlanPtr& text : inputs_.texts) {
      text_hash_.push_back(geqo::CanonicalHash(text));
    }
    exact_.clear();
    base_gid_.assign(kClasses, 0);
    const geqo::exec::ExecutionSession session(database_.get());
    distinct_bytes_ = 0;
    for (size_t c = 0; c < kClasses; ++c) {
      const size_t t = c * inputs_.TextsPerClass();
      auto added = catalog_->ProbeAdd(inputs_.texts[t]);
      GEQO_CHECK(added.ok()) << added.status().ToString();
      base_gid_[c] = added->id;
      exact_.emplace(text_hash_[t], added->id);
      auto rows = session.Execute(inputs_.texts[t]);
      GEQO_CHECK(rows.ok()) << rows.status().ToString();
      distinct_bytes_ += rows->ByteSize();
    }
    catalog_->DrainPendingVerifications();
    budget_bytes_ = distinct_bytes_ / kBudgetDivisor;
    cache_ = std::make_unique<geqo::OnlineResultCache>(budget_bytes_);
    profiles_.clear();
    stored_.clear();
    // Serve the head of the stream off the clock, so the measured phase
    // starts with the exact tier, classes and cache near steady state.
    next_arrival_ = 0;
    for (const ClientState& client : Drive(kWarmupSeconds, kWarmupArrivals)) {
      GEQO_CHECK(client.failed == 0) << "a warm-up query failed";
    }
    catalog_->DrainPendingVerifications();
    std::printf("# reuse: %zu classes x %zu texts + %zu one-off texts, "
                "%zu-arrival stream, %zu data rows; distinct class results "
                "%zu bytes vs cache budget %zu bytes (%.1fx)\n",
                kClasses, inputs_.TextsPerClass(), kOneOff,
                inputs_.arrivals.size(), database_->TotalRows(),
                distinct_bytes_, budget_bytes_,
                Ratio(distinct_bytes_, budget_bytes_));
    return trained_.train_seconds;
  }

  PhaseResult Measure(double seconds) override {
    const geqo::serve::ShardedCatalogStats before = catalog_->stats();
    const geqo::OnlineCacheStats cache_before = cache_->stats();
    counters_.Reset();
    geqo::Stopwatch wall;
    std::vector<ClientState> clients =
        Drive(seconds, std::numeric_limits<size_t>::max());
    PhaseResult out;
    out.wall_s = wall.ElapsedSeconds();

    std::vector<double> latency_ms;
    uint64_t queries = 0;
    WindowCounter done(kWindowSeconds, seconds);
    StageSamples stages;
    std::map<std::pair<uint32_t, const RowSet*>, std::shared_ptr<const RowSet>>
        served;
    for (ClientState& state : clients) {
      out.attempted += state.attempted;
      out.failed += state.failed;
      latency_ms.insert(latency_ms.end(), state.latency_ms.samples().begin(),
                        state.latency_ms.samples().end());
      queries += state.latency_ms.offered();
      done.Merge(state.done);
      stages.Merge(state.stages);
      for (const auto& [text, rows] : state.served) {
        served.emplace(std::make_pair(text, rows.get()), rows);
      }
    }
    out.ops_per_s = Median(done.Rates(seconds));
    std::sort(latency_ms.begin(), latency_ms.end());
    out.latency_p50_ms = Percentile(latency_ms, 0.5);
    out.latency_tail_ms = Percentile(latency_ms, kQueryTail);
    std::printf("  query latency sampled: %zu of %llu queries\n",
                latency_ms.size(), static_cast<unsigned long long>(queries));
    Report::PrintSummary("reuse.query_ms", Summarize(std::move(latency_ms)),
                         "ms");

    geqo::Stopwatch drain;
    catalog_->DrainPendingVerifications();
    const double drain_s = drain.ElapsedSeconds();

    // Recall: rewritten variants that arrived and now share their base's
    // class.
    for (size_t t = 0; t < inputs_.NumClassTexts(); ++t) {
      if (t % inputs_.TextsPerClass() == 0) continue;  // a base
      const auto it = exact_.find(text_hash_[t]);
      if (it == exact_.end()) continue;  // never arrived
      ++out.recall_planted;
      const size_t cls = inputs_.ClassOfText(t);
      if (catalog_->ClassOf(it->second) == catalog_->ClassOf(base_gid_[cls])) {
        ++out.recall_found;
      }
    }

    const geqo::serve::ShardedCatalogStats after = catalog_->stats();
    const geqo::OnlineCacheStats& cache = cache_->stats();
    const uint64_t hits = cache.hits - cache_before.hits;
    const uint64_t misses = cache.misses - cache_before.misses;
    const uint64_t exact_hits = counters_.exact_hits.load();
    Values& layers = out.layers;
    stages.Report(&layers);
    const uint64_t async_memo = after.async_memo_hits - before.async_memo_hits;
    const uint64_t async_calls =
        after.async_verifier_calls - before.async_verifier_calls;
    const uint64_t memo = stages.memo_hits + async_memo;
    layers["serve.memo_hit_ratio"] = Ratio(memo, memo + async_calls);
    layers["serve.verify_tasks"] = static_cast<double>(
        after.verify_tasks_enqueued - before.verify_tasks_enqueued);
    layers["serve.async_verifier_calls"] = static_cast<double>(async_calls);
    layers["serve.pending_max"] =
        static_cast<double>(counters_.pending_max.load());
    layers["serve.drain_s"] = drain_s;
    layers["reuse.exact_tier_hit_ratio"] = Ratio(exact_hits, queries);
    layers["cache.hit_ratio"] = Ratio(hits, hits + misses);
    layers["cache.evictions"] =
        static_cast<double>(cache.evictions - cache_before.evictions);
    layers["cache.rejected"] =
        static_cast<double>(cache.rejected - cache_before.rejected);
    const uint64_t executions = counters_.executions.load();
    layers["exec.executions"] = static_cast<double>(executions);
    layers["exec.rows_per_s"] =
        static_cast<double>(counters_.rows_output.load()) /
        std::max(counters_.exec_ns.load() * 1e-9, 1e-9);
    std::printf("  %s, %s, %s; cache: %llu admissions, %llu evictions, "
                "%llu rejected, %zu/%zu bytes; %llu executions, %llu "
                "ProbeAdds, %s\n",
                FormatRatio("exact_tier_hit_ratio", exact_hits, queries).c_str(),
                FormatRatio("cache.hit_ratio", hits, hits + misses).c_str(),
                FormatRatio("serve.memo_hit_ratio", memo, memo + async_calls)
                    .c_str(),
                static_cast<unsigned long long>(cache.admissions -
                                                cache_before.admissions),
                static_cast<unsigned long long>(cache.evictions -
                                                cache_before.evictions),
                static_cast<unsigned long long>(cache.rejected -
                                                cache_before.rejected),
                cache.used_bytes, cache_->budget_bytes(),
                static_cast<unsigned long long>(executions),
                static_cast<unsigned long long>(counters_.probe_adds.load()),
                FormatRatio("variants_landed", out.recall_found,
                            out.recall_planted)
                    .c_str());

    // Validation pass, outside the timed loop: every result served on a
    // cache hit must equal a fresh execution of the arriving query.
    const geqo::exec::ExecutionSession session(database_.get());
    size_t checked = 0;
    for (const auto& [key, rows] : served) {
      const uint32_t text = key.first;
      auto fresh = session.Execute(inputs_.texts[text]);
      if (!fresh.ok() || !fresh->BagEquals(*rows)) {
        out.correct = false;
        out.error = "a cache hit served a result that differs from a fresh "
                    "execution of text " + std::to_string(text);
        return out;
      }
      ++checked;
    }
    std::printf("  validated %zu distinct (query, served result) hits "
                "against fresh executions\n",
                checked);
    return out;
  }

  void LayersFromSpans(const std::vector<LayerRow>& rows,
                       Values* layers) override {
    (*layers)["plan.canonical_hash_us"] =
        LayerMedian(rows, "plan.canonical_hash", 1e6);
    (*layers)["cache.onquery_us"] = LayerMedian(rows, "cache.onquery", 1e6);
    (*layers)["exec.query_p50_ms"] = LayerMedian(rows, "exec.execute", 1e3);
    (*layers)["exec.query_p99_ms"] =
        LayerPercentile(rows, "exec.execute", 0.99, 1e3);
  }

  void Replay(Values* layers) override {
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t t = 0; t < inputs_.NumClassTexts(); ++t) {
      const size_t base = t - t % inputs_.TextsPerClass();
      if (t != base) pairs.emplace_back(base, t);
    }
    const std::vector<PlanPtr> plans(
        inputs_.texts.begin(),
        inputs_.texts.begin() +
            static_cast<std::ptrdiff_t>(inputs_.NumClassTexts()));
    ReplayFilterLayers(*trained_.system, plans, pairs, layers);
  }

 private:
  struct ClassProfile {
    double seconds = 0.0;
    size_t bytes = 0;
  };

  struct ClientState {
    ClientState(uint64_t seed, double seconds)
        : latency_ms(kLatencySamples, seed), done(kWindowSeconds, seconds) {}
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Reservoir latency_ms;
    WindowCounter done;
    StageSamples stages;
    /// (text, result served on a hit), validated after the loop.
    std::vector<std::pair<uint32_t, std::shared_ptr<const RowSet>>> served;
    std::set<std::pair<uint32_t, const RowSet*>> seen;
  };

  struct Counters {
    std::atomic<uint64_t> exact_hits{0};
    std::atomic<uint64_t> probe_adds{0};
    std::atomic<uint64_t> executions{0};
    std::atomic<uint64_t> rows_output{0};
    std::atomic<uint64_t> exec_ns{0};
    std::atomic<uint64_t> pending_max{0};
    void Reset() {
      for (auto* counter : {&exact_hits, &probe_adds, &executions,
                            &rows_output, &exec_ns, &pending_max}) {
        counter->store(0);
      }
    }
  };

  /// Runs kClients closed-loop clients over the next arrivals until
  /// \p seconds pass or \p arrivals have been taken. The stream wraps
  /// around, so it never runs out however fast the loop serves.
  std::vector<ClientState> Drive(double seconds, size_t arrivals) {
    std::vector<ClientState> clients;
    for (size_t c = 0; c < kClients; ++c) clients.emplace_back(c + 1, seconds);
    const size_t first = next_arrival_.load();
    geqo::Stopwatch wall;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientState& state = clients[c];
        const geqo::exec::ExecutionSession session(database_.get());
        while (wall.ElapsedSeconds() < seconds) {
          const size_t i = next_arrival_.fetch_add(1);
          if (i - first >= arrivals) break;
          geqo::Stopwatch watch;
          ++state.attempted;
          if (!Serve(inputs_.arrivals[i % inputs_.arrivals.size()], session,
                     &state)) {
            ++state.failed;
            continue;
          }
          state.latency_ms.Add(watch.ElapsedMillis());
          state.done.Add(wall.ElapsedSeconds());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return clients;
  }

  /// Serves one arrival; false on a failed library call.
  bool Serve(uint32_t text, const geqo::exec::ExecutionSession& session,
             ClientState* state) {
    ScopedSpan query("reuse.query");
    const PlanPtr& plan = inputs_.texts[text];
    uint64_t hash = 0;
    {
      ScopedSpan span("plan.canonical_hash");
      hash = geqo::CanonicalHash(plan);
    }
    size_t gid = 0;
    bool known = false;
    {
      ScopedSpan span("reuse.exact_tier");
      std::shared_lock<std::shared_mutex> lock(exact_mu_);
      const auto it = exact_.find(hash);
      if (it != exact_.end()) {
        gid = it->second;
        known = true;
      }
    }
    if (known) {
      counters_.exact_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      {
        ScopedSpan span("serve.probe_add");
        auto added = catalog_->ProbeAdd(plan);
        if (!added.ok()) return false;
        gid = added->id;
        RecordStageSpans(added->probe.stages);
        state->stages.Add(added->probe.stages, added->probe.memo_hits);
      }
      counters_.probe_adds.fetch_add(1, std::memory_order_relaxed);
      RaiseMax(&counters_.pending_max, catalog_->PendingVerifications());
      std::unique_lock<std::shared_mutex> lock(exact_mu_);
      gid = exact_.emplace(hash, gid).first->second;
    }
    size_t cls = 0;
    {
      ScopedSpan span("serve.class_of");
      cls = catalog_->ClassOf(gid);
    }

    geqo::CacheAccess access;
    std::shared_ptr<const RowSet> hit_rows;
    {
      ScopedSpan span("cache.onquery");
      std::lock_guard<std::mutex> lock(cache_mu_);
      const ClassProfile& profile = profiles_[cls];
      access = cache_->OnQuery(
          geqo::CacheRequest{.equivalence_class = cls,
                             .canonical_hash = hash,
                             .execution_seconds = profile.seconds,
                             .result_bytes = profile.bytes});
      if (access.hit) {
        const auto it = stored_.find(cls);
        if (it != stored_.end()) hit_rows = it->second;
      }
    }
    if (hit_rows != nullptr) {
      if (state->seen.emplace(text, hit_rows.get()).second) {
        state->served.emplace_back(text, hit_rows);
      }
      return true;
    }

    // Miss (or a hit whose admitting execution has not stored its rows
    // yet): execute.
    geqo::Stopwatch watch;
    geqo::exec::ExecMetrics metrics;
    auto rows = [&] {
      ScopedSpan span("exec.execute");
      return session.Execute(plan, &metrics);
    }();
    const double exec_s = watch.ElapsedSeconds();
    if (!rows.ok()) return false;
    counters_.executions.fetch_add(1, std::memory_order_relaxed);
    counters_.rows_output.fetch_add(rows->num_rows(),
                                    std::memory_order_relaxed);
    counters_.exec_ns.fetch_add(static_cast<uint64_t>(exec_s * 1e9),
                                std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(cache_mu_);
    ClassProfile& profile = profiles_[cls];
    profile.seconds = static_cast<double>(metrics.rows_scanned +
                                          metrics.rows_output) *
                      kSecondsPerRow;
    profile.bytes = rows->ByteSize();
    if (access.admitted) {
      stored_[cls] = std::make_shared<const RowSet>(std::move(*rows));
    }
    if (access.evicted) {
      // Keep rows only for classes the cache still holds.
      std::erase_if(stored_, [&](const auto& entry) {
        return !cache_->Contains(entry.first);
      });
    }
    return true;
  }

  TrainedSystem trained_;
  ReuseInputs inputs_;
  std::unique_ptr<geqo::Database> database_;
  std::unique_ptr<geqo::serve::ShardedCatalog> catalog_;
  std::vector<uint64_t> text_hash_;
  std::vector<size_t> base_gid_;
  size_t distinct_bytes_ = 0;
  size_t budget_bytes_ = 0;

  std::shared_mutex exact_mu_;
  std::unordered_map<uint64_t, size_t> exact_;  ///< canonical hash -> gid

  std::mutex cache_mu_;
  std::unique_ptr<geqo::OnlineResultCache> cache_;
  std::unordered_map<size_t, ClassProfile> profiles_;
  /// Rows of every class the cache admitted (the resident representative).
  std::unordered_map<size_t, std::shared_ptr<const RowSet>> stored_;

  Counters counters_;
  std::atomic<size_t> next_arrival_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeReuseWorkload() {
  return std::make_unique<ReuseWorkload>();
}

}  // namespace perfbench

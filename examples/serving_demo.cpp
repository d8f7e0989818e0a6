/// \file serving_demo.cpp
/// Online serving walkthrough: streams a workload through a one-shard
/// ShardedCatalog in deferred mode (verifier_threads = 0), draining the
/// verification plane after each ProbeAdd — so each query is checked and
/// verified against everything seen so far, then becomes part of the
/// catalog, before the next one arrives. It also closes the
/// compute-reuse loop (each probed query is served through an
/// OnlineResultCache keyed by its equivalence class, executing on the
/// vectorized engine only on a miss), and shows the durable-store
/// contract: a service stopped after half the stream and restarted from
/// its CatalogStore directory replays the remaining probes with
/// bit-identical results.
///
///   ./serving_demo                    # the full stream, uninterrupted
///   ./serving_demo --phase1 BASE      # first half into BASE.store, compact
///   ./serving_demo --phase2 BASE      # reopen the store, replay the rest
///
/// Both phases resume from catalog.size(), so a run killed mid-stream (the
/// recovery lane in scripts/check.sh arms GEQO_PERSIST_KILL_POINT=
/// "demo-probe:N" to die after N probes) reopens the same store and replays
/// only the probes whose records never reached the log. Every probe prints
/// one "PROBE ..." line; scripts/check.sh diffs those lines between the
/// uninterrupted run and the phased/killed runs to smoke-test recovery. The
/// EMF stays untrained with a wide-open funnel (as in observability_demo):
/// the demo is about the serving machinery, and the verifier keeps the
/// reported equivalences exact regardless.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/geqo_system.h"
#include "exec/result_cache.h"
#include "exec/session.h"
#include "plan/canonicalize.h"
#include "serve/persist/kill_point.h"
#include "workload/generator.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

namespace {

/// 12 generated subexpressions, then 6 rewrites of the early ones (so the
/// second half of the stream probes equivalences across the restart
/// boundary), then 4 verbatim repeats — the third visit to those classes,
/// which is when the result cache starts serving hits.
std::vector<geqo::PlanPtr> BuildStream(const geqo::Catalog& catalog) {
  geqo::Rng rng(0x5E11);
  geqo::QueryGenerator generator(&catalog, geqo::GeneratorOptions());
  geqo::Rewriter rewriter(&catalog);
  std::vector<geqo::PlanPtr> stream;
  for (size_t i = 0; i < 12; ++i) stream.push_back(generator.Generate(&rng));
  for (size_t i = 0; i < 6; ++i) {
    auto variant = rewriter.RewriteOnce(stream[i], &rng);
    GEQO_CHECK(variant.ok());
    stream.push_back(*variant);
  }
  for (size_t i = 0; i < 4; ++i) stream.push_back(stream[i]);
  return stream;
}

/// The session counters behind the summary line.
struct SessionWork {
  size_t probes = 0;
  size_t verifier_calls = 0;
  size_t memo_hits = 0;
  size_t class_shortcuts = 0;
};

/// One line per verified ProbeAdd. The new entry's class after the drain is
/// itself plus every class the probe proved.
void PrintProbe(size_t index, const geqo::serve::ShardedCatalog& catalog,
                const geqo::serve::VerifiedProbe& step) {
  const size_t id = step.id;
  std::string equivalents;
  for (const size_t member : catalog.ClassMembers(id)) {
    if (member == id) continue;
    if (!equivalents.empty()) equivalents += ",";
    equivalents += std::to_string(member);
  }
  std::printf(
      "PROBE %zu: id=%zu class=%zu eq=[%s] calls=%zu memo=%zu shortcuts=%zu\n",
      index, id, catalog.ClassOf(id), equivalents.c_str(),
      step.verifier_calls, step.memo_hits, step.class_shortcuts);
}

void PrintSummary(const geqo::serve::ShardedCatalog& catalog,
                  const SessionWork& session) {
  std::printf(
      "catalog: %zu entries, %zu classes, %zu memoized verdicts\n"
      "session: %zu probes, %zu verifier calls, %zu memo hits, "
      "%zu class shortcuts\n",
      catalog.size(), catalog.NumClasses(), catalog.memo_size(),
      session.probes, session.verifier_calls, session.memo_hits,
      session.class_shortcuts);
}

/// The serving side of the reuse loop: queries execute on the vectorized
/// engine unless their equivalence class already has a materialized result.
/// Costs are modeled from deterministic execution metrics (rows scanned),
/// not wall clock, so every SERVE line is reproducible run to run. The
/// cache is in-memory session state — phased runs rebuild it, which is why
/// the recovery lane diffs PROBE lines (durable catalog state), not SERVE
/// lines.
struct ReuseLoop {
  explicit ReuseLoop(const geqo::Database* database)
      : session(database), cache(/*budget_bytes=*/64 * 1024) {}

  void Serve(size_t index, const geqo::PlanPtr& plan, size_t class_id) {
    const uint64_t hash = geqo::CanonicalHash(plan);
    const Profile known = profiles.count(class_id) ? profiles[class_id]
                                                   : Profile{};
    const geqo::CacheAccess access = cache.OnQuery(
        geqo::CacheRequest{.equivalence_class = class_id,
                           .canonical_hash = hash,
                           .execution_seconds = known.modeled_seconds,
                           .result_bytes = known.bytes});
    if (access.hit) {
      std::printf("SERVE %zu: class=%zu hit bytes=%zu\n", index, class_id,
                  known.bytes);
      return;
    }
    geqo::exec::ExecMetrics metrics;
    auto rows = session.Execute(plan, &metrics);
    GEQO_CHECK(rows.ok()) << rows.status().ToString();
    Profile& profile = profiles[class_id];
    profile.modeled_seconds =
        static_cast<double>(metrics.rows_scanned) * 1e-6;
    profile.bytes = rows->ByteSize();
    std::printf("SERVE %zu: class=%zu exec rows=%zu bytes=%zu%s\n", index,
                class_id, rows->num_rows(), profile.bytes,
                access.admitted ? "" : " (not admitted)");
  }

  struct Profile {
    double modeled_seconds = 0.0;
    size_t bytes = 0;
  };
  geqo::exec::ExecutionSession session;
  geqo::OnlineResultCache cache;
  std::map<size_t, Profile> profiles;
};

/// Streams stream[catalog.size()..limit) through the catalog, printing one
/// PROBE line per query (plus one SERVE line from the reuse loop). The
/// "demo-probe" kill point fires after each fully verified and logged probe
/// so the recovery lane can crash the process at an exact op boundary.
void RunStream(geqo::serve::ShardedCatalog& catalog,
               const std::vector<geqo::PlanPtr>& stream, size_t limit,
               ReuseLoop* reuse, SessionWork* session) {
  for (size_t i = catalog.size(); i < limit; ++i) {
    // ProbeAdd, then drain the deferred plane: the synchronous contract.
    auto step = geqo::serve::ProbeAddAndDrain(catalog, stream[i]);
    GEQO_CHECK(step.ok()) << step.status().ToString();
    ++session->probes;
    session->verifier_calls += step->verifier_calls;
    session->memo_hits += step->memo_hits;
    session->class_shortcuts += step->class_shortcuts;
    PrintProbe(i, catalog, *step);
    reuse->Serve(i, stream[i], catalog.ClassOf(step->id));
    // Armed kills die via _exit, which skips stdio flushing — flush so the
    // recovery lane's PROBE-line diff sees everything printed before the
    // crash.
    std::fflush(stdout);
    geqo::serve::persist::KillPoint("demo-probe");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace geqo;

  const std::string mode = argc >= 2 ? argv[1] : "";
  const std::string base = argc >= 3 ? argv[2] : "";
  if (!mode.empty() && (mode != "--phase1" || base.empty()) &&
      (mode != "--phase2" || base.empty())) {
    std::fprintf(stderr, "usage: %s [--phase1 BASE | --phase2 BASE]\n",
                 argv[0]);
    return 2;
  }

  const Catalog catalog = MakeTpchCatalog();
  GeqoSystemOptions options;
  options.model.conv1_size = 32;
  options.model.conv2_size = 32;
  options.model.fc1_size = 32;
  options.model.fc2_size = 16;
  options.pipeline.vmf.radius = 6.0f;
  options.pipeline.emf.threshold = 0.0f;
  GeqoSystem system(&catalog, options);

  const std::vector<PlanPtr> stream = BuildStream(catalog);
  const size_t half = stream.size() / 2;

  // The execution substrate for the reuse loop: small synthetic TPC-H data,
  // deterministically seeded so SERVE lines are stable across runs.
  DataGenOptions data_options;
  data_options.default_rows = 60;
  data_options.key_cardinality = 12;
  data_options.seed = 0xDE40;
  const Database database = Database::Generate(catalog, data_options);
  ReuseLoop reuse(&database);
  SessionWork session;

  // One shard, no background verifier threads: the plane is drained inline
  // after every ProbeAdd, so the stream is verified in order.
  const serve::ShardedCatalogOptions serve_options =
      serve::ShardedCatalogOptions::Synchronous(system.options().pipeline);

  if (mode == "--phase1") {
    // First half into a durable store. Compact() at the end folds the log
    // into a base segment, so phase2 recovers base + log tail rather than a
    // pure log replay.
    auto store =
        system.OpenShardedCatalogStore(base + ".store", stream, serve_options);
    GEQO_CHECK(store.ok()) << store.status().ToString();
    RunStream(*(*store)->sharded(), stream, half, &reuse, &session);
    GEQO_CHECK_OK(system.SaveSnapshot(base + ".system"));
    GEQO_CHECK_OK((*store)->Checkpoint());
    GEQO_CHECK_OK((*store)->Compact());
    std::printf("durable state written: %s.system, %s.store\n", base.c_str(),
                base.c_str());
    PrintSummary(*(*store)->sharded(), session);
    GEQO_CHECK_OK((*store)->Close());
    return 0;
  }

  if (mode == "--phase2") {
    // Restart: restore the system (weights + calibration), reopen the store
    // (base import + log replay), then resume the stream wherever the
    // recovered catalog left off.
    GEQO_CHECK_OK(system.LoadSnapshot(base + ".system"));
    auto store =
        system.OpenShardedCatalogStore(base + ".store", stream, serve_options);
    GEQO_CHECK(store.ok()) << store.status().ToString();
    RunStream(*(*store)->sharded(), stream, stream.size(), &reuse, &session);
    PrintSummary(*(*store)->sharded(), session);
    GEQO_CHECK_OK((*store)->Close());
    return 0;
  }

  auto serving = system.OpenShardedCatalog(serve_options);
  RunStream(*serving, stream, stream.size(), &reuse, &session);
  PrintSummary(*serving, session);
  return 0;
}

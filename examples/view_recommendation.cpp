/// \file view_recommendation.cpp
/// Workload-scale equivalence detection feeding a view recommender.
///
/// This is the paper's motivating application (§1): a large analytic
/// workload is riddled with semantically equivalent subexpressions written
/// by different authors; detecting them is the first step of materialized-
/// view selection. We:
///   1. generate a TPC-DS-style workload with hidden redundancy,
///   2. enumerate every subexpression (§2.1),
///   3. run GEqO_SET to find the equivalence classes, and
///   4. rank the classes by execution cost measured on synthetic data —
///      the top classes are the views worth materializing.
///
///   ./view_recommendation

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

#include "core/geqo_system.h"
#include "exec/session.h"
#include "plan/subexpr.h"
#include "workload/schemas.h"

int main() {
  const geqo::Catalog catalog = geqo::MakeTpcdsCatalog();

  // --- 1. A workload with planted redundancy -----------------------------
  geqo::Rng rng(77);
  geqo::GeneratorOptions generator_options;
  geqo::QueryGenerator generator(&catalog, generator_options);
  geqo::Rewriter rewriter(&catalog);

  std::vector<geqo::PlanPtr> queries;
  for (int i = 0; i < 30; ++i) queries.push_back(generator.Generate(&rng));
  // A third of the queries get semantically-equal rewrites, as if another
  // team had written the same computation differently.
  for (int i = 0; i < 10; ++i) {
    auto variant = rewriter.RewriteOnce(queries[static_cast<size_t>(i)], &rng);
    GEQO_CHECK(variant.ok());
    queries.push_back(*variant);
  }

  const std::vector<geqo::PlanPtr> workload =
      geqo::EnumerateWorkloadSubexpressions(queries);
  std::printf("Workload: %zu queries -> %zu distinct subexpressions "
              "(%zu candidate pairs)\n",
              queries.size(), workload.size(),
              workload.size() * (workload.size() - 1) / 2);

  // --- 2. Train GEqO and detect the equivalence set ----------------------
  geqo::GeqoSystemOptions options;
  options.model.conv1_size = 64;
  options.model.conv2_size = 64;
  options.model.fc1_size = 64;
  options.model.fc2_size = 32;
  options.model.dropout = 0.2f;
  options.training.epochs = 8;
  options.synthetic_data.num_base_queries = 50;
  options.pipeline.vmf.radius = 2.0f;
  options.pipeline.emf.threshold = 0.3f;
  geqo::GeqoSystem system(&catalog, options);
  std::printf("Training the EMF on synthetic TPC-DS rewrites...\n");
  GEQO_CHECK_OK(system.TrainOnSyntheticWorkload(/*seed=*/7).status());

  auto result = system.DetectEquivalences(workload);
  GEQO_CHECK_OK(result.status());
  std::printf("GEqO found %zu equivalent pairs in %.2fs:\n%s",
              result->equivalences.size(), result->total_seconds,
              geqo::StageReport::FormatTable(result->stages).c_str());

  // --- 3. Union-find the pairs into classes ------------------------------
  std::vector<size_t> parent(workload.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const std::function<size_t(size_t)> find = [&](size_t x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  for (const auto& [i, j] : result->equivalences) parent[find(i)] = find(j);

  std::map<size_t, std::vector<size_t>> classes;
  for (size_t i = 0; i < workload.size(); ++i) classes[find(i)].push_back(i);

  // --- 4. Cost the classes on synthetic data and recommend views ---------
  geqo::DataGenOptions data_options;
  data_options.default_rows = 400;
  data_options.rows_per_table["store_sales"] = 2000;
  data_options.rows_per_table["catalog_sales"] = 1500;
  data_options.rows_per_table["web_sales"] = 1200;
  const geqo::Database db = geqo::Database::Generate(catalog, data_options);
  const geqo::exec::ExecutionSession session(&db);

  struct Recommendation {
    size_t representative;
    size_t occurrences;
    double saved_seconds;
  };
  std::vector<Recommendation> recommendations;
  for (const auto& [root, members] : classes) {
    if (members.size() < 2) continue;
    geqo::exec::ExecMetrics metrics;
    const auto rows = session.Execute(workload[members[0]], &metrics);
    if (!rows.ok()) continue;  // e.g. outer-join subexpression
    const double seconds = metrics.compile_seconds + metrics.execute_seconds;
    recommendations.push_back(Recommendation{
        members[0], members.size(),
        seconds * static_cast<double>(members.size() - 1)});
  }
  std::sort(recommendations.begin(), recommendations.end(),
            [](const Recommendation& a, const Recommendation& b) {
              return a.saved_seconds > b.saved_seconds;
            });

  std::printf("\nTop view recommendations (by estimated time saved):\n");
  const size_t top = std::min<size_t>(5, recommendations.size());
  for (size_t r = 0; r < top; ++r) {
    const Recommendation& rec = recommendations[r];
    std::printf("--- view %zu: %zu equivalent occurrences, saves ~%.1f ms "
                "per workload run ---\n%s",
                r + 1, rec.occurrences, rec.saved_seconds * 1e3,
                workload[rec.representative]->ToString().c_str());
  }
  if (recommendations.empty()) {
    std::printf("  (no multi-member equivalence classes found)\n");
    return 1;
  }
  return 0;
}

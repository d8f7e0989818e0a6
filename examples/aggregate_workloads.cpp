/// \file aggregate_workloads.cpp
/// Detecting equivalence among GROUP BY / aggregation queries — the §9.1
/// extension in action. The paper's Figure 1 actually shows two *aggregate*
/// queries whose SPJ cores are equivalent; this example handles the full
/// aggregate queries end to end:
///
///   Q1: SELECT y, AVG(x) ... GROUP BY y     (over the Figure-1 SPJ core)
///   Q2: the same computation spelled differently
///
/// and then runs set-level detection over a mixed SPJ + aggregate workload.
///
///   ./aggregate_workloads

#include <cstdio>

#include "core/geqo_system.h"
#include "exec/session.h"
#include "parser/parser.h"
#include "verify/verifier.h"
#include "workload/schemas.h"

namespace {

geqo::Catalog MakeFigure1Catalog() {
  geqo::Catalog catalog;
  GEQO_CHECK_OK(catalog.AddTable(geqo::TableDef(
      "a", {{"joinkey", geqo::ValueType::kInt},
            {"val", geqo::ValueType::kInt},
            {"x", geqo::ValueType::kInt}})));
  GEQO_CHECK_OK(catalog.AddTable(geqo::TableDef(
      "b", {{"joinkey", geqo::ValueType::kInt},
            {"val", geqo::ValueType::kInt},
            {"y", geqo::ValueType::kInt}})));
  GEQO_CHECK_OK(catalog.AddJoinKey({"a", "joinkey", "b", "joinkey"}));
  return catalog;
}

}  // namespace

int main() {
  const geqo::Catalog catalog = MakeFigure1Catalog();

  // The *full* Figure-1 queries, aggregation included (the paper's GEqO
  // handles only their SPJ cores; the §9.1 extension handles these).
  const char* kQuery1 =
      "SELECT b.y, AVG(a.x) AS mean_x FROM a, b "
      "WHERE a.joinkey = b.joinkey AND a.val > b.val + 10 AND b.val > 10 "
      "GROUP BY b.y";
  const char* kQuery2 =
      "SELECT b.y, AVG(a.x) AS mean_x FROM b, a "
      "WHERE b.joinkey = a.joinkey AND b.val + 10 < a.val "
      "AND b.val + 10 > 20 AND a.val > 20 GROUP BY b.y";

  auto q1 = geqo::ParseSql(kQuery1, catalog);
  auto q2 = geqo::ParseSql(kQuery2, catalog);
  GEQO_CHECK(q1.ok() && q2.ok());
  std::printf("Aggregate query 1:\n%s\n", (*q1)->ToString().c_str());
  std::printf("Aggregate query 2:\n%s\n", (*q2)->ToString().c_str());

  // 1. The verifier proves the aggregate pair equivalent.
  geqo::SpesVerifier verifier(&catalog);
  std::printf("verifier verdict: %s\n\n",
              std::string(geqo::VerdictToString(
                  verifier.CheckEquivalence(*q1, *q2)))
                  .c_str());

  // 2. Execution agrees: identical result bags on synthetic data.
  geqo::DataGenOptions data_options;
  data_options.default_rows = 200;
  data_options.key_cardinality = 10;
  const geqo::Database db = geqo::Database::Generate(catalog, data_options);
  const geqo::exec::ExecutionSession session(&db);
  auto rows1 = session.Execute(*q1);
  auto rows2 = session.Execute(*q2);
  GEQO_CHECK(rows1.ok() && rows2.ok());
  std::printf("execution: %zu groups vs %zu groups, bags %s\n\n",
              rows1->num_rows(), rows2->num_rows(),
              rows1->BagEquals(*rows2) ? "EQUAL" : "DIFFERENT");

  // 3. Set-level detection over a mixed SPJ + aggregate workload.
  const geqo::Catalog tpcds = geqo::MakeTpcdsCatalog();
  geqo::GeqoSystemOptions options;
  options.model.conv1_size = 64;
  options.model.conv2_size = 64;
  options.model.fc1_size = 64;
  options.model.fc2_size = 32;
  options.model.dropout = 0.2f;
  options.training.epochs = 8;
  options.synthetic_data.num_base_queries = 50;
  options.synthetic_data.generator.aggregate_probability = 0.4;
  geqo::GeqoSystem system(&tpcds, options);
  std::printf("training an aggregate-aware EMF on synthetic TPC-DS data...\n");
  GEQO_CHECK_OK(system.TrainOnSyntheticWorkload(/*seed=*/91).status());

  geqo::Rng rng(92);
  geqo::GeneratorOptions generator_options;
  generator_options.aggregate_probability = 0.5;
  geqo::QueryGenerator generator(&tpcds, generator_options);
  geqo::Rewriter rewriter(&tpcds);
  std::vector<geqo::PlanPtr> workload = generator.GenerateMany(25, &rng);
  size_t planted_aggregates = 0;
  for (size_t i = 0; i < 8; ++i) {
    planted_aggregates += workload[i]->kind() == geqo::OpKind::kAggregate;
    workload.push_back(*rewriter.RewriteOnce(workload[i], &rng));
  }

  auto result = system.DetectEquivalences(workload);
  GEQO_CHECK_OK(result.status());
  size_t recovered = 0;
  for (size_t i = 0; i < 8; ++i) {
    const std::pair<size_t, size_t> pair{i, 25 + i};
    for (const auto& found : result->equivalences) {
      if (found == pair) {
        ++recovered;
        break;
      }
    }
  }
  std::printf("mixed workload: recovered %zu/8 planted rewrites "
              "(%zu involved aggregates); %zu pairs verified in total\n",
              recovered, planted_aggregates, result->equivalences.size());
  return recovered >= 6 ? 0 : 1;
}

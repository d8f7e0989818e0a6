#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/database.h"
#include "exec/session.h"
#include "oracle/row_executor.h"
#include "tensor/kernels/kernel_table.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

/// \file vec_exec_test.cc
/// Parity suite for the morsel-driven vectorized executor: every query must
/// produce a bag identical to the row-at-a-time RowExecutor (the test-only
/// oracle, tests/oracle/row_executor.h), and the exact output — including floating-point aggregates —
/// must be byte-stable across thread counts and kernel ISAs.

namespace geqo {
namespace {

using testing::MakeFigure1Catalog;
using testing::MustParse;

/// Thread counts every parity check sweeps. 1 exercises the inline path,
/// 8 oversubscribes the morsel loop on small tables.
const size_t kThreadCounts[] = {1, 2, 8};

/// Restores the global pool and ISA after a sweep.
class ConfigGuard {
 public:
  ConfigGuard()
      : threads_(ThreadPool::GlobalThreads()),
        isa_(kernels::ActiveIsa()) {}
  ~ConfigGuard() {
    ThreadPool::SetGlobalThreads(threads_);
    kernels::SetIsa(isa_);
  }

 private:
  size_t threads_;
  kernels::Isa isa_;
};

std::vector<kernels::Isa> AvailableIsas() {
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  if (kernels::Avx2TableOrNull() != nullptr) {
    isas.push_back(kernels::Isa::kAvx2);
  }
  return isas;
}

/// Rows of \p a and \p b are identical, in order (exact Value comparison —
/// stronger than BagEquals; catches nondeterministic output order or FP
/// accumulation differences across configs).
bool ExactlyEqual(const RowSet& a, const RowSet& b) {
  if (a.column_names != b.column_names || a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& x = a.rows[r][c];
      const Value& y = b.rows[r][c];
      if (x.is_numeric() != y.is_numeric() || x.Compare(y) != 0) return false;
    }
  }
  return true;
}

/// Runs \p plan through the oracle and through the vectorized engine under
/// every thread count x ISA combination, checking bag parity everywhere and
/// exact cross-config determinism of the vectorized output.
void ExpectParity(const Database& db, const PlanPtr& plan,
                  size_t morsel_rows = 16) {
  RowExecutor oracle(&db);
  const Result<RowSet> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ConfigGuard guard;
  exec::SessionOptions options;
  options.morsel_rows = morsel_rows;
  const exec::ExecutionSession session(&db, options);
  bool have_reference = false;
  RowSet reference;
  for (const kernels::Isa isa : AvailableIsas()) {
    ASSERT_TRUE(kernels::SetIsa(isa));
    for (const size_t threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      const Result<RowSet> actual = session.Execute(plan);
      ASSERT_TRUE(actual.ok())
          << actual.status().ToString() << " (isa=" << static_cast<int>(isa)
          << " threads=" << threads << ")";
      EXPECT_EQ(actual->column_names, expected->column_names);
      EXPECT_TRUE(actual->BagEquals(*expected))
          << "vectorized result diverges from oracle (isa="
          << static_cast<int>(isa) << " threads=" << threads
          << "): " << actual->num_rows() << " vs " << expected->num_rows()
          << " rows";
      if (!have_reference) {
        reference = *actual;
        have_reference = true;
      } else {
        EXPECT_TRUE(ExactlyEqual(*actual, reference))
            << "vectorized output is not bit-stable across configs (isa="
            << static_cast<int>(isa) << " threads=" << threads << ")";
      }
    }
  }
}

class VecExecTest : public ::testing::Test {
 protected:
  VecExecTest() : catalog_(MakeFigure1Catalog()) {
    DataGenOptions options;
    options.default_rows = 50;
    options.key_cardinality = 10;  // dense keys: joins produce matches
    options.seed = 999;
    db_ = std::make_unique<Database>(Database::Generate(catalog_, options));
  }

  void CheckSql(std::string_view sql, size_t morsel_rows = 16) {
    ExpectParity(*db_, MustParse(sql, catalog_), morsel_rows);
  }

  Catalog catalog_;
  std::unique_ptr<Database> db_;
};

// --- Operator-by-operator parity -----------------------------------------

TEST_F(VecExecTest, Scan) { CheckSql("SELECT * FROM a"); }

TEST_F(VecExecTest, Filter) { CheckSql("SELECT * FROM a WHERE a.val > 50"); }

TEST_F(VecExecTest, FilterChain) {
  CheckSql("SELECT * FROM a WHERE a.val > 20 AND a.val < 80 AND a.x >= 3");
}

TEST_F(VecExecTest, FilterWithArithmetic) {
  CheckSql("SELECT * FROM a WHERE a.val + 10 > a.x * 2");
}

TEST_F(VecExecTest, ProjectColumnsAndExpressions) {
  CheckSql("SELECT a.x, a.val + 1 AS v1, a.val * a.x AS vx, 7 AS c FROM a");
}

TEST_F(VecExecTest, ProjectDivision) {
  CheckSql("SELECT a.val / 4 AS q FROM a WHERE a.val > 0");
}

TEST_F(VecExecTest, HashJoin) {
  CheckSql("SELECT a.x, b.y FROM a, b WHERE a.joinkey = b.joinkey");
}

TEST_F(VecExecTest, HashJoinSwappedSides) {
  CheckSql("SELECT a.x, b.y FROM a, b WHERE b.joinkey = a.joinkey");
}

TEST_F(VecExecTest, NestedLoopJoin) {
  CheckSql("SELECT a.x, b.y FROM a, b WHERE a.joinkey + 0 = b.joinkey");
}

TEST_F(VecExecTest, NestedLoopInequalityJoin) {
  CheckSql("SELECT a.x, b.y FROM a, b WHERE a.val > b.val + 80");
}

TEST_F(VecExecTest, CrossJoin) { CheckSql("SELECT a.x, b.y FROM a, b"); }

TEST_F(VecExecTest, JoinThenFilterThenProject) {
  CheckSql(
      "SELECT a.x, b.y FROM a, b WHERE a.joinkey = b.joinkey AND "
      "a.val > b.val + 10 AND b.val > 10");
}

TEST_F(VecExecTest, SelfJoin) {
  CheckSql(
      "SELECT p1.x, p2.val FROM a AS p1, a AS p2 "
      "WHERE p1.joinkey = p2.joinkey AND p1.val > 30");
}

TEST_F(VecExecTest, AggregateCountSumMinMaxAvg) {
  CheckSql(
      "SELECT a.joinkey, COUNT(*) AS n, SUM(a.val) AS s, MIN(a.val) AS lo, "
      "MAX(a.val) AS hi, AVG(a.val) AS mean FROM a GROUP BY a.joinkey");
}

TEST_F(VecExecTest, GlobalAggregate) {
  CheckSql("SELECT SUM(a.val) AS s, COUNT(*) AS n FROM a");
}

TEST_F(VecExecTest, AggregateOverJoin) {
  CheckSql(
      "SELECT a.joinkey, SUM(b.val) AS s FROM a, b "
      "WHERE a.joinkey = b.joinkey GROUP BY a.joinkey");
}

TEST_F(VecExecTest, AggregateOverExpression) {
  CheckSql("SELECT a.joinkey, SUM(a.val * 2 + 1) AS s FROM a GROUP BY a.joinkey");
}

TEST_F(VecExecTest, EmptyFilterResult) {
  CheckSql("SELECT a.x FROM a WHERE a.val > 100000");
}

TEST_F(VecExecTest, AggregateOverEmptyInput) {
  CheckSql("SELECT a.joinkey, SUM(a.val) AS s FROM a WHERE a.val > 100000 "
           "GROUP BY a.joinkey");
}

TEST_F(VecExecTest, MorselBoundaryOfOne) {
  // Morsels of a single row: maximal scheduling freedom, same answer.
  CheckSql("SELECT a.joinkey, SUM(a.val) AS s FROM a GROUP BY a.joinkey",
           /*morsel_rows=*/1);
}

TEST_F(VecExecTest, MorselLargerThanTable) {
  CheckSql("SELECT a.x FROM a WHERE a.val > 50", /*morsel_rows=*/65536);
}

// --- Error parity ----------------------------------------------------------

TEST_F(VecExecTest, DivisionByZeroMatchesOracle) {
  const PlanPtr plan =
      MustParse("SELECT a.val / (a.val - a.val) AS q FROM a", catalog_);
  RowExecutor oracle(db_.get());
  const Result<RowSet> expected = oracle.Execute(plan);
  ASSERT_FALSE(expected.ok());
  const exec::ExecutionSession session(db_.get());
  const Result<RowSet> actual = session.Execute(plan);
  ASSERT_FALSE(actual.ok());
  EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
}

TEST_F(VecExecTest, DivisionByZeroNotRaisedWhenNoRowsFlow) {
  // The oracle evaluates lazily: a filter that kills every row means the
  // poisoned projection is never evaluated. The compiled engine must match.
  const PlanPtr plan = MustParse(
      "SELECT a.val / (a.val - a.val) AS q FROM a WHERE a.val > 100000",
      catalog_);
  RowExecutor oracle(db_.get());
  ASSERT_TRUE(oracle.Execute(plan).ok());
  const exec::ExecutionSession session(db_.get());
  const Result<RowSet> actual = session.Execute(plan);
  EXPECT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->num_rows(), 0u);
}

TEST_F(VecExecTest, OuterJoinNotSupportedMatchesOracle) {
  const PlanPtr plan = MustParse(
      "SELECT a.x FROM a LEFT JOIN b ON a.joinkey = b.joinkey", catalog_);
  RowExecutor oracle(db_.get());
  const Result<RowSet> expected = oracle.Execute(plan);
  ASSERT_TRUE(expected.status().IsNotSupported());
  const exec::ExecutionSession session(db_.get());
  const Result<RowSet> actual = session.Execute(plan);
  EXPECT_TRUE(actual.status().IsNotSupported());
  EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
}

// --- Streaming API ---------------------------------------------------------

TEST_F(VecExecTest, NextBatchStreamsAllRowsThenDrains) {
  const PlanPtr plan = MustParse("SELECT * FROM a", catalog_);
  exec::SessionOptions options;
  options.morsel_rows = 16;  // 50 rows -> 4 morsels
  const exec::ExecutionSession session(db_.get(), options);
  auto prepared = session.Prepare(plan);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  exec::QueryExecution& query = **prepared;
  size_t batches = 0;
  size_t rows = 0;
  while (true) {
    const Result<const exec::Batch*> batch = query.NextBatch();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (*batch == nullptr) break;
    ++batches;
    rows += (*batch)->ActiveRows();
  }
  EXPECT_EQ(batches, 4u);
  EXPECT_EQ(rows, 50u);
  // Drained: Materialize returns the (now empty) remainder.
  const Result<RowSet> rest = query.Materialize();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->num_rows(), 0u);
  EXPECT_EQ(query.metrics().morsels, 4u);
  EXPECT_EQ(query.metrics().rows_scanned, 50u);
}

TEST_F(VecExecTest, PartialStreamThenMaterializeReturnsRemainder) {
  const PlanPtr plan = MustParse("SELECT * FROM a", catalog_);
  exec::SessionOptions options;
  options.morsel_rows = 16;
  const exec::ExecutionSession session(db_.get(), options);
  auto prepared = session.Prepare(plan);
  ASSERT_TRUE(prepared.ok());
  exec::QueryExecution& query = **prepared;
  const Result<const exec::Batch*> first = query.NextBatch();
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);
  const size_t streamed = (*first)->ActiveRows();
  const Result<RowSet> rest = query.Materialize();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(streamed + rest->num_rows(), 50u);
}

TEST_F(VecExecTest, MetricsCountPipelinesAndRows) {
  const PlanPtr plan = MustParse(
      "SELECT a.joinkey, SUM(b.val) AS s FROM a, b "
      "WHERE a.joinkey = b.joinkey GROUP BY a.joinkey",
      catalog_);
  exec::ExecMetrics metrics;
  const exec::ExecutionSession session(db_.get());
  const Result<RowSet> out = session.Execute(plan, &metrics);
  ASSERT_TRUE(out.ok());
  // Join build + aggregate input + final scan over the group table.
  EXPECT_EQ(metrics.pipelines, 3u);
  EXPECT_EQ(metrics.rows_scanned, 100u);  // both 50-row tables
  EXPECT_EQ(metrics.rows_output, out->num_rows());
  EXPECT_GE(metrics.execute_seconds, 0.0);
}

// --- Whole-workload parity -------------------------------------------------

std::vector<std::string> LoadStatements(const std::string& path) {
  std::ifstream in(path);
  GEQO_CHECK(in.good()) << "cannot open workload file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  // Strip -- comments, then split on ';'.
  std::string stripped;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comment = text.find("--", pos);
    if (comment == std::string::npos) {
      stripped.append(text, pos, text.size() - pos);
      break;
    }
    stripped.append(text, pos, comment - pos);
    const size_t eol = text.find('\n', comment);
    if (eol == std::string::npos) break;
    pos = eol;  // keep the newline as whitespace
  }
  std::vector<std::string> statements;
  std::stringstream split(stripped);
  std::string statement;
  while (std::getline(split, statement, ';')) {
    const size_t first = statement.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) continue;
    statements.push_back(statement.substr(first));
  }
  return statements;
}

TEST(VecExecWorkloadTest, TpchViewsFileMatchesOracle) {
  const Catalog catalog = MakeTpchCatalog();
  DataGenOptions options;
  options.default_rows = 60;
  options.key_cardinality = 15;
  options.seed = 0x7c9;
  const Database db = Database::Generate(catalog, options);
  const std::vector<std::string> statements =
      LoadStatements(std::string(GEQO_WORKLOADS_DIR) + "/tpch_views.sql");
  ASSERT_GT(statements.size(), 5u);
  for (const std::string& sql : statements) {
    SCOPED_TRACE(sql);
    ExpectParity(db, MustParse(sql, catalog));
  }
}

TEST(VecExecWorkloadTest, GeneratedTpchWorkloadMatchesOracle) {
  const Catalog catalog = MakeTpchCatalog();
  DataGenOptions data_options;
  data_options.default_rows = 40;
  data_options.key_cardinality = 12;
  data_options.seed = 0xabc1;
  const Database db = Database::Generate(catalog, data_options);

  GeneratorOptions gen_options;
  gen_options.max_tables = 3;
  gen_options.max_select_predicates = 3;
  gen_options.aggregate_probability = 0.4;
  gen_options.string_predicate_probability = 0.3;
  const QueryGenerator generator(&catalog, gen_options);
  Rng rng(0x5eed01);
  const std::vector<PlanPtr> queries = generator.GenerateMany(25, &rng);
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("generated query " + std::to_string(i));
    ExpectParity(db, queries[i], /*morsel_rows=*/8);
  }
}

/// The query mix and data of bench_e2e at smoke scale: the same generator
/// settings, rewrites and seeds as bench_util's MakeDetectionWorkload(24, 8,
/// 0xE2E0), over DataGenOptions{300 rows, 40 keys, seed 0xE2EDA7A}. The
/// bench runs every query through the vectorized engine only; this is the
/// oracle parity check for that mix, at the bench's default morsel size.
TEST(VecExecWorkloadTest, E2eBenchWorkloadMatchesOracle) {
  const Catalog catalog = MakeTpchCatalog();
  DataGenOptions data_options;
  data_options.default_rows = 300;
  data_options.key_cardinality = 40;
  data_options.seed = 0xE2EDA7A;
  const Database db = Database::Generate(catalog, data_options);

  GeneratorOptions gen_options;
  gen_options.fixed_projection_columns = 2;
  gen_options.table_pool = {"customer", "lineitem", "orders"};
  const QueryGenerator generator(&catalog, gen_options);
  const Rewriter rewriter(&catalog);
  Rng rng(0xE2E0);
  std::vector<PlanPtr> queries = generator.GenerateMany(16, &rng);
  for (size_t i = 0; i < 8; ++i) {
    Result<PlanPtr> variant = rewriter.RewriteOnce(queries[i], &rng);
    ASSERT_TRUE(variant.ok()) << variant.status().ToString();
    queries.push_back(*variant);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("e2e query " + std::to_string(i));
    ExpectParity(db, queries[i], exec::SessionOptions{}.morsel_rows);
  }
}

}  // namespace
}  // namespace geqo

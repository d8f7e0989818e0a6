#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/database.h"
#include "exec/pipeline.h"
#include "exec/row_set.h"

/// \file session.h
/// The batched execution API of the vectorized engine.
///
/// `ExecutionSession` is the entry point: it binds a Database and the
/// execution options (morsel size), compiles plans once, and hands back
/// `QueryExecution` objects that stream columnar batches:
///
///     ExecutionSession session(&database);
///     GEQO_ASSIGN_OR_RETURN(auto query, session.Prepare(plan));
///     while (true) {
///       GEQO_ASSIGN_OR_RETURN(const exec::Batch* batch, query->NextBatch());
///       if (batch == nullptr) break;  // drained
///       ...consume columns...
///     }
///
/// `Materialize()` (or the one-shot `ExecutionSession::Execute`) converts the
/// remaining stream into the row-oriented RowSet, which stays the
/// interchange currency with the caching and catalog layers. This is the
/// library's one execution engine; the row-at-a-time evaluator it is checked
/// against is a test-only oracle (tests/oracle/row_executor.h).

namespace geqo::exec {

/// \brief Execution knobs, fixed per session.
struct SessionOptions {
  /// Morsel size in source rows. Values outside [1, 65536] are clamped.
  size_t morsel_rows = 4096;
};

/// \brief One compiled query, ready to stream batches.
///
/// Pipelines run on the first NextBatch()/Materialize() call; results are
/// buffered (the final pipeline's batches, in morsel order) and then
/// streamed. Not thread-safe; create one per query per thread.
class QueryExecution {
 public:
  /// The next result batch, or nullptr when the stream is drained. The
  /// first call executes the query's pipelines.
  Result<const Batch*> NextBatch();

  /// Drains the remaining stream into a RowSet (all batches when called
  /// before any NextBatch()). Column names follow the RowSet convention:
  /// alias.column, bare names for computed columns.
  Result<RowSet> Materialize();

  const std::vector<std::string>& column_names() const {
    return query_->column_names();
  }

  /// Counters of the executed query; fully populated once the pipelines
  /// have run.
  const ExecMetrics& metrics() const { return metrics_; }

 private:
  friend class ExecutionSession;
  QueryExecution(std::unique_ptr<CompiledQuery> query, size_t morsel_rows,
                 double compile_seconds)
      : query_(std::move(query)), morsel_rows_(morsel_rows) {
    metrics_.compile_seconds = compile_seconds;
  }

  Status EnsureRan();

  std::unique_ptr<CompiledQuery> query_;
  size_t morsel_rows_;
  bool ran_ = false;
  std::vector<Batch> batches_;
  size_t cursor_ = 0;
  ExecMetrics metrics_;
};

/// \brief A handle on a Database through the vectorized engine.
class ExecutionSession {
 public:
  explicit ExecutionSession(const Database* database,
                            SessionOptions options = SessionOptions{});

  /// Compiles \p plan into a streamable execution. Fails eagerly on unknown
  /// tables and unsupported operators, like the row oracle.
  Result<std::unique_ptr<QueryExecution>> Prepare(const PlanPtr& plan) const;

  /// One-shot convenience: Prepare + run + Materialize. When \p metrics is
  /// non-null it receives the execution's counters.
  Result<RowSet> Execute(const PlanPtr& plan,
                         ExecMetrics* metrics = nullptr) const;

  const Database& database() const { return *database_; }
  size_t morsel_rows() const { return morsel_rows_; }

 private:
  const Database* database_;
  size_t morsel_rows_;
};

}  // namespace geqo::exec

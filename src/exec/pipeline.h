#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/database.h"
#include "plan/plan.h"

/// \file pipeline.h
/// Plan compilation for the morsel-driven vectorized executor.
///
/// A plan tree is decomposed into a DAG of pipelines at its breakers: the
/// build side of every join and the input of every aggregation end in a
/// blocking sink that materializes its result (and, for hash joins, builds
/// the hash table); every other operator streams batches. Pipelines run in
/// dependency order; within a pipeline, workers on the shared thread pool
/// pull morsels of source rows and push each morsel's batch through the
/// operator chain. Per-morsel outputs are buffered and consumed by sinks in
/// morsel order, which makes the engine's output — including floating-point
/// aggregate sums — bit-identical across thread counts and identical to the
/// sequential row-at-a-time test oracle, tests/oracle/row_executor.h (see
/// DESIGN.md §12).
///
/// Most users should not include this header directly; exec/session.h wraps
/// it in the public ExecutionSession / QueryExecution API.

namespace geqo::exec {

/// \brief Static description of one column flowing between operators.
struct ColumnInfo {
  ColumnRef binding;
  ValueType type = ValueType::kInt;
};

/// \brief Where a pipeline's morsels come from.
struct Source {
  enum class Kind { kScan, kMaterialized };
  Kind kind = Kind::kScan;
  const TableData* table = nullptr;  ///< kScan
  std::string alias;                 ///< kScan
  size_t breaker = 0;                ///< kMaterialized: index into breakers
};

/// \brief One streaming operator of a pipeline.
///
/// `static_error` carries a compile-time-detected evaluation error (unbound
/// column, arithmetic over strings, numeric-vs-string comparison). The row
/// oracle raises these lazily — only when a row is actually evaluated — so
/// the compiled op stores the error and raises it at run time the moment
/// rows reach the op, which keeps empty-input behavior identical.
struct CompiledOp {
  enum class Tag { kFilter, kProject, kHashProbe, kNlProbe };
  Tag tag = Tag::kFilter;

  Comparison predicate;               ///< kFilter / kNlProbe
  std::vector<OutputColumn> outputs;  ///< kProject
  size_t breaker = 0;                 ///< probes: build side
  int probe_key = -1;                 ///< kHashProbe: column in incoming batch
  int build_key = -1;                 ///< kHashProbe: column in build batch

  Status static_error;
  bool string_compare = false;  ///< kFilter / kNlProbe: both sides strings
  std::vector<ColumnInfo> out_columns;  ///< schema after this op
};

/// \brief Spec of an aggregation sink (mirrors the row oracle's fold
/// exactly).
struct AggregateSpec {
  std::vector<OutputColumn> group_by;
  std::vector<AggregateExpr> aggregates;
  std::vector<ColumnInfo> out_columns;
};

/// \brief The blocking end of a pipeline.
struct Sink {
  enum class Kind { kResult, kBuild, kAggregate };
  Kind kind = Kind::kResult;
  size_t breaker = 0;  ///< kBuild / kAggregate: destination breaker
  AggregateSpec aggregate;
};

/// \brief One pipeline: source -> streaming ops -> sink.
struct Pipeline {
  Source source;
  std::vector<ColumnInfo> source_columns;
  std::vector<CompiledOp> ops;
  std::vector<ColumnInfo> final_columns;  ///< schema entering the sink
  Sink sink;
};

/// \brief Materialized state shared between a producing pipeline's sink and
/// its consumers: a dense batch, plus the hash table for hash-join builds.
struct Breaker {
  std::vector<ColumnInfo> columns;
  Batch data;
  bool hashed = false;
  int hash_key = -1;
  std::unordered_map<uint64_t, std::vector<uint32_t>> hash_table;
};

/// \brief Counters for one query execution (also mirrored into the exec.*
/// metrics when GEQO_TRACE enables collection).
struct ExecMetrics {
  size_t pipelines = 0;
  size_t morsels = 0;
  size_t batches = 0;  ///< non-empty batches reaching sinks
  size_t rows_scanned = 0;
  size_t rows_output = 0;
  double compile_seconds = 0.0;
  double execute_seconds = 0.0;
  double breaker_seconds = 0.0;  ///< time spent in blocking sinks
};

/// \brief A plan compiled to pipelines, ready to run against its Database.
class CompiledQuery {
 public:
  /// Decomposes \p plan into pipelines over \p database. Fails eagerly on
  /// unknown tables and unsupported operators (outer joins), exactly like
  /// the row oracle.
  static Result<std::unique_ptr<CompiledQuery>> Compile(
      const Database& database, const PlanPtr& plan);

  /// Runs every pipeline in dependency order, appending the final
  /// pipeline's batches (in morsel order) to \p out. `morsel_rows` is the
  /// morsel size in source rows, already clamped by the session.
  Status Run(size_t morsel_rows, ExecMetrics* metrics,
             std::vector<Batch>* out);

  /// Output column names, RowSet-style: alias.column, bare name for
  /// computed columns.
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  const std::vector<ColumnInfo>& output_columns() const {
    return pipelines_.back().final_columns;
  }

 private:
  CompiledQuery() = default;

  Result<std::vector<ColumnInfo>> CompileInto(const Database& database,
                                              const PlanPtr& plan,
                                              Pipeline* current);
  Status RunPipeline(Pipeline* pipeline, size_t morsel_rows,
                     ExecMetrics* metrics, std::vector<Batch>* final_out);

  std::vector<Pipeline> pipelines_;
  std::vector<Breaker> breakers_;
  std::vector<std::string> column_names_;
};

}  // namespace geqo::exec

#pragma once

#include <vector>

#include "exec/database.h"
#include "exec/row_set.h"
#include "plan/plan.h"

/// \file row_executor.h
/// The row-at-a-time SPJ+aggregate evaluator over the in-memory Database:
/// scans, selections, hash/nested-loop joins, aggregation and projections,
/// one tuple at a time. It is the ground-truth oracle of the test suites,
/// not part of the library: property tests label equivalence with it, and
/// the vectorized engine (exec/session.h) must stay BagEquals-identical to
/// it on every covered workload. Built as the test-only `geqo_row_oracle`
/// target; library, bench and example code runs queries through
/// exec::ExecutionSession.

namespace geqo {

/// \brief Execution statistics for one oracle query.
struct ExecStats {
  size_t rows_scanned = 0;
  size_t rows_output = 0;
  double seconds = 0.0;
};

/// \brief Evaluates logical plans against a Database, row by row.
class RowExecutor {
 public:
  explicit RowExecutor(const Database* database) : database_(database) {}

  /// Runs \p plan; fills \p stats if non-null.
  Result<RowSet> Execute(const PlanPtr& plan, ExecStats* stats = nullptr);

 private:
  /// Intermediate result: tuples plus the qualified column bindings
  /// (alias.column) describing each position.
  struct Intermediate {
    std::vector<ColumnRef> bindings;
    std::vector<std::vector<Value>> rows;
  };

  Result<Intermediate> Run(const PlanPtr& plan, ExecStats* stats);
  Result<Value> Evaluate(const ExprPtr& expr, const Intermediate& input,
                         const std::vector<Value>& row) const;
  Result<bool> EvaluatePredicate(const Comparison& cmp, const Intermediate& input,
                                 const std::vector<Value>& row) const;

  const Database* database_;
};

}  // namespace geqo

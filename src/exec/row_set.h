#pragma once

#include <string>
#include <vector>

#include "plan/value.h"

/// \file row_set.h
/// The materialized query-result currency of the vectorized engine
/// (`exec::ExecutionSession::Execute`, `QueryExecution::Materialize`).
/// Everything downstream of execution — the §7.7 result-caching study, the
/// e2e bench, the property tests — exchanges results in this shape, and so
/// does the tests' row-at-a-time oracle (tests/oracle/row_executor.h), which
/// is what makes engine-parity testing (`BagEquals`) possible.

namespace geqo {

/// \brief A materialized query result: row-major tuples plus column names.
struct RowSet {
  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return column_names.size(); }

  /// Approximate materialized size in bytes (for cache budgeting).
  size_t ByteSize() const;

  /// Bag (multiset) equality of tuples, ignoring row order and names.
  bool BagEquals(const RowSet& other) const;
};

}  // namespace geqo

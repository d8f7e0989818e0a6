#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "nn/treeconv.h"
#include "plan/plan.h"
#include "plan/schema.h"
#include "tensor/tensor.h"

/// \file encoding.h
/// Instance-based node-vector encoding of logical plans (§4.1, Figure 3).
///
/// Every plan node becomes a node vector (NV) laid out as
///   [ V_table | V_join | V_select ]
/// with
///   V_table  = onehot(t, T_W)
///   V_join   = onehot(c_l, C_W) (+) onehot(o, O_W) (+) onehot(c_r, C_W)
///              (+) onehot(j, J_W)
///   V_select = onehot(c, C_W) (+) onehot(o, O_W) (+) norm(v) (+) null(v)
/// so |NV| = |T_W| + 3|C_W| + 2|O_W| + |J_W| + 2. Segments that do not apply
/// to a node are zero.

namespace geqo {

/// Number of comparison operators in O_W (=, <>, <, <=, >, >=).
inline constexpr size_t kNumCompareOps = 6;
/// Number of join types in J_W (inner, left outer, right outer).
inline constexpr size_t kNumJoinTypes = 3;
/// Number of aggregate functions (COUNT, SUM, MIN, MAX, AVG) in the group-by
/// extension of the featurization (paper §9.1).
inline constexpr size_t kNumAggregateFns = 5;
/// Largest table count and per-table column count of an agnostic layout: the
/// two-digit symbols t01..t99 / c01..c99 keep lexicographic order equal to
/// slot order. Decoders of untrusted layouts check this bound before calling
/// EncodingLayout::Agnostic, which aborts past it.
inline constexpr size_t kMaxAgnosticSymbols = 99;

/// \brief The featurization layout: which tables and columns occupy which
/// one-hot positions. Tables and columns are sorted alphanumerically so
/// that the fast instance->agnostic converter (§4.2.1) preserves symbol
/// order (see agnostic.h).
class EncodingLayout {
 public:
  /// Builds the layout for a database instance: all catalog tables and all
  /// their columns, in sorted order.
  static EncodingLayout FromCatalog(const Catalog& catalog);

  /// Builds the db-agnostic symbolic layout T'_W = {t1..tn},
  /// C'_W = {t1.c1 .. tn.cm} (§4.2). Both bounds must lie in
  /// [1, kMaxAgnosticSymbols].
  static EncodingLayout Agnostic(size_t max_tables, size_t max_columns_per_table);

  size_t num_tables() const { return tables_.size(); }
  size_t num_columns() const { return columns_.size(); }
  /// Total node-vector width |NV|: the paper's |T|+3|C|+2|O|+|J|+2 (§4.1)
  /// plus the §9.1 extension segments — a group-by multi-hot over C_W, an
  /// aggregate-function one-hot, and an aggregate-argument multi-hot.
  size_t node_vector_size() const {
    return num_tables() + 3 * num_columns() + 2 * kNumCompareOps +
           kNumJoinTypes + 2 + 2 * num_columns() + kNumAggregateFns;
  }

  /// Index of \p table in T_W, or npos.
  size_t TableIndex(std::string_view table) const;
  /// Index of "table.column" in C_W, or npos.
  size_t ColumnIndex(std::string_view table, std::string_view column) const;

  const std::vector<std::string>& tables() const { return tables_; }
  const std::vector<std::string>& columns() const { return columns_; }
  /// Table slot of column slot \p column.
  size_t ColumnTable(size_t column) const { return column_tables_[column]; }
  /// Column slots of table slot \p table, ascending.
  const std::vector<size_t>& TableColumns(size_t table) const {
    return table_columns_[table];
  }

  // Segment offsets within a node vector.
  size_t table_offset() const { return 0; }
  size_t join_left_offset() const { return num_tables(); }
  size_t join_op_offset() const { return join_left_offset() + num_columns(); }
  size_t join_right_offset() const { return join_op_offset() + kNumCompareOps; }
  size_t join_type_offset() const { return join_right_offset() + num_columns(); }
  size_t select_col_offset() const { return join_type_offset() + kNumJoinTypes; }
  size_t select_op_offset() const { return select_col_offset() + num_columns(); }
  size_t select_norm_offset() const { return select_op_offset() + kNumCompareOps; }
  size_t select_null_offset() const { return select_norm_offset() + 1; }
  // Group-by / aggregation extension segments (paper §9.1).
  size_t group_by_offset() const { return select_null_offset() + 1; }
  size_t agg_fn_offset() const { return group_by_offset() + num_columns(); }
  size_t agg_col_offset() const { return agg_fn_offset() + kNumAggregateFns; }

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// For agnostic layouts: the (max_tables, max_columns_per_table) bounds.
  size_t max_columns_per_table() const { return max_columns_per_table_; }

 private:
  std::vector<std::string> tables_;   ///< sorted table names (or symbols)
  std::vector<std::string> columns_;  ///< sorted "table.column" strings
  size_t max_columns_per_table_ = 0;  ///< nonzero only for agnostic layouts
  std::vector<size_t> column_tables_;               ///< column slot -> table
  std::vector<std::vector<size_t>> table_columns_;  ///< table slot -> columns

  /// Fills column_tables_ and table_columns_ from tables_ and columns_.
  void IndexColumns();
};

/// \brief Normalization range for predicate constants: norm(v) maps workload
/// scalars into [0, 1] (§4.1).
struct ValueRange {
  double min = 0.0;
  double max = 1.0;

  float Normalize(double v) const {
    if (max <= min) return 0.5f;
    const double clamped = std::min(std::max(v, min), max);
    return static_cast<float>((clamped - min) / (max - min));
  }
};

/// \brief Scans \p plans for numeric predicate constants and returns their
/// range (used to configure norm(v) for a workload).
ValueRange ComputeValueRange(const std::vector<PlanPtr>& plans);

/// \brief A plan encoded as a node matrix plus tree structure, ready to be
/// packed into an nn::TreeBatch. Node order is breadth-first (§3.2).
struct EncodedPlan {
  Tensor nodes;                ///< [num_nodes, |NV|]
  std::vector<int32_t> left;   ///< child row index or -1
  std::vector<int32_t> right;  ///< child row index or -1

  size_t num_nodes() const { return nodes.rows(); }
};

/// \brief Maps real table/column names onto the symbolic names of an
/// agnostic layout (§4.2, Table 2). Built per subexpression pair (or per
/// SF-group for the n-ary variant) by BuildSymbolMap in agnostic.h.
struct SymbolMap {
  /// real table name -> symbolic table name ("t01"...), sorted by real name.
  std::vector<std::pair<std::string, std::string>> tables;
  /// (real table, real column) -> symbolic column name ("c01"...).
  std::vector<std::pair<std::pair<std::string, std::string>, std::string>>
      columns;

  /// Symbol for \p table, or nullptr.
  const std::string* TableSymbol(std::string_view table) const;
  /// Symbol for \p table.\p column, or nullptr.
  const std::string* ColumnSymbol(std::string_view table,
                                  std::string_view column) const;
};

/// \brief Encodes plans into node-vector matrices.
///
/// With a null SymbolMap this produces the instance-based encoding (§4.1)
/// against an instance layout; with a SymbolMap it produces the db-agnostic
/// encoding (§4.2, "path A": symbolize then encode) against an agnostic
/// layout. agnostic.h additionally implements "path B", the fast
/// instance->agnostic converter of §4.2.1; tests assert A == B.
class PlanEncoder {
 public:
  PlanEncoder(const EncodingLayout* layout, const Catalog* catalog,
              ValueRange value_range, const SymbolMap* symbols = nullptr)
      : layout_(layout),
        catalog_(catalog),
        value_range_(value_range),
        symbols_(symbols) {}

  /// Encodes \p plan. References outside the layout (or outside the symbol
  /// map when one is set) yield InvalidArgument.
  Result<EncodedPlan> Encode(const PlanPtr& plan) const;

  const EncodingLayout& layout() const { return *layout_; }
  const ValueRange& value_range() const { return value_range_; }

 private:
  Status EncodeNode(const PlanNode& node,
                    const std::vector<std::pair<std::string, std::string>>&
                        alias_to_table,
                    float* row) const;

  const EncodingLayout* layout_;
  const Catalog* catalog_;
  ValueRange value_range_;
  const SymbolMap* symbols_;
};

/// \brief Packs encoded plans into a single nn::TreeBatch for the tree
/// convolution (child indices are rebased to global rows).
nn::TreeBatch BuildTreeBatch(const std::vector<const EncodedPlan*>& plans);

}  // namespace geqo

#include "encode/encoding.h"

#include <algorithm>
#include <deque>

#include "common/hash.h"
#include "common/strings.h"

namespace geqo {
namespace {

size_t CompareOpIndex(CompareOp op) { return static_cast<size_t>(op); }
size_t JoinTypeIndex(JoinType type) { return static_cast<size_t>(type); }

}  // namespace

EncodingLayout EncodingLayout::FromCatalog(const Catalog& catalog) {
  EncodingLayout layout;
  for (const TableDef& table : catalog.tables()) {
    layout.tables_.push_back(table.name());
    for (const ColumnDef& column : table.columns()) {
      layout.columns_.push_back(table.name() + "." + column.name);
    }
  }
  std::sort(layout.tables_.begin(), layout.tables_.end());
  std::sort(layout.columns_.begin(), layout.columns_.end());
  layout.IndexColumns();
  return layout;
}

EncodingLayout EncodingLayout::Agnostic(size_t max_tables,
                                        size_t max_columns_per_table) {
  GEQO_CHECK(max_tables >= 1 && max_tables <= kMaxAgnosticSymbols);
  GEQO_CHECK(max_columns_per_table >= 1 &&
             max_columns_per_table <= kMaxAgnosticSymbols);
  EncodingLayout layout;
  layout.max_columns_per_table_ = max_columns_per_table;
  // Zero-padded symbols keep lexicographic order equal to index order, which
  // the fast converter relies on (§4.2.1).
  for (size_t t = 1; t <= max_tables; ++t) {
    layout.tables_.push_back(StrFormat("t%02zu", t));
    for (size_t c = 1; c <= max_columns_per_table; ++c) {
      layout.columns_.push_back(StrFormat("t%02zu.c%02zu", t, c));
    }
  }
  // Already sorted by construction.
  layout.IndexColumns();
  return layout;
}

void EncodingLayout::IndexColumns() {
  column_tables_.assign(columns_.size(), 0);
  table_columns_.assign(tables_.size(), {});
  for (size_t c = 0; c < columns_.size(); ++c) {
    const std::string_view qualified = columns_[c];
    const size_t table = TableIndex(qualified.substr(0, qualified.find('.')));
    GEQO_CHECK(table != npos) << "column " << columns_[c] << " has no table";
    column_tables_[c] = table;
    table_columns_[table].push_back(c);
  }
}

size_t EncodingLayout::TableIndex(std::string_view table) const {
  const auto it = std::lower_bound(tables_.begin(), tables_.end(), table);
  if (it == tables_.end() || *it != table) return npos;
  return static_cast<size_t>(it - tables_.begin());
}

size_t EncodingLayout::ColumnIndex(std::string_view table,
                                   std::string_view column) const {
  std::string key;
  key.reserve(table.size() + column.size() + 1);
  key.append(table);
  key.push_back('.');
  key.append(column);
  const auto it = std::lower_bound(columns_.begin(), columns_.end(), key);
  if (it == columns_.end() || *it != key) return npos;
  return static_cast<size_t>(it - columns_.begin());
}

namespace {

void CollectConstants(const ExprPtr& expr, ValueRange* range, bool* any) {
  if (expr->is_literal()) {
    if (expr->value().is_numeric()) {
      const double v = expr->value().AsDouble();
      if (!*any) {
        range->min = range->max = v;
        *any = true;
      } else {
        range->min = std::min(range->min, v);
        range->max = std::max(range->max, v);
      }
    }
    return;
  }
  if (expr->is_binary()) {
    CollectConstants(expr->left(), range, any);
    CollectConstants(expr->right(), range, any);
  }
}

void CollectPlanConstants(const PlanPtr& plan, ValueRange* range, bool* any) {
  if (plan->kind() == OpKind::kSelect || plan->kind() == OpKind::kJoin) {
    CollectConstants(plan->predicate().lhs, range, any);
    CollectConstants(plan->predicate().rhs, range, any);
  }
  if (plan->kind() == OpKind::kProject) {
    for (const OutputColumn& output : plan->outputs()) {
      CollectConstants(output.expr, range, any);
    }
  }
  for (const PlanPtr& child : plan->children()) {
    CollectPlanConstants(child, range, any);
  }
}

/// Maps a string constant deterministically into [0, 1] for norm(v).
float NormalizeString(const std::string& s) {
  return static_cast<float>(HashString(s) % 10000) / 10000.0f;
}

}  // namespace

ValueRange ComputeValueRange(const std::vector<PlanPtr>& plans) {
  ValueRange range;
  bool any = false;
  for (const PlanPtr& plan : plans) CollectPlanConstants(plan, &range, &any);
  if (!any) return ValueRange{0.0, 1.0};
  if (range.max == range.min) range.max = range.min + 1.0;
  return range;
}

const std::string* SymbolMap::TableSymbol(std::string_view table) const {
  for (const auto& [real, symbol] : tables) {
    if (real == table) return &symbol;
  }
  return nullptr;
}

const std::string* SymbolMap::ColumnSymbol(std::string_view table,
                                           std::string_view column) const {
  for (const auto& [key, symbol] : columns) {
    if (key.first == table && key.second == column) return &symbol;
  }
  return nullptr;
}

Status PlanEncoder::EncodeNode(
    const PlanNode& node,
    const std::vector<std::pair<std::string, std::string>>& alias_to_table,
    float* row) const {
  const EncodingLayout& layout = *layout_;

  auto table_of_alias = [&](const std::string& alias) -> const std::string* {
    for (const auto& [table, bound_alias] : alias_to_table) {
      if (bound_alias == alias) return &table;
    }
    return nullptr;
  };
  auto table_slot = [&](const std::string& table) -> size_t {
    if (symbols_ != nullptr) {
      const std::string* symbol = symbols_->TableSymbol(table);
      if (symbol == nullptr) return EncodingLayout::npos;
      return layout.TableIndex(*symbol);
    }
    return layout.TableIndex(table);
  };
  auto column_slot = [&](const ColumnRef& ref) -> size_t {
    const std::string* table = table_of_alias(ref.alias);
    if (table == nullptr) return EncodingLayout::npos;
    if (symbols_ != nullptr) {
      const std::string* table_symbol = symbols_->TableSymbol(*table);
      const std::string* column_symbol =
          symbols_->ColumnSymbol(*table, ref.column);
      if (table_symbol == nullptr || column_symbol == nullptr) {
        return EncodingLayout::npos;
      }
      return layout.ColumnIndex(*table_symbol, *column_symbol);
    }
    return layout.ColumnIndex(*table, ref.column);
  };

  switch (node.kind()) {
    case OpKind::kScan: {
      const size_t slot = table_slot(node.table());
      if (slot == EncodingLayout::npos) {
        return Status::InvalidArgument("table outside encoding layout: " +
                                       node.table());
      }
      row[layout.table_offset() + slot] = 1.0f;
      return Status::OK();
    }
    case OpKind::kJoin:
    case OpKind::kSelect: {
      const Comparison& predicate = node.predicate();
      const auto normalized = NormalizeComparison(predicate);
      const bool is_join = node.kind() == OpKind::kJoin;
      if (is_join) {
        row[layout.join_type_offset() + JoinTypeIndex(node.join_type())] = 1.0f;
      }
      if (!normalized.has_value()) {
        // Outside the linear fragment: best-effort encoding of the first
        // referenced column and the operator. Deterministic, never fails.
        std::vector<ColumnRef> columns;
        predicate.CollectColumns(&columns);
        if (!columns.empty()) {
          const size_t slot = column_slot(columns[0]);
          if (slot != EncodingLayout::npos) {
            row[layout.select_col_offset() + slot] = 1.0f;
          }
        }
        row[layout.select_op_offset() + CompareOpIndex(predicate.op)] = 1.0f;
        row[layout.select_null_offset()] = 1.0f;
        return Status::OK();
      }
      if (normalized->left && normalized->right) {
        // Column-column predicate: join segment (for both Join nodes and
        // column-column selections hoisted above joins).
        const size_t left_slot = column_slot(*normalized->left);
        const size_t right_slot = column_slot(*normalized->right);
        if (left_slot == EncodingLayout::npos ||
            right_slot == EncodingLayout::npos) {
          return Status::InvalidArgument(
              "predicate column outside encoding layout: " +
              predicate.ToString());
        }
        row[layout.join_left_offset() + left_slot] = 1.0f;
        row[layout.join_op_offset() + CompareOpIndex(normalized->op)] = 1.0f;
        row[layout.join_right_offset() + right_slot] = 1.0f;
        // The residual constant of a difference predicate
        // (c_l - c_r op k) lands in the select norm slot so the encoding
        // distinguishes "A.v > B.v" from "A.v > B.v + 10".
        row[layout.select_norm_offset()] =
            value_range_.Normalize(normalized->constant);
        return Status::OK();
      }
      // Column-constant predicate: selection segment.
      GEQO_CHECK(normalized->left.has_value());
      const size_t slot = column_slot(*normalized->left);
      if (slot == EncodingLayout::npos) {
        return Status::InvalidArgument(
            "predicate column outside encoding layout: " +
            predicate.ToString());
      }
      row[layout.select_col_offset() + slot] = 1.0f;
      row[layout.select_op_offset() + CompareOpIndex(normalized->op)] = 1.0f;
      if (normalized->string_constant) {
        row[layout.select_norm_offset()] =
            NormalizeString(*normalized->string_constant);
      } else {
        row[layout.select_norm_offset()] =
            value_range_.Normalize(normalized->constant);
      }
      return Status::OK();
    }
    case OpKind::kProject: {
      // The paper's NV covers scan/select/join segments; we extend projection
      // nodes with a multi-hot of the projected columns in the selection
      // column segment so the EMF can distinguish different projections.
      for (const OutputColumn& output : node.outputs()) {
        std::vector<ColumnRef> columns;
        output.expr->CollectColumns(&columns);
        for (const ColumnRef& ref : columns) {
          const size_t slot = column_slot(ref);
          if (slot == EncodingLayout::npos) {
            return Status::InvalidArgument(
                "projected column outside encoding layout: " + ref.ToString());
          }
          row[layout.select_col_offset() + slot] = 1.0f;
        }
      }
      return Status::OK();
    }
    case OpKind::kAggregate: {
      // Paper §9.1: a multi-hot over the group-by columns, a one-hot (or
      // multi-hot with several aggregates) over aggregate functions, and a
      // multi-hot over aggregate-argument columns.
      for (const OutputColumn& key : node.group_by()) {
        std::vector<ColumnRef> columns;
        key.expr->CollectColumns(&columns);
        for (const ColumnRef& ref : columns) {
          const size_t slot = column_slot(ref);
          if (slot == EncodingLayout::npos) {
            return Status::InvalidArgument(
                "group-by column outside encoding layout: " + ref.ToString());
          }
          row[layout.group_by_offset() + slot] = 1.0f;
        }
      }
      for (const AggregateExpr& aggregate : node.aggregates()) {
        row[layout.agg_fn_offset() + static_cast<size_t>(aggregate.fn)] = 1.0f;
        if (aggregate.argument == nullptr) continue;  // COUNT(*)
        std::vector<ColumnRef> columns;
        aggregate.argument->CollectColumns(&columns);
        for (const ColumnRef& ref : columns) {
          const size_t slot = column_slot(ref);
          if (slot == EncodingLayout::npos) {
            return Status::InvalidArgument(
                "aggregate column outside encoding layout: " + ref.ToString());
          }
          row[layout.agg_col_offset() + slot] = 1.0f;
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown operator kind");
}

Result<EncodedPlan> PlanEncoder::Encode(const PlanPtr& plan) const {
  const auto alias_to_table = [&] {
    std::vector<std::pair<std::string, std::string>> bindings =
        plan->ScanBindings();
    return bindings;
  }();

  // Breadth-first traversal (§3.2): row order is BFS order. Each queue item
  // remembers its parent's row so child indices are assigned on dequeue.
  struct QueueItem {
    const PlanNode* node;
    int32_t parent_row;
    int child_slot;  ///< 0 = left/only child, 1 = right child
  };
  std::vector<const PlanNode*> order;
  std::vector<int32_t> left;
  std::vector<int32_t> right;
  std::deque<QueueItem> queue = {{plan.get(), -1, 0}};
  while (!queue.empty()) {
    const QueueItem item = queue.front();
    queue.pop_front();
    const int32_t row = static_cast<int32_t>(order.size());
    order.push_back(item.node);
    left.push_back(-1);
    right.push_back(-1);
    if (item.parent_row >= 0) {
      (item.child_slot == 0 ? left : right)[item.parent_row] = row;
    }
    for (size_t c = 0; c < item.node->num_children(); ++c) {
      queue.push_back(
          QueueItem{item.node->child(c).get(), row, static_cast<int>(c)});
    }
  }

  EncodedPlan encoded;
  encoded.nodes = Tensor(order.size(), layout_->node_vector_size());
  encoded.left = std::move(left);
  encoded.right = std::move(right);
  for (size_t i = 0; i < order.size(); ++i) {
    GEQO_RETURN_NOT_OK(
        EncodeNode(*order[i], alias_to_table, encoded.nodes.Row(i)));
  }
  return encoded;
}

nn::TreeBatch BuildTreeBatch(const std::vector<const EncodedPlan*>& plans) {
  GEQO_CHECK(!plans.empty());
  size_t total_nodes = 0;
  const size_t dim = plans[0]->nodes.cols();
  for (const EncodedPlan* plan : plans) {
    GEQO_CHECK(plan->nodes.cols() == dim);
    total_nodes += plan->num_nodes();
  }
  nn::TreeBatch batch;
  batch.nodes = Tensor(total_nodes, dim);
  batch.left.reserve(total_nodes);
  batch.right.reserve(total_nodes);
  size_t offset = 0;
  for (const EncodedPlan* plan : plans) {
    const size_t count = plan->num_nodes();
    std::copy(plan->nodes.data(), plan->nodes.data() + plan->nodes.size(),
              batch.nodes.Row(offset));
    for (size_t i = 0; i < count; ++i) {
      batch.left.push_back(plan->left[i] < 0
                               ? -1
                               : plan->left[i] + static_cast<int32_t>(offset));
      batch.right.push_back(
          plan->right[i] < 0 ? -1
                             : plan->right[i] + static_cast<int32_t>(offset));
    }
    batch.spans.emplace_back(offset, count);
    offset += count;
  }
  return batch;
}

}  // namespace geqo

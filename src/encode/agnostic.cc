#include "encode/agnostic.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace geqo {
namespace {

using TableColumn = std::pair<std::string, std::string>;

const std::string* TableOfAlias(
    const std::vector<std::pair<std::string, std::string>>& bindings,
    const std::string& alias) {
  for (const auto& [table, bound_alias] : bindings) {
    if (bound_alias == alias) return &table;
  }
  return nullptr;
}

void CollectNodeColumns(
    const PlanNode& node,
    const std::vector<std::pair<std::string, std::string>>& bindings,
    std::set<TableColumn>* out) {
  auto add = [&](const ColumnRef& ref) {
    const std::string* table = TableOfAlias(bindings, ref.alias);
    if (table != nullptr) out->emplace(*table, ref.column);
  };
  switch (node.kind()) {
    case OpKind::kScan:
      return;
    case OpKind::kSelect:
    case OpKind::kJoin: {
      const auto normalized = NormalizeComparison(node.predicate());
      if (normalized.has_value()) {
        if (normalized->left) add(*normalized->left);
        if (normalized->right) add(*normalized->right);
      } else {
        // Mirror the encoder's fallback: only the first column is marked.
        std::vector<ColumnRef> columns;
        node.predicate().CollectColumns(&columns);
        if (!columns.empty()) add(columns[0]);
      }
      return;
    }
    case OpKind::kProject: {
      for (const OutputColumn& output : node.outputs()) {
        std::vector<ColumnRef> columns;
        output.expr->CollectColumns(&columns);
        for (const ColumnRef& ref : columns) add(ref);
      }
      return;
    }
    case OpKind::kAggregate: {
      for (const OutputColumn& key : node.group_by()) {
        std::vector<ColumnRef> columns;
        key.expr->CollectColumns(&columns);
        for (const ColumnRef& ref : columns) add(ref);
      }
      for (const AggregateExpr& aggregate : node.aggregates()) {
        if (aggregate.argument == nullptr) continue;
        std::vector<ColumnRef> columns;
        aggregate.argument->CollectColumns(&columns);
        for (const ColumnRef& ref : columns) add(ref);
      }
      return;
    }
  }
}

void CollectPlanColumns(const PlanNode& node,
                        const std::vector<std::pair<std::string, std::string>>&
                            bindings,
                        std::set<TableColumn>* out) {
  CollectNodeColumns(node, bindings, out);
  for (const PlanPtr& child : node.children()) {
    CollectPlanColumns(*child, bindings, out);
  }
}

}  // namespace

std::vector<TableColumn> CollectEncodedColumns(const PlanPtr& plan) {
  std::set<TableColumn> columns;
  const auto bindings = plan->ScanBindings();
  CollectPlanColumns(*plan, bindings, &columns);
  return std::vector<TableColumn>(columns.begin(), columns.end());
}

Result<SymbolMap> BuildSymbolMap(const std::vector<PlanPtr>& plans,
                                 const EncodingLayout& agnostic_layout) {
  std::set<std::string> tables;
  std::set<TableColumn> columns;
  for (const PlanPtr& plan : plans) {
    for (const auto& [table, alias] : plan->ScanBindings()) tables.insert(table);
    for (TableColumn& column : CollectEncodedColumns(plan)) {
      columns.insert(std::move(column));
    }
  }
  if (tables.size() > agnostic_layout.num_tables()) {
    return Status::ResourceExhausted(StrFormat(
        "group references %zu tables; agnostic layout holds %zu",
        tables.size(), agnostic_layout.num_tables()));
  }

  SymbolMap map;
  size_t table_index = 0;
  for (const std::string& table : tables) {  // std::set: sorted order
    map.tables.emplace_back(table, StrFormat("t%02zu", ++table_index));
  }
  std::map<std::string, size_t> per_table_count;
  for (const TableColumn& column : columns) {  // sorted by (table, column)
    const size_t rank = ++per_table_count[column.first];
    if (rank > agnostic_layout.max_columns_per_table()) {
      return Status::ResourceExhausted(StrFormat(
          "table %s references more than %zu columns", column.first.c_str(),
          agnostic_layout.max_columns_per_table()));
    }
    map.columns.emplace_back(column, StrFormat("c%02zu", rank));
  }
  return map;
}

ReferenceMask ReferenceMask::Of(const EncodingLayout& layout,
                                const EncodedPlan& plan) {
  GEQO_CHECK(plan.nodes.cols() == layout.node_vector_size());
  ReferenceMask mask;
  mask.tables.assign((layout.num_tables() + 63) / 64, 0);
  mask.columns.assign((layout.num_columns() + 63) / 64, 0);
  for (size_t row = 0; row < plan.num_nodes(); ++row) {
    const float* values = plan.nodes.Row(row);
    for (size_t t = 0; t < layout.num_tables(); ++t) {
      if (values[layout.table_offset() + t] != 0.0f) {
        mask.tables[t / 64] |= uint64_t{1} << (t % 64);
      }
    }
    for (size_t c = 0; c < layout.num_columns(); ++c) {
      if (values[layout.join_left_offset() + c] != 0.0f ||
          values[layout.join_right_offset() + c] != 0.0f ||
          values[layout.select_col_offset() + c] != 0.0f ||
          values[layout.group_by_offset() + c] != 0.0f ||
          values[layout.agg_col_offset() + c] != 0.0f) {
        mask.columns[c / 64] |= uint64_t{1} << (c % 64);
      }
    }
  }
  return mask;
}

void ReferenceMask::Union(const ReferenceMask& other) {
  GEQO_CHECK(tables.size() == other.tables.size() &&
             columns.size() == other.columns.size());
  for (size_t w = 0; w < tables.size(); ++w) tables[w] |= other.tables[w];
  for (size_t w = 0; w < columns.size(); ++w) columns[w] |= other.columns[w];
}

size_t ReferenceMask::Count() const {
  size_t count = 0;
  for (const uint64_t word : tables) count += std::popcount(word);
  for (const uint64_t word : columns) count += std::popcount(word);
  return count;
}

AgnosticConverter::AgnosticConverter(const EncodingLayout* instance_layout,
                                     const EncodingLayout* agnostic_layout)
    : instance_layout_(instance_layout),
      agnostic_layout_(agnostic_layout),
      table_map_(instance_layout->num_tables(), EncodingLayout::npos),
      column_map_(instance_layout->num_columns(), EncodingLayout::npos) {}

Result<AgnosticConverter> AgnosticConverter::Create(
    const EncodingLayout* instance_layout, const EncodingLayout* agnostic_layout,
    const std::vector<const EncodedPlan*>& group, bool truncate_overflow) {
  GEQO_CHECK(!group.empty());
  ReferenceMask mask = ReferenceMask::Of(*instance_layout, *group[0]);
  for (size_t i = 1; i < group.size(); ++i) {
    mask.Union(ReferenceMask::Of(*instance_layout, *group[i]));
  }
  AgnosticConverter converter(instance_layout, agnostic_layout);
  GEQO_RETURN_NOT_OK(converter.Reset(mask, truncate_overflow));
  return converter;
}

Status AgnosticConverter::Reset(const ReferenceMask& mask,
                                bool truncate_overflow) {
  const EncodingLayout& in = *instance_layout_;
  constexpr size_t npos = EncodingLayout::npos;
  table_map_.assign(in.num_tables(), npos);
  column_map_.assign(in.num_columns(), npos);

  // Referenced tables: the mask's, plus the table of every referenced column
  // (whose table bit may, pathologically, never appear). They are marked 0
  // here and ranked below.
  ReferenceMask::ForEachSlot(mask.tables, [&](size_t t) { table_map_[t] = 0; });
  ReferenceMask::ForEachSlot(
      mask.columns, [&](size_t c) { table_map_[in.ColumnTable(c)] = 0; });

  size_t next_table = 0;
  for (size_t t = 0; t < in.num_tables(); ++t) {
    if (table_map_[t] == npos) continue;
    if (next_table >= agnostic_layout_->num_tables()) {
      table_map_[t] = npos;
      if (truncate_overflow) continue;
      return Status::ResourceExhausted(
          "group references more tables than the agnostic layout holds");
    }
    table_map_[t] = next_table++;
  }

  // Columns of a dropped table (only with truncate_overflow) are dropped too.
  const size_t columns_per_table = agnostic_layout_->max_columns_per_table();
  for (size_t t = 0; t < in.num_tables(); ++t) {
    if (table_map_[t] == npos) continue;
    size_t rank = 0;
    for (const size_t c : in.TableColumns(t)) {
      if (!mask.HasColumn(c)) continue;
      if (rank >= columns_per_table) {
        if (truncate_overflow) continue;
        return Status::ResourceExhausted(
            "group references more columns per table than the agnostic "
            "layout holds");
      }
      column_map_[c] = table_map_[t] * columns_per_table + rank++;
    }
  }
  return Status::OK();
}

EncodedPlan AgnosticConverter::Convert(const EncodedPlan& instance) const {
  const EncodingLayout& in = *instance_layout_;
  const EncodingLayout& out_layout = *agnostic_layout_;
  EncodedPlan out;
  out.nodes = Tensor(instance.num_nodes(), out_layout.node_vector_size());
  out.left = instance.left;
  out.right = instance.right;

  for (size_t row = 0; row < instance.num_nodes(); ++row) {
    const float* src = instance.nodes.Row(row);
    float* dst = out.nodes.Row(row);
    for (size_t t = 0; t < in.num_tables(); ++t) {
      if (table_map_[t] == EncodingLayout::npos) continue;
      dst[out_layout.table_offset() + table_map_[t]] =
          src[in.table_offset() + t];
    }
    for (size_t c = 0; c < in.num_columns(); ++c) {
      if (column_map_[c] == EncodingLayout::npos) continue;
      const size_t mapped = column_map_[c];
      dst[out_layout.join_left_offset() + mapped] =
          src[in.join_left_offset() + c];
      dst[out_layout.join_right_offset() + mapped] =
          src[in.join_right_offset() + c];
      dst[out_layout.select_col_offset() + mapped] =
          src[in.select_col_offset() + c];
      dst[out_layout.group_by_offset() + mapped] =
          src[in.group_by_offset() + c];
      dst[out_layout.agg_col_offset() + mapped] =
          src[in.agg_col_offset() + c];
    }
    for (size_t o = 0; o < kNumCompareOps; ++o) {
      dst[out_layout.join_op_offset() + o] = src[in.join_op_offset() + o];
      dst[out_layout.select_op_offset() + o] = src[in.select_op_offset() + o];
    }
    for (size_t j = 0; j < kNumJoinTypes; ++j) {
      dst[out_layout.join_type_offset() + j] = src[in.join_type_offset() + j];
    }
    for (size_t f = 0; f < kNumAggregateFns; ++f) {
      dst[out_layout.agg_fn_offset() + f] = src[in.agg_fn_offset() + f];
    }
    dst[out_layout.select_norm_offset()] = src[in.select_norm_offset()];
    dst[out_layout.select_null_offset()] = src[in.select_null_offset()];
  }
  return out;
}

Result<std::pair<EncodedPlan, EncodedPlan>> EncodePairAgnostic(
    const PlanPtr& a, const PlanPtr& b, const EncodingLayout& agnostic_layout,
    const Catalog& catalog, ValueRange value_range) {
  GEQO_ASSIGN_OR_RETURN(SymbolMap symbols,
                        BuildSymbolMap({a, b}, agnostic_layout));
  PlanEncoder encoder(&agnostic_layout, &catalog, value_range, &symbols);
  GEQO_ASSIGN_OR_RETURN(EncodedPlan encoded_a, encoder.Encode(a));
  GEQO_ASSIGN_OR_RETURN(EncodedPlan encoded_b, encoder.Encode(b));
  return std::make_pair(std::move(encoded_a), std::move(encoded_b));
}

}  // namespace geqo

#include "oracle/row_executor.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/stopwatch.h"

namespace geqo {

Result<Value> RowExecutor::Evaluate(const ExprPtr& expr,
                                    const Intermediate& input,
                                    const std::vector<Value>& row) const {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return expr->value();
    case ExprKind::kColumnRef: {
      for (size_t i = 0; i < input.bindings.size(); ++i) {
        if (input.bindings[i] == expr->column()) return row[i];
      }
      return Status::InvalidArgument("unbound column: " +
                                     expr->column().ToString());
    }
    default: {
      GEQO_ASSIGN_OR_RETURN(const Value left, Evaluate(expr->left(), input, row));
      GEQO_ASSIGN_OR_RETURN(const Value right,
                            Evaluate(expr->right(), input, row));
      if (!left.is_numeric() || !right.is_numeric()) {
        return Status::InvalidArgument("arithmetic on non-numeric value");
      }
      const double a = left.AsDouble();
      const double b = right.AsDouble();
      switch (expr->kind()) {
        case ExprKind::kAdd:
          return Value::Double(a + b);
        case ExprKind::kSub:
          return Value::Double(a - b);
        case ExprKind::kMul:
          return Value::Double(a * b);
        case ExprKind::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          return Value::Double(a / b);
        default:
          return Status::Internal("unexpected expression kind");
      }
    }
  }
}

Result<bool> RowExecutor::EvaluatePredicate(
    const Comparison& cmp, const Intermediate& input,
    const std::vector<Value>& row) const {
  GEQO_ASSIGN_OR_RETURN(const Value left, Evaluate(cmp.lhs, input, row));
  GEQO_ASSIGN_OR_RETURN(const Value right, Evaluate(cmp.rhs, input, row));
  if (left.is_numeric() != right.is_numeric()) {
    return Status::InvalidArgument("comparison across numeric and string");
  }
  const int c = left.Compare(right);
  switch (cmp.op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return Status::Internal("unknown comparison operator");
}

Result<RowExecutor::Intermediate> RowExecutor::Run(const PlanPtr& plan,
                                                   ExecStats* stats) {
  switch (plan->kind()) {
    case OpKind::kScan: {
      GEQO_ASSIGN_OR_RETURN(const TableData* data,
                            database_->Get(plan->table()));
      Intermediate out;
      const TableDef& schema = data->schema();
      for (const ColumnDef& column : schema.columns()) {
        out.bindings.push_back(ColumnRef{plan->alias(), column.name});
      }
      out.rows.reserve(data->num_rows());
      for (size_t r = 0; r < data->num_rows(); ++r) {
        std::vector<Value> row;
        row.reserve(schema.columns().size());
        for (size_t c = 0; c < schema.columns().size(); ++c) {
          row.push_back(data->At(r, c));
        }
        out.rows.push_back(std::move(row));
      }
      if (stats != nullptr) stats->rows_scanned += data->num_rows();
      return out;
    }

    case OpKind::kSelect: {
      GEQO_ASSIGN_OR_RETURN(Intermediate input, Run(plan->child(0), stats));
      Intermediate out;
      out.bindings = input.bindings;
      for (const std::vector<Value>& row : input.rows) {
        GEQO_ASSIGN_OR_RETURN(
            const bool keep, EvaluatePredicate(plan->predicate(), input, row));
        if (keep) out.rows.push_back(row);
      }
      return out;
    }

    case OpKind::kJoin: {
      if (plan->join_type() != JoinType::kInner) {
        return Status::NotSupported("executor supports inner joins only");
      }
      GEQO_ASSIGN_OR_RETURN(Intermediate left, Run(plan->child(0), stats));
      GEQO_ASSIGN_OR_RETURN(Intermediate right, Run(plan->child(1), stats));
      Intermediate out;
      out.bindings = left.bindings;
      out.bindings.insert(out.bindings.end(), right.bindings.begin(),
                          right.bindings.end());

      // Hash join when the predicate is a plain cross-side column equality;
      // nested loops otherwise.
      const Comparison& predicate = plan->predicate();
      ssize_t left_key = -1;
      ssize_t right_key = -1;
      if (predicate.op == CompareOp::kEq && predicate.lhs->is_column() &&
          predicate.rhs->is_column()) {
        const auto index_of = [](const Intermediate& side, const ColumnRef& ref) {
          for (size_t i = 0; i < side.bindings.size(); ++i) {
            if (side.bindings[i] == ref) return static_cast<ssize_t>(i);
          }
          return static_cast<ssize_t>(-1);
        };
        ssize_t l = index_of(left, predicate.lhs->column());
        ssize_t r = index_of(right, predicate.rhs->column());
        if (l < 0 && r < 0) {
          l = index_of(left, predicate.rhs->column());
          r = index_of(right, predicate.lhs->column());
        }
        left_key = l;
        right_key = r;
      }

      if (left_key >= 0 && right_key >= 0) {
        std::unordered_map<uint64_t, std::vector<size_t>> hash_table;
        for (size_t r = 0; r < right.rows.size(); ++r) {
          hash_table[right.rows[r][static_cast<size_t>(right_key)].Hash()]
              .push_back(r);
        }
        for (const std::vector<Value>& left_row : left.rows) {
          const Value& key = left_row[static_cast<size_t>(left_key)];
          const auto it = hash_table.find(key.Hash());
          if (it == hash_table.end()) continue;
          for (const size_t r : it->second) {
            const Value& other = right.rows[r][static_cast<size_t>(right_key)];
            if (key.is_numeric() != other.is_numeric() || !(key == other)) {
              continue;  // hash collision or type mismatch
            }
            std::vector<Value> row = left_row;
            row.insert(row.end(), right.rows[r].begin(), right.rows[r].end());
            out.rows.push_back(std::move(row));
          }
        }
      } else {
        for (const std::vector<Value>& left_row : left.rows) {
          for (const std::vector<Value>& right_row : right.rows) {
            std::vector<Value> row = left_row;
            row.insert(row.end(), right_row.begin(), right_row.end());
            GEQO_ASSIGN_OR_RETURN(const bool keep,
                                  EvaluatePredicate(predicate, out, row));
            if (keep) out.rows.push_back(std::move(row));
          }
        }
      }
      return out;
    }

    case OpKind::kAggregate: {
      GEQO_ASSIGN_OR_RETURN(Intermediate input, Run(plan->child(0), stats));
      Intermediate out;
      for (const OutputColumn& key : plan->group_by()) {
        out.bindings.push_back(ColumnRef{"", key.name});
      }
      for (const AggregateExpr& aggregate : plan->aggregates()) {
        out.bindings.push_back(ColumnRef{"", aggregate.name});
      }

      // Hash aggregation: group rows by their key tuple, then fold each
      // aggregate over the group.
      struct GroupState {
        std::vector<Value> keys;
        std::vector<double> sums;
        std::vector<Value> minimums;
        std::vector<Value> maximums;
        std::vector<int64_t> counts;
        size_t rows = 0;
      };
      std::unordered_map<uint64_t, std::vector<GroupState>> groups;
      const size_t num_aggregates = plan->aggregates().size();

      for (const std::vector<Value>& row : input.rows) {
        std::vector<Value> keys;
        keys.reserve(plan->group_by().size());
        uint64_t hash = 0x96017;
        for (const OutputColumn& key : plan->group_by()) {
          GEQO_ASSIGN_OR_RETURN(Value value, Evaluate(key.expr, input, row));
          hash = HashCombine(hash, value.Hash());
          keys.push_back(std::move(value));
        }
        auto& bucket = groups[hash];
        GroupState* state = nullptr;
        for (GroupState& candidate : bucket) {
          bool equal = candidate.keys.size() == keys.size();
          for (size_t k = 0; equal && k < keys.size(); ++k) {
            equal = candidate.keys[k].is_numeric() == keys[k].is_numeric() &&
                    candidate.keys[k] == keys[k];
          }
          if (equal) {
            state = &candidate;
            break;
          }
        }
        if (state == nullptr) {
          bucket.push_back(GroupState{});
          state = &bucket.back();
          state->keys = keys;
          state->sums.assign(num_aggregates, 0.0);
          state->minimums.resize(num_aggregates);
          state->maximums.resize(num_aggregates);
          state->counts.assign(num_aggregates, 0);
        }
        ++state->rows;
        for (size_t a = 0; a < num_aggregates; ++a) {
          const AggregateExpr& aggregate = plan->aggregates()[a];
          if (aggregate.argument == nullptr) continue;  // COUNT(*)
          GEQO_ASSIGN_OR_RETURN(Value value,
                                Evaluate(aggregate.argument, input, row));
          if (!value.is_numeric() && aggregate.fn != AggregateFn::kMin &&
              aggregate.fn != AggregateFn::kMax &&
              aggregate.fn != AggregateFn::kCount) {
            return Status::InvalidArgument(
                "numeric aggregate over string column");
          }
          if (state->counts[a] == 0 || value < state->minimums[a]) {
            state->minimums[a] = value;
          }
          if (state->counts[a] == 0 || state->maximums[a] < value) {
            state->maximums[a] = value;
          }
          if (value.is_numeric()) state->sums[a] += value.AsDouble();
          ++state->counts[a];
        }
      }

      for (auto& [hash, bucket] : groups) {
        for (GroupState& state : bucket) {
          std::vector<Value> row = state.keys;
          for (size_t a = 0; a < num_aggregates; ++a) {
            const AggregateExpr& aggregate = plan->aggregates()[a];
            const int64_t count =
                aggregate.argument == nullptr
                    ? static_cast<int64_t>(state.rows)
                    : state.counts[a];
            switch (aggregate.fn) {
              case AggregateFn::kCount:
                row.push_back(Value::Int(count));
                break;
              case AggregateFn::kSum:
                row.push_back(Value::Double(state.sums[a]));
                break;
              case AggregateFn::kMin:
                row.push_back(state.minimums[a]);
                break;
              case AggregateFn::kMax:
                row.push_back(state.maximums[a]);
                break;
              case AggregateFn::kAvg:
                row.push_back(Value::Double(
                    count == 0 ? 0.0
                               : state.sums[a] / static_cast<double>(count)));
                break;
            }
          }
          out.rows.push_back(std::move(row));
        }
      }
      return out;
    }

    case OpKind::kProject: {
      GEQO_ASSIGN_OR_RETURN(Intermediate input, Run(plan->child(0), stats));
      Intermediate out;
      for (const OutputColumn& output : plan->outputs()) {
        // Positional pseudo-bindings; the RowSet carries the real names.
        out.bindings.push_back(ColumnRef{"", output.name});
      }
      out.rows.reserve(input.rows.size());
      for (const std::vector<Value>& row : input.rows) {
        std::vector<Value> projected;
        projected.reserve(plan->outputs().size());
        for (const OutputColumn& output : plan->outputs()) {
          GEQO_ASSIGN_OR_RETURN(Value value, Evaluate(output.expr, input, row));
          projected.push_back(std::move(value));
        }
        out.rows.push_back(std::move(projected));
      }
      return out;
    }
  }
  return Status::Internal("unknown operator kind");
}

Result<RowSet> RowExecutor::Execute(const PlanPtr& plan, ExecStats* stats) {
  Stopwatch watch;
  ExecStats local;
  GEQO_ASSIGN_OR_RETURN(Intermediate result, Run(plan, &local));
  RowSet out;
  for (const ColumnRef& binding : result.bindings) {
    out.column_names.push_back(binding.alias.empty()
                                   ? binding.column
                                   : binding.ToString());
  }
  out.rows = std::move(result.rows);
  local.rows_output = out.rows.size();
  local.seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace geqo

#include "exec/pipeline.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/plan_validator.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels/kernel_table.h"

/// \file pipeline.cc
/// Semantics contract: every operator here must be observationally identical
/// to the row-at-a-time RowExecutor, the test-only parity oracle
/// (tests/oracle/row_executor.cc). That covers value semantics (numeric
/// comparisons through doubles, Value::Hash agreement between 3 and 3.0),
/// error laziness (evaluation errors fire only when rows actually flow), and
/// floating-point accumulation order (aggregate sums fold sequentially over
/// batches in morsel order, reproducing the oracle's row order bit for bit).

namespace geqo::exec {
namespace {

// The kernel cmp_select op encoding is documented as CompareOp's order.
static_assert(static_cast<int>(CompareOp::kEq) == 0 &&
                  static_cast<int>(CompareOp::kNe) == 1 &&
                  static_cast<int>(CompareOp::kLt) == 2 &&
                  static_cast<int>(CompareOp::kLe) == 3 &&
                  static_cast<int>(CompareOp::kGt) == 4 &&
                  static_cast<int>(CompareOp::kGe) == 5,
              "cmp_select_f64 op encoding must match CompareOp");

/// Binding context of a nested-loop probe: the left (outer) row, resolved
/// before the build batch's own bindings — the same first-match order the
/// row oracle gets from concatenating left and right bindings.
struct OuterRow {
  const std::vector<ColumnRef>* bindings = nullptr;
  const Batch* batch = nullptr;
  uint32_t row = 0;
};

// ---------------------------------------------------------------------------
// Static typing (compile time). The row oracle discovers type errors
// lazily, row by row; these helpers discover the same errors statically so
// compiled ops can carry them and raise only when rows flow.
// ---------------------------------------------------------------------------

std::optional<ValueType> StaticExprType(const ExprPtr& expr,
                                        const std::vector<ColumnInfo>& columns,
                                        Status* error) {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return expr->value().type();
    case ExprKind::kColumnRef: {
      for (const ColumnInfo& info : columns) {
        if (info.binding == expr->column()) return info.type;
      }
      if (error->ok()) {
        *error = Status::InvalidArgument("unbound column: " +
                                         expr->column().ToString());
      }
      return std::nullopt;
    }
    default: {
      const auto left = StaticExprType(expr->left(), columns, error);
      if (!left.has_value()) return std::nullopt;
      const auto right = StaticExprType(expr->right(), columns, error);
      if (!right.has_value()) return std::nullopt;
      if (*left == ValueType::kString || *right == ValueType::kString) {
        if (error->ok()) {
          *error = Status::InvalidArgument("arithmetic on non-numeric value");
        }
        return std::nullopt;
      }
      return ValueType::kDouble;
    }
  }
}

/// Fills op->static_error / returns whether both sides are strings (the
/// scalar comparison path) for a filter or nested-loop predicate.
bool StaticComparison(const Comparison& cmp,
                      const std::vector<ColumnInfo>& columns, Status* error) {
  const auto lhs = StaticExprType(cmp.lhs, columns, error);
  if (!lhs.has_value()) return false;
  const auto rhs = StaticExprType(cmp.rhs, columns, error);
  if (!rhs.has_value()) return false;
  const bool lhs_string = *lhs == ValueType::kString;
  const bool rhs_string = *rhs == ValueType::kString;
  if (lhs_string != rhs_string) {
    if (error->ok()) {
      *error =
          Status::InvalidArgument("comparison across numeric and string");
    }
    return false;
  }
  return lhs_string;
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation.
// ---------------------------------------------------------------------------

/// Evaluates a numeric expression over the selected rows of \p batch into
/// the dense array \p out (slot i corresponds to batch.RowAt(i)). Arithmetic
/// runs through the active kernel table; per-element f64 ops never
/// reassociate, so results are bit-identical across ISAs and to the oracle's
/// row-at-a-time AsDouble arithmetic.
Status EvalNumericDense(const ExprPtr& expr, const Batch& batch,
                        const OuterRow* outer,
                        const kernels::KernelTable& kt, double* out) {
  const size_t n = batch.ActiveRows();
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      kt.fill_f64(out, expr->value().AsDouble(), n);
      return Status::OK();
    case ExprKind::kColumnRef: {
      if (outer != nullptr) {
        const int oi = FindBinding(*outer->bindings, expr->column());
        if (oi >= 0) {
          kt.fill_f64(out, outer->batch->ValueAt(static_cast<size_t>(oi),
                                                 outer->row)
                               .AsDouble(),
                      n);
          return Status::OK();
        }
      }
      const int ci = FindBinding(batch.bindings, expr->column());
      GEQO_CHECK(ci >= 0) << "compile-time binding check missed "
                          << expr->column().ToString();
      const ColumnVector& col = batch.columns[static_cast<size_t>(ci)];
      if (col.type() == ValueType::kInt) {
        const int64_t* data = col.ints();
        if (batch.all) {
          for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(data[i]);
        } else {
          for (size_t i = 0; i < n; ++i) {
            out[i] = static_cast<double>(data[batch.sel[i]]);
          }
        }
      } else {
        const double* data = col.doubles();
        if (batch.all) {
          std::copy(data, data + n, out);
        } else {
          for (size_t i = 0; i < n; ++i) out[i] = data[batch.sel[i]];
        }
      }
      return Status::OK();
    }
    default: {
      GEQO_RETURN_NOT_OK(EvalNumericDense(expr->left(), batch, outer, kt, out));
      AlignedVector<double> rhs(n);
      GEQO_RETURN_NOT_OK(
          EvalNumericDense(expr->right(), batch, outer, kt, rhs.data()));
      switch (expr->kind()) {
        case ExprKind::kAdd:
          kt.add_f64(out, rhs.data(), n);
          return Status::OK();
        case ExprKind::kSub:
          kt.sub_f64(out, rhs.data(), n);
          return Status::OK();
        case ExprKind::kMul:
          kt.mul_f64(out, rhs.data(), n);
          return Status::OK();
        case ExprKind::kDiv:
          for (size_t i = 0; i < n; ++i) {
            if (rhs[i] == 0.0) {
              return Status::InvalidArgument("division by zero");
            }
          }
          kt.div_f64(out, rhs.data(), n);
          return Status::OK();
        default:
          return Status::Internal("unexpected expression kind");
      }
    }
  }
}

/// One side of a string comparison: a per-row column or a single scalar.
struct StringSide {
  const std::string* column = nullptr;  ///< per physical row when non-null
  std::string scalar;
};

StringSide ResolveStringSide(const ExprPtr& expr, const Batch& batch,
                             const OuterRow* outer) {
  StringSide side;
  if (expr->kind() == ExprKind::kLiteral) {
    side.scalar = expr->value().AsString();
    return side;
  }
  GEQO_CHECK(expr->is_column()) << "string-typed arithmetic cannot exist";
  if (outer != nullptr) {
    const int oi = FindBinding(*outer->bindings, expr->column());
    if (oi >= 0) {
      side.scalar = outer->batch->ValueAt(static_cast<size_t>(oi), outer->row)
                        .AsString();
      return side;
    }
  }
  const int ci = FindBinding(batch.bindings, expr->column());
  GEQO_CHECK(ci >= 0);
  side.column = batch.columns[static_cast<size_t>(ci)].strings();
  return side;
}

bool CompareKeeps(CompareOp op, int c) {
  switch (op) {
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
  return false;
}

/// Appends the physical rows of \p batch passing \p cmp to \p out_sel, in
/// ascending order. \p string_compare was resolved statically.
Status FilterIndices(const Comparison& cmp, bool string_compare,
                     const Batch& batch, const OuterRow* outer,
                     const kernels::KernelTable& kt,
                     std::vector<uint32_t>* out_sel) {
  const size_t n = batch.ActiveRows();
  out_sel->clear();
  if (n == 0) return Status::OK();
  if (string_compare) {
    const StringSide lhs = ResolveStringSide(cmp.lhs, batch, outer);
    const StringSide rhs = ResolveStringSide(cmp.rhs, batch, outer);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = batch.RowAt(i);
      const std::string& a = lhs.column != nullptr ? lhs.column[r] : lhs.scalar;
      const std::string& b = rhs.column != nullptr ? rhs.column[r] : rhs.scalar;
      const int raw = a.compare(b);
      const int c = raw < 0 ? -1 : (raw > 0 ? 1 : 0);
      if (CompareKeeps(cmp.op, c)) out_sel->push_back(r);
    }
    return Status::OK();
  }
  AlignedVector<double> lhs(n);
  AlignedVector<double> rhs(n);
  GEQO_RETURN_NOT_OK(EvalNumericDense(cmp.lhs, batch, outer, kt, lhs.data()));
  GEQO_RETURN_NOT_OK(EvalNumericDense(cmp.rhs, batch, outer, kt, rhs.data()));
  AlignedVector<uint32_t> dense(n);
  const size_t kept = kt.cmp_select_f64(static_cast<int>(cmp.op), lhs.data(),
                                        rhs.data(), dense.data(), n);
  out_sel->resize(kept);
  for (size_t j = 0; j < kept; ++j) (*out_sel)[j] = batch.RowAt(dense[j]);
  return Status::OK();
}

/// Row-at-a-time expression evaluation over a batch row — the aggregation
/// fold's boundary back into Value land. Verbatim port of the row oracle's
/// RowExecutor::Evaluate, so accumulation inputs are bit-identical.
Result<Value> EvalScalar(const ExprPtr& expr, const Batch& batch,
                         uint32_t row) {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return expr->value();
    case ExprKind::kColumnRef: {
      const int ci = FindBinding(batch.bindings, expr->column());
      if (ci < 0) {
        return Status::InvalidArgument("unbound column: " +
                                       expr->column().ToString());
      }
      return batch.ValueAt(static_cast<size_t>(ci), row);
    }
    default: {
      GEQO_ASSIGN_OR_RETURN(const Value left,
                            EvalScalar(expr->left(), batch, row));
      GEQO_ASSIGN_OR_RETURN(const Value right,
                            EvalScalar(expr->right(), batch, row));
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

// ---------------------------------------------------------------------------
// Join key hashing — Value::Hash / Value::operator== semantics on raw
// columns, so 3 joins 3.0 exactly as in the oracle.
// ---------------------------------------------------------------------------

uint64_t HashCell(const ColumnVector& col, size_t row) {
  switch (col.type()) {
    case ValueType::kInt: {
      const int64_t v = col.ints()[row];
      return HashBytes(&v, sizeof(v), 0x1234567);
    }
    case ValueType::kDouble: {
      const double d = col.doubles()[row];
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        const int64_t as_int = static_cast<int64_t>(d);
        return HashBytes(&as_int, sizeof(as_int), 0x1234567);
      }
      return HashBytes(&d, sizeof(d), 0x89abcd);
    }
    case ValueType::kString:
      return HashString(col.strings()[row]);
  }
  return 0;
}

double NumericCell(const ColumnVector& col, size_t row) {
  return col.type() == ValueType::kInt
             ? static_cast<double>(col.ints()[row])
             : col.doubles()[row];
}

bool CellsMatch(const ColumnVector& a, size_t ra, const ColumnVector& b,
                size_t rb) {
  const bool a_numeric = a.type() != ValueType::kString;
  const bool b_numeric = b.type() != ValueType::kString;
  if (a_numeric != b_numeric) return false;  // type mismatch, like the oracle
  if (a_numeric) return NumericCell(a, ra) == NumericCell(b, rb);
  return a.strings()[ra] == b.strings()[rb];
}

// ---------------------------------------------------------------------------
// Column materialization helpers.
// ---------------------------------------------------------------------------

ColumnVector GatherColumn(const ColumnVector& src,
                          const std::vector<uint32_t>& rows) {
  switch (src.type()) {
    case ValueType::kInt: {
      AlignedVector<int64_t> out;
      out.reserve(rows.size());
      const int64_t* data = src.ints();
      for (const uint32_t r : rows) out.push_back(data[r]);
      return ColumnVector::OwnInts(std::move(out));
    }
    case ValueType::kDouble: {
      AlignedVector<double> out;
      out.reserve(rows.size());
      const double* data = src.doubles();
      for (const uint32_t r : rows) out.push_back(data[r]);
      return ColumnVector::OwnDoubles(std::move(out));
    }
    case ValueType::kString: {
      std::vector<std::string> out;
      out.reserve(rows.size());
      const std::string* data = src.strings();
      for (const uint32_t r : rows) out.push_back(data[r]);
      return ColumnVector::OwnStrings(std::move(out));
    }
  }
  return ColumnVector();
}

ColumnVector CopyView(const ColumnVector& src) {
  switch (src.type()) {
    case ValueType::kInt:
      return ColumnVector::ViewInts(src.ints());
    case ValueType::kDouble:
      return ColumnVector::ViewDoubles(src.doubles());
    case ValueType::kString:
      return ColumnVector::ViewStrings(src.strings());
  }
  return ColumnVector();
}

ColumnVector SplatLiteral(const Value& value, size_t n) {
  switch (value.type()) {
    case ValueType::kInt:
      return ColumnVector::OwnInts(AlignedVector<int64_t>(n, value.AsInt()));
    case ValueType::kDouble:
      return ColumnVector::OwnDoubles(
          AlignedVector<double>(n, value.AsDouble()));
    case ValueType::kString:
      return ColumnVector::OwnStrings(
          std::vector<std::string>(n, value.AsString()));
  }
  return ColumnVector();
}

// ---------------------------------------------------------------------------
// Operators.
// ---------------------------------------------------------------------------

Status ApplyFilter(const CompiledOp& op, const kernels::KernelTable& kt,
                   Batch* batch) {
  if (batch->ActiveRows() == 0) return Status::OK();
  GEQO_RETURN_NOT_OK(op.static_error);
  std::vector<uint32_t> sel;
  GEQO_RETURN_NOT_OK(FilterIndices(op.predicate, op.string_compare, *batch,
                                   nullptr, kt, &sel));
  batch->sel = std::move(sel);
  batch->all = false;
  return Status::OK();
}

Status ApplyProject(const CompiledOp& op, const kernels::KernelTable& kt,
                    Batch* batch) {
  const size_t n = batch->ActiveRows();
  if (n > 0) GEQO_RETURN_NOT_OK(op.static_error);
  Batch out;
  out.num_rows = n;
  out.all = true;
  out.bindings.reserve(op.outputs.size());
  out.columns.reserve(op.outputs.size());
  std::vector<uint32_t> gather_rows;
  const auto selected_rows = [&]() -> const std::vector<uint32_t>& {
    if (gather_rows.empty() && n > 0) {
      gather_rows.resize(n);
      for (size_t i = 0; i < n; ++i) gather_rows[i] = batch->RowAt(i);
    }
    return gather_rows;
  };
  for (size_t k = 0; k < op.outputs.size(); ++k) {
    const OutputColumn& output = op.outputs[k];
    out.bindings.push_back(op.out_columns[k].binding);
    const ExprPtr& expr = output.expr;
    if (expr->is_column()) {
      const int ci = FindBinding(batch->bindings, expr->column());
      GEQO_CHECK(ci >= 0);
      const ColumnVector& src = batch->columns[static_cast<size_t>(ci)];
      if (batch->all && src.is_view()) {
        out.columns.push_back(CopyView(src));
      } else {
        out.columns.push_back(GatherColumn(src, selected_rows()));
      }
    } else if (expr->is_literal()) {
      out.columns.push_back(SplatLiteral(expr->value(), n));
    } else {
      AlignedVector<double> dense(n);
      GEQO_RETURN_NOT_OK(
          EvalNumericDense(expr, *batch, nullptr, kt, dense.data()));
      out.columns.push_back(ColumnVector::OwnDoubles(std::move(dense)));
    }
  }
  *batch = std::move(out);
  return Status::OK();
}

/// Materializes the (left row, build row) match lists of a probe into a
/// dense combined batch: left columns then build columns, exactly the
/// oracle's concatenated-tuple layout.
Batch MaterializeJoin(const Batch& left, const Breaker& build,
                      const std::vector<uint32_t>& left_rows,
                      const std::vector<uint32_t>& build_rows) {
  Batch out;
  out.num_rows = left_rows.size();
  out.all = true;
  out.bindings = left.bindings;
  out.bindings.insert(out.bindings.end(), build.data.bindings.begin(),
                      build.data.bindings.end());
  out.columns.reserve(left.columns.size() + build.data.columns.size());
  for (const ColumnVector& col : left.columns) {
    out.columns.push_back(GatherColumn(col, left_rows));
  }
  for (const ColumnVector& col : build.data.columns) {
    out.columns.push_back(GatherColumn(col, build_rows));
  }
  return out;
}

Status ApplyHashProbe(const CompiledOp& op, const Breaker& build,
                      Batch* batch) {
  const size_t n = batch->ActiveRows();
  const ColumnVector& probe_col =
      batch->columns[static_cast<size_t>(op.probe_key)];
  const ColumnVector& build_col =
      build.data.columns[static_cast<size_t>(op.build_key)];
  std::vector<uint32_t> left_rows;
  std::vector<uint32_t> build_rows;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = batch->RowAt(i);
    const auto it = build.hash_table.find(HashCell(probe_col, r));
    if (it == build.hash_table.end()) continue;
    for (const uint32_t cand : it->second) {
      if (!CellsMatch(probe_col, r, build_col, cand)) continue;
      left_rows.push_back(r);
      build_rows.push_back(cand);
    }
  }
  *batch = MaterializeJoin(*batch, build, left_rows, build_rows);
  return Status::OK();
}

Status ApplyNlProbe(const CompiledOp& op, const Breaker& build,
                    const kernels::KernelTable& kt, Batch* batch) {
  const size_t n = batch->ActiveRows();
  if (n > 0 && build.data.num_rows > 0) {
    GEQO_RETURN_NOT_OK(op.static_error);
  }
  std::vector<uint32_t> left_rows;
  std::vector<uint32_t> build_rows;
  std::vector<uint32_t> matches;
  for (size_t i = 0; i < n && build.data.num_rows > 0; ++i) {
    const OuterRow outer{&batch->bindings, batch, batch->RowAt(i)};
    GEQO_RETURN_NOT_OK(FilterIndices(op.predicate, op.string_compare,
                                     build.data, &outer, kt, &matches));
    for (const uint32_t m : matches) {
      left_rows.push_back(outer.row);
      build_rows.push_back(m);
    }
  }
  *batch = MaterializeJoin(*batch, build, left_rows, build_rows);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

/// Concatenates per-morsel batches (in morsel order) into one dense batch
/// with the given schema — the build side of a join or the input order
/// contract of the aggregation fold.
Batch ConcatBatches(const std::vector<ColumnInfo>& schema,
                    const std::vector<Batch>& batches) {
  size_t total = 0;
  for (const Batch& b : batches) total += b.ActiveRows();
  Batch out;
  out.num_rows = total;
  out.all = true;
  out.bindings.reserve(schema.size());
  for (const ColumnInfo& info : schema) out.bindings.push_back(info.binding);
  for (size_t c = 0; c < schema.size(); ++c) {
    switch (schema[c].type) {
      case ValueType::kInt: {
        AlignedVector<int64_t> buf;
        buf.reserve(total);
        for (const Batch& b : batches) {
          if (b.ActiveRows() == 0) continue;
          const int64_t* data = b.columns[c].ints();
          for (size_t i = 0; i < b.ActiveRows(); ++i) {
            buf.push_back(data[b.RowAt(i)]);
          }
        }
        out.columns.push_back(ColumnVector::OwnInts(std::move(buf)));
        break;
      }
      case ValueType::kDouble: {
        AlignedVector<double> buf;
        buf.reserve(total);
        for (const Batch& b : batches) {
          if (b.ActiveRows() == 0) continue;
          const double* data = b.columns[c].doubles();
          for (size_t i = 0; i < b.ActiveRows(); ++i) {
            buf.push_back(data[b.RowAt(i)]);
          }
        }
        out.columns.push_back(ColumnVector::OwnDoubles(std::move(buf)));
        break;
      }
      case ValueType::kString: {
        std::vector<std::string> buf;
        buf.reserve(total);
        for (const Batch& b : batches) {
          if (b.ActiveRows() == 0) continue;
          const std::string* data = b.columns[c].strings();
          for (size_t i = 0; i < b.ActiveRows(); ++i) {
            buf.push_back(data[b.RowAt(i)]);
          }
        }
        out.columns.push_back(ColumnVector::OwnStrings(std::move(buf)));
        break;
      }
    }
  }
  return out;
}

/// The aggregation fold — a verbatim port of the oracle's GroupState logic,
/// run sequentially over batches in morsel order so double sums accumulate
/// in exactly the oracle's row order. Groups are emitted in first-seen
/// order, which is deterministic across thread counts and ISAs.
Status FoldAggregate(const AggregateSpec& spec,
                     const std::vector<Batch>& batches, Batch* out) {
  struct GroupState {
    std::vector<Value> keys;
    std::vector<double> sums;
    std::vector<Value> minimums;
    std::vector<Value> maximums;
    std::vector<int64_t> counts;
    size_t rows = 0;
  };
  std::vector<GroupState> all_groups;
  std::unordered_map<uint64_t, std::vector<size_t>> index;
  const size_t num_aggregates = spec.aggregates.size();

  for (const Batch& batch : batches) {
    const size_t n = batch.ActiveRows();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = batch.RowAt(i);
      std::vector<Value> keys;
      keys.reserve(spec.group_by.size());
      uint64_t hash = 0x96017;
      for (const OutputColumn& key : spec.group_by) {
        GEQO_ASSIGN_OR_RETURN(Value value, EvalScalar(key.expr, batch, row));
        hash = HashCombine(hash, value.Hash());
        keys.push_back(std::move(value));
      }
      auto& bucket = index[hash];
      GroupState* state = nullptr;
      for (const size_t gi : bucket) {
        GroupState& candidate = all_groups[gi];
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
        bucket.push_back(all_groups.size());
        all_groups.push_back(GroupState{});
        state = &all_groups.back();
        state->keys = keys;
        state->sums.assign(num_aggregates, 0.0);
        state->minimums.resize(num_aggregates);
        state->maximums.resize(num_aggregates);
        state->counts.assign(num_aggregates, 0);
      }
      ++state->rows;
      for (size_t a = 0; a < num_aggregates; ++a) {
        const AggregateExpr& aggregate = spec.aggregates[a];
        if (aggregate.argument == nullptr) continue;  // COUNT(*)
        GEQO_ASSIGN_OR_RETURN(Value value,
                              EvalScalar(aggregate.argument, batch, row));
        if (!value.is_numeric() && aggregate.fn != AggregateFn::kMin &&
            aggregate.fn != AggregateFn::kMax &&
            aggregate.fn != AggregateFn::kCount) {
          return Status::InvalidArgument("numeric aggregate over string column");
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
  }

  // Materialize groups (first-seen order) into typed columns.
  const size_t num_keys = spec.group_by.size();
  std::vector<std::vector<Value>> cells(spec.out_columns.size());
  for (auto& column : cells) column.reserve(all_groups.size());
  for (const GroupState& state : all_groups) {
    for (size_t k = 0; k < num_keys; ++k) cells[k].push_back(state.keys[k]);
    for (size_t a = 0; a < num_aggregates; ++a) {
      const AggregateExpr& aggregate = spec.aggregates[a];
      const int64_t count = aggregate.argument == nullptr
                                ? static_cast<int64_t>(state.rows)
                                : state.counts[a];
      Value value;
      switch (aggregate.fn) {
        case AggregateFn::kCount:
          value = Value::Int(count);
          break;
        case AggregateFn::kSum:
          value = Value::Double(state.sums[a]);
          break;
        case AggregateFn::kMin:
          value = state.minimums[a];
          break;
        case AggregateFn::kMax:
          value = state.maximums[a];
          break;
        case AggregateFn::kAvg:
          value = Value::Double(count == 0 ? 0.0
                                           : state.sums[a] /
                                                 static_cast<double>(count));
          break;
      }
      cells[num_keys + a].push_back(std::move(value));
    }
  }

  out->num_rows = all_groups.size();
  out->all = true;
  out->bindings.clear();
  out->columns.clear();
  for (size_t c = 0; c < spec.out_columns.size(); ++c) {
    out->bindings.push_back(spec.out_columns[c].binding);
    switch (spec.out_columns[c].type) {
      case ValueType::kInt: {
        AlignedVector<int64_t> buf;
        buf.reserve(cells[c].size());
        for (const Value& v : cells[c]) buf.push_back(v.AsInt());
        out->columns.push_back(ColumnVector::OwnInts(std::move(buf)));
        break;
      }
      case ValueType::kDouble: {
        AlignedVector<double> buf;
        buf.reserve(cells[c].size());
        for (const Value& v : cells[c]) buf.push_back(v.AsDouble());
        out->columns.push_back(ColumnVector::OwnDoubles(std::move(buf)));
        break;
      }
      case ValueType::kString: {
        std::vector<std::string> buf;
        buf.reserve(cells[c].size());
        for (const Value& v : cells[c]) buf.push_back(v.AsString());
        out->columns.push_back(ColumnVector::OwnStrings(std::move(buf)));
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation.
// ---------------------------------------------------------------------------

Result<std::vector<ColumnInfo>> CompiledQuery::CompileInto(
    const Database& database, const PlanPtr& plan, Pipeline* current) {
  switch (plan->kind()) {
    case OpKind::kScan: {
      GEQO_ASSIGN_OR_RETURN(const TableData* data,
                            database.Get(plan->table()));
      current->source.kind = Source::Kind::kScan;
      current->source.table = data;
      current->source.alias = plan->alias();
      std::vector<ColumnInfo> schema;
      const std::vector<ColumnDef>& columns = data->schema().columns();
      schema.reserve(columns.size());
      for (const ColumnDef& column : columns) {
        schema.push_back(
            ColumnInfo{ColumnRef{plan->alias(), column.name}, column.type});
      }
      current->source_columns = schema;
      return schema;
    }

    case OpKind::kSelect: {
      GEQO_ASSIGN_OR_RETURN(std::vector<ColumnInfo> schema,
                            CompileInto(database, plan->child(0), current));
      CompiledOp op;
      op.tag = CompiledOp::Tag::kFilter;
      op.predicate = plan->predicate();
      op.string_compare = StaticComparison(op.predicate, schema, &op.static_error);
      op.out_columns = schema;
      current->ops.push_back(std::move(op));
      return schema;
    }

    case OpKind::kProject: {
      GEQO_ASSIGN_OR_RETURN(std::vector<ColumnInfo> schema,
                            CompileInto(database, plan->child(0), current));
      CompiledOp op;
      op.tag = CompiledOp::Tag::kProject;
      op.outputs = plan->outputs();
      for (const OutputColumn& output : plan->outputs()) {
        const auto type = StaticExprType(output.expr, schema, &op.static_error);
        op.out_columns.push_back(ColumnInfo{ColumnRef{"", output.name},
                                            type.value_or(ValueType::kInt)});
      }
      std::vector<ColumnInfo> out_schema = op.out_columns;
      current->ops.push_back(std::move(op));
      return out_schema;
    }

    case OpKind::kJoin: {
      if (plan->join_type() != JoinType::kInner) {
        return Status::NotSupported("executor supports inner joins only");
      }
      // Probe side continues the current pipeline. Compiled before the build
      // side so eager errors (unknown table, nested outer join) surface in
      // the row oracle's left-then-right order.
      GEQO_ASSIGN_OR_RETURN(std::vector<ColumnInfo> left_schema,
                            CompileInto(database, plan->child(0), current));

      // Build side: the right child becomes its own pipeline ending in a
      // Build sink (the pipeline breaker). Build pipelines always precede
      // the final pipeline in execution order.
      Pipeline build_pipeline;
      GEQO_ASSIGN_OR_RETURN(
          std::vector<ColumnInfo> build_schema,
          CompileInto(database, plan->child(1), &build_pipeline));
      const size_t breaker = breakers_.size();
      breakers_.push_back(Breaker{});
      breakers_[breaker].columns = build_schema;
      build_pipeline.final_columns = build_schema;
      build_pipeline.sink.kind = Sink::Kind::kBuild;
      build_pipeline.sink.breaker = breaker;
      pipelines_.push_back(std::move(build_pipeline));

      CompiledOp op;
      op.breaker = breaker;
      const Comparison& predicate = plan->predicate();
      int left_key = -1;
      int build_key = -1;
      if (predicate.op == CompareOp::kEq && predicate.lhs->is_column() &&
          predicate.rhs->is_column()) {
        const auto index_of = [](const std::vector<ColumnInfo>& side,
                                 const ColumnRef& ref) {
          for (size_t i = 0; i < side.size(); ++i) {
            if (side[i].binding == ref) return static_cast<int>(i);
          }
          return -1;
        };
        int l = index_of(left_schema, predicate.lhs->column());
        int r = index_of(build_schema, predicate.rhs->column());
        if (l < 0 && r < 0) {
          l = index_of(left_schema, predicate.rhs->column());
          r = index_of(build_schema, predicate.lhs->column());
        }
        left_key = l;
        build_key = r;
      }
      std::vector<ColumnInfo> combined = left_schema;
      combined.insert(combined.end(), build_schema.begin(),
                      build_schema.end());
      if (left_key >= 0 && build_key >= 0) {
        op.tag = CompiledOp::Tag::kHashProbe;
        op.probe_key = left_key;
        op.build_key = build_key;
        breakers_[breaker].hashed = true;
        breakers_[breaker].hash_key = build_key;
      } else {
        op.tag = CompiledOp::Tag::kNlProbe;
        op.predicate = predicate;
        op.string_compare =
            StaticComparison(op.predicate, combined, &op.static_error);
      }
      op.out_columns = combined;
      current->ops.push_back(std::move(op));
      return combined;
    }

    case OpKind::kAggregate: {
      // The aggregation input is its own pipeline ending in the fold; the
      // current pipeline then scans the materialized group table.
      Pipeline child_pipeline;
      GEQO_ASSIGN_OR_RETURN(
          std::vector<ColumnInfo> child_schema,
          CompileInto(database, plan->child(0), &child_pipeline));
      AggregateSpec spec;
      spec.group_by = plan->group_by();
      spec.aggregates = plan->aggregates();
      for (const OutputColumn& key : spec.group_by) {
        Status ignored;
        const auto type = StaticExprType(key.expr, child_schema, &ignored);
        spec.out_columns.push_back(ColumnInfo{ColumnRef{"", key.name},
                                              type.value_or(ValueType::kInt)});
      }
      for (const AggregateExpr& aggregate : spec.aggregates) {
        ValueType type = ValueType::kInt;
        switch (aggregate.fn) {
          case AggregateFn::kCount:
            type = ValueType::kInt;
            break;
          case AggregateFn::kSum:
          case AggregateFn::kAvg:
            type = ValueType::kDouble;
            break;
          case AggregateFn::kMin:
          case AggregateFn::kMax: {
            Status ignored;
            type = aggregate.argument == nullptr
                       ? ValueType::kInt
                       : StaticExprType(aggregate.argument, child_schema,
                                        &ignored)
                             .value_or(ValueType::kInt);
            break;
          }
        }
        spec.out_columns.push_back(
            ColumnInfo{ColumnRef{"", aggregate.name}, type});
      }
      const size_t breaker = breakers_.size();
      breakers_.push_back(Breaker{});
      breakers_[breaker].columns = spec.out_columns;
      const std::vector<ColumnInfo> out_schema = spec.out_columns;
      child_pipeline.final_columns = child_schema;
      child_pipeline.sink.kind = Sink::Kind::kAggregate;
      child_pipeline.sink.breaker = breaker;
      child_pipeline.sink.aggregate = std::move(spec);
      pipelines_.push_back(std::move(child_pipeline));

      current->source.kind = Source::Kind::kMaterialized;
      current->source.breaker = breaker;
      current->source_columns = out_schema;
      return out_schema;
    }
  }
  return Status::Internal("unknown operator kind");
}

Result<std::unique_ptr<CompiledQuery>> CompiledQuery::Compile(
    const Database& database, const PlanPtr& plan) {
  obs::Span span("exec.compile");
  std::unique_ptr<CompiledQuery> query(new CompiledQuery());
  Pipeline final_pipeline;
  GEQO_ASSIGN_OR_RETURN(std::vector<ColumnInfo> schema,
                        query->CompileInto(database, plan, &final_pipeline));
  final_pipeline.final_columns = schema;
  final_pipeline.sink.kind = Sink::Kind::kResult;
  query->pipelines_.push_back(std::move(final_pipeline));
  query->column_names_.reserve(schema.size());
  for (const ColumnInfo& info : schema) {
    query->column_names_.push_back(info.binding.alias.empty()
                                       ? info.binding.column
                                       : info.binding.ToString());
  }
  return query;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

Status CompiledQuery::RunPipeline(Pipeline* pipeline, size_t morsel_rows,
                                  ExecMetrics* metrics,
                                  std::vector<Batch>* final_out) {
  obs::Span span("exec.pipeline");
  // Boundary validation, gated like GEQO_DCHECK (GEQO_VALIDATE / !NDEBUG):
  // the wiring check runs once per pipeline, the batch check once per
  // morsel after its op chain. When the gate is off both reduce to one
  // cached-bool load, hoisted here so the hot lambda pays nothing.
  DebugValidatePipeline(*pipeline, breakers_, "exec.RunPipeline");
  const bool validate_batches = analysis::DebugValidationEnabled();
  const Source& source = pipeline->source;
  const size_t total_rows = source.kind == Source::Kind::kScan
                                ? source.table->num_rows()
                                : breakers_[source.breaker].data.num_rows;
  const size_t num_morsels =
      total_rows == 0 ? 0 : (total_rows + morsel_rows - 1) / morsel_rows;
  metrics->morsels += num_morsels;
  if (source.kind == Source::Kind::kScan) metrics->rows_scanned += total_rows;

  const bool obs_on = obs::MetricsEnabled();
  if (obs_on) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("exec.pipelines").Increment();
    registry.GetCounter("exec.morsels").Add(num_morsels);
  }

  std::vector<Batch> results(num_morsels);
  std::vector<Status> statuses(num_morsels);
  const kernels::KernelTable& kt = kernels::Active();

  ParallelForWithWorker(
      0, num_morsels,
      [&](size_t /*worker*/, size_t mi) {
        const size_t begin = mi * morsel_rows;
        const size_t len = std::min(morsel_rows, total_rows - begin);
        Batch batch;
        batch.num_rows = len;
        batch.all = true;
        if (source.kind == Source::Kind::kScan) {
          const TableData* data = source.table;
          const std::vector<ColumnDef>& columns = data->schema().columns();
          batch.bindings.reserve(columns.size());
          batch.columns.reserve(columns.size());
          for (size_t c = 0; c < columns.size(); ++c) {
            batch.bindings.push_back(ColumnRef{source.alias, columns[c].name});
            switch (columns[c].type) {
              case ValueType::kInt:
                batch.columns.push_back(
                    ColumnVector::ViewInts(data->ints(c).data() + begin));
                break;
              case ValueType::kDouble:
                batch.columns.push_back(
                    ColumnVector::ViewDoubles(data->doubles(c).data() + begin));
                break;
              case ValueType::kString:
                batch.columns.push_back(
                    ColumnVector::ViewStrings(data->strings(c).data() + begin));
                break;
            }
          }
        } else {
          const Batch& base = breakers_[source.breaker].data;
          batch.bindings = base.bindings;
          batch.columns.reserve(base.columns.size());
          for (const ColumnVector& col : base.columns) {
            switch (col.type()) {
              case ValueType::kInt:
                batch.columns.push_back(
                    ColumnVector::ViewInts(col.ints() + begin));
                break;
              case ValueType::kDouble:
                batch.columns.push_back(
                    ColumnVector::ViewDoubles(col.doubles() + begin));
                break;
              case ValueType::kString:
                batch.columns.push_back(
                    ColumnVector::ViewStrings(col.strings() + begin));
                break;
            }
          }
        }

        Status status;
        for (const CompiledOp& op : pipeline->ops) {
          switch (op.tag) {
            case CompiledOp::Tag::kFilter:
              status = ApplyFilter(op, kt, &batch);
              break;
            case CompiledOp::Tag::kProject:
              status = ApplyProject(op, kt, &batch);
              break;
            case CompiledOp::Tag::kHashProbe:
              status = ApplyHashProbe(op, breakers_[op.breaker], &batch);
              break;
            case CompiledOp::Tag::kNlProbe:
              status = ApplyNlProbe(op, breakers_[op.breaker], kt, &batch);
              break;
          }
          if (!status.ok()) break;
          if (batch.ActiveRows() == 0) {
            batch = Batch{};  // dead morsel: nothing flows further
            break;
          }
        }
        if (obs_on) {
          obs::MetricsRegistry::Global()
              .GetHistogram("exec.batch_fill")
              .Observe(len == 0 ? 0.0
                               : static_cast<double>(batch.ActiveRows()) /
                                     static_cast<double>(len));
        }
        if (validate_batches && status.ok()) {
          DebugValidateBatch(batch, "exec.RunPipeline.morsel");
        }
        statuses[mi] = std::move(status);
        if (statuses[mi].ok()) results[mi] = std::move(batch);
      },
      1);

  // Deterministic error selection: first failing morsel in morsel order.
  for (const Status& status : statuses) GEQO_RETURN_NOT_OK(status);

  size_t live_batches = 0;
  for (const Batch& b : results) {
    if (b.ActiveRows() > 0) ++live_batches;
  }
  metrics->batches += live_batches;
  if (obs_on) {
    obs::MetricsRegistry::Global().GetCounter("exec.batches").Add(live_batches);
  }

  Stopwatch breaker_watch;
  switch (pipeline->sink.kind) {
    case Sink::Kind::kResult: {
      for (Batch& b : results) {
        if (b.ActiveRows() == 0) continue;
        metrics->rows_output += b.ActiveRows();
        final_out->push_back(std::move(b));
      }
      return Status::OK();
    }
    case Sink::Kind::kBuild: {
      obs::Span build_span("exec.sink.build");
      Breaker& breaker = breakers_[pipeline->sink.breaker];
      breaker.data = ConcatBatches(breaker.columns, results);
      if (breaker.hashed) {
        const ColumnVector& key =
            breaker.data.columns[static_cast<size_t>(breaker.hash_key)];
        for (size_t r = 0; r < breaker.data.num_rows; ++r) {
          breaker.hash_table[HashCell(key, r)].push_back(
              static_cast<uint32_t>(r));
        }
      }
      break;
    }
    case Sink::Kind::kAggregate: {
      obs::Span agg_span("exec.sink.aggregate");
      Breaker& breaker = breakers_[pipeline->sink.breaker];
      GEQO_RETURN_NOT_OK(
          FoldAggregate(pipeline->sink.aggregate, results, &breaker.data));
      break;
    }
  }
  const double breaker_seconds = breaker_watch.ElapsedSeconds();
  metrics->breaker_seconds += breaker_seconds;
  if (obs_on) {
    obs::MetricsRegistry::Global()
        .GetHistogram("exec.breaker_seconds")
        .Observe(breaker_seconds);
  }
  return Status::OK();
}

Status CompiledQuery::Run(size_t morsel_rows, ExecMetrics* metrics,
                          std::vector<Batch>* out) {
  metrics->pipelines = pipelines_.size();
  for (Pipeline& pipeline : pipelines_) {
    GEQO_RETURN_NOT_OK(RunPipeline(&pipeline, morsel_rows, metrics, out));
  }
  if (obs::MetricsEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("exec.rows_scanned").Add(metrics->rows_scanned);
    registry.GetCounter("exec.rows_output").Add(metrics->rows_output);
  }
  return Status::OK();
}

}  // namespace geqo::exec

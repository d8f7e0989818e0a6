#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "plan/expr.h"
#include "plan/value.h"

/// \file batch.h
/// The columnar unit of work of the vectorized executor: a `Batch` is a
/// morsel's worth of rows as typed column vectors plus a selection vector.
/// Columns are either zero-copy views into stable storage (a Database table
/// or a materialized pipeline breaker) or owned 32-byte-aligned buffers
/// produced by an operator, so scans cost nothing and only computed columns
/// allocate. Filters narrow the selection vector without touching data;
/// projections and join probes emit dense (fully selected) batches.

namespace geqo::exec {

/// \brief One typed column of a Batch: either a borrowed pointer into
/// storage that outlives the batch, or owned storage.
///
/// Owned numeric storage uses AlignedVector so the f64 kernels see
/// kernel-aligned buffers. Accessors return the borrowed pointer when set
/// and the owned buffer otherwise, so moves never dangle (owned buffers are
/// re-read through the vector on every access).
class ColumnVector {
 public:
  ColumnVector() = default;

  static ColumnVector ViewInts(const int64_t* data) {
    ColumnVector c;
    c.type_ = ValueType::kInt;
    c.int_view_ = data;
    return c;
  }
  static ColumnVector ViewDoubles(const double* data) {
    ColumnVector c;
    c.type_ = ValueType::kDouble;
    c.double_view_ = data;
    return c;
  }
  static ColumnVector ViewStrings(const std::string* data) {
    ColumnVector c;
    c.type_ = ValueType::kString;
    c.string_view_ = data;
    return c;
  }
  static ColumnVector OwnInts(AlignedVector<int64_t> data) {
    ColumnVector c;
    c.type_ = ValueType::kInt;
    c.own_ints_ = std::move(data);
    return c;
  }
  static ColumnVector OwnDoubles(AlignedVector<double> data) {
    ColumnVector c;
    c.type_ = ValueType::kDouble;
    c.own_doubles_ = std::move(data);
    return c;
  }
  static ColumnVector OwnStrings(std::vector<std::string> data) {
    ColumnVector c;
    c.type_ = ValueType::kString;
    c.own_strings_ = std::move(data);
    return c;
  }

  ValueType type() const { return type_; }
  bool is_view() const {
    return int_view_ != nullptr || double_view_ != nullptr ||
           string_view_ != nullptr;
  }
  /// Rows physically present in owned storage; nullopt for views (a
  /// view's extent lives with the storage it points into and is not
  /// recorded here). Used by exec::ValidateBatch to prove column-length
  /// agreement with the owning batch's num_rows.
  std::optional<size_t> owned_size() const {
    if (is_view()) return std::nullopt;
    switch (type_) {
      case ValueType::kInt:
        return own_ints_.size();
      case ValueType::kDouble:
        return own_doubles_.size();
      case ValueType::kString:
        return own_strings_.size();
    }
    return std::nullopt;
  }

  const int64_t* ints() const {
    GEQO_DCHECK(type_ == ValueType::kInt);
    return int_view_ != nullptr ? int_view_ : own_ints_.data();
  }
  const double* doubles() const {
    GEQO_DCHECK(type_ == ValueType::kDouble);
    return double_view_ != nullptr ? double_view_ : own_doubles_.data();
  }
  const std::string* strings() const {
    GEQO_DCHECK(type_ == ValueType::kString);
    return string_view_ != nullptr ? string_view_ : own_strings_.data();
  }

  /// Cell as a dynamically typed Value (row-at-a-time boundary crossings:
  /// aggregation fold, RowSet materialization).
  Value GetValue(size_t row) const {
    switch (type_) {
      case ValueType::kInt:
        return Value::Int(ints()[row]);
      case ValueType::kDouble:
        return Value::Double(doubles()[row]);
      case ValueType::kString:
        return Value::String(strings()[row]);
    }
    return Value();
  }

 private:
  ValueType type_ = ValueType::kInt;
  const int64_t* int_view_ = nullptr;
  const double* double_view_ = nullptr;
  const std::string* string_view_ = nullptr;
  AlignedVector<int64_t> own_ints_;
  AlignedVector<double> own_doubles_;
  std::vector<std::string> own_strings_;
};

/// \brief A morsel's worth of rows in columnar form.
///
/// `num_rows` physical rows live in every column; when `all` is false only
/// the physical rows listed (ascending) in `sel` are logically present.
/// `bindings[c]` names column c as alias.column (empty alias for computed /
/// projected pseudo-columns), mirroring the row oracle's Intermediate
/// bindings (tests/oracle/row_executor.h) so expression resolution behaves
/// identically.
struct Batch {
  std::vector<ColumnRef> bindings;
  std::vector<ColumnVector> columns;
  size_t num_rows = 0;
  bool all = true;
  std::vector<uint32_t> sel;

  size_t ActiveRows() const { return all ? num_rows : sel.size(); }
  uint32_t RowAt(size_t i) const {
    return all ? static_cast<uint32_t>(i) : sel[i];
  }
  Value ValueAt(size_t column, size_t physical_row) const {
    return columns[column].GetValue(physical_row);
  }
};

/// Index of \p ref in \p bindings (first match, like the row oracle's
/// resolution order), or -1 when unbound.
inline int FindBinding(const std::vector<ColumnRef>& bindings,
                       const ColumnRef& ref) {
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i] == ref) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace geqo::exec

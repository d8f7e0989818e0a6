#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "encode/encoding.h"

/// \file agnostic.h
/// Database-agnostic encoding (§4.2). Two implementations are provided, as
/// in the paper:
///
///   Path A ("symbolize then encode"): BuildSymbolMap assigns symbolic
///   tables t01.. and per-table columns c01.. to the names referenced by a
///   pair (or group) of subexpressions, and PlanEncoder encodes against the
///   agnostic layout through that map.
///
///   Path B (the fast converter, §4.2.1 / Figure 5): subexpressions are
///   instance-encoded once (O(n)), and per pair a lightweight matrix-column
///   remapping — masks over referenced tables/columns, eliminate, scatter —
///   converts instance matrices to agnostic matrices. The paper measures
///   this ~1.8x faster than path A; bench_micro reproduces the comparison.
///
/// The n-ary generalization (§4.2.2) computes the mask over an entire
/// SF-group and backs the VMF's group encoding.

namespace geqo {

/// \brief Columns of \p plan that its encoding marks (predicate columns in
/// normalized form, first column of non-normalizable predicates, projected
/// columns), as (table, column) pairs. This is the reference set both paths
/// derive their symbol assignment from, keeping them bit-identical.
std::vector<std::pair<std::string, std::string>> CollectEncodedColumns(
    const PlanPtr& plan);

/// \brief Builds the symbol map for a set of subexpressions: referenced
/// tables sorted alphanumerically become t01, t02, ...; each table's
/// referenced columns, sorted, become c01, c02, ... Fails with
/// ResourceExhausted if the group exceeds the agnostic layout's capacity.
Result<SymbolMap> BuildSymbolMap(const std::vector<PlanPtr>& plans,
                                 const EncodingLayout& agnostic_layout);

/// \brief The instance table and column slots marked by a plan or a group of
/// plans: bit s is set when slot s is nonzero in some node row (Figure 5's
/// columnwiseUnion). A group's mask is the union of its members' masks, so a
/// caller converting many groups over the same plans computes each plan's
/// mask once.
struct ReferenceMask {
  std::vector<uint64_t> tables;   ///< bitset over instance table slots
  std::vector<uint64_t> columns;  ///< bitset over instance column slots

  /// The mask of one plan encoded against \p instance_layout.
  static ReferenceMask Of(const EncodingLayout& instance_layout,
                          const EncodedPlan& plan);
  /// Adds \p other's slots; both masks must come from the same layout.
  void Union(const ReferenceMask& other);

  bool HasColumn(size_t slot) const { return TestBit(columns, slot); }
  /// Number of marked slots, tables and columns together.
  size_t Count() const;

  /// Calls \p fn(slot) for every set bit of \p bits, in ascending order.
  template <typename Fn>
  static void ForEachSlot(const std::vector<uint64_t>& bits, Fn&& fn) {
    for (size_t w = 0; w < bits.size(); ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(word)));
      }
    }
  }

 private:
  static bool TestBit(const std::vector<uint64_t>& bits, size_t slot) {
    return (bits[slot / 64] >> (slot % 64)) & 1;
  }
};

/// \brief Path B: converts instance encodings to agnostic encodings by
/// column-mask elimination and remapping, without revisiting plan trees.
class AgnosticConverter {
 public:
  /// A converter that maps no table or column slot until Reset.
  AgnosticConverter(const EncodingLayout* instance_layout,
                    const EncodingLayout* agnostic_layout);

  /// Builds the conversion for a group of instance-encoded subexpressions
  /// (a pair for the EMF; a whole SF-group for the VMF's n-ary variant):
  /// Reset on the union of the members' ReferenceMasks.
  static Result<AgnosticConverter> Create(
      const EncodingLayout* instance_layout,
      const EncodingLayout* agnostic_layout,
      const std::vector<const EncodedPlan*>& group,
      bool truncate_overflow = false);

  /// Rebuilds the slot maps for a group's union \p mask, reusing storage.
  /// Referenced tables, in instance order (= sorted real names), take
  /// agnostic table slots 0, 1, ...; each table's referenced columns, in
  /// instance order, take its column ranks — exactly path A's symbols. When
  /// the mask references more tables/columns than the agnostic layout holds,
  /// Reset fails with ResourceExhausted unless \p truncate_overflow is set,
  /// in which case overflowing references are dropped from the encoding (a
  /// lossy approximation used by the VMF-without-SF ablation, where "groups"
  /// can span the whole workload). A failed Reset leaves the maps partly
  /// built; Reset again before converting.
  Status Reset(const ReferenceMask& mask, bool truncate_overflow = false);

  /// Agnostic table slot of instance table slot \p slot, or npos.
  size_t MappedTable(size_t slot) const { return table_map_[slot]; }
  /// Agnostic column slot of instance column slot \p slot, or npos.
  size_t MappedColumn(size_t slot) const { return column_map_[slot]; }

  /// Remaps one instance-encoded plan into the agnostic layout. The output
  /// depends on the slot maps only at the slots the plan itself marks.
  EncodedPlan Convert(const EncodedPlan& instance_encoded) const;

 private:
  const EncodingLayout* instance_layout_;
  const EncodingLayout* agnostic_layout_;
  /// instance table slot -> agnostic table slot, npos when unreferenced.
  std::vector<size_t> table_map_;
  /// instance column slot -> agnostic column slot, npos when unreferenced.
  std::vector<size_t> column_map_;
};

/// \brief Convenience: db-agnostic encodings for a pair of subexpressions
/// via path A. Used by tests and by callers that do not pre-encode.
Result<std::pair<EncodedPlan, EncodedPlan>> EncodePairAgnostic(
    const PlanPtr& a, const PlanPtr& b, const EncodingLayout& agnostic_layout,
    const Catalog& catalog, ValueRange value_range);

}  // namespace geqo

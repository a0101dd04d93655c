// Secondary index structure: a sorted (B+-tree-like) index supporting point
// lookups and range scans. It maps key values to row ids in the owning
// Table.
#ifndef QOPT_STORAGE_INDEX_H_
#define QOPT_STORAGE_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "common/value.h"
#include "storage/table.h"

namespace qopt {

/// Bound of a range scan: value plus inclusivity.
struct IndexBound {
  Value value;
  bool inclusive = true;
};

/// Sorted single-column index. Lookup and range scans are binary searches
/// over a sorted (key, row_id) array — the in-memory stand-in for a B+-tree.
/// NULL keys are excluded (SQL predicates never match NULL).
class SortedIndex {
 public:
  SortedIndex(const IndexDef* def, const Table* table);

  const IndexDef& def() const { return *def_; }

  /// Row ids whose key equals `key`, in key order.
  std::vector<uint32_t> Lookup(const Value& key) const;

  /// Row ids with key in [lo, hi] (either bound optional), in key order.
  std::vector<uint32_t> RangeScan(const std::optional<IndexBound>& lo,
                                  const std::optional<IndexBound>& hi) const;

  /// Adds row `rid`, which must exceed every indexed rid, with key `key`
  /// (a NULL key is skipped). It goes after the entries of equal keys, so
  /// the entries stay exactly those a fresh build would produce.
  void Insert(const Value& key, uint32_t rid);

  /// All row ids in key order (an ordered full scan).
  std::vector<uint32_t> FullScan() const;

  /// Modeled depth of the B+-tree (log_F(entries), fanout 256).
  double tree_height() const;

  /// Modeled leaf-page count.
  double leaf_pages() const;

  size_t num_entries() const { return entries_.size(); }

 private:
  const IndexDef* def_;
  std::vector<std::pair<Value, uint32_t>> entries_;  // sorted by key
};

}  // namespace qopt

#endif  // QOPT_STORAGE_INDEX_H_

// In-memory column-major table with page accounting.
//
// Execution is in memory, but the table tracks a modeled page count (used by
// the I/O cost formulas of paper Section 5.2) derived from row widths and a
// configurable page size, so that the optimizer's cost inputs behave like a
// disk-resident system's.
//
// Cells are stored one column per attribute: INT and DOUBLE columns as
// int64_t / double arrays (8 bytes a cell, plus a null-flag byte per row
// once the column has held a NULL), every other column as Values. Scans
// read them through Select (narrow a rid list by one `column <op> constant`
// conjunct) and Gather (append a column's cells at a rid list to a batch
// column), the storage-owned kernels of the sequential and index scans.
#ifndef QOPT_STORAGE_TABLE_H_
#define QOPT_STORAGE_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/value.h"

namespace qopt {

/// Modeled page size in bytes (System-R style 4K pages).
inline constexpr double kPageSizeBytes = 4096.0;

/// Comparison operator of a ColumnPredicate (column on the left).
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// A `column <op> constant` conjunct that Table::Select evaluates straight
/// from storage. A NULL cell rejects; otherwise the three-way comparison
/// `c` (-1, 0, 1) of cell and constant decides, as `c <op> 0`. Its kind
/// follows the column's declared type and the constant's type, as
/// Value::Compare would coerce them: INT against INT compares as int64,
/// any other numeric pair as double (so NaN compares equal to everything
/// and -0.0 equal to 0.0), a STRING or BOOL column through Value::Compare.
struct ColumnPredicate {
  enum class Kind : uint8_t { kIntInt, kNumeric, kValue };

  /// `constant` must not be NULL, and must be numeric when `declared` is.
  ColumnPredicate(size_t column, TypeId declared, CmpOp op, Value constant);

  size_t column;  ///< Storage position of the column.
  CmpOp op;
  Value constant;
  Kind kind = Kind::kValue;
  int64_t iconst = 0;  ///< kIntInt
  double dconst = 0;   ///< kIntInt and kNumeric
};

/// Row storage for one base table.
///
/// When the table's TableDef carries a PartitionSpec, rows are kept
/// partition-major (clustered): partition p occupies the contiguous index
/// range [PartitionRange(p).first, PartitionRange(p).second). Because the
/// rid -> modeled-page mapping is monotone in rid, clustering makes each
/// partition occupy a disjoint page range, so a pruned partition's pages
/// are genuinely never touched.
class Table {
 public:
  explicit Table(const TableDef* def);

  const TableDef& def() const { return *def_; }

  /// Appends a row after validating arity and column types (NULL allowed
  /// in any column except the primary key). A numeric cell in a numeric
  /// column of the other type is coerced to the declared type: an INT
  /// widens to DOUBLE, a DOUBLE narrows to INT only when it is integral and
  /// within int64 range, and any other cell is rejected. On a
  /// partitioned table the row is inserted into its partition's segment
  /// (O(n) tail shift).
  Status Append(Row row);

  /// Bulk-append without per-row validation (workload generators): the
  /// rows must be ones Append accepts, and their numeric cells are coerced
  /// as Append coerces them. Each row is transposed into the columns and
  /// freed as soon as it is consumed. On a partitioned table this rebuilds
  /// the partition-major clustering in one O(old + new) pass.
  void AppendUnchecked(std::vector<Row> rows);

  size_t num_rows() const { return num_rows_; }

  /// Cell `col` of row `rid`: NULL or a Value of the column's declared
  /// type.
  Value Get(size_t rid, size_t col) const;

  /// Row `rid` built cell by cell (tests and diagnostics; scans gather).
  Row RowAt(size_t rid) const;

  /// Keeps, in place and in order, the rids among rids[0, n) whose cell
  /// passes `p`; returns how many are kept.
  size_t Select(const ColumnPredicate& p, uint32_t* rids, size_t n) const;

  /// Appends the cells of column `col` at rids[0, n) to `out`.
  void Gather(size_t col, const uint32_t* rids, size_t n,
              std::vector<Value>* out) const;

  /// Average bytes per row under the storage model (8 bytes per numeric,
  /// string payload + 4, 1 for bool/null).
  double avg_row_bytes() const;

  /// Modeled number of pages occupied by the table (>= 1 once non-empty).
  double num_pages() const;

  /// Partition count (1 when unpartitioned).
  int num_partitions() const {
    return part_ends_.empty() ? 1 : static_cast<int>(part_ends_.size());
  }

  /// Half-open row-index range [begin, end) of partition `p`.
  std::pair<size_t, size_t> PartitionRange(int p) const;

 private:
  /// One attribute's cells in row order. An INT or DOUBLE column keeps its
  /// cells in `ints` / `doubles`, every other column in `values`.
  struct Column {
    explicit Column(TypeId declared) : type(declared) {}

    const TypeId type;  ///< The declared type: every cell's but NULL's.
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<Value> values;
    /// Typed columns: 1 per NULL row; empty until the first NULL arrives.
    std::vector<uint8_t> nulls;

    size_t size() const;
    bool IsNull(size_t i) const { return !nulls.empty() && nulls[i] != 0; }
    Value Get(size_t i) const;
    void Reserve(size_t n);
    /// Inserts `v` as cell `i`, coercing a numeric cell of the other
    /// numeric type into a typed column.
    void Insert(size_t i, Value&& v);
    void Push(Value&& v) { Insert(size(), std::move(v)); }
    /// Appends cells [begin, end) of `src`, a column of the same type,
    /// moving Value cells out of it.
    void AppendRange(Column& src, size_t begin, size_t end);
  };

  const TableDef* def_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  double total_bytes_ = 0;
  /// Exclusive end row index of each partition (empty when unpartitioned).
  std::vector<size_t> part_ends_;

  double RowBytes(const Row& row) const;
};

}  // namespace qopt

#endif  // QOPT_STORAGE_TABLE_H_

// RowBatch: the unit of data flow of the vectorized execution path.
//
// A batch stores up to `capacity` rows column-wise (one std::vector<Value>
// per output column) plus a selection vector listing the indices of the
// rows that are still "live". Filters never move data: they only shrink
// the selection vector. Operators that construct new rows (projection,
// join output) emit compacted batches whose selection is the identity.
//
// Every executor produces RowBatches (Executor::NextBatch). Operators that
// work on whole rows (sort, Apply, the streaming aggregate)
// read their children's batches a row at a time through a ChildCursor and
// append rows to their output batch; pass-through operators (limit,
// distinct, set operations) hand their child's batch on with a shrunk
// selection, and the parallel gather hands on its workers' batches.
#ifndef QOPT_EXEC_ROW_BATCH_H_
#define QOPT_EXEC_ROW_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/value.h"

namespace qopt::exec {

/// Default number of rows per batch (the classic vectorized sweet spot:
/// large enough to amortize per-batch overheads, small enough to stay
/// cache-resident).
inline constexpr size_t kDefaultBatchCapacity = 1024;

class RowBatch {
 public:
  RowBatch() = default;

  /// Clears the batch and reshapes it to `num_cols` columns with room for
  /// `capacity` rows. Column storage is retained across calls to avoid
  /// reallocating every batch.
  void Reset(size_t num_cols, size_t capacity) {
    capacity_ = capacity;
    if (columns_.size() != num_cols) columns_.resize(num_cols);
    for (std::vector<Value>& col : columns_) {
      col.clear();
      col.reserve(capacity);
    }
    sel_.clear();
    sel_.reserve(capacity);
    num_rows_ = 0;
  }

  size_t num_cols() const { return columns_.size(); }
  size_t capacity() const { return capacity_; }
  /// Physical rows stored (including filtered-out ones).
  size_t num_rows() const { return num_rows_; }
  bool full() const { return num_rows_ >= capacity_; }

  /// Number of live rows (selection-vector length).
  size_t ActiveSize() const { return sel_.size(); }
  /// Physical index of the k-th live row.
  uint32_t ActiveIndex(size_t k) const { return sel_[k]; }
  const std::vector<uint32_t>& selection() const { return sel_; }
  std::vector<uint32_t>* mutable_selection() { return &sel_; }

  std::vector<Value>& column(size_t c) { return columns_[c]; }
  const std::vector<Value>& column(size_t c) const { return columns_[c]; }
  /// Cell at column `c`, physical row `row`.
  const Value& At(size_t c, uint32_t row) const { return columns_[c][row]; }

  /// Appends `row` as a live physical row.
  void AppendRow(const Row& row) {
    for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(row[c]);
    CommitRow();
  }
  void AppendRow(Row&& row) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(std::move(row[c]));
    }
    CommitRow();
  }

  /// Marks one row appended after the caller pushed a value onto every
  /// column. The new row is live.
  void CommitRow() {
    sel_.push_back(static_cast<uint32_t>(num_rows_));
    ++num_rows_;
  }

  /// Marks `n` rows appended after the caller pushed `n` values onto
  /// every column. The new rows are live.
  void CommitRows(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      sel_.push_back(static_cast<uint32_t>(num_rows_ + i));
    }
    num_rows_ += n;
  }

  /// Replaces column `c` with `values` (projection output). The caller must
  /// finish with SetIdentitySelection(n) where n == values.size().
  void AdoptColumn(size_t c, std::vector<Value>&& values) {
    columns_[c] = std::move(values);
  }

  /// Declares the batch to hold `n` compacted live rows (selection 0..n-1).
  void SetIdentitySelection(size_t n) {
    num_rows_ = n;
    sel_.resize(n);
    for (size_t i = 0; i < n; ++i) sel_[i] = static_cast<uint32_t>(i);
  }

  /// Moves the live rows into exactly sized columns (selection becomes the
  /// identity), freeing the storage of the filtered-out rows. A batch whose
  /// rows are all live (one compacted before) only gives back its unused
  /// reserve.
  void Compact() {
    if (sel_.size() == num_rows_) {
      for (std::vector<Value>& col : columns_) col.shrink_to_fit();
    } else {
      for (std::vector<Value>& col : columns_) {
        std::vector<Value> live;
        live.reserve(sel_.size());
        for (uint32_t r : sel_) live.push_back(std::move(col[r]));
        col = std::move(live);
      }
      SetIdentitySelection(sel_.size());
    }
    sel_.shrink_to_fit();
  }

  /// Copies the k-th live row into `*out`.
  void MaterializeActive(size_t k, Row* out) const {
    uint32_t r = sel_[k];
    out->clear();
    out->reserve(columns_.size());
    for (const std::vector<Value>& col : columns_) out->push_back(col[r]);
  }

  /// Moves the k-th live row into `*out`, leaving the cells moved-from.
  /// Only valid when each live row is consumed at most once before the
  /// next Reset (drain loops, result collection).
  void StealActive(size_t k, Row* out) {
    uint32_t r = sel_[k];
    out->clear();
    out->reserve(columns_.size());
    for (std::vector<Value>& col : columns_) out->push_back(std::move(col[r]));
  }

 private:
  std::vector<std::vector<Value>> columns_;
  std::vector<uint32_t> sel_;  ///< Live physical row indices, ascending.
  size_t num_rows_ = 0;
  size_t capacity_ = kDefaultBatchCapacity;
};

/// Moves `*b` whole onto `out` unless it has no live rows, leaving `*b`
/// empty for its producer to refill. A batch less than half full — a
/// sparse selection, or a morsel's short last batch — is compacted first,
/// so the buffer holds at most about twice the live cells and never a
/// filtered-out morsel. The one buffering rule of the parallel gather and
/// of ExecuteAll's pooled result path.
inline void BufferBatch(RowBatch* b, std::vector<RowBatch>* out) {
  if (b->ActiveSize() == 0) return;
  if (2 * b->ActiveSize() < b->capacity()) b->Compact();
  out->push_back(std::exchange(*b, RowBatch()));
}

}  // namespace qopt::exec

#endif  // QOPT_EXEC_ROW_BATCH_H_

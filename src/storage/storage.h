// Storage: owns the Table instances and index structures for a database.
#ifndef QOPT_STORAGE_STORAGE_H_
#define QOPT_STORAGE_STORAGE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "storage/index.h"
#include "storage/table.h"

namespace qopt {

/// Physical store for all tables and indexes in one database instance.
/// Indexes are built lazily on first access. After an INSERT the built
/// indexes of an unpartitioned table take the new rows in
/// (IndexAppendedRows); on a partitioned table, or after a bulk load, they
/// are dropped and rebuilt on next use.
///
/// Thread-safety: the lazy table/index containers are guarded by an
/// internal mutex, so concurrent queries may open scans and trigger index
/// builds safely. Table *contents* are not synchronized — data writes
/// (Append / AppendUnchecked) and index maintenance must not run
/// concurrently with readers; the serving layer admits DML exclusively to
/// guarantee this. On the concurrent read path the engine registers table
/// and index definitions eagerly at DDL time (EnsureTable / RegisterIndex),
/// so queries never consult the mutable live catalog.
class Storage {
 public:
  explicit Storage(const Catalog* catalog) : catalog_(catalog) {}

  /// Returns the table for `table_id`, creating an empty one on first use.
  Table* GetTable(int table_id);
  const Table* GetTableConst(int table_id) const;

  /// Eagerly creates the table for `def` (DDL time, before the defining
  /// catalog snapshot is published), so later GetTable calls from
  /// concurrent queries hit the created-entry fast path. `def` must stay
  /// valid for the storage's lifetime (the live catalog's defs are).
  Table* EnsureTable(const TableDef* def);

  /// Eagerly registers an index definition (DDL time, same contract as
  /// EnsureTable); the index *structure* is still built lazily on first
  /// GetSortedIndex, under the storage mutex.
  void RegisterIndex(const IndexDef* def);

  /// Returns (building if needed) the sorted index structure for `index_id`.
  const SortedIndex* GetSortedIndex(int index_id);

  /// Drops cached index structures on `table_id` (after data load). Must
  /// not run concurrently with queries (DML is admitted exclusively).
  void InvalidateIndexes(int table_id);

  /// Brings the built indexes on `table_id` up to date after rows were
  /// appended from row `first_new` on (INSERT). On an unpartitioned table
  /// the new rows have the largest rids, so each built index inserts them;
  /// on a partitioned one a row lands inside the table and shifts the rids
  /// after it, so the indexes are dropped. Same concurrency contract as
  /// InvalidateIndexes.
  void IndexAppendedRows(int table_id, size_t first_new);

 private:
  Table* GetTableLocked(int table_id);

  const Catalog* catalog_;
  /// Guards the lazy containers below (not table contents).
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Table>> tables_;          // by table id
  std::vector<std::unique_ptr<SortedIndex>> indexes_;   // by index id
  std::vector<const IndexDef*> index_defs_;             // by index id
};

}  // namespace qopt

#endif  // QOPT_STORAGE_STORAGE_H_

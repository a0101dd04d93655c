#include "storage/storage.h"

namespace qopt {

Table* Storage::GetTableLocked(int table_id) {
  if (table_id < 0) return nullptr;
  if (table_id < static_cast<int>(tables_.size()) && tables_[table_id]) {
    return tables_[table_id].get();
  }
  // Cold path: the table was never registered eagerly (legacy
  // single-threaded use); consult the live catalog for its definition.
  const TableDef* def = catalog_->GetTable(table_id);
  if (def == nullptr) return nullptr;
  if (table_id >= static_cast<int>(tables_.size())) {
    tables_.resize(table_id + 1);
  }
  tables_[table_id] = std::make_unique<Table>(def);
  return tables_[table_id].get();
}

Table* Storage::GetTable(int table_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetTableLocked(table_id);
}

const Table* Storage::GetTableConst(int table_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (table_id < 0 || table_id >= static_cast<int>(tables_.size())) {
    return nullptr;
  }
  return tables_[table_id].get();
}

Table* Storage::EnsureTable(const TableDef* def) {
  if (def == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (def->id >= static_cast<int>(tables_.size())) {
    tables_.resize(def->id + 1);
  }
  if (!tables_[def->id]) {
    tables_[def->id] = std::make_unique<Table>(def);
  }
  return tables_[def->id].get();
}

void Storage::RegisterIndex(const IndexDef* def) {
  if (def == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (def->id >= static_cast<int>(index_defs_.size())) {
    index_defs_.resize(def->id + 1, nullptr);
  }
  index_defs_[def->id] = def;
}

const SortedIndex* Storage::GetSortedIndex(int index_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_id < 0) return nullptr;
  if (index_id < static_cast<int>(indexes_.size()) && indexes_[index_id]) {
    return indexes_[index_id].get();
  }
  const IndexDef* def = index_id < static_cast<int>(index_defs_.size())
                            ? index_defs_[index_id]
                            : nullptr;
  if (def == nullptr) def = catalog_->GetIndex(index_id);  // cold path
  if (def == nullptr) return nullptr;
  if (index_id >= static_cast<int>(indexes_.size())) {
    indexes_.resize(index_id + 1);
  }
  Table* table = GetTableLocked(def->table_id);
  QOPT_DCHECK(table != nullptr);
  // Built under the mutex: concurrent first-touchers of the same index
  // serialize instead of racing two builds.
  indexes_[index_id] = std::make_unique<SortedIndex>(def, table);
  return indexes_[index_id].get();
}

void Storage::InvalidateIndexes(int table_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const TableDef* def = catalog_->GetTable(table_id);
  if (def == nullptr) return;
  for (int idx_id : def->index_ids) {
    if (idx_id < static_cast<int>(indexes_.size())) {
      indexes_[idx_id].reset();
    }
  }
}

void Storage::IndexAppendedRows(int table_id, size_t first_new) {
  const TableDef* def = catalog_->GetTable(table_id);
  if (def == nullptr) return;
  if (def->partition.enabled()) {
    InvalidateIndexes(table_id);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const Table* table = GetTableLocked(table_id);
  for (int idx_id : def->index_ids) {
    if (idx_id >= static_cast<int>(indexes_.size()) || !indexes_[idx_id]) {
      continue;  // not built: the next use builds it from the whole table
    }
    SortedIndex* index = indexes_[idx_id].get();
    const size_t col = static_cast<size_t>(index->def().column);
    for (size_t rid = first_new; rid < table->num_rows(); ++rid) {
      index->Insert(table->Get(rid, col), static_cast<uint32_t>(rid));
    }
  }
}

}  // namespace qopt

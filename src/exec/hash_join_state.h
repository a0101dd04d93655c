// JoinBuildState: the materialized build side of a hash join, separated
// from the probing executor so it can be (a) built once and probed by many
// worker threads under ExecMode::kParallel, or (b) owned privately by the
// serial JoinExec — identical layout and match semantics either way
// (DESIGN.md §3.8). JoinExec's other join methods reuse its columnar
// build store without the hash table (DESIGN.md §3.6).
//
// The build store is columnar: values move straight out of the build-side
// child batches. Int64-keyed joins use a chained head/next layout (one hash
// entry per distinct key, a flat next[] array, no per-row node allocation);
// other key types use a Value multimap. The structures are written by
// exactly one thread (Finalize, after all rows are appended) and read-only
// during probing, with one exception: a non-int64 probe key arriving at an
// int-keyed table lazily builds the generic multimap — under a mutex, so
// concurrent probers stay safe.
//
// GracePartitions: the partition files a hash join writes once its build
// crosses the spill budget (DESIGN.md §3.13).
#ifndef QOPT_EXEC_HASH_JOIN_STATE_H_
#define QOPT_EXEC_HASH_JOIN_STATE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/spill.h"

namespace qopt::exec::internal {

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// The partition files of a spilled (grace) hash join: one build and one
/// probe file per partition.
struct GracePartitions {
  using Files = std::vector<std::unique_ptr<SpillFile>>;
  Files build;
  Files probe;

  bool spilled() const { return !build.empty(); }

  void Clear() {
    build.clear();
    probe.clear();
  }

  /// Creates max(2, `fanout`) build and probe files in `dir`.
  Status Open(size_t fanout, const std::string& dir) {
    fanout = std::max<size_t>(2, fanout);
    for (Files* side : {&build, &probe}) {
      for (size_t i = 0; i < fanout; ++i) {
        std::unique_ptr<SpillFile> file;
        QOPT_ASSIGN_OR_RETURN(file, SpillFile::Create(dir));
        side->push_back(std::move(file));
      }
    }
    return Status::OK();
  }

  /// Appends `row` to the file of the partition of its join key
  /// `row[key_pos]`. NULL keys go to partition 0, where they match nothing
  /// but still reach left-outer/anti emission. The partition function
  /// mixes Value::Hash through a splitmix64 finalizer, so partition skew
  /// stays independent of the in-memory hash table's bucketing.
  static Status Append(Files& side, const Row& row, size_t key_pos) {
    const Value& key = row[key_pos];
    size_t p = 0;
    if (!key.is_null()) {
      uint64_t h = static_cast<uint64_t>(key.Hash()) + 0x9e3779b97f4a7c15ULL;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      p = (h ^ (h >> 31)) % side.size();
    }
    return side[p]->Append(row);
  }
};

struct JoinBuildState {
  std::vector<std::vector<Value>> build_cols;  ///< Columnar build store.
  size_t rk = 0;  ///< Build key column position in build_cols.

  size_t num_build_rows() const {
    return build_cols.empty() ? 0 : build_cols[rk].size();
  }

  /// Builds the lookup structures over the appended rows. Single-threaded;
  /// must happen-before any ForEachMatch (the caller's phase barrier or
  /// serial Init provides the ordering).
  void Finalize(TypeId left_key_type, TypeId right_key_type) {
    const std::vector<Value>& keys = build_cols[rk];
    // The int table is valid only when both key columns are declared
    // kInt64 and every build key really is an int64 — Value equality
    // coerces across numeric types (3 == 3.0), which it cannot reproduce.
    int_path_ = left_key_type == TypeId::kInt64 &&
                right_key_type == TypeId::kInt64;
    for (size_t i = 0; int_path_ && i < keys.size(); ++i) {
      if (keys[i].type() != TypeId::kInt64) int_path_ = false;
    }
    if (int_path_) {
      iheads_.clear();
      iheads_.reserve(keys.size());
      inext_.assign(keys.size(), 0);
      for (size_t i = 0; i < keys.size(); ++i) {
        uint32_t& head = iheads_[keys[i].AsInt()];
        inext_[i] = head;
        head = static_cast<uint32_t>(i) + 1;  // 0 terminates the chain
      }
    } else {
      BuildGenericTable();
    }
  }

  /// Calls fn(build_index) for every build row whose key matches `key`
  /// (never called with a NULL key). A non-int64 probe key against the int
  /// table falls back to a lazily built generic table, preserving Value's
  /// cross-numeric equality.
  template <typename Fn>
  void ForEachMatch(const Value& key, Fn&& fn) {
    if (int_path_ && key.type() == TypeId::kInt64) {
      auto it = iheads_.find(key.AsInt());
      if (it == iheads_.end()) return;
      for (uint32_t i = it->second; i != 0; i = inext_[i - 1]) fn(i - 1);
      return;
    }
    if (!generic_built_.load(std::memory_order_acquire)) EnsureGeneric();
    auto [begin, end] = table_.equal_range(key);
    for (auto it = begin; it != end; ++it) fn(it->second);
  }

 private:
  void BuildGenericTable() {
    const std::vector<Value>& keys = build_cols[rk];
    table_.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) table_.emplace(keys[i], i);
    generic_built_.store(true, std::memory_order_release);
  }

  void EnsureGeneric() {
    std::lock_guard<std::mutex> lock(generic_mu_);
    if (!generic_built_.load(std::memory_order_relaxed)) BuildGenericTable();
  }

  bool int_path_ = false;
  std::unordered_map<int64_t, uint32_t> iheads_;  ///< key -> chain head + 1
  std::vector<uint32_t> inext_;  ///< Per-build-row chain link.
  std::unordered_multimap<Value, size_t, ValueHash> table_;
  std::atomic<bool> generic_built_{false};
  std::mutex generic_mu_;
};

}  // namespace qopt::exec::internal

#endif  // QOPT_EXEC_HASH_JOIN_STATE_H_

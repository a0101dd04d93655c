#include "storage/index.h"

#include <algorithm>
#include <cmath>

namespace qopt {

SortedIndex::SortedIndex(const IndexDef* def, const Table* table)
    : def_(def) {
  entries_.reserve(table->num_rows());
  for (uint32_t i = 0; i < table->num_rows(); ++i) {
    Value key = table->Get(i, static_cast<size_t>(def->column));
    if (key.is_null()) continue;
    entries_.emplace_back(std::move(key), i);
  }
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.Compare(b.first) < 0;
                   });
}

std::vector<uint32_t> SortedIndex::Lookup(const Value& key) const {
  IndexBound b{key, true};
  return RangeScan(b, b);
}

std::vector<uint32_t> SortedIndex::RangeScan(
    const std::optional<IndexBound>& lo,
    const std::optional<IndexBound>& hi) const {
  auto key_less = [](const std::pair<Value, uint32_t>& e, const Value& v) {
    return e.first.Compare(v) < 0;
  };
  auto key_less_rev = [](const Value& v, const std::pair<Value, uint32_t>& e) {
    return v.Compare(e.first) < 0;
  };
  auto begin = entries_.begin();
  auto end = entries_.end();
  if (lo.has_value()) {
    begin = std::lower_bound(entries_.begin(), entries_.end(), lo->value,
                             key_less);
    if (!lo->inclusive) {
      while (begin != entries_.end() && begin->first.Compare(lo->value) == 0) {
        ++begin;
      }
    }
  }
  if (hi.has_value()) {
    end = std::upper_bound(entries_.begin(), entries_.end(), hi->value,
                           key_less_rev);
    if (!hi->inclusive) {
      while (end != entries_.begin() &&
             std::prev(end)->first.Compare(hi->value) == 0) {
        --end;
      }
    }
  }
  std::vector<uint32_t> out;
  for (auto it = begin; it < end; ++it) out.push_back(it->second);
  return out;
}

void SortedIndex::Insert(const Value& key, uint32_t rid) {
  if (key.is_null()) return;
  auto at = std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](const Value& v, const std::pair<Value, uint32_t>& e) {
        return v.Compare(e.first) < 0;
      });
  entries_.emplace(at, key, rid);
}

std::vector<uint32_t> SortedIndex::FullScan() const {
  std::vector<uint32_t> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.second);
  return out;
}

double SortedIndex::tree_height() const {
  constexpr double kFanout = 256.0;
  double n = std::max<double>(1.0, static_cast<double>(entries_.size()));
  return std::max(1.0, std::ceil(std::log(n) / std::log(kFanout)));
}

double SortedIndex::leaf_pages() const {
  constexpr double kEntriesPerLeaf = 256.0;
  return std::max(1.0, static_cast<double>(entries_.size()) / kEntriesPerLeaf);
}

}  // namespace qopt

#include "engine/governor.h"

#include <string>

namespace qopt {

Status SharedResourcePool::TryReserve(uint64_t rows, uint64_t bytes) {
  if (!enabled()) return Status::OK();
  uint64_t total_rows = rows_.fetch_add(rows, std::memory_order_relaxed) + rows;
  uint64_t total_bytes =
      bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  bool over_rows = max_rows_ > 0 && total_rows > max_rows_;
  bool over_bytes = max_bytes_ > 0 && total_bytes > max_bytes_;
  if (!over_rows && !over_bytes) return Status::OK();
  // Roll back so concurrent queries keep their headroom; the pool may
  // transiently read over budget between the add and the undo, but nothing
  // blocks on it and nothing is admitted against the transient value.
  Release(rows, bytes);
  sheds_.fetch_add(1, std::memory_order_relaxed);
  std::string which = over_rows ? "row" : "memory";
  return Status::Unavailable("shared " + which +
                             " budget saturated by concurrent queries")
      .WithRetryAfter(retry_after_ms_);
}

ResourceGovernor::ResourceGovernor(const GovernorOptions& options,
                                   SharedResourcePool* pool)
    : has_deadline_(options.deadline_ms >= 0),
      check_interval_(options.check_interval_rows > 0
                          ? options.check_interval_rows
                          : 1),
      max_rows_(options.max_rows),
      max_bytes_(options.max_memory_bytes),
      pool_(pool != nullptr && pool->enabled() ? pool : nullptr) {
  enabled_ = has_deadline_ || max_rows_ > 0 || max_bytes_ > 0 ||
             pool_ != nullptr;
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(options.deadline_ms);
  }
}

ResourceGovernor::~ResourceGovernor() {
  if (pool_ != nullptr) {
    pool_->Release(pool_rows_.load(std::memory_order_relaxed),
                   pool_bytes_.load(std::memory_order_relaxed));
  }
}

Status ResourceGovernor::CheckDeadline() const {
  if (!has_deadline_) return Status::OK();
  if (std::chrono::steady_clock::now() < deadline_) return Status::OK();
  return Status::Cancelled("query deadline exceeded");
}

Status ResourceGovernor::ChargeMaterialized(uint64_t rows, uint64_t bytes) {
  if (!enabled_) return Status::OK();
  uint64_t total_rows =
      rows_charged_.fetch_add(rows, std::memory_order_relaxed) + rows;
  uint64_t total_bytes =
      bytes_charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  bool over_rows = max_rows_ > 0 && total_rows > max_rows_;
  bool over_bytes = max_bytes_ > 0 && total_bytes > max_bytes_;
  if (!over_rows && !over_bytes) {
    // A pool trip is sticky: keep failing so every worker of the query
    // unwinds, not just the one the pool refused. A budget trip needs no
    // check here: totals only grow, so every charge counted after the one
    // that crossed the budget is over it too, while a charge counted before
    // it is within budget even if its thread sees the trip flag first.
    if (pool_tripped_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("shared resource budget saturated");
    }
    if (pool_ != nullptr) {
      Status pooled = pool_->TryReserve(rows, bytes);
      if (!pooled.ok()) {
        // The server, not this query, is out of headroom: trip sticky so
        // the query sheds exactly once, and surface the retry-able error.
        pool_tripped_.store(true, std::memory_order_relaxed);
        bool expected = false;
        if (tripped_.compare_exchange_strong(expected, true,
                                             std::memory_order_relaxed)) {
          trip_count_.fetch_add(1, std::memory_order_relaxed);
        }
        return pooled;
      }
      pool_rows_.fetch_add(rows, std::memory_order_relaxed);
      pool_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
    return Status::OK();
  }
  bool expected = false;
  if (tripped_.compare_exchange_strong(expected, true,
                                       std::memory_order_relaxed)) {
    trip_count_.fetch_add(1, std::memory_order_relaxed);
  }
  if (over_rows) {
    return Status::ResourceExhausted(
        "row budget exceeded: " + std::to_string(total_rows) +
        " rows materialized (budget " + std::to_string(max_rows_) + ")");
  }
  return Status::ResourceExhausted(
      "memory budget exceeded: " + std::to_string(total_bytes) +
      " bytes materialized (budget " + std::to_string(max_bytes_) + ")");
}

}  // namespace qopt

// Shared declarations of the repository benchmark (see README.md): the
// workloads, their statement streams and the order-insensitive result
// digest every statement is checked with.
#ifndef QOPT_PERFBENCH_BENCH_H_
#define QOPT_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"

namespace qopt::perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One read statement of a workload. The stream replays pool entries many
/// times; every execution's result is checked against the entry's oracle.
struct PoolQuery {
  std::string sql;
  QueryOptions options;
};

/// What the stream asks for at one position.
struct StreamItem {
  enum class Kind { kQuery, kInsert, kAnalyze };
  Kind kind = Kind::kQuery;
  size_t query = 0;  ///< Pool index (kQuery).
  std::string sql;   ///< INSERT text (kInsert) or table name (kAnalyze).
};

/// A built workload: its database, its read pool and how its stream is
/// driven. Every statement goes through a Session.
struct Workload {
  std::string name;
  std::unique_ptr<Database> db;
  std::vector<PoolQuery> pool;
  /// Seeded read order: stream position i reads pool[order[i % size]].
  std::vector<uint32_t> order;
  int clients = 1;
  /// Open-loop total rate in statements per second; 0 runs a closed loop.
  double rate_per_s = 0;
  /// Every insert_every-th stream position is an INSERT into fact and every
  /// analyze_every-th an ANALYZE of fact (0: never).
  uint64_t insert_every = 0;
  uint64_t analyze_every = 0;
  /// Rows of fact as loaded; INSERT ids start here.
  int64_t fact_rows = 0;

  StreamItem At(uint64_t position) const;
};

/// Creates, loads and analyzes `name`'s database from `seed`, configures
/// serving and generates the statement pool and stream. Spill files of
/// every statement go to `spill_dir`.
Result<Workload> BuildWorkload(const std::string& name, uint64_t seed,
                               const std::string& spill_dir);

/// Order-insensitive result digest: the row count and the wrapping sum of
/// per-row hashes.
struct ResultDigest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  bool operator==(const ResultDigest&) const = default;
};

ResultDigest Digest(const std::vector<Row>& rows);

}  // namespace qopt::perfbench

#endif  // QOPT_PERFBENCH_BENCH_H_

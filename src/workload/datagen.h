// Synthetic data generation: uniform and Zipfian column distributions,
// key/foreign-key relationships. Replaces the customer workloads of the
// 1990s systems the paper surveys (the skew regimes match what the cited
// histogram papers [52]/[34] analyze).
#ifndef QOPT_WORKLOAD_DATAGEN_H_
#define QOPT_WORKLOAD_DATAGEN_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "engine/database.h"

namespace qopt::workload {

/// Zipfian generator over [0, n): P(k) ∝ 1/(k+1)^theta (theta = 0 is
/// uniform). Uses the standard rejection-inversion-free CDF table for
/// moderate n.
class ZipfGen {
 public:
  ZipfGen(int64_t n, double theta, uint64_t seed);
  int64_t Next();

 private:
  std::mt19937_64 rng_;
  std::vector<double> cdf_;
};

/// Column recipe for GenerateTable.
struct ColumnSpec {
  enum class Kind {
    kSequential,  ///< 0,1,2,... (primary keys).
    kUniform,     ///< Uniform over [0, ndv).
    kZipf,        ///< Zipf(theta) over [0, ndv).
    kUniformReal, ///< Uniform double over [lo, hi).
    kString,      ///< "v<uniform 0..ndv>".
    kCorrelated,  ///< `source` column's value mod ndv (see below).
  };
  std::string name;
  Kind kind = Kind::kUniform;
  int64_t ndv = 100;
  double theta = 1.0;  ///< kZipf skew.
  double lo = 0, hi = 1;
  double null_fraction = 0;
  /// kCorrelated: index of an earlier integer column in the same spec list;
  /// this column's value is that column's value mod `ndv` (NULL propagates).
  /// A deterministic functional dependency — exactly the correlation the
  /// optimizer's independence assumption misses (paper §5.2).
  int source = -1;
};

/// Generates rows according to `specs` (which must outlive it), a chunk at
/// a time: the rows of successive Next calls are those one GenerateRows
/// call would return (deterministic under seed).
class RowGenerator {
 public:
  RowGenerator(const std::vector<ColumnSpec>& specs, uint64_t seed);

  /// The next `rows` rows.
  std::vector<Row> Next(int64_t rows);

 private:
  const std::vector<ColumnSpec>* specs_;
  std::mt19937_64 rng_;
  std::vector<ZipfGen> zipfs_;
  int64_t next_row_ = 0;  ///< Sequence number of the next row.
};

/// Generates `rows` rows according to `specs` (deterministic under seed).
std::vector<Row> GenerateRows(const std::vector<ColumnSpec>& specs,
                              int64_t rows, uint64_t seed);

/// Creates a table from the specs (sequential columns become INT, strings
/// STRING, reals DOUBLE; `primary_key` names a column or empty), loads
/// generated rows a chunk at a time, so they never all exist at once
/// beside the table's columns, and analyzes it. A non-trivial `partition`
/// spec creates a range/hash-partitioned table (rows are clustered
/// partition-major on load; see storage/table.h).
Status CreateAndLoadTable(Database* db, const std::string& name,
                          const std::vector<ColumnSpec>& specs, int64_t rows,
                          uint64_t seed, const std::string& primary_key = "",
                          const stats::StatsOptions& stats_options = {},
                          PartitionSpec partition = {});

}  // namespace qopt::workload

#endif  // QOPT_WORKLOAD_DATAGEN_H_

#include "workload/datagen.h"

#include <algorithm>
#include <cmath>

namespace qopt::workload {

ZipfGen::ZipfGen(int64_t n, double theta, uint64_t seed) : rng_(seed) {
  cdf_.reserve(n);
  double sum = 0;
  for (int64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_.push_back(sum);
  }
  for (double& v : cdf_) v /= sum;
}

int64_t ZipfGen::Next() {
  double u = std::uniform_real_distribution<double>(0, 1)(rng_);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int64_t>(it - cdf_.begin());
}

RowGenerator::RowGenerator(const std::vector<ColumnSpec>& specs,
                           uint64_t seed)
    : specs_(&specs), rng_(seed) {
  for (size_t c = 0; c < specs.size(); ++c) {
    if (specs[c].kind == ColumnSpec::Kind::kZipf) {
      zipfs_.emplace_back(specs[c].ndv, specs[c].theta, seed * 31 + c);
    } else {
      zipfs_.emplace_back(1, 0.0, 0);
    }
  }
}

std::vector<Row> RowGenerator::Next(int64_t rows) {
  const std::vector<ColumnSpec>& specs = *specs_;
  std::vector<Row> out;
  out.reserve(rows);
  std::uniform_real_distribution<double> unit(0, 1);
  for (int64_t end = next_row_ + rows; next_row_ < end; ++next_row_) {
    const int64_t r = next_row_;
    Row row;
    row.reserve(specs.size());
    for (size_t c = 0; c < specs.size(); ++c) {
      const ColumnSpec& s = specs[c];
      if (s.null_fraction > 0 && unit(rng_) < s.null_fraction) {
        row.push_back(Value::Null());
        continue;
      }
      switch (s.kind) {
        case ColumnSpec::Kind::kSequential:
          row.push_back(Value::Int(r));
          break;
        case ColumnSpec::Kind::kUniform:
          row.push_back(Value::Int(std::uniform_int_distribution<int64_t>(
              0, s.ndv - 1)(rng_)));
          break;
        case ColumnSpec::Kind::kZipf:
          row.push_back(Value::Int(zipfs_[c].Next()));
          break;
        case ColumnSpec::Kind::kUniformReal:
          row.push_back(Value::Double(
              std::uniform_real_distribution<double>(s.lo, s.hi)(rng_)));
          break;
        case ColumnSpec::Kind::kString:
          row.push_back(Value::String(
              "v" + std::to_string(std::uniform_int_distribution<int64_t>(
                        0, s.ndv - 1)(rng_))));
          break;
        case ColumnSpec::Kind::kCorrelated: {
          const Value& src = row.at(static_cast<size_t>(s.source));
          row.push_back(src.is_null() ? Value::Null()
                                      : Value::Int(src.AsInt() % s.ndv));
          break;
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Row> GenerateRows(const std::vector<ColumnSpec>& specs,
                              int64_t rows, uint64_t seed) {
  return RowGenerator(specs, seed).Next(rows);
}

Status CreateAndLoadTable(Database* db, const std::string& name,
                          const std::vector<ColumnSpec>& specs, int64_t rows,
                          uint64_t seed, const std::string& primary_key,
                          const stats::StatsOptions& stats_options,
                          PartitionSpec partition) {
  std::vector<ColumnDef> cols;
  int pk = -1;
  for (size_t i = 0; i < specs.size(); ++i) {
    TypeId type = TypeId::kInt64;
    if (specs[i].kind == ColumnSpec::Kind::kUniformReal) {
      type = TypeId::kDouble;
    }
    if (specs[i].kind == ColumnSpec::Kind::kString) type = TypeId::kString;
    cols.push_back({specs[i].name, type});
    if (specs[i].name == primary_key) pk = static_cast<int>(i);
  }
  QOPT_ASSIGN_OR_RETURN(
      int table_id,
      partition.enabled()
          ? db->CreateTable(name, cols, pk, std::move(partition))
          : db->CreateTable(name, cols, pk));
  (void)table_id;
  constexpr int64_t kLoadChunkRows = 32768;
  RowGenerator gen(specs, seed);
  for (int64_t left = rows; left > 0; left -= kLoadChunkRows) {
    QOPT_RETURN_IF_ERROR(
        db->BulkLoad(name, gen.Next(std::min(left, kLoadChunkRows))));
  }
  return db->Analyze(name, stats_options);
}

}  // namespace qopt::workload

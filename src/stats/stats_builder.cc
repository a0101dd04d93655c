#include "stats/stats_builder.h"

#include <algorithm>
#include <random>
#include <unordered_set>

namespace qopt::stats {

namespace {

// Computes min/max/low2/high2 and exact ndv over possibly-sampled values.
void FillBasic(const std::vector<Value>& values, ColumnStats* out) {
  std::vector<Value> sorted = values;
  std::sort(sorted.begin(), sorted.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  if (sorted.empty()) return;
  out->min = sorted.front();
  out->max = sorted.back();
  double ndv = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1]) ndv += 1;
  }
  out->num_distinct = ndv;
  // Second-lowest / second-highest distinct values.
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted.front()) {
      out->low2 = sorted[i];
      break;
    }
  }
  for (size_t i = sorted.size(); i-- > 1;) {
    if (sorted[i - 1] != sorted.back()) {
      out->high2 = sorted[i - 1];
      break;
    }
  }
  if (out->low2.is_null()) out->low2 = out->min;
  if (out->high2.is_null()) out->high2 = out->max;
}

}  // namespace

ColumnStats BuildColumnStats(const std::vector<Value>& values,
                             const StatsOptions& options) {
  ColumnStats cs;
  size_t total = values.size();
  if (total == 0) return cs;

  // Optionally sample.
  std::vector<Value> sample;
  const std::vector<Value>* working = &values;
  if (options.sample_fraction < 1.0) {
    std::mt19937_64 rng(options.seed);
    std::bernoulli_distribution keep(options.sample_fraction);
    for (const Value& v : values) {
      if (keep(rng)) sample.push_back(v);
    }
    if (sample.empty()) sample.push_back(values[0]);
    working = &sample;
  }

  size_t nulls = 0;
  std::vector<Value> non_null;
  std::vector<double> numeric;
  bool is_numeric = true;
  for (const Value& v : *working) {
    if (v.is_null()) {
      ++nulls;
      continue;
    }
    non_null.push_back(v);
    if (IsNumeric(v.type())) {
      numeric.push_back(v.AsNumeric());
    } else {
      is_numeric = false;
    }
  }
  cs.null_fraction =
      static_cast<double>(nulls) / static_cast<double>(working->size());
  FillBasic(non_null, &cs);

  double scale =
      static_cast<double>(total) / static_cast<double>(working->size());
  if (is_numeric && !numeric.empty()) {
    auto hist = Histogram::Build(options.histogram_kind, numeric,
                                 options.histogram_buckets);
    if (hist && scale != 1.0) hist->Scale(scale);
    cs.histogram = std::move(hist);
  }

  if (options.sample_fraction < 1.0 && !numeric.empty()) {
    SampleProfile p = ProfileSample(numeric, static_cast<uint64_t>(
                                                 total * (1 - cs.null_fraction)));
    switch (options.distinct_method) {
      case DistinctMethod::kScale:
        cs.num_distinct = EstimateDistinctScale(p);
        break;
      case DistinctMethod::kGEE:
        cs.num_distinct = EstimateDistinctGEE(p);
        break;
      case DistinctMethod::kChao:
        cs.num_distinct = EstimateDistinctChao(p);
        break;
      case DistinctMethod::kShlosser:
        cs.num_distinct = EstimateDistinctShlosser(p);
        break;
    }
  } else if (options.sample_fraction < 1.0) {
    // Non-numeric sampled column: naive scale-up.
    cs.num_distinct = std::min(static_cast<double>(total),
                               cs.num_distinct * scale);
  }
  cs.num_distinct = std::max(1.0, cs.num_distinct);
  return cs;
}

std::shared_ptr<const TableStats> BuildTableStats(const Table& table,
                                                  const StatsOptions& options) {
  auto ts = std::make_shared<TableStats>();
  ts->row_count = static_cast<double>(table.num_rows());
  ts->num_pages = table.num_pages();
  size_t num_cols = table.def().columns.size();
  ts->columns.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    std::vector<Value> values;
    values.reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      values.push_back(table.Get(r, c));
    }
    ts->columns[c] = BuildColumnStats(values, options);
  }

  // Per-partition row/page counts. Rows are clustered partition-major, so
  // a partition's modeled page count is its byte share of the table.
  if (table.num_partitions() > 1 && table.num_rows() > 0) {
    int nparts = table.num_partitions();
    ts->partition_rows.resize(static_cast<size_t>(nparts), 0);
    ts->partition_pages.resize(static_cast<size_t>(nparts), 0);
    for (int p = 0; p < nparts; ++p) {
      auto [begin, end] = table.PartitionRange(p);
      double rows = static_cast<double>(end - begin);
      ts->partition_rows[static_cast<size_t>(p)] = rows;
      ts->partition_pages[static_cast<size_t>(p)] =
          ts->num_pages * rows / ts->row_count;
    }
  }

  // Joint (2-D) histograms for declared numeric column pairs.
  for (const auto& [name_a, name_b] : options.joint_columns) {
    int a = table.def().FindColumn(name_a);
    int b = table.def().FindColumn(name_b);
    if (a < 0 || b < 0 || a == b) continue;
    int lo = std::min(a, b), hi = std::max(a, b);
    std::vector<std::pair<double, double>> pairs;
    pairs.reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value a = table.Get(r, static_cast<size_t>(lo));
      const Value b = table.Get(r, static_cast<size_t>(hi));
      if (a.is_null() || b.is_null()) continue;
      if (!IsNumeric(a.type()) || !IsNumeric(b.type())) break;
      pairs.emplace_back(a.AsNumeric(), b.AsNumeric());
    }
    if (auto h = Histogram2D::Build(std::move(pairs),
                                    options.histogram_buckets)) {
      ts->joint[{lo, hi}] = std::move(h);
    }
  }
  return ts;
}

}  // namespace qopt::stats

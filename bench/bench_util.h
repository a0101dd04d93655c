// Shared helpers for the experiment benches: aligned table printing
// (paper-style result tables), wall-clock timing and a probe of the
// parallelism the host actually grants.
#ifndef QOPT_BENCH_BENCH_UTIL_H_
#define QOPT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/thread_pool.h"

namespace qopt::bench {

/// Prints an aligned text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths;
    for (const std::string& h : headers_) widths.push_back(h.size());
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%s%-*s", i ? "  " : "  ", static_cast<int>(widths[i]),
                    row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = 0;
    for (size_t w : widths) total += w + 2;
    std::printf("  %s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Wall-clock stopwatch in milliseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Host parallelism probe: runs ThreadPool::ParallelFor with `dop` tasks
/// of about 2 ms of spinning (thread CPU time) on a pool sized as Database
/// sizes its own (dop - 1 threads plus the caller), and returns the median
/// over `reps` calls of (dop x task time) / call wall time. It reads about
/// dop when the host runs the tasks side by side and about 1 when it
/// serializes them, so a parallel wall-clock cell recorded next to it
/// tells a host-serialized window from an engine regression.
inline double HostParallelX(size_t dop, int reps = 9) {
  constexpr double kTaskMs = 2.0;
  ThreadPool pool(1);
  pool.EnsureThreads(dop - 1);
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> task_ms(dop, 0.0);
    Stopwatch call;
    pool.ParallelFor(dop, [&](size_t t) {
      Stopwatch wall;  // bounds the spin where no thread CPU clock exists
      const double c0 = ThreadCpuMs();
      double spent = 0;
      while (spent < kTaskMs && wall.ElapsedMs() < 10 * kTaskMs) {
        spent = ThreadCpuMs() - c0;
      }
      task_ms[t] = spent;
    });
    const double call_ms = call.ElapsedMs();
    double work_ms = 0;
    for (double ms : task_ms) work_ms += ms;
    ratios.push_back(work_ms / call_ms);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  return ratios[ratios.size() / 2];
}

inline std::string Fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

inline void Banner(const char* id, const char* title, const char* claim) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s: %s\n", id, title);
  std::printf("Paper claim: %s\n", claim);
  std::printf("==============================================================="
              "=\n");
}

}  // namespace qopt::bench

#endif  // QOPT_BENCH_BENCH_UTIL_H_

// Shared database fixtures for optimizer / engine / integration tests:
// the paper's Emp/Dept schema plus generated join tables.
#ifndef QOPT_TESTS_TESTING_DB_FIXTURES_H_
#define QOPT_TESTS_TESTING_DB_FIXTURES_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <string>

#include "engine/database.h"
#include "workload/datagen.h"
#include "workload/query_gen.h"

namespace qopt::testing {

/// Order-insensitive multiset comparison of result rows.
inline void ExpectSameRows(std::vector<Row> got, std::vector<Row> want,
                           const std::string& label = "") {
  auto sorter = [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  };
  std::sort(got.begin(), got.end(), sorter);
  std::sort(want.begin(), want.end(), sorter);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(RowEq()(got[i], want[i]))
        << label << " row " << i << ": got " << RowToString(got[i])
        << ", want " << RowToString(want[i]);
  }
}

/// A private spill directory for tests that count spill files: created
/// with mkdtemp, so spill files of concurrently running test processes in
/// the shared temp directory cannot race the count. Removed, with anything
/// left in it, on destruction.
class ScopedSpillDir {
 public:
  ScopedSpillDir() {
    std::error_code ec;
    std::string tmpl =
        (std::filesystem::temp_directory_path(ec) / "qopt_test_spill_XXXXXX")
            .string();
    if (!ec && ::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScopedSpillDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScopedSpillDir(const ScopedSpillDir&) = delete;
  ScopedSpillDir& operator=(const ScopedSpillDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Files currently in the directory.
  size_t CountFiles() const {
    return static_cast<size_t>(
        std::distance(std::filesystem::directory_iterator(path_),
                      std::filesystem::directory_iterator()));
  }

 private:
  std::string path_;
};

/// Loads the paper's Emp/Dept schema (Sections 4.2.2 / 4.3) with enough
/// data to make optimization interesting, plus indexes and statistics.
inline void LoadEmpDept(Database* db, int num_emps = 2000,
                        int num_depts = 50) {
  ASSERT_TRUE(db->Execute("CREATE TABLE Dept (did INT PRIMARY KEY, "
                          "name STRING, loc STRING, budget DOUBLE, "
                          "num_of_machines INT, mgr INT)")
                  .ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE Emp (eid INT PRIMARY KEY, did INT, "
                          "sal DOUBLE, age INT, dept_name STRING)")
                  .ok());
  ASSERT_TRUE(db->CreateIndex("idx_dept_did", "Dept", "did", true, true).ok());
  ASSERT_TRUE(db->CreateIndex("idx_emp_did", "Emp", "did").ok());
  ASSERT_TRUE(db->AddForeignKey("Emp", "did", "Dept", "did").ok());

  std::mt19937_64 rng(1234);
  std::vector<Row> depts;
  const char* locs[] = {"Denver", "Seattle", "Austin"};
  for (int d = 0; d < num_depts; ++d) {
    depts.push_back({Value::Int(d), Value::String("dept" + std::to_string(d)),
                     Value::String(locs[d % 3]),
                     Value::Double(50000 + (d % 7) * 30000),
                     Value::Int(static_cast<int64_t>(rng() % 40)),
                     Value::Int(static_cast<int64_t>(rng() % num_emps))});
  }
  ASSERT_TRUE(db->BulkLoad("Dept", std::move(depts)).ok());

  std::vector<Row> emps;
  for (int e = 0; e < num_emps; ++e) {
    int d = static_cast<int>(rng() % num_depts);
    emps.push_back({Value::Int(e), Value::Int(d),
                    Value::Double(30000 + static_cast<double>(rng() % 90000)),
                    Value::Int(20 + static_cast<int64_t>(rng() % 40)),
                    Value::String("dept" + std::to_string(d))});
  }
  ASSERT_TRUE(db->BulkLoad("Emp", std::move(emps)).ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
}

/// Creates the t0..t(n-1) join tables of workload::CreateJoinTables.
inline void LoadJoinTables(Database* db, int n, int64_t rows = 1000,
                           int64_t ndv = 100, uint64_t seed = 7) {
  ASSERT_TRUE(workload::CreateJoinTables(db, n, rows, ndv, seed).ok());
}

}  // namespace qopt::testing

#endif  // QOPT_TESTS_TESTING_DB_FIXTURES_H_

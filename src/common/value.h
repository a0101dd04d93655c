// Value: a typed scalar datum (the executor's cell type).
#ifndef QOPT_COMMON_VALUE_H_
#define QOPT_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace qopt {

/// A single SQL scalar: NULL, BOOL, INT, DOUBLE or STRING.
///
/// Comparisons across the numeric types (INT vs DOUBLE) coerce to double.
/// NULL ordering follows the internal total order used by sort operators:
/// NULL sorts before every non-NULL value. Three-valued comparison semantics
/// for predicates are implemented in the expression evaluator, not here.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(TypeId::kBool, v); }
  static Value Int(int64_t v) { return Value(TypeId::kInt64, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value String(std::string v) {
    return Value(TypeId::kString, std::move(v));
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool AsBool() const {
    QOPT_DCHECK(type_ == TypeId::kBool);
    return std::get<bool>(data_);
  }
  int64_t AsInt() const {
    QOPT_DCHECK(type_ == TypeId::kInt64);
    return std::get<int64_t>(data_);
  }
  double AsDouble() const {
    QOPT_DCHECK(type_ == TypeId::kDouble);
    return std::get<double>(data_);
  }
  const std::string& AsString() const {
    QOPT_DCHECK(type_ == TypeId::kString);
    return std::get<std::string>(data_);
  }

  /// Numeric value widened to double; valid for INT and DOUBLE.
  double AsNumeric() const {
    return type_ == TypeId::kInt64 ? static_cast<double>(AsInt()) : AsDouble();
  }

  /// Total-order comparison: returns <0, 0, >0. NULL < everything;
  /// values of incomparable types order by TypeId (stable, arbitrary).
  int Compare(const Value& other) const;

  /// SQL equality used by hash tables and DISTINCT: NULL equals NULL here
  /// (group-by semantics); predicate NULL handling lives in the evaluator.
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (numeric 3 and 3.0 hash equal).
  size_t Hash() const;

  /// SQL-literal-ish rendering ("NULL", "42", "3.5", "'abc'").
  std::string ToString() const;

 private:
  template <typename T>
  Value(TypeId type, T v) : type_(type), data_(std::move(v)) {}

  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// Widens an INT `*v` to DOUBLE when `type`, the static type of the slot it
/// fills (a CASE result, a UNION column), is DOUBLE: a DOUBLE-typed cell
/// is always a DOUBLE or NULL.
inline void WidenToType(TypeId type, Value* v) {
  if (type == TypeId::kDouble && v->type() == TypeId::kInt64) {
    *v = Value::Double(static_cast<double>(v->AsInt()));
  }
}

/// A tuple of values; the unit of data flow between executors.
using Row = std::vector<Value>;

/// Hash functor for Row (for hash joins / hash aggregation).
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : row) h = h * 1315423911ULL + v.Hash();
    return h;
  }
};

/// Equality functor for Row, consistent with RowHash.
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i)
      if (a[i] != b[i]) return false;
    return true;
  }
};

/// Renders a row as "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace qopt

#endif  // QOPT_COMMON_VALUE_H_

// Scalar type system shared by the catalog, expressions and the executor.
#ifndef QOPT_COMMON_TYPES_H_
#define QOPT_COMMON_TYPES_H_

#include <cstdint>

namespace qopt {

/// Runtime type of a Value / declared type of a column.
enum class TypeId : uint8_t {
  kNull = 0,  ///< The type of the SQL NULL literal before coercion.
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Returns "INT", "DOUBLE", "STRING", "BOOL" or "NULL".
const char* TypeName(TypeId type);

/// True if values of `a` and `b` can be compared / combined arithmetically
/// (identical types, or the int/double numeric pair, or either is NULL).
bool TypesComparable(TypeId a, TypeId b);

/// True for kInt64 / kDouble.
inline bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble;
}

inline const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return "BOOL";
    case TypeId::kInt64:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "STRING";
  }
  return "?";
}

inline bool TypesComparable(TypeId a, TypeId b) {
  if (a == TypeId::kNull || b == TypeId::kNull) return true;
  if (a == b) return true;
  return IsNumeric(a) && IsNumeric(b);
}

/// Sets `*out` to the type of a slot that takes values of `a` and of `b`
/// (a CASE result, a UNION column): the non-NULL one of the two, DOUBLE
/// for an INT/DOUBLE pair. False when the two are not TypesComparable.
inline bool CommonType(TypeId a, TypeId b, TypeId* out) {
  if (!TypesComparable(a, b)) return false;
  const bool same = a == TypeId::kNull || b == TypeId::kNull || a == b;
  *out = same ? (a == TypeId::kNull ? b : a) : TypeId::kDouble;
  return true;
}

}  // namespace qopt

#endif  // QOPT_COMMON_TYPES_H_

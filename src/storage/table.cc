#include "storage/table.h"

#include <algorithm>
#include <cmath>

namespace qopt {

namespace {

/// `c <op> 0` for a three-way comparison result `c`.
bool KeepByOp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

/// Converts `*v`, a cell of the other numeric type than `declared`, to
/// `declared`: an INT widens to DOUBLE; a DOUBLE narrows to INT only when
/// it is integral and within int64 range. Returns false, leaving `*v` as
/// it was, when the cell cannot take that type.
bool CoerceNumeric(TypeId declared, Value* v) {
  if (declared == TypeId::kDouble) {
    WidenToType(declared, v);
    return true;
  }
  // Every integral double in [-2^63, 2^63) is an int64; NaN is not integral.
  const double d = v->AsDouble();
  if (std::trunc(d) != d || d < -0x1p63 || d >= 0x1p63) return false;
  *v = Value::Int(static_cast<int64_t>(d));
  return true;
}

/// Keeps rid r of rids[0, n) iff `keep(data[r])` and, when `nulls` is set,
/// nulls[r] == 0. Branch-free: every rid is written, the count advances
/// only for kept ones.
template <typename T, typename Keep>
size_t SelectLoop(const T* data, const uint8_t* nulls, Keep keep,
                  uint32_t* rids, size_t n) {
  size_t m = 0;
  if (nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = rids[i];
      rids[m] = r;
      m += keep(data[r]) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = rids[i];
      rids[m] = r;
      m += (nulls[r] == 0) & keep(data[r]) ? 1 : 0;
    }
  }
  return m;
}

/// One loop per operator over a typed array compared with `k`. The
/// three-way result is c = a < k ? -1 : (a > k ? 1 : 0), so `c <op> 0` is
/// written with `<` and `>` only: an unordered (NaN) pair has c == 0.
template <typename T, typename K>
size_t SelectByOp(CmpOp op, const T* data, const uint8_t* nulls, K k,
                  uint32_t* rids, size_t n) {
  switch (op) {
    case CmpOp::kEq:
      return SelectLoop(
          data, nulls, [k](T a) { return !(a < k) && !(a > k); }, rids, n);
    case CmpOp::kNe:
      return SelectLoop(
          data, nulls, [k](T a) { return a < k || a > k; }, rids, n);
    case CmpOp::kLt:
      return SelectLoop(data, nulls, [k](T a) { return a < k; }, rids, n);
    case CmpOp::kLe:
      return SelectLoop(data, nulls, [k](T a) { return !(a > k); }, rids, n);
    case CmpOp::kGt:
      return SelectLoop(data, nulls, [k](T a) { return a > k; }, rids, n);
    case CmpOp::kGe:
      return SelectLoop(data, nulls, [k](T a) { return !(a < k); }, rids, n);
  }
  return 0;
}

}  // namespace

ColumnPredicate::ColumnPredicate(size_t column, TypeId declared, CmpOp op,
                                 Value constant)
    : column(column), op(op), constant(std::move(constant)) {
  const Value& k = this->constant;
  QOPT_DCHECK(!k.is_null());
  QOPT_DCHECK(!IsNumeric(declared) || IsNumeric(k.type()));
  if (declared == TypeId::kInt64 && k.type() == TypeId::kInt64) {
    kind = Kind::kIntInt;
    iconst = k.AsInt();
    dconst = static_cast<double>(iconst);
  } else if (IsNumeric(declared)) {
    kind = Kind::kNumeric;
    dconst = k.AsNumeric();
  }
}

// ---- Column ----

size_t Table::Column::size() const {
  switch (type) {
    case TypeId::kInt64: return ints.size();
    case TypeId::kDouble: return doubles.size();
    default: return values.size();
  }
}

Value Table::Column::Get(size_t i) const {
  switch (type) {
    case TypeId::kInt64: return IsNull(i) ? Value() : Value::Int(ints[i]);
    case TypeId::kDouble: return IsNull(i) ? Value() : Value::Double(doubles[i]);
    default: return values[i];
  }
}

void Table::Column::Reserve(size_t n) {
  switch (type) {
    case TypeId::kInt64: ints.reserve(n); break;
    case TypeId::kDouble: doubles.reserve(n); break;
    default: values.reserve(n); break;
  }
  if (!nulls.empty()) nulls.reserve(n);
}

void Table::Column::Insert(size_t i, Value&& v) {
  if (!IsNumeric(type)) {
    values.insert(values.begin() + static_cast<ptrdiff_t>(i), std::move(v));
    return;
  }
  const bool null = v.is_null();
  if (!null && v.type() != type) {
    // Only AppendUnchecked gets here uncoerced; its rows must be ones
    // Append accepts.
    const bool coerced = IsNumeric(v.type()) && CoerceNumeric(type, &v);
    QOPT_DCHECK(coerced);
  }
  if (null || !nulls.empty()) {
    nulls.resize(size(), 0);  // the first NULL creates the flags
    nulls.insert(nulls.begin() + static_cast<ptrdiff_t>(i), null ? 1 : 0);
  }
  if (type == TypeId::kInt64) {
    ints.insert(ints.begin() + static_cast<ptrdiff_t>(i),
                null ? 0 : v.AsInt());
  } else {
    doubles.insert(doubles.begin() + static_cast<ptrdiff_t>(i),
                   null ? 0.0 : v.AsDouble());
  }
}

void Table::Column::AppendRange(Column& src, size_t begin, size_t end) {
  QOPT_DCHECK(type == src.type);
  if (!IsNumeric(type)) {
    for (size_t i = begin; i < end; ++i) {
      values.push_back(std::move(src.values[i]));
    }
    return;
  }
  if (!src.nulls.empty() || !nulls.empty()) {
    nulls.resize(size(), 0);
    if (src.nulls.empty()) {
      nulls.insert(nulls.end(), end - begin, 0);
    } else {
      nulls.insert(nulls.end(),
                   src.nulls.begin() + static_cast<ptrdiff_t>(begin),
                   src.nulls.begin() + static_cast<ptrdiff_t>(end));
    }
  }
  if (type == TypeId::kInt64) {
    ints.insert(ints.end(), src.ints.begin() + static_cast<ptrdiff_t>(begin),
                src.ints.begin() + static_cast<ptrdiff_t>(end));
  } else {
    doubles.insert(doubles.end(),
                   src.doubles.begin() + static_cast<ptrdiff_t>(begin),
                   src.doubles.begin() + static_cast<ptrdiff_t>(end));
  }
}

// ---- Table ----

Table::Table(const TableDef* def) : def_(def) {
  columns_.reserve(def_->columns.size());
  for (const ColumnDef& c : def_->columns) columns_.emplace_back(c.type);
  if (def_->partition.enabled()) {
    part_ends_.assign(static_cast<size_t>(def_->partition.count()), 0);
  }
}

Status Table::Append(Row row) {
  if (row.size() != def_->columns.size()) {
    return Status::InvalidArgument("row arity mismatch for table '" +
                                   def_->name + "'");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    Value& v = row[i];
    if (v.is_null()) {
      if (static_cast<int>(i) == def_->primary_key) {
        return Status::InvalidArgument("NULL primary key in '" + def_->name +
                                       "'");
      }
      continue;
    }
    const TypeId declared = def_->columns[i].type;
    if (v.type() == declared) continue;
    if (!IsNumeric(v.type()) || !IsNumeric(declared)) {
      return Status::InvalidArgument(
          "type mismatch in column '" + def_->columns[i].name + "': expected " +
          TypeName(declared) + ", got " + TypeName(v.type()));
    }
    if (!CoerceNumeric(declared, &v)) {
      return Status::InvalidArgument(
          "value " + v.ToString() + " does not fit " + TypeName(declared) +
          " column '" + def_->columns[i].name + "'");
    }
  }
  total_bytes_ += RowBytes(row);
  size_t at = num_rows_;
  if (!part_ends_.empty()) {
    const PartitionSpec& spec = def_->partition;
    int p = spec.PartitionOf(row[static_cast<size_t>(spec.column)]);
    at = part_ends_[static_cast<size_t>(p)];
    for (size_t i = static_cast<size_t>(p); i < part_ends_.size(); ++i) {
      ++part_ends_[i];
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Insert(at, std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

void Table::AppendUnchecked(std::vector<Row> new_rows) {
  for (const Row& r : new_rows) total_bytes_ += RowBytes(r);
  const size_t total = num_rows_ + new_rows.size();
  // Moves row `r`'s cells onto the ends of `cols`, then frees the row.
  auto push_row = [](std::vector<Column>* cols, Row* r) {
    QOPT_DCHECK(r->size() == cols->size());
    for (size_t c = 0; c < cols->size(); ++c) {
      (*cols)[c].Push(std::move((*r)[c]));
    }
    Row().swap(*r);
  };
  if (part_ends_.empty()) {
    for (Column& col : columns_) col.Reserve(total);
    for (Row& r : new_rows) push_row(&columns_, &r);
    num_rows_ = total;
    return;
  }
  // Classify the new rows, then rebuild the partition-major clustering by
  // concatenating (old segment p, new rows of p) for each partition.
  const PartitionSpec& spec = def_->partition;
  std::vector<std::vector<Row*>> incoming(part_ends_.size());
  for (Row& r : new_rows) {
    int p = spec.PartitionOf(r[static_cast<size_t>(spec.column)]);
    incoming[static_cast<size_t>(p)].push_back(&r);
  }
  std::vector<Column> rebuilt;
  rebuilt.reserve(columns_.size());
  for (const Column& col : columns_) {
    rebuilt.emplace_back(col.type);
    rebuilt.back().Reserve(total);
  }
  size_t begin = 0;
  size_t end = 0;
  for (size_t p = 0; p < part_ends_.size(); ++p) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      rebuilt[c].AppendRange(columns_[c], begin, part_ends_[p]);
    }
    end += part_ends_[p] - begin;
    begin = part_ends_[p];
    for (Row* r : incoming[p]) push_row(&rebuilt, r);
    end += incoming[p].size();
    part_ends_[p] = end;
  }
  columns_ = std::move(rebuilt);
  num_rows_ = total;
}

Value Table::Get(size_t rid, size_t col) const {
  return columns_[col].Get(rid);
}

Row Table::RowAt(size_t rid) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& col : columns_) row.push_back(col.Get(rid));
  return row;
}

size_t Table::Select(const ColumnPredicate& p, uint32_t* rids,
                     size_t n) const {
  const Column& col = columns_[p.column];
  if (!IsNumeric(col.type)) {
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = rids[i];
      const Value& v = col.values[r];
      if (!v.is_null() && KeepByOp(p.op, v.Compare(p.constant))) rids[m++] = r;
    }
    return m;
  }
  const uint8_t* nulls = col.nulls.empty() ? nullptr : col.nulls.data();
  if (col.type == TypeId::kDouble) {
    return SelectByOp(p.op, col.doubles.data(), nulls, p.dconst, rids, n);
  }
  if (p.kind == ColumnPredicate::Kind::kIntInt) {
    return SelectByOp(p.op, col.ints.data(), nulls, p.iconst, rids, n);
  }
  return SelectByOp(p.op, col.ints.data(), nulls, p.dconst, rids, n);
}

void Table::Gather(size_t c, const uint32_t* rids, size_t n,
                   std::vector<Value>* out) const {
  const Column& col = columns_[c];
  switch (col.type) {
    case TypeId::kInt64:
      if (col.nulls.empty()) {
        for (size_t i = 0; i < n; ++i) {
          out->push_back(Value::Int(col.ints[rids[i]]));
        }
      } else {
        for (size_t i = 0; i < n; ++i) out->push_back(col.Get(rids[i]));
      }
      return;
    case TypeId::kDouble:
      if (col.nulls.empty()) {
        for (size_t i = 0; i < n; ++i) {
          out->push_back(Value::Double(col.doubles[rids[i]]));
        }
      } else {
        for (size_t i = 0; i < n; ++i) out->push_back(col.Get(rids[i]));
      }
      return;
    default:
      for (size_t i = 0; i < n; ++i) out->push_back(col.values[rids[i]]);
      return;
  }
}

std::pair<size_t, size_t> Table::PartitionRange(int p) const {
  if (part_ends_.empty()) return {0, num_rows_};
  size_t begin = p == 0 ? 0 : part_ends_[static_cast<size_t>(p) - 1];
  return {begin, part_ends_[static_cast<size_t>(p)]};
}

double Table::RowBytes(const Row& row) const {
  double bytes = 0;
  for (const Value& v : row) {
    switch (v.type()) {
      case TypeId::kNull:
      case TypeId::kBool:
        bytes += 1;
        break;
      case TypeId::kInt64:
      case TypeId::kDouble:
        bytes += 8;
        break;
      case TypeId::kString:
        bytes += 4 + static_cast<double>(v.AsString().size());
        break;
    }
  }
  return bytes;
}

double Table::avg_row_bytes() const {
  if (num_rows_ == 0) return 8.0 * static_cast<double>(def_->columns.size());
  return total_bytes_ / static_cast<double>(num_rows_);
}

double Table::num_pages() const {
  if (num_rows_ == 0) return 0.0;
  return std::max(1.0, total_bytes_ / kPageSizeBytes);
}

}  // namespace qopt

#include "ssb/column_store.h"

namespace pmemolap::ssb {

const char* LineorderColumnName(LineorderColumn column) {
  static constexpr const char* kNames[kNumLineorderColumns] = {
      "orderdate", "custkey",       "partkey", "suppkey",   "quantity",
      "discount",  "extendedprice", "revenue", "supplycost"};
  return kNames[static_cast<size_t>(column)];
}

int32_t LineorderRow::*LineorderField(LineorderColumn column) {
  static constexpr int32_t LineorderRow::*kFields[kNumLineorderColumns] = {
      &LineorderRow::orderdate, &LineorderRow::custkey,
      &LineorderRow::partkey,   &LineorderRow::suppkey,
      &LineorderRow::quantity,  &LineorderRow::discount,
      &LineorderRow::extendedprice, &LineorderRow::revenue,
      &LineorderRow::supplycost};
  return kFields[static_cast<size_t>(column)];
}

ColumnStore::ColumnStore(const std::vector<LineorderRow>& rows) {
  std::array<int32_t LineorderRow::*, kNumLineorderColumns> fields;
  std::array<int32_t*, kNumLineorderColumns> out;
  for (size_t c = 0; c < fields.size(); ++c) {
    fields[c] = LineorderField(static_cast<LineorderColumn>(c));
    columns_[c].resize(rows.size());
    out[c] = columns_[c].data();
  }
  // One pass over the 128 B rows, not one per column.
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < fields.size(); ++c) out[c][i] = rows[i].*fields[c];
  }
}

ColumnStore::ColumnStore(std::vector<LineorderRow>&& rows)
    : ColumnStore(static_cast<const std::vector<LineorderRow>&>(rows)) {
  rows.clear();
  rows.shrink_to_fit();
}

int64_t ColumnStore::ScanDiscountedRevenue(int32_t discount_lo,
                                           int32_t discount_hi,
                                           int32_t quantity_below) const {
  int64_t sum = 0;
  const size_t n = size();
  const int32_t* discount = column(LineorderColumn::kDiscount).data();
  const int32_t* quantity = column(LineorderColumn::kQuantity).data();
  const int32_t* price = column(LineorderColumn::kExtendedprice).data();
  for (size_t i = 0; i < n; ++i) {
    if (discount[i] >= discount_lo && discount[i] <= discount_hi &&
        quantity[i] < quantity_below) {
      sum += static_cast<int64_t>(price[i]) * discount[i];
    }
  }
  return sum;
}

int64_t RowScanDiscountedRevenue(const std::vector<LineorderRow>& rows,
                                 int32_t discount_lo, int32_t discount_hi,
                                 int32_t quantity_below) {
  int64_t sum = 0;
  for (const LineorderRow& row : rows) {
    if (row.discount >= discount_lo && row.discount <= discount_hi &&
        row.quantity < quantity_below) {
      sum += static_cast<int64_t>(row.extendedprice) * row.discount;
    }
  }
  return sum;
}

}  // namespace pmemolap::ssb

#include "fault/column_guard.h"

#include <algorithm>
#include <vector>

namespace pmemolap {

Result<std::unique_ptr<GuardedColumnStore>> GuardedColumnStore::Create(
    PmemSpace* space, FaultInjector* injector, const ssb::ColumnStore* store,
    const GuardedTable::Options& options) {
  if (store == nullptr || store->empty()) {
    return Status::InvalidArgument("column store must be non-empty");
  }
  std::unique_ptr<GuardedColumnStore> guarded(new GuardedColumnStore());
  guarded->rows_ = store->size();
  for (int c = 0; c < ssb::kNumLineorderColumns; ++c) {
    const std::vector<int32_t>& column =
        store->column(static_cast<ssb::LineorderColumn>(c));
    PMEMOLAP_ASSIGN_OR_RETURN(
        guarded->columns_[static_cast<size_t>(c)],
        GuardedTable::Create(
            space, injector,
            reinterpret_cast<const std::byte*>(column.data()),
            column.size() * sizeof(int32_t), options));
  }
  return guarded;
}

Result<int64_t> GuardedColumnStore::ScanDiscountedRevenue(
    int32_t discount_lo, int32_t discount_hi, int32_t quantity_below) {
  // Chunked column-at-a-time scan (the flight-1 shape): each column is
  // pulled through the guarded read path one batch at a time.
  constexpr size_t kBatchRows = 16 * 1024;
  std::vector<int32_t> quantity(kBatchRows);
  std::vector<int32_t> discount(kBatchRows);
  std::vector<int32_t> extendedprice(kBatchRows);
  int64_t sum = 0;
  for (size_t row = 0; row < rows_; row += kBatchRows) {
    const size_t n = std::min(kBatchRows, rows_ - row);
    const uint64_t offset = row * sizeof(int32_t);
    const uint64_t bytes = n * sizeof(int32_t);
    PMEMOLAP_RETURN_NOT_OK(column(ssb::LineorderColumn::kQuantity).Read(
        offset, bytes, reinterpret_cast<std::byte*>(quantity.data())));
    PMEMOLAP_RETURN_NOT_OK(column(ssb::LineorderColumn::kDiscount).Read(
        offset, bytes, reinterpret_cast<std::byte*>(discount.data())));
    PMEMOLAP_RETURN_NOT_OK(column(ssb::LineorderColumn::kExtendedprice).Read(
        offset, bytes, reinterpret_cast<std::byte*>(extendedprice.data())));
    for (size_t i = 0; i < n; ++i) {
      if (discount[i] >= discount_lo && discount[i] <= discount_hi &&
          quantity[i] < quantity_below) {
        sum += static_cast<int64_t>(extendedprice[i]) *
               static_cast<int64_t>(discount[i]);
      }
    }
  }
  return sum;
}

Result<uint64_t> GuardedColumnStore::ScrubAll() {
  uint64_t repaired = 0;
  for (const std::unique_ptr<GuardedTable>& column : columns_) {
    PMEMOLAP_ASSIGN_OR_RETURN(uint64_t fixed, column->ScrubAll());
    repaired += fixed;
  }
  return repaired;
}

}  // namespace pmemolap

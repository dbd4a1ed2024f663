// GuardedColumnStore — the ssb::ColumnStore projection materialized onto
// guarded PMEM, one CRC-chunked GuardedTable per column. Scans run
// chunk-wise through the guarded read path, so poisoned columns are
// retried, scrubbed or repaired transparently and the scan result stays
// bit-identical to the in-DRAM ColumnStore. Irreparable CRC mismatches
// surface as kCorruption (bytes present but provably wrong); kDataLoss is
// reserved for media that cannot serve the bytes at all.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/pmem_space.h"
#include "fault/fault_injector.h"
#include "fault/guarded_table.h"
// lint:allow(layering): GuardedColumnStore is the fault-hardened mirror
// of the SSB column store, so it names ssb types; ssb itself depends
// only on common, keeping the include graph acyclic. Pending a split of
// the column layout into a lower layer, this edge is audited.
#include "ssb/column_store.h"

namespace pmemolap {

class GuardedColumnStore {
 public:
  /// Materializes each of `store`'s nine columns as a GuardedTable on
  /// `space`. `store` is the repair source and must outlive this object.
  static Result<std::unique_ptr<GuardedColumnStore>> Create(
      PmemSpace* space, FaultInjector* injector,
      const ssb::ColumnStore* store,
      const GuardedTable::Options& options = GuardedTable::Options());

  size_t size() const { return rows_; }

  /// ColumnStore::ScanDiscountedRevenue through the guarded read path —
  /// touches the quantity, discount and extendedprice columns chunk-wise.
  Result<int64_t> ScanDiscountedRevenue(int32_t discount_lo,
                                        int32_t discount_hi,
                                        int32_t quantity_below);

  /// Scrubs every chunk of every column; returns chunks repaired.
  Result<uint64_t> ScrubAll();

  GuardedTable& column(ssb::LineorderColumn column) {
    return *columns_[static_cast<size_t>(column)];
  }

 private:
  GuardedColumnStore() = default;

  size_t rows_ = 0;
  std::array<std::unique_ptr<GuardedTable>, ssb::kNumLineorderColumns>
      columns_;
};

}  // namespace pmemolap

// PersistentRegion — a PMEM allocation with an explicit persistence
// domain.
//
// Real App Direct code sees one pointer; durability is a property of
// *which bytes made it past the CPU caches*. The model makes that
// distinction physical: the Allocation's bytes are the volatile image
// (what loads see), a shadow buffer is the persisted image (what a crash
// leaves behind), and a PersistenceTracker records where every 64 B line
// sits in between. The four primitives mirror the instructions the paper
// prices:
//
//   Store      cached store: volatile write, line dirty in cache
//   NtStore    non-temporal store: volatile write, line accepted into WPQ
//   FlushRange clwb: dirty lines accepted into WPQ
//   Fence      sfence: accepted lines drained — promoted to persisted
//
// Each primitive is one crash boundary (CrashInjector) and accrues
// modeled seconds from PersistCostModel, so a commit protocol's cost and
// its crash surface come from the same call sites — the persist-
// discipline lint rule checks those call sites lexically.
//
// Threading: primitives and ApplyCrash are single-writer (the ingest
// thread); data() is safe for concurrent readers only on ranges the
// writer no longer mutates (the committed prefix DurableTable exposes).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/pmem_space.h"
#include "device/persistence_domain.h"
#include "memsys/persist.h"

namespace pmemolap {

class CrashInjector;
struct CrashReport;
class PersistOrderChecker;

class PersistentRegion {
 public:
  /// Allocates `size` bytes of PMEM on `socket`, XPLine-aligned, and
  /// registers with `crash` (which may be nullptr: no crash surface).
  /// `cost` must outlive the region.
  static Result<std::unique_ptr<PersistentRegion>> Create(
      PmemSpace* space, uint64_t size, int socket, CrashInjector* crash,
      const PersistCostModel* cost);

  ~PersistentRegion();

  // --- Primitives (each a crash boundary) ----------------------------------
  Status Store(uint64_t offset, const void* src, uint64_t size);
  Status NtStore(uint64_t offset, const void* src, uint64_t size);
  Status FlushRange(uint64_t offset, uint64_t size);
  Status Fence();

  /// Durable truncation: everything at and past `offset` reverts to zero
  /// in both images. Models a redo log's O(1) tail-pointer update (one
  /// line store + flush + fence), not a media wipe — but the model zeroes
  /// the suffix (up to the highest byte ever written) so stale records
  /// can never be re-scanned. One crash boundary; if the crash fires
  /// here, the truncation never happened.
  Status TruncateTo(uint64_t offset);

  /// Volatile image — what loads (and post-crash recovery) read.
  const std::byte* data() const { return allocation_.data(); }
  /// Persisted image — what a crash preserves. Tests compare against it.
  const std::byte* persisted() const { return persisted_.data(); }
  uint64_t size() const { return allocation_.size(); }

  const PersistenceTracker& tracker() const { return tracker_; }
  /// Accumulated modeled cost of all primitives issued so far.
  double modeled_seconds() const { return modeled_seconds_; }
  uint64_t store_lines() const { return store_lines_; }
  uint64_t flush_lines() const { return flush_lines_; }
  uint64_t fences() const { return fences_; }

  /// Crash semantics (called by CrashInjector::TriggerCrash): dirty lines
  /// revert to the persisted image; accepted lines survive with
  /// probability `survival_p`; volatile := persisted afterwards. Updates
  /// `report` if non-null.
  void ApplyCrash(Rng* survival, double survival_p, CrashReport* report);

  /// Mirrors every subsequent primitive into the runtime durability
  /// oracle (persist_order_checker.h) under `name`. Attach before the
  /// first primitive or the oracle's drift check will (correctly) fire.
  /// `checker` may be nullptr to detach; it must outlive the region's
  /// primitive calls.
  void AttachOrderChecker(PersistOrderChecker* checker, std::string name);

 private:
  PersistentRegion(PmemSpace* space, Allocation allocation,
                   CrashInjector* crash, const PersistCostModel* cost);

  /// Fails fast once the injector fired: the modeled process is dead.
  Status CheckAlive() const;
  Status BoundsCheck(uint64_t offset, uint64_t size) const;

  /// Stages the partial effect of a write primitive cut mid-flight: a
  /// seeded prefix of [offset, offset+size) lands in the volatile image
  /// with its lines accepted (ntstore path only), then the crash fires.
  Status CrashDuringWrite(uint64_t offset, const void* src, uint64_t size,
                          bool accepted);
  Status CrashNow();

  PmemSpace* space_;
  Allocation allocation_;
  std::vector<std::byte> persisted_;
  PersistenceTracker tracker_;
  CrashInjector* crash_;
  const PersistCostModel* cost_;
  PersistOrderChecker* order_ = nullptr;
  /// Every byte at and past this offset is zero in both images.
  uint64_t written_end_ = 0;
  /// Fence's drained line runs, kept to reuse the allocation.
  std::vector<LineRun> drained_;
  double modeled_seconds_ = 0.0;
  uint64_t store_lines_ = 0;
  uint64_t flush_lines_ = 0;
  uint64_t fences_ = 0;
};

}  // namespace pmemolap

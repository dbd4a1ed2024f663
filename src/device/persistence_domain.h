// Persistence-domain state for one modeled PMEM region.
//
// On the modeled platform (Cascade Lake + Optane DC, ADR) a store is
// durable only once it has left the CPU caches and reached the iMC's
// write-pending queue — the ADR domain flushes the WPQ on power loss, the
// caches are lost. This tracker mirrors that three-stage journey per 64 B
// cache line:
//
//   kClean        the persisted image matches the volatile image
//   kDirtyCache   stored but still in a (modeled) CPU cache — lost on crash
//   kAcceptedWpq  flushed/nt-stored into the WPQ — survives crash, but the
//                 drain is asynchronous until an sfence retires it
//
// The tracker holds no data bytes; PersistentRegion (durability layer)
// pairs it with the volatile/persisted images and applies crash semantics.
// Per-256B-XPLine aggregation serves scrub reports and crash statistics,
// since Optane tears at XPLine granularity internally.
//
// Cost: next to the per-line state the tracker keeps two line spans, one
// holding every dirty line and one every accepted line. A primitive costs
// O(lines it covers), a flush touches only the part of its range inside
// the dirty span, and a drain (sfence) or crash walks only the spans — so
// a fence costs O(accepted span), not O(region lines).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace pmemolap {

enum class PersistLineState : uint8_t {
  kClean = 0,
  kDirtyCache = 1,
  kAcceptedWpq = 2,
};

/// A half-open span [begin, end) of 64 B line indexes.
struct LineRun {
  uint64_t begin = 0;
  uint64_t end = 0;
  bool empty() const { return begin >= end; }
  bool operator==(const LineRun&) const = default;
};

class PersistenceTracker {
 public:
  /// Tracks `bytes` of region space, rounded up to whole cache lines.
  explicit PersistenceTracker(uint64_t bytes);

  uint64_t bytes() const { return bytes_; }
  uint64_t lines() const { return static_cast<uint64_t>(state_.size()); }

  PersistLineState state(uint64_t line) const { return state_[line]; }

  /// A cached store: every line touched by [offset, offset+size) becomes
  /// dirty. Lines already accepted into the WPQ drop back to dirty — the
  /// new store re-dirties the cache line and the earlier write-back no
  /// longer covers it.
  void MarkDirty(uint64_t offset, uint64_t size);

  /// clwb over the range: dirty lines move to accepted; clean and
  /// already-accepted lines are untouched. Returns lines moved (the count
  /// the flush actually pays for).
  uint64_t AcceptDirtyRange(uint64_t offset, uint64_t size);

  /// ntstore over the range: lines go straight to accepted, bypassing the
  /// dirty stage.
  void MarkAccepted(uint64_t offset, uint64_t size);

  /// sfence: drains the WPQ. All accepted lines become clean; they are
  /// appended to `drained` (if non-null) as ascending runs of adjacent
  /// lines, so the caller promotes each run into the persisted image
  /// with one copy. Returns lines drained.
  uint64_t DrainAccepted(std::vector<LineRun>* drained);

  /// A span holding every line that is not clean (it may hold clean
  /// lines too); empty when nothing is in flight.
  LineRun in_flight() const;

  uint64_t dirty_lines() const;
  uint64_t accepted_lines() const;

  /// Line indexes currently in the given state, ascending.
  std::vector<uint64_t> LinesInState(PersistLineState state) const;

  /// 256 B XPLines containing at least one line in the given state —
  /// the granularity at which torn writes surface.
  uint64_t XPLinesInState(PersistLineState state) const;

  /// Forgets all in-flight state (crash handled, images reconciled).
  void Reset();

 private:
  uint64_t LineBegin(uint64_t offset) const { return offset / kCacheLineBytes; }
  uint64_t LineEnd(uint64_t offset, uint64_t size) const;

  uint64_t bytes_ = 0;
  std::vector<PersistLineState> state_;
  /// Every dirty line lies in dirty_, every accepted line in accepted_.
  /// The spans may be loose (hold lines of another state) but never miss
  /// one; a span shrinks when the lines at one of its ends leave its
  /// state, and the accepted span empties at every drain.
  LineRun dirty_;
  LineRun accepted_;
};

}  // namespace pmemolap

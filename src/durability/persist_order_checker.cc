#include "durability/persist_order_checker.h"

#include <algorithm>

#include "common/units.h"
#include "durability/persistent_region.h"

namespace pmemolap {

namespace {
/// Keep the detail list bounded — a broken protocol inside a crash
/// sweep would otherwise record one violation per boundary. The total
/// counter still counts everything.
constexpr uint64_t kMaxRecordedViolations = 64;

uint64_t LineBegin(uint64_t offset) { return offset / kCacheLineBytes; }
uint64_t LineEnd(uint64_t offset, uint64_t size) {
  return size == 0 ? LineBegin(offset)
                   : (offset + size - 1) / kCacheLineBytes + 1;
}
}  // namespace

void PersistOrderChecker::AttachRegion(const PersistentRegion* region,
                                       std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror& mirror = mirrors_[region];
  mirror.name = std::move(name);
  mirror.states.assign(LineEnd(0, region->size()), LineState::kClean);
  mirror.lo = 0;
  mirror.hi = 0;
  mirror.in_flight = 0;
}

void PersistOrderChecker::Mirror::Cover(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  if (lo >= hi) {
    lo = begin;
    hi = end;
  } else {
    lo = std::min(lo, begin);
    hi = std::max(hi, end);
  }
}

PersistOrderChecker::Mirror* PersistOrderChecker::Find(
    const PersistentRegion* region) {
  auto it = mirrors_.find(region);
  return it == mirrors_.end() ? nullptr : &it->second;
}

const char* PersistOrderChecker::StateName(LineState state) {
  switch (state) {
    case LineState::kClean:
      return "clean";
    case LineState::kDirtyCached:
      return "dirty-cached";
    case LineState::kAcceptedNt:
      return "accepted-ntstore";
    case LineState::kAcceptedCached:
      return "accepted-cached";
  }
  return "?";
}

void PersistOrderChecker::Record(const std::string& rule,
                                 const Mirror& mirror, uint64_t line,
                                 std::string detail) {
  ++total_violations_;
  if (violations_.size() < kMaxRecordedViolations) {
    violations_.push_back(
        Violation{rule, mirror.name, line, std::move(detail)});
  }
}

void PersistOrderChecker::OnStore(const PersistentRegion* region,
                                  uint64_t offset, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  uint64_t end = LineEnd(offset, size);
  mirror->Cover(LineBegin(offset), end);
  for (uint64_t line = LineBegin(offset); line < end; ++line) {
    LineState& state = mirror->states[line];
    if (state == LineState::kAcceptedNt) {
      Record("persist-mixed-store", *mirror, line,
             "cached Store over line " + std::to_string(line) +
                 " whose NtStore is still un-fenced");
    }
    if (state == LineState::kClean) ++mirror->in_flight;
    // A cached store re-dirties the line: an earlier write-back no
    // longer covers it (mirrors PersistenceTracker::MarkDirty).
    state = LineState::kDirtyCached;
  }
}

void PersistOrderChecker::OnNtStore(const PersistentRegion* region,
                                    uint64_t offset, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  uint64_t end = LineEnd(offset, size);
  mirror->Cover(LineBegin(offset), end);
  for (uint64_t line = LineBegin(offset); line < end; ++line) {
    LineState& state = mirror->states[line];
    if (state == LineState::kDirtyCached) {
      Record("persist-mixed-store", *mirror, line,
             "NtStore over line " + std::to_string(line) +
                 " still dirty from a cached Store");
    }
    if (state == LineState::kClean) ++mirror->in_flight;
    state = LineState::kAcceptedNt;
  }
}

void PersistOrderChecker::OnFlush(const PersistentRegion* region,
                                  uint64_t offset, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  // Lines outside the span are clean, and a flush leaves clean lines be.
  uint64_t begin = std::max(LineBegin(offset), mirror->lo);
  uint64_t end = std::min(LineEnd(offset, size), mirror->hi);
  for (uint64_t line = begin; line < end; ++line) {
    switch (mirror->states[line]) {
      case LineState::kDirtyCached:
        mirror->states[line] = LineState::kAcceptedCached;
        break;
      case LineState::kAcceptedNt:
      case LineState::kAcceptedCached:
        // Re-flushing an in-flight line: wasted clwb (the runtime
        // analog of the static persist-double-flush diagnostic).
        ++redundant_flush_lines_;
        break;
      case LineState::kClean:
        break;  // wide flushes legitimately cover clean lines
    }
  }
}

void PersistOrderChecker::OnFence(const PersistentRegion* region,
                                  uint64_t drained_lines) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  ++fences_checked_;
  uint64_t mirror_drained = 0;
  uint64_t seen = 0;
  // The dirty lines left after the drain become the new span.
  uint64_t dirty_lo = 0;
  uint64_t dirty_hi = 0;
  const PersistenceTracker& tracker = region->tracker();
  for (uint64_t line = mirror->lo;
       line < mirror->hi && seen < mirror->in_flight; ++line) {
    LineState state = mirror->states[line];
    if (state == LineState::kClean) continue;
    ++seen;
    if (state == LineState::kAcceptedNt ||
        state == LineState::kAcceptedCached) {
      ++mirror_drained;
      mirror->states[line] = LineState::kClean;
      continue;
    }
    if (dirty_lo == dirty_hi) dirty_lo = line;
    dirty_hi = line + 1;
    // Dirty lines ride out the fence — the tracker must agree, or the
    // two models have diverged.
    if (tracker.state(line) != PersistLineState::kDirtyCache) {
      Record("oracle-drift", *mirror, line,
             "after Fence() the mirror holds line " +
                 std::to_string(line) + " as " + StateName(state) +
                 " but the tracker reports state " +
                 std::to_string(static_cast<int>(tracker.state(line))) +
                 " — a write path bypassed the primitives or the "
                 "lattice changed");
    }
  }
  mirror->in_flight -= mirror_drained;
  mirror->lo = dirty_lo;
  mirror->hi = dirty_hi;
  if (mirror_drained != drained_lines) {
    Record("oracle-drift", *mirror, 0,
           "Fence() drained " + std::to_string(drained_lines) +
               " line(s) per the tracker but " +
               std::to_string(mirror_drained) +
               " per the mirror — in-flight state the checker never "
               "saw (late attach, or a primitive bypass)");
  }
}

void PersistOrderChecker::OnTruncate(const PersistentRegion* region,
                                     uint64_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  // TruncateTo zeroes both images past `offset` without touching the
  // tracker: any still-in-flight line there keeps its tracker state, so
  // the mirror keeps it too (the drift check stays honest). Nothing to
  // do — the hook exists so the boundary is visible in traces.
  (void)offset;
}

void PersistOrderChecker::OnCrash(const PersistentRegion* region) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  // volatile := persisted and tracker.Reset(): all in-flight state is
  // resolved (lost or survived); the mirror starts clean like a restart.
  std::fill(mirror->states.begin() + mirror->lo,
            mirror->states.begin() + mirror->hi, LineState::kClean);
  mirror->lo = 0;
  mirror->hi = 0;
  mirror->in_flight = 0;
}

void PersistOrderChecker::OnCommitRecord(const PersistentRegion* region,
                                         uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  ++commit_records_checked_;
  if (mirror->in_flight == 0) return;
  for (uint64_t line = mirror->lo; line < mirror->hi; ++line) {
    if (mirror->states[line] == LineState::kClean) continue;
    Record("persist-order", *mirror, line,
           "commit record of epoch " + std::to_string(epoch) +
               " written while line " + std::to_string(line) + " is " +
               StateName(mirror->states[line]) +
               " — the payload must be fully fenced before the marker");
    break;  // one violation per marker
  }
}

void PersistOrderChecker::OnPublish(const PersistentRegion* region,
                                    uint64_t begin, uint64_t end,
                                    const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  ++publishes_checked_;
  uint64_t first = std::max(LineBegin(begin), mirror->lo);
  uint64_t past = std::min(LineEnd(begin, end - begin), mirror->hi);
  uint64_t seen = 0;
  for (uint64_t line = first; line < past && seen < mirror->in_flight;
       ++line) {
    if (mirror->states[line] == LineState::kClean) continue;
    ++seen;
    Record("persist-order", *mirror, line,
           what + " publishes while line " + std::to_string(line) +
               " is " + StateName(mirror->states[line]) +
               " — a crash now exposes bytes the publish promised were "
               "durable");
  }
}

bool PersistOrderChecker::clean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_violations_ == 0;
}

std::vector<PersistOrderChecker::Violation>
PersistOrderChecker::violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return violations_;
}

uint64_t PersistOrderChecker::total_violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_violations_;
}

uint64_t PersistOrderChecker::fences_checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fences_checked_;
}

uint64_t PersistOrderChecker::publishes_checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publishes_checked_;
}

uint64_t PersistOrderChecker::commit_records_checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commit_records_checked_;
}

uint64_t PersistOrderChecker::redundant_flush_lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return redundant_flush_lines_;
}

}  // namespace pmemolap

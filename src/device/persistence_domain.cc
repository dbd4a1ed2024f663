#include "device/persistence_domain.h"

#include <algorithm>

namespace pmemolap {

namespace {

/// Smallest span holding both `a` and `b`.
LineRun Hull(LineRun a, LineRun b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return {std::min(a.begin, b.begin), std::max(a.end, b.end)};
}

/// `span` after the lines of `cut` left the state it bounds. Only an end
/// of the span can be cut off: a hole in the middle keeps the span whole.
LineRun Trim(LineRun span, LineRun cut) {
  if (cut.empty() || span.empty()) return span;
  if (cut.begin <= span.begin && span.end <= cut.end) return {};
  if (cut.begin <= span.begin && span.begin < cut.end) {
    return {cut.end, span.end};
  }
  if (cut.begin < span.end && span.end <= cut.end) {
    return {span.begin, cut.begin};
  }
  return span;
}

}  // namespace

PersistenceTracker::PersistenceTracker(uint64_t bytes)
    : bytes_(bytes),
      state_((bytes + kCacheLineBytes - 1) / kCacheLineBytes,
             PersistLineState::kClean) {}

uint64_t PersistenceTracker::LineEnd(uint64_t offset, uint64_t size) const {
  if (size == 0) return LineBegin(offset);
  uint64_t last = (offset + size - 1) / kCacheLineBytes;
  return std::min<uint64_t>(last + 1, state_.size());
}

void PersistenceTracker::MarkDirty(uint64_t offset, uint64_t size) {
  LineRun lines{LineBegin(offset), LineEnd(offset, size)};
  if (lines.empty()) return;
  std::fill(state_.begin() + lines.begin, state_.begin() + lines.end,
            PersistLineState::kDirtyCache);
  dirty_ = Hull(dirty_, lines);
  accepted_ = Trim(accepted_, lines);
}

uint64_t PersistenceTracker::AcceptDirtyRange(uint64_t offset, uint64_t size) {
  LineRun lines{LineBegin(offset), LineEnd(offset, size)};
  // Only lines inside the dirty span can be dirty.
  uint64_t begin = std::max(lines.begin, dirty_.begin);
  uint64_t end = std::min(lines.end, dirty_.end);
  uint64_t moved = 0;
  LineRun accepted;
  for (uint64_t l = begin; l < end; ++l) {
    if (state_[l] == PersistLineState::kDirtyCache) {
      state_[l] = PersistLineState::kAcceptedWpq;
      if (moved++ == 0) accepted.begin = l;
      accepted.end = l + 1;
    }
  }
  accepted_ = Hull(accepted_, accepted);
  dirty_ = Trim(dirty_, lines);
  return moved;
}

void PersistenceTracker::MarkAccepted(uint64_t offset, uint64_t size) {
  LineRun lines{LineBegin(offset), LineEnd(offset, size)};
  if (lines.empty()) return;
  std::fill(state_.begin() + lines.begin, state_.begin() + lines.end,
            PersistLineState::kAcceptedWpq);
  accepted_ = Hull(accepted_, lines);
  dirty_ = Trim(dirty_, lines);
}

uint64_t PersistenceTracker::DrainAccepted(std::vector<LineRun>* drained) {
  uint64_t count = 0;
  for (uint64_t l = accepted_.begin; l < accepted_.end; ++l) {
    if (state_[l] != PersistLineState::kAcceptedWpq) continue;
    state_[l] = PersistLineState::kClean;
    ++count;
    if (drained == nullptr) continue;
    if (!drained->empty() && drained->back().end == l) {
      ++drained->back().end;
    } else {
      drained->push_back({l, l + 1});
    }
  }
  accepted_ = {};
  return count;
}

LineRun PersistenceTracker::in_flight() const {
  return Hull(dirty_, accepted_);
}

uint64_t PersistenceTracker::dirty_lines() const {
  return static_cast<uint64_t>(
      std::count(state_.begin() + dirty_.begin, state_.begin() + dirty_.end,
                 PersistLineState::kDirtyCache));
}

uint64_t PersistenceTracker::accepted_lines() const {
  return static_cast<uint64_t>(std::count(state_.begin() + accepted_.begin,
                                          state_.begin() + accepted_.end,
                                          PersistLineState::kAcceptedWpq));
}

std::vector<uint64_t> PersistenceTracker::LinesInState(
    PersistLineState state) const {
  std::vector<uint64_t> lines;
  for (uint64_t l = 0; l < state_.size(); ++l) {
    if (state_[l] == state) lines.push_back(l);
  }
  return lines;
}

uint64_t PersistenceTracker::XPLinesInState(PersistLineState state) const {
  constexpr uint64_t kPerXPLine = kOptaneLineBytes / kCacheLineBytes;
  uint64_t count = 0;
  for (uint64_t l = 0; l < state_.size();) {
    uint64_t xp_end = std::min<uint64_t>(
        (l / kPerXPLine + 1) * kPerXPLine, state_.size());
    bool hit = false;
    for (; l < xp_end; ++l) {
      if (state_[l] == state) hit = true;
    }
    if (hit) ++count;
  }
  return count;
}

void PersistenceTracker::Reset() {
  LineRun span = in_flight();
  std::fill(state_.begin() + span.begin, state_.begin() + span.end,
            PersistLineState::kClean);
  dirty_ = {};
  accepted_ = {};
}

}  // namespace pmemolap

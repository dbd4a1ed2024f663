// Property tests for the span-bounded persistence bookkeeping.
//
// PersistenceTracker, PersistentRegion and PersistOrderChecker walk only
// the lines that can be in flight. These tests run seeded random
// primitive sequences (crashes included) on a small region, touching
// lines at both ends so the in-flight spans cover the whole region, and
// compare after every step with naive models kept here: a per-line state
// vector with whole-region walks for the tracker and region, and a
// std::set of touched lines for the oracle's mirror.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "device/persistence_domain.h"
#include "durability/crash_injector.h"
#include "durability/persist_order_checker.h"
#include "durability/persistent_region.h"

namespace pmemolap {
namespace {

constexpr uint64_t kLines = 48;
constexpr uint64_t kBytes = kLines * kCacheLineBytes;
constexpr int kSequences = 150;
constexpr int kStepsPerSequence = 120;

using State = PersistLineState;

uint64_t FirstLine(uint64_t offset) { return offset / kCacheLineBytes; }
uint64_t PastLine(uint64_t offset, uint64_t size) {
  return size == 0 ? FirstLine(offset)
                   : (offset + size - 1) / kCacheLineBytes + 1;
}

/// A random byte range that often starts at the first line or ends at
/// the last, so the in-flight spans stretch across the whole region.
void PickRange(Rng* rng, uint64_t* offset, uint64_t* size) {
  switch (rng->NextBelow(4)) {
    case 0:
      *offset = rng->NextBelow(2 * kCacheLineBytes);
      break;
    case 1:
      *offset = kBytes - 1 - rng->NextBelow(2 * kCacheLineBytes);
      break;
    default:
      *offset = rng->NextBelow(kBytes);
      break;
  }
  uint64_t room = kBytes - *offset;
  *size = rng->NextBool(0.2) ? room : rng->NextBelow(std::min<uint64_t>(
                                          room, 5 * kCacheLineBytes) + 1);
}

// --- naive tracker + images --------------------------------------------------

struct NaiveRegion {
  std::vector<State> state = std::vector<State>(kLines, State::kClean);
  std::vector<std::byte> live = std::vector<std::byte>(kBytes);
  std::vector<std::byte> persisted = std::vector<std::byte>(kBytes);

  void Set(uint64_t offset, uint64_t size, State to) {
    for (uint64_t l = FirstLine(offset); l < PastLine(offset, size); ++l) {
      state[l] = to;
    }
  }
  uint64_t Flush(uint64_t offset, uint64_t size) {
    uint64_t moved = 0;
    for (uint64_t l = FirstLine(offset); l < PastLine(offset, size); ++l) {
      if (state[l] == State::kDirtyCache) {
        state[l] = State::kAcceptedWpq;
        ++moved;
      }
    }
    return moved;
  }
  void CopyLine(uint64_t line, const std::vector<std::byte>& from,
                std::vector<std::byte>* to) const {
    std::memcpy(to->data() + line * kCacheLineBytes,
                from.data() + line * kCacheLineBytes, kCacheLineBytes);
  }
  /// Drained lines, ascending.
  std::vector<uint64_t> Drain() {
    std::vector<uint64_t> drained;
    for (uint64_t l = 0; l < kLines; ++l) {
      if (state[l] != State::kAcceptedWpq) continue;
      state[l] = State::kClean;
      CopyLine(l, live, &persisted);
      drained.push_back(l);
    }
    return drained;
  }
  void Truncate(uint64_t offset) {
    std::memset(live.data() + offset, 0, kBytes - offset);
    std::memset(persisted.data() + offset, 0, kBytes - offset);
  }
  std::vector<uint64_t> InState(State s) const {
    std::vector<uint64_t> lines;
    for (uint64_t l = 0; l < kLines; ++l) {
      if (state[l] == s) lines.push_back(l);
    }
    return lines;
  }
};

std::vector<uint64_t> Expand(const std::vector<LineRun>& runs) {
  std::vector<uint64_t> lines;
  for (LineRun run : runs) {
    for (uint64_t l = run.begin; l < run.end; ++l) lines.push_back(l);
  }
  return lines;
}

void ExpectSameTracker(const PersistenceTracker& tracker,
                       const NaiveRegion& naive) {
  for (uint64_t l = 0; l < kLines; ++l) {
    ASSERT_EQ(tracker.state(l), naive.state[l]) << "line " << l;
  }
  for (State s : {State::kClean, State::kDirtyCache, State::kAcceptedWpq}) {
    EXPECT_EQ(tracker.LinesInState(s), naive.InState(s));
  }
  EXPECT_EQ(tracker.dirty_lines(), naive.InState(State::kDirtyCache).size());
  EXPECT_EQ(tracker.accepted_lines(),
            naive.InState(State::kAcceptedWpq).size());
  LineRun span = tracker.in_flight();
  for (uint64_t l = 0; l < kLines; ++l) {
    if (naive.state[l] == State::kClean) continue;
    EXPECT_TRUE(span.begin <= l && l < span.end)
        << "in-flight line " << l << " outside [" << span.begin << ", "
        << span.end << ")";
  }
}

TEST(PersistPropertyTest, TrackerMatchesPerLineModel) {
  for (int seq = 0; seq < kSequences; ++seq) {
    SCOPED_TRACE("sequence " + std::to_string(seq));
    Rng rng(1000 + seq);
    PersistenceTracker tracker(kBytes);
    NaiveRegion naive;
    for (int step = 0; step < kStepsPerSequence; ++step) {
      uint64_t offset;
      uint64_t size;
      PickRange(&rng, &offset, &size);
      switch (rng.NextBelow(6)) {
        case 0:
          tracker.MarkDirty(offset, size);
          naive.Set(offset, size, State::kDirtyCache);
          break;
        case 1:
          tracker.MarkAccepted(offset, size);
          naive.Set(offset, size, State::kAcceptedWpq);
          break;
        case 2:
        case 3:
          ASSERT_EQ(tracker.AcceptDirtyRange(offset, size),
                    naive.Flush(offset, size));
          break;
        case 4: {
          std::vector<LineRun> runs;
          std::vector<uint64_t> expected = naive.Drain();
          ASSERT_EQ(tracker.DrainAccepted(&runs), expected.size());
          EXPECT_EQ(Expand(runs), expected);
          // Runs are maximal: no two touch, so each is one copy.
          for (size_t i = 1; i < runs.size(); ++i) {
            EXPECT_LT(runs[i - 1].end, runs[i].begin);
          }
          break;
        }
        default:
          if (rng.NextBool(0.2)) {
            tracker.Reset();
            naive.state.assign(kLines, State::kClean);
          }
          break;
      }
      ExpectSameTracker(tracker, naive);
      if (HasFatalFailure()) return;
    }
  }
}

// --- naive oracle mirror -----------------------------------------------------

using Mirror = PersistOrderChecker::LineState;

struct Seen {
  std::string rule;
  uint64_t line;
};

/// The oracle's rules over a std::set of touched lines, every check a
/// walk of that set.
struct NaiveOracle {
  std::vector<Mirror> states = std::vector<Mirror>(kLines, Mirror::kClean);
  std::set<uint64_t> touched;
  std::vector<Seen> violations;

  void OnStore(uint64_t offset, uint64_t size) {
    for (uint64_t l = FirstLine(offset); l < PastLine(offset, size); ++l) {
      if (states[l] == Mirror::kAcceptedNt) {
        violations.push_back({"persist-mixed-store", l});
      }
      states[l] = Mirror::kDirtyCached;
      touched.insert(l);
    }
  }
  void OnNtStore(uint64_t offset, uint64_t size) {
    for (uint64_t l = FirstLine(offset); l < PastLine(offset, size); ++l) {
      if (states[l] == Mirror::kDirtyCached) {
        violations.push_back({"persist-mixed-store", l});
      }
      states[l] = Mirror::kAcceptedNt;
      touched.insert(l);
    }
  }
  void OnFlush(uint64_t offset, uint64_t size) {
    for (uint64_t l = FirstLine(offset); l < PastLine(offset, size); ++l) {
      if (states[l] == Mirror::kDirtyCached) {
        states[l] = Mirror::kAcceptedCached;
      }
    }
  }
  void OnFence(const std::vector<State>& tracker, uint64_t drained) {
    uint64_t mirror_drained = 0;
    for (auto it = touched.begin(); it != touched.end();) {
      if (states[*it] != Mirror::kDirtyCached) {
        ++mirror_drained;
        states[*it] = Mirror::kClean;
        it = touched.erase(it);
        continue;
      }
      if (tracker[*it] != State::kDirtyCache) {
        violations.push_back({"oracle-drift", *it});
      }
      ++it;
    }
    if (mirror_drained != drained) violations.push_back({"oracle-drift", 0});
  }
  void OnCrash() {
    states.assign(kLines, Mirror::kClean);
    touched.clear();
  }
  void OnCommitRecord() {
    if (!touched.empty()) {
      violations.push_back({"persist-order", *touched.begin()});
    }
  }
  void OnPublish(uint64_t begin, uint64_t end) {
    for (auto it = touched.lower_bound(FirstLine(begin));
         it != touched.end() && *it < PastLine(begin, end - begin); ++it) {
      violations.push_back({"persist-order", *it});
    }
  }
};

struct RegionRig {
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  PersistCostModel cost{PersistSpec{}};
  CrashInjector crash;
  PersistOrderChecker checker;
  std::unique_ptr<PersistentRegion> region;

  explicit RegionRig(uint64_t seed) : crash(seed) {
    auto created = PersistentRegion::Create(&space, kBytes, /*socket=*/0,
                                            &crash, &cost);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    region = std::move(*created);
    region->AttachOrderChecker(&checker, "r");
  }
};

/// The crash the injector just fired, replayed on the naive model: the
/// cut primitive's seeded partial effect, then the survival lottery over
/// the in-flight lines in ascending order.
void NaiveCrash(const CrashInjector& crash, int op, uint64_t offset,
                uint64_t size, const std::vector<std::byte>& src,
                NaiveRegion* naive, CrashReport* expected) {
  if (op == 1 && size > 0) {  // NtStore keeps a posted prefix
    uint64_t keep = crash.BoundaryRng(1).NextBelow(size + 1);
    if (!crash.plan().allow_subline_tear) {
      keep = keep / kCacheLineBytes * kCacheLineBytes;
    }
    if (keep > 0) {
      std::memcpy(naive->live.data() + offset, src.data(), keep);
      naive->Set(offset, keep, State::kAcceptedWpq);
    }
  } else if (op == 2) {  // FlushRange posted a prefix of its write-backs
    uint64_t keep = crash.BoundaryRng(1).NextBelow(size + 1) /
                    kCacheLineBytes * kCacheLineBytes;
    if (keep > 0) naive->Flush(offset, keep);
  }
  Rng survival = crash.BoundaryRng(2);
  for (uint64_t l = 0; l < kLines; ++l) {
    if (naive->state[l] == State::kClean) continue;
    if (naive->state[l] == State::kDirtyCache) {
      ++expected->dirty_lines_lost;
    } else if (survival.NextBool(crash.plan().accepted_survival_p)) {
      naive->CopyLine(l, naive->live, &naive->persisted);
      ++expected->accepted_lines_survived;
    } else {
      ++expected->accepted_lines_lost;
    }
  }
  naive->live = naive->persisted;
  naive->state.assign(kLines, State::kClean);
}

TEST(PersistPropertyTest, RegionAndOracleMatchNaiveModels) {
  uint64_t crashes = 0;
  uint64_t violations_seen = 0;
  for (int seq = 0; seq < kSequences; ++seq) {
    SCOPED_TRACE("sequence " + std::to_string(seq));
    Rng rng(5000 + seq);
    RegionRig rig(/*seed=*/7000 + seq);
    rig.crash.Arm(static_cast<int64_t>(rng.NextBelow(40)));
    NaiveRegion naive;
    NaiveOracle oracle;
    double seconds = 0.0;
    uint64_t store_lines = 0;
    uint64_t flush_lines = 0;
    uint64_t fences = 0;
    for (int step = 0; step < kStepsPerSequence; ++step) {
      uint64_t offset;
      uint64_t size;
      PickRange(&rng, &offset, &size);
      // Never empty: a zero-size write still passes a valid pointer.
      std::vector<std::byte> src(std::max<uint64_t>(size, 1));
      for (std::byte& b : src) b = static_cast<std::byte>(rng.Next());
      int op = static_cast<int>(rng.NextBelow(9));
      Status status = Status::OK();
      switch (op) {
        case 0:
          status = rig.region->Store(offset, src.data(), size);
          break;
        case 1:
          status = rig.region->NtStore(offset, src.data(), size);
          break;
        case 2:
          status = rig.region->FlushRange(offset, size);
          break;
        case 3:
          status = rig.region->Fence();
          break;
        case 4:
          status = rig.region->TruncateTo(offset);
          break;
        case 5:
          rig.checker.OnCommitRecord(rig.region.get(), step);
          oracle.OnCommitRecord();
          break;
        case 6:
          rig.checker.OnPublish(rig.region.get(), offset, offset + size,
                                "publish");
          oracle.OnPublish(offset, offset + size);
          break;
        case 7:
          // A hook without its primitive: the mirror sees a store the
          // tracker never did, which the next fence reports as drift.
          if (rng.NextBool(0.15)) {
            rig.checker.OnStore(rig.region.get(), offset, size);
            oracle.OnStore(offset, size);
          }
          break;
        default:
          status = rig.region->FlushRange(0, kBytes);
          offset = 0;
          size = kBytes;
          op = 2;
          break;
      }
      if (rig.crash.crashed()) {
        ++crashes;
        CrashReport expected;
        NaiveCrash(rig.crash, op, offset, size, src, &naive, &expected);
        oracle.OnCrash();
        EXPECT_FALSE(status.ok());
        EXPECT_EQ(rig.crash.report().dirty_lines_lost,
                  expected.dirty_lines_lost);
        EXPECT_EQ(rig.crash.report().accepted_lines_lost,
                  expected.accepted_lines_lost);
        EXPECT_EQ(rig.crash.report().accepted_lines_survived,
                  expected.accepted_lines_survived);
        rig.crash.AcknowledgeCrash();
        rig.crash.Arm(static_cast<int64_t>(rig.crash.boundaries_seen() +
                                           rng.NextBelow(40)));
      } else {
        ASSERT_TRUE(status.ok()) << status.ToString();
        const uint64_t lines = PersistCostModel::LinesCovering(offset, size);
        switch (op) {
          case 0:
            std::memcpy(naive.live.data() + offset, src.data(), size);
            naive.Set(offset, size, State::kDirtyCache);
            oracle.OnStore(offset, size);
            store_lines += lines;
            seconds += rig.cost.StoreSeconds(lines);
            break;
          case 1:
            std::memcpy(naive.live.data() + offset, src.data(), size);
            naive.Set(offset, size, State::kAcceptedWpq);
            oracle.OnNtStore(offset, size);
            store_lines += lines;
            seconds += rig.cost.NtStoreSeconds(lines);
            break;
          case 2: {
            uint64_t moved = naive.Flush(offset, size);
            oracle.OnFlush(offset, size);
            flush_lines += moved;
            seconds += rig.cost.FlushSeconds(moved);
            break;
          }
          case 3: {
            uint64_t drained = naive.Drain().size();
            oracle.OnFence(naive.state, drained);
            ++fences;
            seconds += rig.cost.FenceSeconds(drained);
            break;
          }
          case 4:
            naive.Truncate(offset);
            ++fences;
            seconds += rig.cost.StoreSeconds(1) + rig.cost.FlushSeconds(1) +
                       rig.cost.FenceSeconds(1);
            break;
          default:
            break;
        }
      }
      ExpectSameTracker(rig.region->tracker(), naive);
      ASSERT_EQ(std::memcmp(rig.region->data(), naive.live.data(), kBytes),
                0);
      ASSERT_EQ(std::memcmp(rig.region->persisted(), naive.persisted.data(),
                            kBytes),
                0);
      EXPECT_EQ(rig.region->modeled_seconds(), seconds);
      EXPECT_EQ(rig.region->store_lines(), store_lines);
      EXPECT_EQ(rig.region->flush_lines(), flush_lines);
      EXPECT_EQ(rig.region->fences(), fences);

      // The checker keeps its first 64 violations and counts the rest.
      ASSERT_EQ(rig.checker.total_violations(), oracle.violations.size());
      std::vector<PersistOrderChecker::Violation> got =
          rig.checker.violations();
      ASSERT_EQ(got.size(), std::min<size_t>(oracle.violations.size(), 64));
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].rule, oracle.violations[i].rule) << i;
        EXPECT_EQ(got[i].region, "r") << i;
        EXPECT_EQ(got[i].line, oracle.violations[i].line) << i;
      }
      if (HasFatalFailure()) return;
    }
    violations_seen += oracle.violations.size();
  }
  // The sequences reached the paths under test.
  EXPECT_GT(crashes, 100u);
  EXPECT_GT(violations_seen, 100u);
}

// --- directed: a stale line far below the write range -----------------------

TEST(PersistPropertyTest, StaleDirtyLineFarBelowTheWriteRangeIsReported) {
  constexpr uint64_t kTop = kBytes - 4 * kCacheLineBytes;
  std::vector<std::byte> line(kCacheLineBytes, std::byte{0x5A});
  std::vector<std::byte> top(4 * kCacheLineBytes, std::byte{0xA5});
  {
    // Real Stores at lines 0 and 5 that never flush, then ntstores at
    // the top of the region.
    RegionRig rig(/*seed=*/1);
    ASSERT_TRUE(rig.region->Store(0, line.data(), line.size()).ok());
    ASSERT_TRUE(
        rig.region->Store(5 * kCacheLineBytes, line.data(), line.size())
            .ok());
    ASSERT_TRUE(rig.region->NtStore(kTop, top.data(), top.size()).ok());
    rig.checker.OnCommitRecord(rig.region.get(), 1);
    rig.checker.OnPublish(rig.region.get(), 0, kBytes, "publish");
    std::vector<PersistOrderChecker::Violation> got =
        rig.checker.violations();
    ASSERT_EQ(got.size(), 7u);
    EXPECT_EQ(got[0].rule, "persist-order");  // the commit record
    EXPECT_EQ(got[0].line, 0u);
    EXPECT_EQ(got[1].line, 0u);  // the publish, ascending from line 0
    EXPECT_EQ(got[2].line, 5u);
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(got[3 + i].rule, "persist-order");
      EXPECT_EQ(got[3 + i].line, kTop / kCacheLineBytes + i);
    }
    // The fence drains the top lines; both stale lines stay dirty, and
    // the next commit record still reports the lowest.
    ASSERT_TRUE(rig.region->Fence().ok());
    rig.checker.OnCommitRecord(rig.region.get(), 2);
    ASSERT_EQ(rig.checker.total_violations(), 8u);
    EXPECT_EQ(rig.checker.violations()[7].line, 0u);
  }
  {
    // The mirror alone sees a store at line 0 (a primitive that lost its
    // tracker update): the next fence must report drift at line 0, far
    // below the lines it drains.
    RegionRig rig(/*seed=*/2);
    rig.checker.OnStore(rig.region.get(), 0, kCacheLineBytes);
    ASSERT_TRUE(rig.region->NtStore(kTop, top.data(), top.size()).ok());
    ASSERT_TRUE(rig.region->Fence().ok());
    std::vector<PersistOrderChecker::Violation> got =
        rig.checker.violations();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].rule, "oracle-drift");
    EXPECT_EQ(got[0].line, 0u);
  }
}

}  // namespace
}  // namespace pmemolap

// Vectorized columnar kernels — the engine's only query implementation
// (ssb::ReferenceExecutor and ssb::InterpretStarQuery are the oracles it
// is checked against). One stage pipeline runs any ssb::StarQuery over a
// morsel in columnar stages instead of one tuple at a time, so wall-clock
// goes to memory traffic, not interpretation:
//
//   1. fact range predicates build and refine a selection vector;
//   2. each dimension stage reads its key column, probes DenseDimMap
//      (every SSB dimension has a dense key space, so a direct-indexed
//      payload array replaces the hash probe, while KernelCounters still
//      counts each probe per dimension for the traffic model), compacts
//      the selection by the stage's predicates and carries the group-by
//      attributes the dimension provides;
//   3. flat open-addressing aggregation (AggTable) per worker, merged
//      once at the end of the query.
//
// Predicates are data: the pipeline switches on a predicate's shape once
// per stage, never per tuple. Every attribute is one bit field of its
// dimension's payload (PayloadField), so one loop evaluates any of them.
//
// The columns come from one of three sources (KernelContext): the raw
// ssb::ColumnStore vectors, the encoded column store, or a block of 128 B
// rows — read out of a durable snapshot or off the guarded fact image in
// fault mode. One read rule holds for all three: the query's first read
// covers the whole morsel (a fact range predicate runs on the encoded
// frames directly; a dimension key column is block-decoded or
// transposed), and every later column is read only at the surviving
// positions (in place, by frame-cached gather, or off the surviving rows).
//
// Every stage short-circuits like a row-at-a-time plan would: a dimension
// is probed only for tuples that survived the previous stage, so the
// per-dimension probe counts feeding the traffic model are those of the
// textbook left-deep plan in the query's stage order (the engine tests pin
// them for the 13 SSB queries).
//
// In fault mode each probe stage resolves its gathered positions through
// the guarded dimension replicas (GuardedDimension::Payloads, one lock
// per stage), so poisoned payloads fail over or repair exactly as they
// would per probe.
//
// The dimension payload encodings (the uint64 values stored in the
// dense maps and the guarded replicas) live here so the engine's
// dimension build, the guarded fault path and the kernels share one
// definition.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/agg_table.h"
#include "ssb/column_store.h"
#include "ssb/dbgen.h"
#include "ssb/encoded_column_store.h"
#include "ssb/queries.h"
#include "ssb/star_query.h"

namespace pmemolap {

class GuardedDimension;

// --- Dimension payload encodings -------------------------------------------

inline uint64_t EncodeDate(const ssb::DateRow& d) {
  return (static_cast<uint64_t>(d.year) << 40) |
         (static_cast<uint64_t>(d.yearmonthnum) << 16) |
         (static_cast<uint64_t>(static_cast<uint8_t>(d.weeknuminyear)) << 8) |
         static_cast<uint64_t>(static_cast<uint8_t>(d.monthnuminyear));
}

inline uint64_t EncodeGeo(int nation, int region, int city) {
  return (static_cast<uint64_t>(ssb::CityId(nation, city)) << 16) |
         (static_cast<uint64_t>(nation) << 8) | static_cast<uint64_t>(region);
}

inline uint64_t EncodePart(const ssb::PartRow& p) {
  return (static_cast<uint64_t>(p.brand_id()) << 16) |
         (static_cast<uint64_t>(p.category_id()) << 8) |
         static_cast<uint64_t>(p.mfgr);
}

/// Where an attribute sits in its dimension's payload: every attribute
/// is one bit field, already valued as the schema codes it (CityId,
/// CategoryId, BrandId).
struct PayloadField {
  int shift = 0;
  uint64_t mask = 0;

  int32_t Of(uint64_t payload) const {
    return static_cast<int32_t>((payload >> shift) & mask);
  }
};

PayloadField FieldOf(ssb::Attr attr);

// --- Dense dimension fast path ----------------------------------------------

/// Direct-indexed key -> value map. Every SSB dimension has a dense key
/// space (custkey/suppkey/partkey run 1..N; datekey spans the yyyymmdd
/// values of seven years, a ~70k range), so for the read-only kernels a
/// direct-indexed array replaces the hash probe entirely. The values are
/// encoded payloads, or — in fault mode — positions into the guarded
/// payload replicas. The probe *counts* are still reported per stage, so
/// the traffic model sees every dimension access the index would serve.
class DenseDimMap {
 public:
  /// Build from parallel key/value arrays (keys need not be sorted).
  void Build(const std::vector<int32_t>& keys,
             const std::vector<uint64_t>& payloads);

  uint64_t Lookup(int32_t key) const {
    return payloads_[static_cast<uint32_t>(key - base_)];
  }

 private:
  int32_t base_ = 0;
  std::vector<uint64_t> payloads_;
};

// --- Morsel kernel ----------------------------------------------------------

/// One dimension as a probe stage sees it: the dense key map and, in
/// fault mode, the guarded payload replicas the map's values index into.
/// A null `guarded` means the map holds the payloads themselves.
struct KernelDim {
  const DenseDimMap* map = nullptr;
  GuardedDimension* guarded = nullptr;
};

/// Everything one worker needs to execute a morsel: one column source
/// plus the four dimensions (indexed by ssb::Dimension). The source is,
/// in order of precedence:
///  - a row block (`rows` non-null): rows read out of a durable snapshot
///    or off the guarded fact image, `rows[0]` being global tuple
///    `rows_base`; [begin, end) must lie inside the block;
///  - the encoded store (`encoded` non-null);
///  - the raw `columns`, read in place.
/// Results and probe counts are bit-identical whichever source holds the
/// same rows.
struct KernelContext {
  const ssb::ColumnStore* columns = nullptr;
  const ssb::EncodedColumnStore* encoded = nullptr;
  const ssb::LineorderRow* rows = nullptr;
  uint64_t rows_base = 0;
  std::array<KernelDim, ssb::kNumDimensions> dims;
  /// Socket whose guarded replicas the probes read first (fault mode).
  int socket = 0;
};

/// Per-dimension probe counts (indexed by ssb::Dimension) and qualifying
/// tuples of kernel runs. These feed the traffic records, so the modeled
/// runtime is a function of the data, not of the executor.
struct KernelCounters {
  std::array<uint64_t, ssb::kNumDimensions> probes{};
  uint64_t qualifying = 0;

  uint64_t total_probes() const {
    return probes[0] + probes[1] + probes[2] + probes[3];
  }
  KernelCounters& operator+=(const KernelCounters& other) {
    for (size_t d = 0; d < probes.size(); ++d) probes[d] += other.probes[d];
    qualifying += other.qualifying;
    return *this;
  }
};

/// Reusable per-worker buffers (selection vector, gathered columns and
/// payloads, carried group-by attributes) so the hot loop never
/// allocates.
struct KernelScratch {
  std::vector<uint64_t> sel;       ///< selected tuple indexes (global)
  std::vector<uint64_t> payloads;  ///< probed payloads, aligned with sel
  std::vector<int32_t> values;     ///< one column, aligned with sel
  std::vector<int32_t> values_b;   ///< the aggregate's second column
  /// Payloads of the stages whose dimension a group-by reads, aligned
  /// with sel (the group key is read off them at aggregation).
  std::array<std::vector<uint64_t>, 3> carried;
};

/// Executes `query` over tuples [begin, end), accumulating grouped sums
/// into `groups`, a scalar query's sum into `*scalar_sum`, and probe and
/// qualifying counts into `counters`. Fails only in fault mode, with the
/// first guarded dimension read that could not be recovered.
Status ExecuteMorselKernel(const ssb::StarQuery& query,
                           const KernelContext& ctx, uint64_t begin,
                           uint64_t end, KernelScratch* scratch,
                           AggTable* groups, int64_t* scalar_sum,
                           KernelCounters* counters);

}  // namespace pmemolap

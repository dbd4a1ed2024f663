// Vectorized columnar kernels for the 13 SSB queries — the engine's only
// query implementation (ssb::ReferenceExecutor is the oracle it is checked
// against). A morsel runs in columnar stages instead of one tuple at a
// time, so wall-clock goes to memory traffic, not interpretation:
//
//   1. selection-vector predicate evaluation over column arrays
//      (touches only the filtered columns, not the 128 B row);
//   2. batched dimension probes through DenseDimMap: every SSB dimension
//      has a dense key space, so a direct-indexed payload array replaces
//      the hash probe entirely, while KernelCounters still counts each
//      probe per stage for the traffic model;
//   3. flat open-addressing aggregation (AggTable) per worker, merged
//      once at the end of the query.
//
// The columns come from one of three sources (KernelContext): the raw
// ssb::ColumnStore vectors, block decode of the encoded column store, or
// a block of 128 B rows — read out of a durable snapshot or off the
// guarded fact image in fault mode — transposed column by column. The
// flight code is written once against ColumnSlice; only flight 1's
// predicate-on-encoded path is specific to its source.
//
// Every stage short-circuits like a row-at-a-time plan would: a dimension
// is probed only for tuples that survived the previous stage, so the
// per-dimension probe counts feeding the traffic model are those of the
// textbook left-deep plan (the engine tests pin them per query).
//
// In fault mode each probe stage resolves its gathered positions through
// the guarded dimension replicas (GuardedDimension::Payloads, one lock
// per stage), so poisoned payloads fail over or repair exactly as they
// would per probe.
//
// The dimension payload encodings (the uint64 values stored in the
// indexes and the guarded replicas) live here so the engine's index
// build, the guarded fault path and the kernels share one definition.
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

namespace pmemolap {

class GuardedDimension;

// --- Dimension payload encodings -------------------------------------------

inline uint64_t EncodeDate(const ssb::DateRow& d) {
  return (static_cast<uint64_t>(d.year) << 40) |
         (static_cast<uint64_t>(d.yearmonthnum) << 16) |
         (static_cast<uint64_t>(static_cast<uint8_t>(d.weeknuminyear)) << 8) |
         static_cast<uint64_t>(static_cast<uint8_t>(d.monthnuminyear));
}

struct DateAttrs {
  int year;
  int yearmonthnum;
  int week;
};

inline DateAttrs DecodeDate(uint64_t payload) {
  return DateAttrs{static_cast<int>(payload >> 40),
                   static_cast<int>((payload >> 16) & 0xFFFFFF),
                   static_cast<int>((payload >> 8) & 0xFF)};
}

inline uint64_t EncodeGeo(int nation, int region, int city) {
  return (static_cast<uint64_t>(nation) << 16) |
         (static_cast<uint64_t>(region) << 8) | static_cast<uint64_t>(city);
}

struct GeoAttrs {
  int nation;
  int region;
  int city_id;
};

inline GeoAttrs DecodeGeo(uint64_t payload) {
  int nation = static_cast<int>(payload >> 16);
  int city = static_cast<int>(payload & 0xFF);
  return GeoAttrs{nation, static_cast<int>((payload >> 8) & 0xFF),
                  ssb::CityId(nation, city)};
}

inline uint64_t EncodePart(const ssb::PartRow& p) {
  return (static_cast<uint64_t>(p.mfgr) << 16) |
         (static_cast<uint64_t>(p.category) << 8) |
         static_cast<uint64_t>(p.brand);
}

struct PartAttrs {
  int mfgr;
  int category_id;
  int brand_id;
};

inline PartAttrs DecodePart(uint64_t payload) {
  int mfgr = static_cast<int>(payload >> 16);
  int category = static_cast<int>((payload >> 8) & 0xFF);
  int brand = static_cast<int>(payload & 0xFF);
  return PartAttrs{mfgr, ssb::CategoryId(mfgr, category),
                   ssb::BrandId(mfgr, category, brand)};
}

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
  bool empty() const { return payloads_.empty(); }

 private:
  int32_t base_ = 0;
  std::vector<uint64_t> payloads_;
};

// --- Morsel kernel ----------------------------------------------------------

/// One column of a morsel as the kernels see it: a base pointer plus the
/// global index of its first element. The raw path slices the ColumnStore
/// vector directly (base 0, zero copy); the encoded and row-block paths
/// slice a morsel-local buffer (base = first tuple of the kernel call)
/// filled by block decode or by transposing the row block. The staged
/// flight code is written once against this view.
struct ColumnSlice {
  const int32_t* data = nullptr;
  uint64_t base = 0;

  int32_t operator[](uint64_t global_index) const {
    return data[global_index - base];
  }
};

/// One dimension as a probe stage sees it: the dense key map and, in
/// fault mode, the guarded payload replicas the map's values index into.
/// A null `guarded` means the map holds the payloads themselves.
struct KernelDim {
  const DenseDimMap* map = nullptr;
  GuardedDimension* guarded = nullptr;
};

/// Everything one worker needs to execute a morsel: one column source
/// plus the four dimensions. The source is, in order of precedence:
///  - a row block (`rows` non-null): rows read out of a durable snapshot
///    or off the guarded fact image, `rows[0]` being global tuple
///    `rows_base`; the kernels transpose only the columns the flight
///    touches, and [begin, end) must lie inside the block;
///  - the encoded store (`encoded` non-null), scanned by decode-on-scan:
///    flight predicates run against the encoded frames (FoR
///    frame-skipping, dictionary code rewriting) and the staged kernels
///    read block-decoded morsel buffers;
///  - the raw `columns`, read in place.
/// Results and probe counts are bit-identical whichever source holds the
/// same rows.
struct KernelContext {
  const ssb::ColumnStore* columns = nullptr;
  const ssb::EncodedColumnStore* encoded = nullptr;
  const ssb::LineorderRow* rows = nullptr;
  uint64_t rows_base = 0;
  KernelDim date;
  KernelDim customer;
  KernelDim supplier;
  KernelDim part;
  /// Socket whose guarded replicas the probes read first (fault mode).
  int socket = 0;
};

/// Per-dimension probe counts and qualifying tuples of one kernel run,
/// counted per short-circuit stage. These feed RecordSocketTraffic, so
/// the modeled runtime is a function of the data, not of the executor.
struct KernelCounters {
  uint64_t date_probes = 0;
  uint64_t customer_probes = 0;
  uint64_t supplier_probes = 0;
  uint64_t part_probes = 0;
  uint64_t qualifying = 0;
};

/// Reusable per-worker buffers (selection vectors, gathered payloads,
/// carried attributes) so the hot loop never allocates.
struct KernelScratch {
  std::vector<uint64_t> sel;       ///< selected tuple indexes (global)
  std::vector<uint64_t> payloads;  ///< probed payloads, aligned with sel
  std::vector<int32_t> attr_a;     ///< carried attribute, aligned with sel
  std::vector<int32_t> attr_b;     ///< second carried attribute
  std::vector<int32_t> attr_c;     ///< third carried attribute (flight 1)
  /// Morsel-local column buffers for the encoded and row-block sources,
  /// one per lineorder column (only the flight's touched columns are
  /// filled).
  std::array<std::vector<int32_t>, ssb::kNumLineorderColumns> decoded;
};

/// Executes `query` over tuples [begin, end) with the staged columnar
/// kernels, accumulating grouped sums into `groups`, the flight-1 scalar
/// sum into `*scalar_sum` (setting `*scalar`), and probe/qualifying
/// counts into `counters`. Fails only in fault mode, with the first
/// guarded dimension read that could not be recovered.
Status ExecuteMorselKernel(ssb::QueryId query, const KernelContext& ctx,
                           uint64_t begin, uint64_t end,
                           KernelScratch* scratch, AggTable* groups,
                           int64_t* scalar_sum, bool* scalar,
                           KernelCounters* counters);

}  // namespace pmemolap

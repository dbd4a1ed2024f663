// StarQuery — one star join over lineorder as plain data: range predicates
// on fact columns, an ordered list of dimension stages (each a
// conjunction of attribute predicates), up to three group-by attributes
// and one aggregate over fact columns. The 13 SSB queries are 13
// constants (StarQueryFor); the engine runs any valid StarQuery through
// one stage pipeline and prices its scan from ScanColumns().
//
// The order written here is the plan: fact predicates run first, then
// each stage probes its dimension only for the tuples every earlier
// predicate and stage kept, so per-dimension probe counts follow from the
// stage order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "ssb/column_store.h"
#include "ssb/queries.h"

namespace pmemolap::ssb {

enum class Dimension { kDate, kCustomer, kSupplier, kPart };

inline constexpr int kNumDimensions = 4;

/// "date", "customer", "supplier", "part".
const char* DimensionName(Dimension dim);

/// The fact column holding the dimension's key (date -> orderdate, ...).
LineorderColumn FactKeyColumn(Dimension dim);

/// The dimension attributes a query can filter or group on, valued as
/// the schema codes them: CityId for cities, CategoryId and BrandId for
/// the part hierarchy.
enum class Attr {
  kYear,  // date
  kYearMonthNum,
  kMonthNumInYear,
  kWeekNumInYear,
  kRegion,  // customer and supplier
  kNation,
  kCity,
  kMfgr,  // part
  kCategory,
  kBrand,
};

const char* AttrName(Attr attr);

/// Whether rows of `dim` carry `attr`.
bool HasAttr(Dimension dim, Attr attr);

/// `column` in [lo, hi], bounds inclusive.
struct FactPredicate {
  LineorderColumn column;
  int32_t lo;
  int32_t hi;
};

/// `attr` in [lo, hi] (bounds inclusive) when `values` is empty, else
/// `attr` in the small set `values`.
struct AttrPredicate {
  Attr attr;
  int32_t lo = 0;
  int32_t hi = 0;
  std::vector<int32_t> values;

  bool Matches(int32_t value) const;
};

/// Joins one dimension and keeps the tuples whose row passes every
/// predicate (an empty conjunction keeps all of them).
struct DimensionStage {
  Dimension dim;
  std::vector<AttrPredicate> predicates;
};

struct GroupRef {
  Dimension dim;
  Attr attr;
};

/// sum(a), sum(a * b) or sum(a - b) over fact columns, in int64.
struct Aggregate {
  enum class Op { kSum, kProduct, kDifference };
  Op op = Op::kSum;
  LineorderColumn a = LineorderColumn::kRevenue;
  LineorderColumn b = LineorderColumn::kRevenue;  ///< unused by kSum

  int64_t Of(int32_t a_value, int32_t b_value) const;
};

struct StarQuery {
  std::vector<FactPredicate> fact_predicates;  ///< a conjunction
  std::vector<DimensionStage> stages;          ///< joined in this order
  /// Up to GroupKey's three slots, in GroupKey order (unused slots are
  /// 0). Empty means a scalar result.
  std::vector<GroupRef> group_by;
  Aggregate aggregate;

  /// The fact columns the query reads, ascending and without repeats:
  /// predicate columns, stage key columns and aggregate inputs.
  std::vector<LineorderColumn> ScanColumns() const;
  /// One-line rendering, for failure messages.
  std::string ToString() const;
};

/// OK when `query` can run: every attribute belongs to its dimension, no
/// dimension is staged twice, every group-by dimension is staged, and
/// there are at most three group-bys.
Status Validate(const StarQuery& query);

/// The SSB query as a StarQuery constant.
const StarQuery& StarQueryFor(QueryId query);

}  // namespace pmemolap::ssb

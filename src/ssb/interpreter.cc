#include "ssb/interpreter.h"

#include <algorithm>
#include <vector>

namespace pmemolap::ssb {

namespace {

/// Key -> row position of one dimension table: a table over the key
/// span [min key, max key].
class KeyIndex {
 public:
  template <typename Row>
  KeyIndex(const std::vector<Row>& rows, int32_t Row::*key) {
    if (rows.empty()) return;
    base_ = rows.front().*key;
    int32_t top = base_;
    for (const Row& row : rows) {
      base_ = std::min(base_, row.*key);
      top = std::max(top, row.*key);
    }
    rows_.assign(static_cast<size_t>(top - base_) + 1, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows_[static_cast<size_t>(rows[i].*key - base_)] = i;
    }
  }

  size_t at(int32_t key) const {
    return rows_.at(static_cast<size_t>(key - base_));
  }

 private:
  int32_t base_ = 0;
  std::vector<size_t> rows_;
};

/// Key -> row lookups for the four dimensions.
class Dimensions {
 public:
  explicit Dimensions(const Database& db)
      : db_(db),
        date_(db.date, &DateRow::datekey),
        customer_(db.customer, &CustomerRow::custkey),
        supplier_(db.supplier, &SupplierRow::suppkey),
        part_(db.part, &PartRow::partkey) {}

  /// `attr` of the `dim` row whose key the fact row `lo` holds.
  int32_t Attribute(const LineorderRow& lo, Dimension dim, Attr attr) const {
    switch (dim) {
      case Dimension::kDate:
        return DateAttribute(db_.date[date_.at(lo.orderdate)], attr);
      case Dimension::kCustomer: {
        const CustomerRow& c = db_.customer[customer_.at(lo.custkey)];
        return GeoAttribute(c.region, c.nation, c.city, attr);
      }
      case Dimension::kSupplier: {
        const SupplierRow& s = db_.supplier[supplier_.at(lo.suppkey)];
        return GeoAttribute(s.region, s.nation, s.city, attr);
      }
      case Dimension::kPart:
        return PartAttribute(db_.part[part_.at(lo.partkey)], attr);
    }
    return 0;
  }

 private:
  static int32_t DateAttribute(const DateRow& d, Attr attr) {
    switch (attr) {
      case Attr::kYear:
        return d.year;
      case Attr::kYearMonthNum:
        return d.yearmonthnum;
      case Attr::kMonthNumInYear:
        return d.monthnuminyear;
      default:
        return d.weeknuminyear;
    }
  }
  static int32_t GeoAttribute(int region, int nation, int city, Attr attr) {
    switch (attr) {
      case Attr::kRegion:
        return region;
      case Attr::kNation:
        return nation;
      default:
        return CityId(nation, city);
    }
  }
  static int32_t PartAttribute(const PartRow& p, Attr attr) {
    switch (attr) {
      case Attr::kMfgr:
        return p.mfgr;
      case Attr::kCategory:
        return p.category_id();
      default:
        return p.brand_id();
    }
  }

  const Database& db_;
  KeyIndex date_;
  KeyIndex customer_;
  KeyIndex supplier_;
  KeyIndex part_;
};

bool Qualifies(const Dimensions& dims, const StarQuery& query,
               const LineorderRow& lo) {
  for (const FactPredicate& p : query.fact_predicates) {
    const int32_t value = lo.*LineorderField(p.column);
    if (value < p.lo || value > p.hi) return false;
  }
  for (const DimensionStage& stage : query.stages) {
    for (const AttrPredicate& p : stage.predicates) {
      if (!p.Matches(dims.Attribute(lo, stage.dim, p.attr))) return false;
    }
  }
  return true;
}

}  // namespace

QueryOutput InterpretStarQuery(const Database& db, const StarQuery& query,
                               uint64_t rows) {
  const Dimensions dims(db);
  QueryOutput out;
  out.scalar = query.group_by.empty();
  rows = std::min<uint64_t>(rows, db.lineorder.size());
  for (uint64_t r = 0; r < rows; ++r) {
    const LineorderRow& lo = db.lineorder[r];
    if (!Qualifies(dims, query, lo)) continue;
    const int64_t value = query.aggregate.Of(
        lo.*LineorderField(query.aggregate.a),
        lo.*LineorderField(query.aggregate.b));
    if (out.scalar) {
      out.value += value;
      continue;
    }
    GroupKey key{0, 0, 0};
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      key[g] = dims.Attribute(lo, query.group_by[g].dim,
                              query.group_by[g].attr);
    }
    out.groups[key] += value;
  }
  return out;
}

}  // namespace pmemolap::ssb

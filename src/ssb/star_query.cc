#include "ssb/star_query.h"

#include <algorithm>
#include <array>
#include <limits>

namespace pmemolap::ssb {

const char* DimensionName(Dimension dim) {
  static constexpr const char* kNames[kNumDimensions] = {"date", "customer",
                                                         "supplier", "part"};
  return kNames[static_cast<size_t>(dim)];
}

LineorderColumn FactKeyColumn(Dimension dim) {
  static constexpr LineorderColumn kKeys[kNumDimensions] = {
      LineorderColumn::kOrderdate, LineorderColumn::kCustkey,
      LineorderColumn::kSuppkey, LineorderColumn::kPartkey};
  return kKeys[static_cast<size_t>(dim)];
}

const char* AttrName(Attr attr) {
  static constexpr const char* kNames[] = {
      "year",   "yearmonthnum", "monthnuminyear", "weeknuminyear",
      "region", "nation",       "city",           "mfgr",
      "category", "brand"};
  return kNames[static_cast<int>(attr)];
}

bool HasAttr(Dimension dim, Attr attr) {
  switch (dim) {
    case Dimension::kDate:
      return attr <= Attr::kWeekNumInYear;
    case Dimension::kCustomer:
    case Dimension::kSupplier:
      return attr >= Attr::kRegion && attr <= Attr::kCity;
    case Dimension::kPart:
      return attr >= Attr::kMfgr;
  }
  return false;
}

bool AttrPredicate::Matches(int32_t value) const {
  if (values.empty()) return value >= lo && value <= hi;
  return std::find(values.begin(), values.end(), value) != values.end();
}

int64_t Aggregate::Of(int32_t a_value, int32_t b_value) const {
  switch (op) {
    case Op::kSum:
      return a_value;
    case Op::kProduct:
      return static_cast<int64_t>(a_value) * b_value;
    case Op::kDifference:
      return static_cast<int64_t>(a_value) - b_value;
  }
  return 0;
}

std::vector<LineorderColumn> StarQuery::ScanColumns() const {
  std::array<bool, kNumLineorderColumns> read{};
  auto mark = [&](LineorderColumn c) { read[static_cast<size_t>(c)] = true; };
  for (const FactPredicate& p : fact_predicates) mark(p.column);
  for (const DimensionStage& stage : stages) mark(FactKeyColumn(stage.dim));
  mark(aggregate.a);
  if (aggregate.op != Aggregate::Op::kSum) mark(aggregate.b);
  std::vector<LineorderColumn> columns;
  for (int c = 0; c < kNumLineorderColumns; ++c) {
    if (read[static_cast<size_t>(c)]) {
      columns.push_back(static_cast<LineorderColumn>(c));
    }
  }
  return columns;
}

std::string StarQuery::ToString() const {
  std::string out = "where";
  auto range = [&out](int32_t lo, int32_t hi) {
    out += " in [";
    out += std::to_string(lo);
    out += ",";
    out += std::to_string(hi);
    out += "]";
  };
  for (const FactPredicate& p : fact_predicates) {
    out += " ";
    out += LineorderColumnName(p.column);
    range(p.lo, p.hi);
  }
  for (const DimensionStage& stage : stages) {
    out += " | ";
    out += DimensionName(stage.dim);
    out += ":";
    for (const AttrPredicate& p : stage.predicates) {
      out += " ";
      out += AttrName(p.attr);
      if (p.values.empty()) {
        range(p.lo, p.hi);
        continue;
      }
      for (size_t i = 0; i < p.values.size(); ++i) {
        out += i == 0 ? " in {" : ",";
        out += std::to_string(p.values[i]);
      }
      out += "}";
    }
  }
  out += " | group by";
  for (const GroupRef& g : group_by) {
    out += " ";
    out += DimensionName(g.dim);
    out += ".";
    out += AttrName(g.attr);
  }
  static constexpr const char* kOps[] = {"", "*", "-"};
  out += " | sum(";
  out += LineorderColumnName(aggregate.a);
  if (aggregate.op != Aggregate::Op::kSum) {
    out += kOps[static_cast<int>(aggregate.op)];
    out += LineorderColumnName(aggregate.b);
  }
  return out + ")";
}

Status Validate(const StarQuery& query) {
  if (query.group_by.size() > GroupKey().size()) {
    return Status::InvalidArgument("more than three group-by attributes");
  }
  std::array<bool, kNumDimensions> staged{};
  for (const DimensionStage& stage : query.stages) {
    bool& seen = staged[static_cast<size_t>(stage.dim)];
    if (seen) {
      return Status::InvalidArgument(std::string(DimensionName(stage.dim)) +
                                     " is staged twice");
    }
    seen = true;
    for (const AttrPredicate& p : stage.predicates) {
      if (!HasAttr(stage.dim, p.attr)) {
        return Status::InvalidArgument(std::string(DimensionName(stage.dim)) +
                                       " has no attribute " +
                                       AttrName(p.attr));
      }
    }
  }
  for (const GroupRef& g : query.group_by) {
    if (!HasAttr(g.dim, g.attr) || !staged[static_cast<size_t>(g.dim)]) {
      return Status::InvalidArgument(
          std::string("group-by ") + DimensionName(g.dim) + "." +
          AttrName(g.attr) + " needs a stage of a dimension that has it");
    }
  }
  return Status::OK();
}

namespace {

using A = Attr;
using C = LineorderColumn;
using D = Dimension;
using Op = Aggregate::Op;

constexpr int kUnitedStates = 9;    // AMERICA nation index
constexpr int kUnitedKingdom = 19;  // EUROPE nation index
constexpr int kRegionAmerica = 1;
constexpr int kRegionAsia = 2;
constexpr int kRegionEurope = 3;

AttrPredicate Eq(Attr attr, int32_t value) { return {attr, value, value, {}}; }
AttrPredicate Between(Attr attr, int32_t lo, int32_t hi) {
  return {attr, lo, hi, {}};
}
AttrPredicate In(Attr attr, std::vector<int32_t> values) {
  return {attr, 0, 0, std::move(values)};
}

StarQuery Flight1(int32_t discount_lo, int32_t discount_hi,
                  int32_t quantity_lo, int32_t quantity_hi,
                  std::vector<AttrPredicate> date) {
  return {{{C::kDiscount, discount_lo, discount_hi},
           {C::kQuantity, quantity_lo, quantity_hi}},
          {{D::kDate, std::move(date)}},
          {},
          {Op::kProduct, C::kExtendedprice, C::kDiscount}};
}

StarQuery Flight2(AttrPredicate part, int region) {
  return {{},
          {{D::kPart, {std::move(part)}},
           {D::kSupplier, {Eq(A::kRegion, region)}},
           {D::kDate, {}}},
          {{D::kDate, A::kYear}, {D::kPart, A::kBrand}},
          {Op::kSum, C::kRevenue, C::kRevenue}};
}

StarQuery Flight3(AttrPredicate geo, Attr group, AttrPredicate date) {
  return {{},
          {{D::kCustomer, {geo}},
           {D::kSupplier, {geo}},
           {D::kDate, {std::move(date)}}},
          {{D::kCustomer, group}, {D::kSupplier, group}, {D::kDate, A::kYear}},
          {Op::kSum, C::kRevenue, C::kRevenue}};
}

StarQuery Flight4(std::vector<DimensionStage> stages,
                  std::vector<GroupRef> group_by) {
  return {{},
          std::move(stages),
          std::move(group_by),
          {Op::kDifference, C::kRevenue, C::kSupplycost}};
}

std::vector<StarQuery> SsbQueries() {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  const AttrPredicate uk_cities =
      In(A::kCity, {CityId(kUnitedKingdom, 1), CityId(kUnitedKingdom, 5)});
  const AttrPredicate america = Eq(A::kRegion, kRegionAmerica);
  const AttrPredicate late_years = In(A::kYear, {1997, 1998});
  const AttrPredicate early_years = Between(A::kYear, 1992, 1997);
  return {
      Flight1(1, 3, kMin, 24, {Eq(A::kYear, 1993)}),
      Flight1(4, 6, 26, 35, {Eq(A::kYearMonthNum, 199401)}),
      Flight1(5, 7, 26, 35,
              {Eq(A::kWeekNumInYear, 6), Eq(A::kYear, 1994)}),
      Flight2(Eq(A::kCategory, 12), kRegionAmerica),
      Flight2(Between(A::kBrand, 2221, 2228), kRegionAsia),
      Flight2(Eq(A::kBrand, 2239), kRegionEurope),
      Flight3(Eq(A::kRegion, kRegionAsia), A::kNation, early_years),
      Flight3(Eq(A::kNation, kUnitedStates), A::kCity, early_years),
      Flight3(uk_cities, A::kCity, early_years),
      Flight3(uk_cities, A::kCity, Eq(A::kYearMonthNum, 199712)),
      Flight4({{D::kCustomer, {america}},
               {D::kSupplier, {america}},
               {D::kPart, {In(A::kMfgr, {1, 2})}},
               {D::kDate, {}}},
              {{D::kDate, A::kYear}, {D::kCustomer, A::kNation}}),
      Flight4({{D::kCustomer, {america}},
               {D::kSupplier, {america}},
               {D::kPart, {In(A::kMfgr, {1, 2})}},
               {D::kDate, {late_years}}},
              {{D::kDate, A::kYear},
               {D::kSupplier, A::kNation},
               {D::kPart, A::kCategory}}),
      Flight4({{D::kSupplier, {Eq(A::kNation, kUnitedStates)}},
               {D::kPart, {Eq(A::kCategory, 14)}},
               {D::kDate, {late_years}}},
              {{D::kDate, A::kYear},
               {D::kSupplier, A::kCity},
               {D::kPart, A::kBrand}}),
  };
}

}  // namespace

const StarQuery& StarQueryFor(QueryId query) {
  static const std::vector<StarQuery> kQueries = SsbQueries();
  return kQueries[static_cast<size_t>(query)];
}

}  // namespace pmemolap::ssb

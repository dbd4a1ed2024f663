// The 13 SSB query constants and the naive star-query interpreter: the
// interpreter must reproduce the hand-written ReferenceExecutor on every
// constant (so it can stand in as the oracle for generated queries), the
// constants must read the columns the columnar pricing has always
// charged, and Validate must reject queries the pipeline cannot run.
#include "ssb/star_query.h"

#include <gtest/gtest.h>

#include "ssb/dbgen.h"
#include "ssb/interpreter.h"
#include "ssb/reference.h"

namespace pmemolap::ssb {
namespace {

TEST(StarQueryTest, InterpreterMatchesReferenceOnAllThirteenQueries) {
  const Database db = *Generate({.scale_factor = 0.02, .seed = 11});
  const ReferenceExecutor reference(&db);
  for (QueryId query : AllQueries()) {
    EXPECT_EQ(InterpretStarQuery(db, StarQueryFor(query),
                                 db.lineorder.size()),
              reference.Execute(query))
        << QueryName(query) << ": " << StarQueryFor(query).ToString();
  }
}

TEST(StarQueryTest, InterpreterReadsOnlyTheRowPrefix) {
  const Database db = *Generate({.scale_factor = 0.01, .seed = 3});
  Database prefix = db;
  prefix.lineorder.resize(db.lineorder.size() / 3);
  const ReferenceExecutor reference(&prefix);
  for (QueryId query : {QueryId::kQ1_1, QueryId::kQ3_1, QueryId::kQ4_2}) {
    EXPECT_EQ(InterpretStarQuery(db, StarQueryFor(query),
                                 prefix.lineorder.size()),
              reference.Execute(query))
        << QueryName(query);
  }
}

TEST(StarQueryTest, ConstantsAreValidAndReadTheirFlightsColumns) {
  using C = LineorderColumn;
  for (QueryId query : AllQueries()) {
    EXPECT_TRUE(Validate(StarQueryFor(query)).ok()) << QueryName(query);
  }
  EXPECT_EQ(StarQueryFor(QueryId::kQ1_1).ScanColumns(),
            (std::vector<C>{C::kOrderdate, C::kQuantity, C::kDiscount,
                            C::kExtendedprice}));
  EXPECT_EQ(StarQueryFor(QueryId::kQ2_1).ScanColumns(),
            (std::vector<C>{C::kOrderdate, C::kPartkey, C::kSuppkey,
                            C::kRevenue}));
  EXPECT_EQ(StarQueryFor(QueryId::kQ4_3).ScanColumns(),
            (std::vector<C>{C::kOrderdate, C::kPartkey, C::kSuppkey,
                            C::kRevenue, C::kSupplycost}));
}

TEST(StarQueryTest, ValidateRejectsQueriesThePipelineCannotRun) {
  StarQuery twice;
  twice.stages = {{Dimension::kPart, {}}, {Dimension::kPart, {}}};
  EXPECT_FALSE(Validate(twice).ok());

  StarQuery foreign_attr;
  foreign_attr.stages = {{Dimension::kDate, {{Attr::kNation, 1, 1, {}}}}};
  EXPECT_FALSE(Validate(foreign_attr).ok());

  StarQuery unstaged_group;
  unstaged_group.stages = {{Dimension::kDate, {}}};
  unstaged_group.group_by = {{Dimension::kCustomer, Attr::kNation}};
  EXPECT_FALSE(Validate(unstaged_group).ok());

  StarQuery four_groups;
  four_groups.stages = {{Dimension::kDate, {}}};
  four_groups.group_by.assign(4, {Dimension::kDate, Attr::kYear});
  EXPECT_FALSE(Validate(four_groups).ok());

  // No stages at all is a plain filtered fact scan.
  StarQuery scan;
  scan.fact_predicates = {{LineorderColumn::kDiscount, 1, 3}};
  EXPECT_TRUE(Validate(scan).ok());
}

}  // namespace
}  // namespace pmemolap::ssb

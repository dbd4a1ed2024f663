// InterpretStarQuery — a deliberately naive row-at-a-time evaluator of
// any StarQuery, the oracle for queries beyond the 13 hand-written ones
// in ReferenceExecutor. Every lineorder row joins its dimension rows by
// key and every predicate reads the DateRow / CustomerRow / SupplierRow /
// PartRow fields directly: no selection vectors, no payload encodings,
// no dense maps — nothing shared with the engine's kernels.
#pragma once

#include <cstdint>

#include "ssb/dbgen.h"
#include "ssb/queries.h"
#include "ssb/star_query.h"

namespace pmemolap::ssb {

/// Evaluates `query` over the first `rows` rows of db.lineorder (all of
/// them when `rows` is larger). The query must pass Validate.
QueryOutput InterpretStarQuery(const Database& db, const StarQuery& query,
                               uint64_t rows);

}  // namespace pmemolap::ssb

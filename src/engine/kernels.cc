#include "engine/kernels.h"

#include <algorithm>
#include <limits>

#include "fault/guarded_table.h"

namespace pmemolap {

namespace {

using ssb::LineorderColumn;

/// Column `column` over the whole morsel: p[i - begin] is tuple i. The
/// raw source is read in place; the encoded source is block-decoded and
/// the row source transposed into `buffer`.
const int32_t* ReadMorsel(const KernelContext& ctx, LineorderColumn column,
                          uint64_t begin, uint64_t end,
                          std::vector<int32_t>* buffer) {
  if (ctx.rows == nullptr && ctx.encoded == nullptr) {
    return ctx.columns->column(column).data() + begin;
  }
  buffer->resize(end - begin);
  if (ctx.rows != nullptr) {
    const ssb::LineorderRow* rows = ctx.rows + (begin - ctx.rows_base);
    int32_t ssb::LineorderRow::*field = ssb::LineorderField(column);
    for (uint64_t i = 0; i < end - begin; ++i) (*buffer)[i] = rows[i].*field;
  } else {
    ctx.encoded->column(column).Decode(begin, end, buffer->data());
  }
  return buffer->data();
}

/// Calls fn(at), with at(i) the value of `column` at tuple sel[i]: the
/// raw column indexed in place, or `buffer` filled by a frame-cached
/// gather (encoded) or off the surviving rows (row block). The source is
/// chosen once per read, never per tuple.
template <typename Fn>
void AtSelected(const KernelContext& ctx, LineorderColumn column,
                const std::vector<uint64_t>& sel, std::vector<int32_t>* buffer,
                Fn fn) {
  if (ctx.rows == nullptr && ctx.encoded == nullptr) {
    const int32_t* data = ctx.columns->column(column).data();
    const uint64_t* index = sel.data();
    fn([data, index](size_t i) { return data[index[i]]; });
    return;
  }
  if (ctx.rows == nullptr) {
    ctx.encoded->column(column).GatherInto(sel, buffer);
  } else {
    buffer->resize(sel.size());
    int32_t ssb::LineorderRow::*field = ssb::LineorderField(column);
    for (size_t i = 0; i < sel.size(); ++i) {
      (*buffer)[i] = ctx.rows[sel[i] - ctx.rows_base].*field;
    }
  }
  const int32_t* values = buffer->data();
  fn([values](size_t i) { return values[i]; });
}

/// Loads sel with every tuple of [begin, end).
void SelectAll(uint64_t begin, uint64_t end, KernelScratch* s) {
  s->sel.resize(end - begin);
  for (uint64_t i = begin; i < end; ++i) s->sel[i - begin] = i;
}

/// Selects the tuples of [begin, end) whose `p.column` lies in the range:
/// on the encoded frames directly (frame skipping, dictionary code
/// rewriting), or by one pass over the morsel's column.
void ScanRange(const KernelContext& ctx, const ssb::FactPredicate& p,
               uint64_t begin, uint64_t end, KernelScratch* s) {
  s->sel.clear();
  if (ctx.encoded != nullptr && ctx.rows == nullptr) {
    ctx.encoded->column(p.column).AppendMatchingRange(p.lo, p.hi, begin, end,
                                                      &s->sel);
    return;
  }
  const int32_t* values = ReadMorsel(ctx, p.column, begin, end, &s->values);
  s->sel.resize(end - begin);
  uint64_t* sel = s->sel.data();
  const int32_t lo = p.lo;
  const int32_t hi = p.hi;
  size_t out = 0;
  for (uint64_t i = 0; i < end - begin; ++i) {
    sel[out] = begin + i;
    out += values[i] >= lo && values[i] <= hi;
  }
  s->sel.resize(out);
}

/// Compacts sel, the stage's payloads and the `carried` payloads aligned
/// with them to the entries whose payload passes keep().
template <typename Keep>
void Compact(KernelScratch* s, size_t carried, Keep keep) {
  const size_t n = s->sel.size();
  uint64_t* sel = s->sel.data();
  uint64_t* payloads = s->payloads.data();
  std::array<uint64_t*, 3> kept{};
  for (size_t c = 0; c < carried; ++c) kept[c] = s->carried[c].data();
  // Branch-free: every entry is copied to the output cursor, which only
  // advances past the kept ones.
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t payload = payloads[i];
    sel[out] = sel[i];
    payloads[out] = payload;
    for (size_t c = 0; c < carried; ++c) kept[c][out] = kept[c][i];
    out += keep(payload);
  }
  s->sel.resize(out);
  s->payloads.resize(out);
  for (size_t c = 0; c < carried; ++c) s->carried[c].resize(out);
}

/// One dimension stage: probe `dim` with key_at(i) for every selected
/// tuple, then compact by each of the stage's predicates.
template <typename KeyAt>
Status RunStage(const ssb::DimensionStage& stage, const KernelContext& ctx,
                KeyAt key_at, KernelScratch* s, size_t carried,
                KernelCounters* counters) {
  const KernelDim& dim = ctx.dims[static_cast<size_t>(stage.dim)];
  const size_t n = s->sel.size();
  counters->probes[static_cast<size_t>(stage.dim)] += n;
  s->payloads.resize(n);
  uint64_t* payloads = s->payloads.data();
  for (size_t i = 0; i < n; ++i) payloads[i] = dim.map->Lookup(key_at(i));
  if (dim.guarded != nullptr) {
    PMEMOLAP_RETURN_NOT_OK(dim.guarded->Payloads(ctx.socket, s->payloads));
  }
  for (const ssb::AttrPredicate& p : stage.predicates) {
    const PayloadField field = FieldOf(p.attr);
    if (p.values.empty()) {
      const int32_t lo = p.lo;
      const int32_t hi = p.hi;
      Compact(s, carried, [field, lo, hi](uint64_t payload) {
        const int32_t v = field.Of(payload);
        return v >= lo && v <= hi;
      });
      continue;
    }
    // A value set: compare against every member without an early exit,
    // so the keep decision stays branch-free like the range's.
    const int32_t* values = p.values.data();
    const size_t count = p.values.size();
    Compact(s, carried, [field, values, count](uint64_t payload) {
      const int32_t v = field.Of(payload);
      bool member = false;
      for (size_t k = 0; k < count; ++k) member |= values[k] == v;
      return member;
    });
  }
  return Status::OK();
}

/// Folds the surviving tuples into the scalar sum or the group table,
/// with value(a(i), b(i)) the aggregate of the i-th survivor's inputs and
/// its group key read off the carried payloads.
template <typename A, typename B, typename Value>
void Accumulate(const ssb::StarQuery& query, const KernelScratch& s,
                const std::array<size_t, 3>& carrier, A a, B b, Value value,
                AggTable* groups, int64_t* scalar_sum) {
  const size_t n = s.sel.size();
  if (query.group_by.empty()) {
    int64_t sum = 0;
    for (size_t i = 0; i < n; ++i) sum += value(a(i), b(i));
    *scalar_sum += sum;
    return;
  }
  const size_t slots = query.group_by.size();
  std::array<PayloadField, 3> fields{};
  std::array<const uint64_t*, 3> payloads{};
  for (size_t g = 0; g < slots; ++g) {
    fields[g] = FieldOf(query.group_by[g].attr);
    payloads[g] = s.carried[carrier[g]].data();
  }
  for (size_t i = 0; i < n; ++i) {
    ssb::GroupKey key{0, 0, 0};
    for (size_t g = 0; g < slots; ++g) key[g] = fields[g].Of(payloads[g][i]);
    groups->Add(key, value(a(i), b(i)));
  }
}

template <typename Value>
void AccumulateAt(const ssb::StarQuery& query, const KernelContext& ctx,
                  KernelScratch* s, const std::array<size_t, 3>& carrier,
                  Value value, AggTable* groups, int64_t* scalar_sum) {
  const ssb::Aggregate& agg = query.aggregate;
  AtSelected(ctx, agg.a, s->sel, &s->values, [&](auto a) {
    if (agg.op == ssb::Aggregate::Op::kSum) {
      Accumulate(query, *s, carrier, a, a, value, groups, scalar_sum);
      return;
    }
    AtSelected(ctx, agg.b, s->sel, &s->values_b, [&](auto b) {
      Accumulate(query, *s, carrier, a, b, value, groups, scalar_sum);
    });
  });
}

}  // namespace

PayloadField FieldOf(ssb::Attr attr) {
  switch (attr) {
    case ssb::Attr::kYear:
      return {40, 0xFFFF};
    case ssb::Attr::kYearMonthNum:
      return {16, 0xFFFFFF};
    case ssb::Attr::kWeekNumInYear:
      return {8, 0xFF};
    case ssb::Attr::kMonthNumInYear:
      return {0, 0xFF};
    case ssb::Attr::kCity:
    case ssb::Attr::kBrand:
      return {16, 0xFFFF};
    case ssb::Attr::kNation:
    case ssb::Attr::kCategory:
      return {8, 0xFF};
    case ssb::Attr::kRegion:
    case ssb::Attr::kMfgr:
      return {0, 0xFF};
  }
  return {};
}

void DenseDimMap::Build(const std::vector<int32_t>& keys,
                        const std::vector<uint64_t>& payloads) {
  payloads_.clear();
  if (keys.empty()) return;
  int32_t lo = std::numeric_limits<int32_t>::max();
  int32_t hi = std::numeric_limits<int32_t>::min();
  for (int32_t key : keys) {
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  base_ = lo;
  payloads_.assign(static_cast<size_t>(hi - lo) + 1, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    payloads_[static_cast<size_t>(keys[i] - lo)] = payloads[i];
  }
}

Status ExecuteMorselKernel(const ssb::StarQuery& query,
                           const KernelContext& ctx, uint64_t begin,
                           uint64_t end, KernelScratch* s, AggTable* groups,
                           int64_t* scalar_sum, KernelCounters* counters) {
  if (begin >= end) return Status::OK();
  // Until the first predicate or stage runs, the selection is every tuple
  // of the morsel and is not materialized.
  bool whole = true;
  for (const ssb::FactPredicate& p : query.fact_predicates) {
    if (whole) {
      ScanRange(ctx, p, begin, end, s);
      whole = false;
      continue;
    }
    AtSelected(ctx, p.column, s->sel, &s->values, [&](auto at) {
      uint64_t* sel = s->sel.data();
      const size_t n = s->sel.size();
      const int32_t lo = p.lo;
      const int32_t hi = p.hi;
      size_t out = 0;
      for (size_t i = 0; i < n; ++i) {
        const int32_t v = at(i);
        sel[out] = sel[i];
        out += v >= lo && v <= hi;
      }
      s->sel.resize(out);
    });
  }
  // carrier[g]: the carried payload vector group-by slot g reads.
  std::array<size_t, 3> carrier{};
  size_t carried = 0;
  for (const ssb::DimensionStage& stage : query.stages) {
    const LineorderColumn key = ssb::FactKeyColumn(stage.dim);
    Status status;
    if (whole) {
      const int32_t* keys = ReadMorsel(ctx, key, begin, end, &s->values);
      SelectAll(begin, end, s);
      whole = false;
      status = RunStage(
          stage, ctx, [keys](size_t i) { return keys[i]; }, s, carried,
          counters);
    } else {
      AtSelected(ctx, key, s->sel, &s->values, [&](auto at) {
        status = RunStage(stage, ctx, at, s, carried, counters);
      });
    }
    PMEMOLAP_RETURN_NOT_OK(status);
    // Carry the stage's payloads when a group-by reads its dimension.
    bool needed = false;
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      if (query.group_by[g].dim != stage.dim) continue;
      carrier[g] = carried;
      needed = true;
    }
    if (needed) s->carried[carried++].swap(s->payloads);
  }
  if (whole) SelectAll(begin, end, s);
  counters->qualifying += s->sel.size();

  switch (query.aggregate.op) {
    case ssb::Aggregate::Op::kSum:
      AccumulateAt(
          query, ctx, s, carrier,
          [](int32_t a, int32_t) { return static_cast<int64_t>(a); }, groups,
          scalar_sum);
      break;
    case ssb::Aggregate::Op::kProduct:
      AccumulateAt(
          query, ctx, s, carrier,
          [](int32_t a, int32_t b) { return static_cast<int64_t>(a) * b; },
          groups, scalar_sum);
      break;
    case ssb::Aggregate::Op::kDifference:
      AccumulateAt(
          query, ctx, s, carrier,
          [](int32_t a, int32_t b) { return static_cast<int64_t>(a) - b; },
          groups, scalar_sum);
      break;
  }
  return Status::OK();
}

}  // namespace pmemolap

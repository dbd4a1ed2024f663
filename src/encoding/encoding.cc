#include "encoding/encoding.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

namespace pmemolap::encoding {
namespace {

/// Code mask for a width (0..32 bits).
uint64_t MaskOf(int width) {
  return width == 0 ? 0 : (uint64_t{1} << width) - 1;
}

/// Conservative per-frame value maximum: ref + largest representable code.
int64_t FrameMax(int32_t ref, int width) {
  return static_cast<int64_t>(ref) + static_cast<int64_t>(MaskOf(width));
}

/// Smallest and largest of values[begin, end), end > begin.
std::pair<int32_t, int32_t> FrameBounds(const int32_t* values,
                                        uint64_t begin, uint64_t end) {
  int32_t lo = values[begin];
  int32_t hi = values[begin];
  for (uint64_t i = begin + 1; i < end; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  return {lo, hi};
}

/// Code width in bits of a frame whose values span [lo, hi].
int FrameWidth(int32_t lo, int32_t hi) {
  const uint64_t range = static_cast<uint64_t>(
      static_cast<int64_t>(hi) - static_cast<int64_t>(lo));
  return range == 0 ? 0 : std::bit_width(range);
}

/// Word-padded 64-bit words holding `count` codes of `width` bits.
uint64_t FrameWords(uint64_t count, int width) {
  return (count * static_cast<uint64_t>(width) + 63) / 64;
}

/// Picks the dictionary builder by the column's value span.
DictionaryCodes BuildDictionary(const std::vector<int32_t>& values) {
  if (values.empty()) return DictionaryCodes();
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const uint64_t span = static_cast<uint64_t>(static_cast<int64_t>(*hi) -
                                              static_cast<int64_t>(*lo)) +
                        1;
  // The dense table is then no larger than the sorted copy it replaces.
  return span <= values.size() ? DenseRankDictionary(values)
                               : SortedDictionary(values);
}

}  // namespace

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kRaw:
      return "raw";
    case Scheme::kForBitPack:
      return "for-bitpack";
    case Scheme::kDictionary:
      return "dictionary";
  }
  return "?";
}

// --- PackedArray ------------------------------------------------------------

PackedArray PackedArray::Pack(const int32_t* values, uint64_t n) {
  PackedArray packed;
  packed.size_ = n;
  const uint64_t frames = (n + kFrameValues - 1) / kFrameValues;
  packed.refs_.reserve(frames);
  packed.widths_.reserve(frames);
  packed.offsets_.reserve(frames);
  for (uint64_t frame = 0; frame < frames; ++frame) {
    const uint64_t begin = frame * kFrameValues;
    const uint64_t end = std::min(n, begin + kFrameValues);
    const auto [lo, hi] = FrameBounds(values, begin, end);
    const int width = FrameWidth(lo, hi);
    packed.refs_.push_back(lo);
    packed.widths_.push_back(static_cast<uint8_t>(width));
    packed.offsets_.push_back(static_cast<uint32_t>(packed.words_.size()));
    if (width == 0) continue;  // constant frame: directory only
    // Word-padded frame: codes packed LSB-first from a fresh 64-bit word.
    const size_t base = packed.words_.size();
    packed.words_.resize(base + FrameWords(end - begin, width), 0);
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t code = static_cast<uint64_t>(
          static_cast<int64_t>(values[i]) - static_cast<int64_t>(lo));
      const uint64_t bit = (i - begin) * static_cast<uint64_t>(width);
      const size_t word = base + bit / 64;
      const int shift = static_cast<int>(bit % 64);
      packed.words_[word] |= code << shift;
      if (shift + width > 64) {
        packed.words_[word + 1] |= code >> (64 - shift);
      }
    }
  }
  return packed;
}

uint64_t PackedArray::PackedBytes(const int32_t* values, uint64_t n) {
  const uint64_t frames = (n + kFrameValues - 1) / kFrameValues;
  uint64_t words = 0;
  for (uint64_t frame = 0; frame < frames; ++frame) {
    const uint64_t begin = frame * kFrameValues;
    const uint64_t end = std::min(n, begin + kFrameValues);
    const auto [lo, hi] = FrameBounds(values, begin, end);
    words += FrameWords(end - begin, FrameWidth(lo, hi));
  }
  // Same terms as Bytes(): words plus the ref/width/offset directory.
  return words * sizeof(uint64_t) +
         frames * (sizeof(int32_t) + sizeof(uint8_t) + sizeof(uint32_t));
}

uint64_t PackedArray::FrameCount(uint64_t frame) const {
  return std::min<uint64_t>(kFrameValues, size_ - frame * kFrameValues);
}

int32_t PackedArray::Get(uint64_t index) const {
  const uint64_t frame = index / kFrameValues;
  const int width = widths_[frame];
  if (width == 0) return refs_[frame];
  const uint64_t bit = (index % kFrameValues) * static_cast<uint64_t>(width);
  const size_t word = offsets_[frame] + bit / 64;
  const int shift = static_cast<int>(bit % 64);
  uint64_t code = words_[word] >> shift;
  if (shift + width > 64) code |= words_[word + 1] << (64 - shift);
  code &= MaskOf(width);
  return static_cast<int32_t>(static_cast<int64_t>(refs_[frame]) +
                              static_cast<int64_t>(code));
}

uint64_t PackedArray::DecodeFrame(uint64_t frame, int32_t* out) const {
  const uint64_t count = FrameCount(frame);
  const int32_t ref = refs_[frame];
  const int width = widths_[frame];
  if (width == 0) {
    for (uint64_t i = 0; i < count; ++i) out[i] = ref;
    return count;
  }
  const uint64_t* words = words_.data() + offsets_[frame];
  const uint64_t mask = MaskOf(width);
  uint64_t bit = 0;
  for (uint64_t i = 0; i < count; ++i, bit += width) {
    const int shift = static_cast<int>(bit % 64);
    uint64_t code = words[bit / 64] >> shift;
    if (shift + width > 64) code |= words[bit / 64 + 1] << (64 - shift);
    out[i] = static_cast<int32_t>(static_cast<int64_t>(ref) +
                                  static_cast<int64_t>(code & mask));
  }
  return count;
}

void PackedArray::Decode(uint64_t begin, uint64_t end, int32_t* out) const {
  uint64_t at = begin;
  while (at < end) {
    const uint64_t frame = at / kFrameValues;
    const uint64_t frame_begin = frame * kFrameValues;
    const uint64_t count = FrameCount(frame);
    if (at == frame_begin && end - at >= count) {
      // Whole frame lands in the output: decode in place.
      at += DecodeFrame(frame, out + (at - begin));
      continue;
    }
    int32_t buffer[kFrameValues];
    DecodeFrame(frame, buffer);
    const uint64_t stop = std::min(end, frame_begin + count);
    for (uint64_t i = at; i < stop; ++i) {
      out[i - begin] = buffer[i - frame_begin];
    }
    at = stop;
  }
}

void PackedArray::AppendMatchingRange(int64_t lo, int64_t hi, uint64_t begin,
                                      uint64_t end,
                                      std::vector<uint64_t>* sel) const {
  if (begin >= end || lo > hi) return;
  const uint64_t first = begin / kFrameValues;
  const uint64_t last = (end - 1) / kFrameValues;
  int32_t buffer[kFrameValues];
  for (uint64_t frame = first; frame <= last; ++frame) {
    const uint64_t frame_begin = frame * kFrameValues;
    const uint64_t slice_begin = std::max(begin, frame_begin);
    const uint64_t slice_end =
        std::min(end, frame_begin + FrameCount(frame));
    const int32_t ref = refs_[frame];
    const int width = widths_[frame];
    const int64_t frame_hi = FrameMax(ref, width);
    // Frame-skip: the frame's conservative value bounds miss the range.
    if (frame_hi < lo || static_cast<int64_t>(ref) > hi) continue;
    if (static_cast<int64_t>(ref) >= lo && frame_hi <= hi) {
      // Frame entirely inside the range: qualify without decoding.
      for (uint64_t i = slice_begin; i < slice_end; ++i) sel->push_back(i);
      continue;
    }
    DecodeFrame(frame, buffer);
    for (uint64_t i = slice_begin; i < slice_end; ++i) {
      const int64_t value = buffer[i - frame_begin];
      if (value >= lo && value <= hi) sel->push_back(i);
    }
  }
}

uint64_t PackedArray::Bytes() const {
  return words_.size() * sizeof(uint64_t) + refs_.size() * sizeof(int32_t) +
         widths_.size() * sizeof(uint8_t) +
         offsets_.size() * sizeof(uint32_t);
}

// --- Dictionary builders ----------------------------------------------------

DictionaryCodes DenseRankDictionary(const std::vector<int32_t>& values) {
  DictionaryCodes out;
  if (values.empty()) return out;
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  const int64_t lo = *min_it;
  const uint64_t span = static_cast<uint64_t>(*max_it - lo) + 1;
  auto slot_of = [lo](int32_t value) {
    return static_cast<uint64_t>(static_cast<int64_t>(value) - lo);
  };
  // rank[slot]: 1 marks a present value, then one ascending sweep turns
  // each mark into the value's code.
  std::vector<int32_t> rank(span, 0);
  for (int32_t value : values) rank[slot_of(value)] = 1;
  int32_t distinct = 0;
  for (int32_t present : rank) distinct += present;
  out.values.reserve(static_cast<size_t>(distinct));
  for (uint64_t slot = 0; slot < span; ++slot) {
    if (rank[slot] == 0) continue;
    rank[slot] = static_cast<int32_t>(out.values.size());
    out.values.push_back(
        static_cast<int32_t>(lo + static_cast<int64_t>(slot)));
  }
  out.codes.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out.codes[i] = rank[slot_of(values[i])];
  }
  return out;
}

DictionaryCodes SortedDictionary(const std::vector<int32_t>& values) {
  DictionaryCodes out;
  {
    std::vector<int32_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const auto last = std::unique(sorted.begin(), sorted.end());
    out.values.assign(sorted.begin(), last);  // exact size, not n
  }
  out.codes.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out.codes[i] = static_cast<int32_t>(
        std::lower_bound(out.values.begin(), out.values.end(), values[i]) -
        out.values.begin());
  }
  return out;
}

// --- EncodedColumn ----------------------------------------------------------

EncodedColumn EncodedColumn::EncodeWith(Scheme scheme,
                                        const std::vector<int32_t>& values) {
  EncodedColumn column;
  column.size_ = values.size();
  column.scheme_ = scheme;
  switch (scheme) {
    case Scheme::kRaw:
      column.raw_ = values;
      break;
    case Scheme::kForBitPack:
      column.packed_ = PackedArray::Pack(values.data(), values.size());
      break;
    case Scheme::kDictionary:
      return FromDictionary(BuildDictionary(values));
  }
  return column;
}

EncodedColumn EncodedColumn::FromDictionary(DictionaryCodes dictionary) {
  EncodedColumn column;
  column.size_ = dictionary.codes.size();
  column.scheme_ = Scheme::kDictionary;
  column.packed_ =
      PackedArray::Pack(dictionary.codes.data(), dictionary.codes.size());
  column.dict_ = std::move(dictionary.values);
  return column;
}

EncodedColumn EncodedColumn::Encode(const std::vector<int32_t>& values) {
  if (values.empty()) return EncodedColumn();
  const uint64_t n = values.size();
  const uint64_t raw_bytes = n * sizeof(int32_t);
  const uint64_t for_bytes = PackedArray::PackedBytes(values.data(), n);
  DictionaryCodes dictionary = BuildDictionary(values);
  const uint64_t dict_bytes =
      PackedArray::PackedBytes(dictionary.codes.data(), n) +
      dictionary.values.size() * sizeof(int32_t);
  // Ties prefer FoR (cheapest decode), then dictionary, then raw.
  if (for_bytes <= dict_bytes && for_bytes <= raw_bytes) {
    dictionary = DictionaryCodes();  // release the codes before packing
    return EncodeWith(Scheme::kForBitPack, values);
  }
  if (dict_bytes <= raw_bytes) return FromDictionary(std::move(dictionary));
  return EncodeWith(Scheme::kRaw, values);
}

int32_t EncodedColumn::Get(uint64_t index) const {
  switch (scheme_) {
    case Scheme::kRaw:
      return raw_[index];
    case Scheme::kForBitPack:
      return packed_.Get(index);
    case Scheme::kDictionary:
      return dict_[static_cast<size_t>(packed_.Get(index))];
  }
  return 0;
}

void EncodedColumn::Decode(uint64_t begin, uint64_t end, int32_t* out) const {
  switch (scheme_) {
    case Scheme::kRaw:
      std::copy(raw_.begin() + static_cast<ptrdiff_t>(begin),
                raw_.begin() + static_cast<ptrdiff_t>(end), out);
      return;
    case Scheme::kForBitPack:
      packed_.Decode(begin, end, out);
      return;
    case Scheme::kDictionary:
      packed_.Decode(begin, end, out);
      for (uint64_t i = 0; i < end - begin; ++i) {
        out[i] = dict_[static_cast<size_t>(out[i])];
      }
      return;
  }
}

void EncodedColumn::GatherInto(const std::vector<uint64_t>& sel,
                               std::vector<int32_t>* out) const {
  out->resize(sel.size());
  if (scheme_ == Scheme::kRaw) {
    for (size_t i = 0; i < sel.size(); ++i) (*out)[i] = raw_[sel[i]];
    return;
  }
  // Selection vectors are ascending, so each touched frame is decoded
  // exactly once into the cache.
  int32_t buffer[kFrameValues];
  uint64_t cached = ~uint64_t{0};
  for (size_t i = 0; i < sel.size(); ++i) {
    const uint64_t frame = sel[i] / kFrameValues;
    if (frame != cached) {
      packed_.DecodeFrame(frame, buffer);
      cached = frame;
    }
    int32_t value = buffer[sel[i] % kFrameValues];
    if (scheme_ == Scheme::kDictionary) {
      value = dict_[static_cast<size_t>(value)];
    }
    (*out)[i] = value;
  }
}

void EncodedColumn::AppendMatchingRange(int32_t lo, int32_t hi,
                                        uint64_t begin, uint64_t end,
                                        std::vector<uint64_t>* sel) const {
  switch (scheme_) {
    case Scheme::kRaw:
      for (uint64_t i = begin; i < end && i < size_; ++i) {
        if (raw_[i] >= lo && raw_[i] <= hi) sel->push_back(i);
      }
      return;
    case Scheme::kForBitPack:
      packed_.AppendMatchingRange(lo, hi, begin, end, sel);
      return;
    case Scheme::kDictionary: {
      // The dictionary is sorted, so the value range [lo, hi] maps to the
      // contiguous code range of the entries it covers.
      const auto code_lo =
          std::lower_bound(dict_.begin(), dict_.end(), lo) - dict_.begin();
      const auto code_hi =
          std::upper_bound(dict_.begin(), dict_.end(), hi) - dict_.begin() -
          1;
      if (code_lo > code_hi) return;  // no dictionary entry in range
      packed_.AppendMatchingRange(code_lo, code_hi, begin, end, sel);
      return;
    }
  }
}

void EncodedColumn::AppendMatchingEquals(int32_t value, uint64_t begin,
                                         uint64_t end,
                                         std::vector<uint64_t>* sel) const {
  if (scheme_ == Scheme::kDictionary) {
    const auto it = std::lower_bound(dict_.begin(), dict_.end(), value);
    if (it == dict_.end() || *it != value) return;  // absent: zero matches
    const int64_t code = it - dict_.begin();
    packed_.AppendMatchingRange(code, code, begin, end, sel);
    return;
  }
  AppendMatchingRange(value, value, begin, end, sel);
}

uint64_t EncodedColumn::EncodedBytes() const {
  switch (scheme_) {
    case Scheme::kRaw:
      return size_ * sizeof(int32_t);
    case Scheme::kForBitPack:
      return packed_.Bytes();
    case Scheme::kDictionary:
      return packed_.Bytes() + dict_.size() * sizeof(int32_t);
  }
  return 0;
}

double EncodedColumn::CompressionRatio() const {
  const uint64_t encoded = EncodedBytes();
  if (encoded == 0) return 1.0;
  return static_cast<double>(RawBytes()) / static_cast<double>(encoded);
}

}  // namespace pmemolap::encoding

#include "series/columnar.h"

#include <bit>
#include <cmath>

#include "util/check.h"

namespace ixp::series {
namespace {

constexpr std::uint8_t kOpGap = 0x00;
constexpr std::uint8_t kOpLiteral = 0x01;
constexpr std::uint8_t kOpDelta = 0x02;

// Milliseconds -> integer nanoseconds.  Everything the simulator emits is
// to_ms() of an integer-nanosecond Duration, so this grid is exact for the
// entire campaign workload; the literal escape covers everything else.
constexpr double kScale = 1e6;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    IXP_CHECK(pos < in.size(), "columnar: truncated varint");
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    IXP_CHECK(shift < 64, "columnar: varint overflow");
  }
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// True iff v sits exactly on the integer-nanosecond grid: round-tripping
/// through the quantized integer reproduces the identical bit pattern
/// (this rejects -0.0, which quantizes to +0.0).
bool quantize(double v, std::int64_t* q) {
  const double scaled = v * kScale;
  if (!(scaled >= -9.0e18 && scaled <= 9.0e18)) return false;  // llround domain
  const std::int64_t cand = std::llround(scaled);
  if (std::bit_cast<std::uint64_t>(static_cast<double>(cand) / kScale) !=
      std::bit_cast<std::uint64_t>(v)) {
    return false;
  }
  *q = cand;
  return true;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

void Column::append(std::span<const double> values) {
  for (const double v : values) {
    ++samples;
    if (std::isnan(v)) {
      ++open_gap;
      continue;
    }
    if (open_gap > 0) {
      bytes.push_back(kOpGap);
      put_varint(bytes, open_gap);
      open_gap = 0;
    }
    std::int64_t q = 0;
    if (quantize(v, &q)) {
      bytes.push_back(kOpDelta);
      put_varint(bytes, zigzag(q - prev_q));
      prev_q = q;
    } else {
      // Off-grid value (or -0.0): store the raw bits.  The predictor is
      // left untouched so encode state stays a pure function of the
      // quantizable samples seen so far.
      bytes.push_back(kOpLiteral);
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
      for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
}

std::vector<double> Column::decode() const {
  std::vector<double> out;
  decode_into(out);
  return out;
}

void Column::decode_into(std::vector<double>& out) const {
  out.clear();
  out.reserve(samples);
  std::size_t pos = 0;
  std::int64_t q = 0;
  while (pos < bytes.size()) {
    const std::uint8_t op = bytes[pos++];
    switch (op) {
      case kOpGap: {
        const std::uint64_t run = get_varint(bytes, pos);
        out.insert(out.end(), run, tslp::kMissing);
        break;
      }
      case kOpLiteral: {
        IXP_CHECK(pos + 8 <= bytes.size(), "columnar: truncated literal");
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i) {
          bits |= static_cast<std::uint64_t>(bytes[pos + static_cast<std::size_t>(i)]) << (8 * i);
        }
        pos += 8;
        out.push_back(std::bit_cast<double>(bits));
        break;
      }
      case kOpDelta: {
        q += unzigzag(get_varint(bytes, pos));
        out.push_back(static_cast<double>(q) / kScale);
        break;
      }
      default:
        IXP_CHECK(false, "columnar: unknown token");
    }
  }
  // The trailing missing run is flushed lazily; materialize it here.
  out.insert(out.end(), open_gap, tslp::kMissing);
  IXP_CHECK(out.size() == samples, "columnar: decoded length mismatch");
}

std::size_t Column::resident_bytes() const {
  std::size_t n = bytes.size();
  if (open_gap > 0) n += 1 + varint_size(open_gap);
  return n;
}

std::size_t SeriesStore::add_link(LinkMeta meta, std::uint64_t lead_missing) {
  Entry e;
  e.meta = std::move(meta);
  links_.push_back(std::move(e));
  Entry& back = links_.back();
  if (lead_missing > 0) {
    back.near.samples = lead_missing;
    back.far.samples = lead_missing;
    back.near.open_gap = lead_missing;
    back.far.open_gap = lead_missing;
  }
  return links_.size() - 1;
}

void SeriesStore::append(std::size_t i, std::span<const double> near,
                         std::span<const double> far) {
  IXP_CHECK(i < links_.size(), "SeriesStore::append: bad link index");
  IXP_CHECK(near.size() == far.size(), "SeriesStore::append: near/far length mismatch");
  links_[i].near.append(near);
  links_[i].far.append(far);
}

tslp::LinkSeries SeriesStore::decode(std::size_t i) const {
  tslp::LinkSeries ls;
  decode_into(i, ls);
  return ls;
}

void SeriesStore::decode_into(std::size_t i, tslp::LinkSeries& out) const {
  IXP_CHECK(i < links_.size(), "SeriesStore::decode_into: bad link index");
  const LinkMeta& m = links_[i].meta;
  out.key = m.key;
  out.near_ip = m.near_ip;
  out.far_ip = m.far_ip;
  out.near_asn = m.near_asn;
  out.far_asn = m.far_asn;
  out.at_ixp = m.at_ixp;
  out.near_rtt.start = start_;
  out.near_rtt.interval = interval_;
  out.far_rtt.start = start_;
  out.far_rtt.interval = interval_;
  out.responder_changes.clear();
  decode_into(i, out.near_rtt.ms, out.far_rtt.ms);
}

void SeriesStore::decode_into(std::size_t i, std::vector<double>& near,
                              std::vector<double>& far) const {
  IXP_CHECK(i < links_.size(), "SeriesStore::decode_into: bad link index");
  links_[i].near.decode_into(near);
  links_[i].far.decode_into(far);
}

void SeriesStore::decode_far_into(std::size_t i, std::vector<double>& far) const {
  IXP_CHECK(i < links_.size(), "SeriesStore::decode_far_into: bad link index");
  links_[i].far.decode_into(far);
}

std::size_t SeriesStore::resident_bytes() const {
  std::size_t n = 0;
  for (const Entry& e : links_) n += e.near.resident_bytes() + e.far.resident_bytes();
  return n;
}

std::size_t SeriesStore::raw_bytes() const {
  return static_cast<std::size_t>(samples_total()) * sizeof(double);
}

std::uint64_t SeriesStore::samples_total() const {
  std::uint64_t n = 0;
  for (const Entry& e : links_) n += e.near.samples + e.far.samples;
  return n;
}

}  // namespace ixp::series

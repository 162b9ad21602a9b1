// Columnar storage for RTT time series: lossless delta/quantized encoding,
// so a long-horizon many-link campaign holds its sample history in a few
// percent of the raw 8-bytes-per-sample footprint.
//
// Why this exists: the paper's substrate is 6 VPs and a few hundred links,
// where `std::vector<double>` per link side is fine.  The continent-scale
// substrate (docs/SCALING.md) is hundreds of IXPs and ~10^6 monitored
// links over a year -- raw doubles would be ~1.6 TB.  Almost every sample
// the simulator produces is derived from an integer-nanosecond RTT
// (util/time.h `to_ms`), so quantizing to integer nanoseconds is exact,
// and consecutive RTTs on an uncongested link differ by microseconds, so
// zigzag-varint deltas are 1-2 bytes.  Lost probes (NaN, tslp::kMissing)
// arrive in runs -- probe bursts, maintenance windows, membership gaps
// (PR 4) -- and compress to a single run-length token.
//
// Encoding, per column (one column = one side of one link):
//
//   token 0x00 <varint n>          gap: n consecutive missing samples
//   token 0x01 <8 bytes LE bits>   literal: raw IEEE-754 double
//   token 0x02 <zigzag varint d>   delta: q = prev_q + d, value = q / 1e6 ms
//
// A finite value v is delta-eligible iff round(v * 1e6) converts back to
// bit-identical v; anything else (including -0.0 and values produced
// outside the integer-ns grid) is stored as a literal, so decode is
// bit-exact for arbitrary input -- the property tests in
// tests/test_series.cc round-trip adversarial doubles.
//
// The encoder is streaming: `SeriesStore::append` consumes one segment of
// samples at a time (campaign segments between membership events) and
// carries (prev_q, open gap run) across calls, so encoded bytes are
// identical whether a series arrives in one call or round-by-round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tslp/series.h"
#include "util/time.h"

namespace ixp::series {

/// One encoded column and the codec state needed to keep appending to it.
struct Column {
  std::vector<std::uint8_t> bytes;  ///< token stream (see file header)
  std::uint64_t samples = 0;        ///< decoded length

  // Streaming encoder state.
  std::int64_t prev_q = 0;    ///< last quantized value (integer nanoseconds)
  std::uint64_t open_gap = 0; ///< missing run not yet flushed to `bytes`

  /// Appends samples (NaN = missing) to the token stream.
  void append(std::span<const double> values);
  /// Decodes the full column back to raw samples, bit-exact.
  [[nodiscard]] std::vector<double> decode() const;
  /// Same decode into a caller-owned buffer (cleared first), so a sweep
  /// over a large store reuses one allocation instead of one per column.
  void decode_into(std::vector<double>& out) const;
  /// Bytes held, including any open gap run (flushed lazily on decode).
  [[nodiscard]] std::size_t resident_bytes() const;
};

/// Identity of one monitored link; mirrors tslp::LinkSeries minus the
/// sample vectors.
struct LinkMeta {
  std::string key;
  net::Ipv4Address near_ip;
  net::Ipv4Address far_ip;
  std::uint32_t near_asn = 0;
  std::uint32_t far_asn = 0;
  bool at_ixp = false;
};

/// Append-only store of near/far RTT columns for a set of monitored
/// links sharing one sample grid (same start and round interval).
///
/// All links are kept at the same decoded length: a link discovered
/// mid-campaign is added with a leading gap run covering the rounds it
/// missed.
class SeriesStore {
 public:
  SeriesStore() = default;
  SeriesStore(TimePoint start, Duration interval) : start_(start), interval_(interval) {}

  /// Registers a link whose first sample is at grid index `lead_missing`.
  /// Returns the link's index.
  std::size_t add_link(LinkMeta meta, std::uint64_t lead_missing = 0);

  /// Appends one segment of near/far samples (equal length) to link `i`.
  void append(std::size_t i, std::span<const double> near, std::span<const double> far);

  /// Decodes link `i` into a LinkSeries: its metadata, the store's time
  /// base and both sample columns, bit-exact.
  [[nodiscard]] tslp::LinkSeries decode(std::size_t i) const;

  /// Same decode into a caller-owned LinkSeries, reusing its sample
  /// buffers (`out.responder_changes` is cleared, as decode leaves it).
  void decode_into(std::size_t i, tslp::LinkSeries& out) const;

  /// Decodes link `i`'s two columns into reusable buffers (bit-exact, like
  /// decode) without constructing a LinkSeries; the TSLP fast path wraps
  /// the buffers in SeriesViews on the store's time base.
  void decode_into(std::size_t i, std::vector<double>& near, std::vector<double>& far) const;

  /// Decodes only link `i`'s far column, for readers that never look at
  /// the near side (live verdicts run the far detector alone).
  void decode_far_into(std::size_t i, std::vector<double>& far) const;

  [[nodiscard]] std::size_t size() const { return links_.size(); }
  [[nodiscard]] const LinkMeta& meta(std::size_t i) const { return links_[i].meta; }
  [[nodiscard]] std::uint64_t samples(std::size_t i) const { return links_[i].near.samples; }
  [[nodiscard]] TimePoint start() const { return start_; }
  [[nodiscard]] Duration interval() const { return interval_; }

  /// Encoded bytes held across all columns.
  [[nodiscard]] std::size_t resident_bytes() const;
  /// What the raw in-memory representation would hold (8 bytes/sample).
  [[nodiscard]] std::size_t raw_bytes() const;
  /// Total samples across all columns (near + far).
  [[nodiscard]] std::uint64_t samples_total() const;

 private:
  struct Entry {
    LinkMeta meta;
    Column near;
    Column far;
  };
  TimePoint start_{};
  Duration interval_ = kMinute * 5;
  std::vector<Entry> links_;
};

}  // namespace ixp::series

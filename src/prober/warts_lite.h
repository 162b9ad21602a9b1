// warts-lite: a compact binary capture format for measurement output.
//
// scamper stores its measurements in the warts format; warts-lite plays the
// same role here so campaigns can be persisted and re-analysed without
// re-simulating.  The format is a sequence of length-prefixed records after
// a fixed header:
//
//   file   := magic("WLT1") u16 version  record*
//   record := u8 type  u32 payload_len  payload
//   types  := 1 link-RTT series
//
// All integers are little-endian; doubles are IEEE-754 bit patterns (NaN
// encodes a lost probe).  Readers reject bad magic, unknown versions, and
// truncated records, and skip records of any other type (older captures
// also hold type 2 loss and type 3 traceroute records).
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <vector>

#include "tslp/series.h"

namespace ixp::prober {

inline constexpr std::uint16_t kWartsLiteVersion = 1;

/// What one campaign run persists: its per-link RTT series.
struct WartsLiteFile {
  std::vector<tslp::LinkSeries> links;
};

/// Serializes to a stream.  Returns false on stream failure.
bool write_warts_lite(std::ostream& out, const WartsLiteFile& file);

/// Parses from a stream; nullopt on malformed input.
std::optional<WartsLiteFile> read_warts_lite(std::istream& in);

}  // namespace ixp::prober

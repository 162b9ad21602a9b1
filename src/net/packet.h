// In-simulator packet model.
//
// The simulator moves Packet objects.  Fields mirror what scamper's TSLP
// probing actually uses: ICMP echo with a caller-chosen TTL, plus the IPv4
// record-route option for path-symmetry checks.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "util/time.h"

namespace ixp::net {

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

/// Maximum route entries the IPv4 RR option can hold (9 slots of 4 bytes in
/// a 40-byte options area, minus type/length/pointer).
inline constexpr int kMaxRecordRouteSlots = 9;

struct Packet {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint8_t ttl = 64;
  IcmpType icmp_type = IcmpType::kEchoRequest;
  std::uint8_t icmp_code = 0;
  std::uint16_t ident = 0;    ///< ICMP identifier (per-prober)
  std::uint16_t seq = 0;      ///< ICMP sequence number
  std::uint16_t ip_id = 0;    ///< IPv4 identification field; routers stamp
                              ///< replies from a shared counter (Ally)
  std::uint32_t size_bytes = 64;  ///< total on-wire size incl. headers

  bool record_route = false;              ///< IPv4 RR option present
  std::vector<Ipv4Address> route_stamps;  ///< addresses stamped by routers

  TimePoint sent_at;  ///< simulator bookkeeping: when the probe left the VP

  /// For TimeExceeded/Unreachable replies: the original probe this quotes.
  std::uint16_t quoted_ident = 0;
  std::uint16_t quoted_seq = 0;

  [[nodiscard]] bool is_probe() const { return icmp_type == IcmpType::kEchoRequest; }
};

}  // namespace ixp::net

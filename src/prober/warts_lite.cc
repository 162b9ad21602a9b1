#include "prober/warts_lite.h"

#include <bit>
#include <cstring>
#include <string>

namespace ixp::prober {
namespace {

constexpr char kMagic[4] = {'W', 'L', 'T', '1'};
constexpr std::uint8_t kTypeLink = 1;

// ---- little-endian primitive encoding into a byte buffer -------------------

void put_u16(std::string& b, std::uint16_t v) {
  b.push_back(static_cast<char>(v & 0xff));
  b.push_back(static_cast<char>((v >> 8) & 0xff));
}
void put_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_i64(std::string& b, std::int64_t v) { put_u64(b, static_cast<std::uint64_t>(v)); }
void put_f64(std::string& b, double v) { put_u64(b, std::bit_cast<std::uint64_t>(v)); }
void put_str(std::string& b, const std::string& s) {
  put_u16(b, static_cast<std::uint16_t>(s.size()));
  b.append(s);
}

struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || static_cast<std::size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = 0;
    std::memcpy(&v, p, 2);
    p += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint16_t n = u16();
    if (!need(n)) return {};
    std::string s(p, n);
    p += n;
    return s;
  }
};

void put_series(std::string& b, const tslp::RttSeries& s) {
  put_i64(b, s.start.ns());
  put_i64(b, s.interval.count());
  put_u32(b, static_cast<std::uint32_t>(s.ms.size()));
  for (double v : s.ms) put_f64(b, v);
}

bool get_series(Cursor& c, tslp::RttSeries& s) {
  s.start = TimePoint(Duration(c.i64()));
  s.interval = Duration(c.i64());
  const std::uint32_t n = c.u32();
  if (!c.need(static_cast<std::size_t>(n) * 8)) return false;
  s.ms.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) s.ms[i] = c.f64();
  return c.ok;
}

void append_record(std::string& out, std::uint8_t type, const std::string& payload) {
  out.push_back(static_cast<char>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
}

}  // namespace

bool write_warts_lite(std::ostream& out, const WartsLiteFile& file) {
  std::string buf;
  buf.append(kMagic, 4);
  put_u16(buf, kWartsLiteVersion);

  for (const auto& l : file.links) {
    std::string p;
    put_str(p, l.key);
    put_u32(p, l.near_ip.value());
    put_u32(p, l.far_ip.value());
    put_u32(p, l.near_asn);
    put_u32(p, l.far_asn);
    p.push_back(l.at_ixp ? 1 : 0);
    put_series(p, l.near_rtt);
    put_series(p, l.far_rtt);
    append_record(buf, kTypeLink, p);
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  return static_cast<bool>(out);
}

std::optional<WartsLiteFile> read_warts_lite(std::istream& in) {
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  Cursor c{data.data(), data.data() + data.size()};
  if (!c.need(6) || std::memcmp(c.p, kMagic, 4) != 0) return std::nullopt;
  c.p += 4;
  if (c.u16() != kWartsLiteVersion) return std::nullopt;

  WartsLiteFile file;
  while (c.ok && c.p < c.end) {
    if (!c.need(5)) return std::nullopt;
    const std::uint8_t type = static_cast<std::uint8_t>(*c.p);
    c.p += 1;
    const std::uint32_t len = c.u32();
    if (!c.need(len)) return std::nullopt;
    Cursor rec{c.p, c.p + len};
    c.p += len;

    if (type == kTypeLink) {
      tslp::LinkSeries l;
      l.key = rec.str();
      l.near_ip = net::Ipv4Address(rec.u32());
      l.far_ip = net::Ipv4Address(rec.u32());
      l.near_asn = rec.u32();
      l.far_asn = rec.u32();
      if (!rec.need(1)) return std::nullopt;
      l.at_ixp = *rec.p != 0;
      rec.p += 1;
      if (!get_series(rec, l.near_rtt) || !get_series(rec, l.far_rtt)) return std::nullopt;
      file.links.push_back(std::move(l));
    }
    // Any other record type is skipped: loss and traceroute records in
    // older captures, and types a later writer may add.
  }
  if (!c.ok) return std::nullopt;
  return file;
}

}  // namespace ixp::prober

#include "topo/gen.h"

#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace ixp::topo {
namespace {

enum class Kind { kString, kU64, kInt, kDouble };

// The single source of truth for the spec grammar.  tools/check_docs.sh
// greps this table and cross-checks every key against docs/SCALING.md in
// both directions -- add a key here and the docs lint fails until
// SCALING.md documents it.
struct KeyDef {
  const char* key;
  Kind kind;
  std::string TopoSpec::* s = nullptr;
  std::uint64_t TopoSpec::* u = nullptr;
  int TopoSpec::* i = nullptr;
  double TopoSpec::* d = nullptr;
};

const KeyDef kSpecKeys[] = {
    {"name", Kind::kString, &TopoSpec::name},
    {"seed", Kind::kU64, nullptr, &TopoSpec::seed},
    {"ixps", Kind::kInt, nullptr, nullptr, &TopoSpec::ixps},
    {"days", Kind::kInt, nullptr, nullptr, &TopoSpec::days},
    {"snapshot.days", Kind::kInt, nullptr, nullptr, &TopoSpec::snapshot_days},
    {"regions", Kind::kInt, nullptr, nullptr, &TopoSpec::regions},
    {"members.dist", Kind::kString, &TopoSpec::members_dist},
    {"members.mean", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::members_mean},
    {"members.min", Kind::kInt, nullptr, nullptr, &TopoSpec::members_min},
    {"members.max", Kind::kInt, nullptr, nullptr, &TopoSpec::members_max},
    {"multi.router.fraction", Kind::kDouble, nullptr, nullptr, nullptr,
     &TopoSpec::multi_router_fraction},
    {"ptp.fraction", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::ptp_fraction},
    {"transit.depth", Kind::kInt, nullptr, nullptr, &TopoSpec::transit_depth},
    {"rtt.fabric.ms", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::rtt_fabric_ms},
    {"rtt.metro.ms", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::rtt_metro_ms},
    {"rtt.region.ms", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::rtt_region_ms},
    {"rtt.continent.ms", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::rtt_continent_ms},
    {"capacity.min.mbps", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::capacity_min_mbps},
    {"capacity.max.mbps", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::capacity_max_mbps},
    {"congested.fraction", Kind::kDouble, nullptr, nullptr, nullptr,
     &TopoSpec::congested_fraction},
    {"congested.aw.ms", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::congested_aw_ms},
    {"congested.dtud.hours", Kind::kDouble, nullptr, nullptr, nullptr,
     &TopoSpec::congested_dtud_hours},
    {"noise.fraction", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::noise_fraction},
    {"silent.fraction", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::silent_fraction},
    {"vp.tail.ms", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::vp_tail_ms},
    {"vp.tail.jitter", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::vp_tail_jitter},
    {"remote.fraction", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::remote_fraction},
    {"rtt.remote.ms", Kind::kDouble, nullptr, nullptr, nullptr, &TopoSpec::rtt_remote_ms},
    {"facilities", Kind::kInt, nullptr, nullptr, &TopoSpec::facilities},
};

const KeyDef* find_key(std::string_view key) {
  for (const KeyDef& def : kSpecKeys) {
    if (key == def.key) return &def;
  }
  return nullptr;
}

bool parse_i64(std::string_view s, std::int64_t& out) {
  bool neg = false;
  if (!s.empty() && s.front() == '-') {
    neg = true;
    s.remove_prefix(1);
  }
  std::uint64_t u = 0;
  if (!parse_u64(s, u)) return false;
  out = neg ? -static_cast<std::int64_t>(u) : static_cast<std::int64_t>(u);
  return true;
}

std::string format_double(double v) {
  // Shortest form that parses back exactly enough for spec round-trips.
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

bool fraction(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace

std::optional<TopoSpec> parse_topo_spec(const std::string& text, std::string* error) {
  TopoSpec spec;
  int lineno = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line(raw);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error) *error = strformat("line %d: expected 'key = value'", lineno);
      return std::nullopt;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    const KeyDef* def = find_key(key);
    if (def == nullptr) {
      if (error) {
        *error = strformat("line %d: unknown spec key '%.*s'", lineno,
                           static_cast<int>(key.size()), key.data());
      }
      return std::nullopt;
    }
    bool ok = true;
    switch (def->kind) {
      case Kind::kString:
        spec.*(def->s) = std::string(value);
        break;
      case Kind::kU64: {
        std::uint64_t u = 0;
        ok = parse_u64(value, u);
        if (ok) spec.*(def->u) = u;
        break;
      }
      case Kind::kInt: {
        std::int64_t i = 0;
        ok = parse_i64(value, i);
        if (ok) spec.*(def->i) = static_cast<int>(i);
        break;
      }
      case Kind::kDouble: {
        double d = 0.0;
        ok = parse_double(value, d);
        if (ok) spec.*(def->d) = d;
        break;
      }
    }
    if (!ok) {
      if (error) {
        *error = strformat("line %d: bad value for '%s': '%.*s'", lineno, def->key,
                           static_cast<int>(value.size()), value.data());
      }
      return std::nullopt;
    }
  }
  if (const std::string msg = validate_topo_spec(spec); !msg.empty()) {
    if (error) *error = msg;
    return std::nullopt;
  }
  return spec;
}

std::optional<TopoSpec> load_topo_spec(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot read spec file: " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_topo_spec(buf.str(), error);
}

std::string topo_spec_to_string(const TopoSpec& spec) {
  std::string out;
  for (const KeyDef& def : kSpecKeys) {
    out += def.key;
    out += " = ";
    switch (def.kind) {
      case Kind::kString:
        out += spec.*(def.s);
        break;
      case Kind::kU64:
        out += strformat("%llu", static_cast<unsigned long long>(spec.*(def.u)));
        break;
      case Kind::kInt:
        out += strformat("%d", spec.*(def.i));
        break;
      case Kind::kDouble:
        out += format_double(spec.*(def.d));
        break;
    }
    out += '\n';
  }
  return out;
}

std::string validate_topo_spec(const TopoSpec& spec) {
  if (spec.name.empty()) return "spec: name must not be empty";
  if (spec.ixps < 1) return "spec: ixps must be >= 1";
  if (spec.days < 1) return "spec: days must be >= 1";
  if (spec.snapshot_days < 0) return "spec: snapshot.days must be >= 0";
  if (spec.regions < 1) return "spec: regions must be >= 1";
  if (spec.members_dist != "fixed" && spec.members_dist != "uniform" &&
      spec.members_dist != "pareto") {
    return "spec: members.dist must be fixed, uniform, or pareto";
  }
  if (spec.members_min < 1) return "spec: members.min must be >= 1";
  if (spec.members_max < spec.members_min) return "spec: members.max < members.min";
  if (spec.members_mean < static_cast<double>(spec.members_min)) {
    return "spec: members.mean below members.min";
  }
  if (!fraction(spec.multi_router_fraction)) return "spec: multi.router.fraction not in [0,1]";
  if (!fraction(spec.ptp_fraction)) return "spec: ptp.fraction not in [0,1]";
  if (spec.transit_depth < 1 || spec.transit_depth > 8) {
    return "spec: transit.depth must be in [1,8]";
  }
  if (spec.rtt_fabric_ms <= 0 || spec.rtt_metro_ms <= 0 || spec.rtt_region_ms <= 0 ||
      spec.rtt_continent_ms <= 0) {
    return "spec: rtt.*.ms must be positive";
  }
  if (spec.capacity_min_mbps <= 0 || spec.capacity_max_mbps < spec.capacity_min_mbps) {
    return "spec: capacity range must satisfy 0 < min <= max";
  }
  if (!fraction(spec.congested_fraction)) return "spec: congested.fraction not in [0,1]";
  if (spec.congested_aw_ms <= 0) return "spec: congested.aw.ms must be positive";
  if (spec.congested_dtud_hours <= 0 || spec.congested_dtud_hours > 24) {
    return "spec: congested.dtud.hours must be in (0,24]";
  }
  if (!fraction(spec.noise_fraction)) return "spec: noise.fraction not in [0,1]";
  if (!fraction(spec.silent_fraction)) return "spec: silent.fraction not in [0,1]";
  if (spec.vp_tail_ms < 0) return "spec: vp.tail.ms must be >= 0";
  if (!fraction(spec.vp_tail_jitter)) return "spec: vp.tail.jitter not in [0,1]";
  if (!fraction(spec.remote_fraction)) return "spec: remote.fraction not in [0,1]";
  if (spec.rtt_remote_ms <= 0) return "spec: rtt.remote.ms must be positive";
  if (spec.facilities < 0) return "spec: facilities must be >= 0";
  return {};
}

std::optional<TopoSpec> topo_spec_preset(const std::string& name) {
  TopoSpec spec;
  spec.name = name;
  if (name == "paper6") {
    // The paper's scale: six exchanges, mostly small member counts, one
    // snapshot cadence matching Table 2's quarterly rhythm.
    spec.ixps = 6;
    spec.days = 28;
    spec.members_dist = "uniform";
    spec.members_min = 4;
    spec.members_max = 24;
    spec.members_mean = 14.0;
    spec.seed = 6;
    return spec;
  }
  if (name == "regional50") {
    // A regional substrate: every exchange of one sub-region, heavy-tailed
    // membership, two weeks of probing.
    spec.ixps = 50;
    spec.days = 14;
    spec.members_dist = "pareto";
    spec.members_mean = 12.0;
    spec.members_min = 3;
    spec.members_max = 150;
    spec.regions = 3;
    spec.seed = 50;
    return spec;
  }
  if (name == "continent100") {
    // Continent-scale: a hundred exchanges across five regions with
    // NAPAfrica-style heavy hitters in the tail and a deeper transit
    // hierarchy; one week at full cadence.
    spec.ixps = 100;
    spec.days = 7;
    spec.members_dist = "pareto";
    spec.members_mean = 18.0;
    spec.members_min = 3;
    spec.members_max = 400;
    spec.regions = 5;
    spec.transit_depth = 2;
    spec.seed = 100;
    return spec;
  }
  if (name == "rixp16") {
    // Remote-peering exchange ("Poor Peering: a reflexion about a RIXP",
    // PAPERS.md): the VP reaches the fabric over a ~35 ms jittery tail and
    // a third of the members peer remotely, so the near-segment baseline
    // the TSLP differential rests on is itself long and noisy.
    spec.ixps = 1;
    spec.days = 28;
    spec.members_dist = "uniform";
    spec.members_min = 10;
    spec.members_max = 22;
    spec.members_mean = 16.0;
    spec.vp_tail_ms = 35.0;
    spec.vp_tail_jitter = 0.25;
    spec.remote_fraction = 0.35;
    spec.rtt_remote_ms = 60.0;
    spec.seed = 161;
    return spec;
  }
  if (name == "facility8") {
    // Colocation-facility substrate: one exchange whose members are homed
    // at three facilities, no scripted congestion — the only disruptions
    // are the ones a facility fault plan injects, which is what makes the
    // facility detector's precision/recall against the "facility" plan a
    // clean measurement.
    spec.ixps = 1;
    spec.days = 28;
    spec.members_dist = "uniform";
    spec.members_min = 9;
    spec.members_max = 15;
    spec.members_mean = 12.0;
    spec.facilities = 3;
    spec.congested_fraction = 0.0;
    spec.noise_fraction = 0.0;
    spec.silent_fraction = 0.0;
    spec.seed = 88;
    return spec;
  }
  return std::nullopt;
}

std::vector<std::string> topo_spec_preset_names() {
  return {"paper6", "regional50", "continent100", "rixp16", "facility8"};
}

std::optional<TopoSpec> resolve_topo_spec(const std::string& arg, std::string* error) {
  if (auto spec = topo_spec_preset(arg)) return spec;
  std::string reason;
  auto spec = load_topo_spec(arg, &reason);
  if (!spec && error) *error = "'" + arg + "' is neither a preset nor a spec file: " + reason;
  return spec;
}

}  // namespace ixp::topo

#include "obs/export.h"

#include <cmath>
#include <fstream>
#include <ostream>

#include "util/strings.h"

namespace ixp::obs {

namespace {

// One fixed conversion for every double the exporters emit: %.17g
// round-trips any finite IEEE double, so equal bit patterns give equal
// bytes and the determinism guarantee reduces to "same values in, same
// file out".
std::string fmt_double(double v) {
  if (std::isnan(v)) return "null";
  return strformat("%.17g", v);
}

void write_id_fields(std::ostream& out, const MetricId& id) {
  out << strformat("\"name\": \"%s\", \"labels\": \"%s\"", json_escape(id.name).c_str(),
                   json_escape(id.labels).c_str());
}

template <typename Map, typename BodyFn>
void write_json_section(std::ostream& out, const char* section, const Map& metrics,
                        bool trailing_comma, BodyFn body) {
  out << "  \"" << section << "\": [";
  bool first = true;
  for (const auto& [id, m] : metrics) {
    out << (first ? "\n    {" : ",\n    {");
    first = false;
    write_id_fields(out, id);
    body(out, m);
    out << "}";
  }
  out << (first ? "]" : "\n  ]") << (trailing_comma ? ",\n" : "\n");
}

std::string prom_series(const MetricId& id, const std::string& extra_label = {}) {
  std::string labels = id.labels;
  if (!extra_label.empty()) {
    labels = labels.empty() ? extra_label : labels + "," + extra_label;
  }
  return labels.empty() ? id.name : id.name + "{" + labels + "}";
}

void prom_type_line(std::ostream& out, std::string& last_typed, const std::string& name,
                    const char* type) {
  if (name == last_typed) return;
  last_typed = name;
  out << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

void write_json(std::ostream& out, const Registry& reg) {
  out << "{\n  \"schema\": \"afixp-obs/1\",\n";
  write_json_section(out, "counters", reg.counters(), true,
                     [](std::ostream& o, const Counter& c) {
                       o << strformat(", \"value\": %llu",
                                      static_cast<unsigned long long>(c.value()));
                     });
  write_json_section(out, "gauges", reg.gauges(), true, [](std::ostream& o, const Gauge& g) {
    o << ", \"value\": " << fmt_double(g.value());
  });
  write_json_section(out, "histograms", reg.histograms(), true,
                     [](std::ostream& o, const Histogram& h) {
                       o << ", \"bounds\": [";
                       for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                         o << (i > 0 ? ", " : "") << fmt_double(h.bounds()[i]);
                       }
                       o << "], \"counts\": [";
                       for (std::size_t i = 0; i < h.counts().size(); ++i) {
                         o << (i > 0 ? ", " : "")
                           << strformat("%llu",
                                        static_cast<unsigned long long>(h.counts()[i]));
                       }
                       o << strformat("], \"count\": %llu, \"sum\": ",
                                      static_cast<unsigned long long>(h.count()))
                         << fmt_double(h.sum());
                     });
  write_json_section(out, "spans", reg.spans(), false, [](std::ostream& o, const Span& s) {
    o << strformat(", \"count\": %llu, \"simtime_ns\": %lld",
                   static_cast<unsigned long long>(s.count()),
                   static_cast<long long>(s.total().count()));
  });
  out << "}\n";
}

void write_prometheus(std::ostream& out, const Registry& reg) {
  std::string last_typed;
  for (const auto& [id, c] : reg.counters()) {
    prom_type_line(out, last_typed, id.name, "counter");
    out << prom_series(id)
        << strformat(" %llu\n", static_cast<unsigned long long>(c.value()));
  }
  for (const auto& [id, g] : reg.gauges()) {
    prom_type_line(out, last_typed, id.name, "gauge");
    out << prom_series(id) << " " << fmt_double(g.value()) << "\n";
  }
  for (const auto& [id, h] : reg.histograms()) {
    prom_type_line(out, last_typed, id.name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      cumulative += h.counts()[i];
      const std::string le =
          i < h.bounds().size() ? strformat("le=\"%s\"", fmt_double(h.bounds()[i]).c_str())
                                : std::string("le=\"+Inf\"");
      out << prom_series(MetricId{id.name + "_bucket", id.labels}, le)
          << strformat(" %llu\n", static_cast<unsigned long long>(cumulative));
    }
    out << prom_series(MetricId{id.name + "_sum", id.labels}) << " " << fmt_double(h.sum())
        << "\n";
    out << prom_series(MetricId{id.name + "_count", id.labels})
        << strformat(" %llu\n", static_cast<unsigned long long>(h.count()));
  }
  for (const auto& [id, s] : reg.spans()) {
    prom_type_line(out, last_typed, id.name + "_count", "counter");
    out << prom_series(MetricId{id.name + "_count", id.labels})
        << strformat(" %llu\n", static_cast<unsigned long long>(s.count()));
    prom_type_line(out, last_typed, id.name + "_simtime_seconds_total", "counter");
    out << prom_series(MetricId{id.name + "_simtime_seconds_total", id.labels}) << " "
        << fmt_double(to_sec(s.total())) << "\n";
  }
}

bool write_to_file(const std::string& path, const Registry& reg) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  if (ends_with(path, ".prom") || ends_with(path, ".txt")) {
    write_prometheus(out, reg);
  } else {
    write_json(out, reg);
  }
  return static_cast<bool>(out.flush());
}

}  // namespace ixp::obs

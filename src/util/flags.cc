#include "util/flags.h"

#include "util/strings.h"

namespace ixp {

Flags::Flags(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void Flags::add_string(const std::string& name, const std::string& default_value,
                       const std::string& help) {
  flags_[name] = {Kind::kString, help, default_value};
}

void Flags::add_int(const std::string& name, std::int64_t default_value, const std::string& help) {
  flags_[name] = {Kind::kInt, help, strformat("%lld", static_cast<long long>(default_value))};
}

void Flags::add_double(const std::string& name, double default_value, const std::string& help) {
  flags_[name] = {Kind::kDouble, help, strformat("%g", default_value)};
}

void Flags::add_bool(const std::string& name, bool default_value, const std::string& help) {
  flags_[name] = {Kind::kBool, help, default_value ? "true" : "false"};
}

bool Flags::set_value(const std::string& name, const std::string& value) {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    error_ = "unknown flag --" + name;
    return false;
  }
  switch (it->second.kind) {
    case Kind::kInt: {
      double d = 0;
      if (!parse_double(value, d) || d != static_cast<std::int64_t>(d)) {
        error_ = "--" + name + " expects an integer, got '" + value + "'";
        return false;
      }
      break;
    }
    case Kind::kDouble: {
      double d = 0;
      if (!parse_double(value, d)) {
        error_ = "--" + name + " expects a number, got '" + value + "'";
        return false;
      }
      break;
    }
    case Kind::kBool: {
      const auto v = to_lower(value);
      if (v != "true" && v != "false" && v != "1" && v != "0") {
        error_ = "--" + name + " expects true/false, got '" + value + "'";
        return false;
      }
      break;
    }
    case Kind::kString:
      break;
  }
  it->second.value = value;
  return true;
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      if (!set_value(arg.substr(0, eq), arg.substr(eq + 1))) return false;
      continue;
    }
    // --no-name for booleans.
    if (starts_with(arg, "no-")) {
      const std::string name = arg.substr(3);
      const auto it = flags_.find(name);
      if (it != flags_.end() && it->second.kind == Kind::kBool) {
        it->second.value = "false";
        continue;
      }
    }
    const auto it = flags_.find(arg);
    if (it == flags_.end()) {
      error_ = "unknown flag --" + arg;
      return false;
    }
    if (it->second.kind == Kind::kBool) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      error_ = "--" + arg + " needs a value";
      return false;
    }
    if (!set_value(arg, argv[++i])) return false;
  }
  return true;
}

std::string Flags::get_string(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::string() : it->second.value;
}

std::int64_t Flags::get_int(const std::string& name) const {
  double d = 0;
  parse_double(get_string(name), d);
  return static_cast<std::int64_t>(d);
}

double Flags::get_double(const std::string& name) const {
  double d = 0;
  parse_double(get_string(name), d);
  return d;
}

bool Flags::get_bool(const std::string& name) const {
  const auto v = to_lower(get_string(name));
  return v == "true" || v == "1";
}

std::string Flags::help_text() const {
  std::string out = program_ + " -- " + summary_ + "\n\nflags:\n";
  if (flags_.empty()) out += "  (none)\n";
  for (const auto& [name, flag] : flags_) {
    out += strformat("  --%-18s %s (default: %s)\n", name.c_str(), flag.help.c_str(),
                     flag.value.c_str());
  }
  return out;
}

}  // namespace ixp

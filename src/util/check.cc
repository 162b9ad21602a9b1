#include "util/check.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace ixp::detail {

// The one environment variable a compiled binary reads: any value but "0"
// turns the checks on.
bool paranoid_env_enabled() {
  const char* v = std::getenv("IXP_PARANOID");
  return v != nullptr && std::string_view(v) != "0";
}

void check_failed(const char* file, int line, const char* expr, const std::string& msg) {
  std::fprintf(stderr, "%s:%d: IXP_CHECK(%s) failed: %s\n", file, line, expr, msg.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace ixp::detail

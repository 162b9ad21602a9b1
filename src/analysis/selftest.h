// The golden-regression selftest (layer 1 of the correctness harness,
// driven by `afixp selftest` and the `selftest` CTest entry).
//
// Each case builds a small synthetic RTT/loss fixture with analytically
// known structure (episode positions, magnitudes, periods), runs the
// production statistics path (LevelShiftDetector,
// detect_change_point_indices with to_segments, diurnal_score,
// correlate_loss, CongestionClassifier), and serializes the outputs into a
// util/golden.h record.  The records checked into tests/golden/ pin those
// outputs: any silent numeric drift -- truncation, merge, indexing, seed
// handling -- shows up as a tolerance-aware diff instead of a skewed table.
//
// `--update-golden` regenerates the corpus after an *intentional* behaviour
// change; the diff of the .golden files then documents exactly what moved.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/golden.h"

namespace ixp::analysis {

struct SelftestCase {
  std::string name;         ///< golden file is <name>.golden
  std::string description;  ///< one line, shown when the case runs
  GoldenRecord (*run)();    ///< deterministic: same output on every call
};

/// The registered cases, in execution order.
const std::vector<SelftestCase>& selftest_cases();

/// Runs every case (or just `only`, when non-empty) against the records in
/// `golden_dir`.  With `update` set, rewrites the records instead of
/// comparing.  Progress and diffs go to `os`; returns the number of failed
/// cases (0 = success).
int run_selftest(std::ostream& os, const std::string& golden_dir, bool update,
                 const std::string& only = "");

}  // namespace ixp::analysis

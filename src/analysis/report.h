// Campaign report writer: renders a VpCampaignResult as a Markdown
// document an operator could read -- the §6 narrative, generated.
//
// Sections: campaign summary, Table-2-style snapshot evolution, the
// Table-1-style threshold sensitivity row, per-link congestion findings
// with waveform characteristics, and (when the link matches a casebook
// entry) the documented cause.
#pragma once

#include <iosfwd>
#include <string>

#include "analysis/campaign.h"
#include "analysis/scenario.h"

namespace ixp::analysis {

struct ReportOptions {
  /// Include every monitored link in an appendix table (can be long).
  bool include_link_appendix = false;
};

/// Writes the Markdown report to `out`, with an ASCII waveform plot for
/// each congested link.
void write_report(std::ostream& out, const VpSpec& spec, const VpCampaignResult& result,
                  const ReportOptions& opts = {});

/// Convenience: the report as a string.
std::string report_to_string(const VpSpec& spec, const VpCampaignResult& result,
                             const ReportOptions& opts = {});

/// The multi-VP study report: the §6.1 aggregate (how many links were
/// congested across the whole substrate), one summary row per VP, every
/// finding, and the §7 implications the numbers support.
void write_combined_report(std::ostream& out,
                           const std::vector<std::pair<VpSpec, const VpCampaignResult*>>& vps);

}  // namespace ixp::analysis

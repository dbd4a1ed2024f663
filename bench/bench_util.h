// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Every binary prints a header naming the experiment, the
// modeled platform, and then the figure's rows/series as aligned text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/runner.h"
#include "memsys/mem_system.h"

namespace pmemolap::bench {

/// Prints the standard experiment banner.
void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation);

/// The access sizes of the paper's Figs. 3/7 x-axes.
std::vector<uint64_t> FigureAccessSizes(uint64_t lo = 64,
                                        uint64_t hi = 64 * kKiB);

/// The thread counts of the paper's figures.
inline const std::vector<int>& ReadThreadCounts() {
  static const std::vector<int> kCounts = {1, 4, 8, 16, 18, 24, 32, 36};
  return kCounts;
}
inline const std::vector<int>& WriteThreadCounts() {
  static const std::vector<int> kCounts = {1, 2, 4, 6, 8, 18, 24, 36};
  return kCounts;
}

/// Scorecard line of the self-checking benches: prints "[PASS] text" or
/// "[FAIL] text" and counts the failures.
void Claim(bool ok, const std::string& text);

/// Counts a failure that has no scorecard line of its own (a step that
/// could not run; the caller prints why).
void CountFailure();

/// Claims and counted failures so far in this process; a bench reports it
/// as "claims_failed" and exits nonzero when it is not 0.
int ClaimsFailed();

/// Renders a (size x threads) bandwidth grid: one row per access size, one
/// column per thread count.
void PrintBandwidthGrid(const WorkloadRunner& runner, OpType op,
                        Pattern pattern, Media media,
                        const std::vector<uint64_t>& sizes,
                        const std::vector<int>& threads,
                        const RunOptions& options);

}  // namespace pmemolap::bench

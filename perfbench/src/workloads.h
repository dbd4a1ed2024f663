// The four perfbench workloads. Each runs in its own process (main.cc
// dispatches on --workload) and returns its metrics on both clocks.
#pragma once

#include "common/status.h"
#include "harness.h"

namespace perfbench {

pmemolap::Result<Outcome> RunSsbRaw(const Args& args);
pmemolap::Result<Outcome> RunSsbTieredEncoded(const Args& args);
pmemolap::Result<Outcome> RunIngestDurable(const Args& args);
pmemolap::Result<Outcome> RunServiceOpen(const Args& args);

}  // namespace perfbench

#ifndef SDMS_PERFBENCH_WORKLOADS_H_
#define SDMS_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace sdms::perfbench {

/// content_search, struct_join, edit_mix, remote_fanout.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: set-up, measured phase, output checks, per-layer
/// replays (traced runs) and the durability epilogue. A non-OK status
/// means the run could not complete; failed checks land in `outcome`.
Status RunWorkload(const RunOptions& options, Outcome* outcome);

}  // namespace sdms::perfbench

#endif  // SDMS_PERFBENCH_WORKLOADS_H_

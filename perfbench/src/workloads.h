// The four workloads. Each runs in its own process and fills one result:
// the end-to-end metrics with --trace 0, the per-layer metrics of the
// traced run with --trace 1. Correctness problems are counted in the
// result's tally; only infrastructure failures (a socketpair that cannot
// be made, an input that cannot be written) come back as a bad status.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "common/status.h"

namespace perfbench {

/// `read` and `mixed`: analyst connections on a LineServer.
uclean::Status RunServing(const Args& args, RunResult* result);

/// `campaign` and `solo`: cleaning campaigns through RunPipelinedCleaning
/// and RunAdaptiveCleaning.
uclean::Status RunCampaigns(const Args& args, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

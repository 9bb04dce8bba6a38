// Cluster-level job scheduling simulation on top of an HBD architecture.
//
// Generalizes the §6.2 "job fault-waiting time" evaluation: a queue of
// training jobs (TP size, GPU count, run length) is replayed against a
// fault trace on any HbdArchitecture. Jobs run when the architecture can
// place them (TP groups on healthy capacity); a fault burst that pushes
// usable capacity below the running set preempts the newest jobs back into
// the queue. Outputs per-job waiting/completion times and cluster
// goodput - the end-to-end consequence of each architecture's waste ratio.
#pragma once

#include <vector>

#include "src/fault/trace.h"
#include "src/topo/hbd.h"

namespace ihbd::core {

/// One training job in the queue.
struct JobRequest {
  int id = 0;
  int tp_size_gpus = 32;
  int gpu_count = 0;        ///< multiple of tp_size_gpus
  double run_days = 0.0;    ///< residual work, in days of full-speed running
};

/// Per-job outcome.
struct JobOutcome {
  int id = 0;
  double submitted_day = 0.0;
  double completed_day = -1.0;  ///< -1: not finished within the trace
  double waiting_days = 0.0;    ///< time spent queued or preempted
  int preemptions = 0;

  bool finished() const { return completed_day >= 0.0; }
};

struct ScheduleResult {
  std::vector<JobOutcome> outcomes;
  double goodput_gpu_days = 0.0;   ///< GPU-days of useful work executed
  double offered_gpu_days = 0.0;   ///< total capacity (GPUs x days)
  double utilization() const {
    return offered_gpu_days > 0.0 ? goodput_gpu_days / offered_gpu_days : 0.0;
  }
};

/// Simulate FIFO scheduling of `jobs` (all submitted at day 0) over the
/// fault trace on `arch`, stepping every `step_days`. Placement uses the
/// architecture's allocate(): a job runs in a step iff the jobs ahead of
/// it (running set) fit within the step's usable TP groups.
ScheduleResult simulate_schedule(const topo::HbdArchitecture& arch,
                                 const fault::FaultTrace& trace,
                                 std::vector<JobRequest> jobs,
                                 double step_days = 0.25);

}  // namespace ihbd::core

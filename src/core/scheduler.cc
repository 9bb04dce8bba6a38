#include "src/core/scheduler.h"

#include "src/common/contracts.h"
#include "src/common/error.h"

namespace ihbd::core {

ScheduleResult simulate_schedule(const topo::HbdArchitecture& arch,
                                 const fault::FaultTrace& trace,
                                 std::vector<JobRequest> jobs,
                                 double step_days) {
  IHBD_EXPECTS(step_days > 0.0);
  if (trace.node_count() != arch.node_count())
    throw ConfigError("trace/architecture node count mismatch");
  for (const auto& j : jobs) {
    if (j.gpu_count <= 0 || j.gpu_count % j.tp_size_gpus != 0)
      throw ConfigError("job GPU count must be a positive multiple of TP");
  }

  struct Live {
    JobRequest request;
    JobOutcome outcome;
    double remaining_days;
    bool was_running = false;
  };
  std::vector<Live> live;
  live.reserve(jobs.size());
  for (const auto& j : jobs) {
    Live l;
    l.request = j;
    l.outcome.id = j.id;
    l.outcome.submitted_day = 0.0;
    l.remaining_days = j.run_days;
    live.push_back(l);
  }

  ScheduleResult result;
  for (double day = 0.0; day < trace.duration_days(); day += step_days) {
    const auto mask = trace.faulty_at(day);
    // FIFO admission: walk jobs in order, admitting while capacity lasts.
    // Mixed TP sizes are approximated by checking each job's own TP-size
    // capacity against the GPUs already handed to jobs ahead of it.
    int used_gpus = 0;
    for (auto& l : live) {
      if (l.remaining_days <= 0.0) continue;
      const int usable =
          arch.allocate(mask, l.request.tp_size_gpus).usable_gpus;
      const bool fits = used_gpus + l.request.gpu_count <= usable;
      if (fits) {
        used_gpus += l.request.gpu_count;
        l.remaining_days -= step_days;
        result.goodput_gpu_days += l.request.gpu_count * step_days;
        if (!l.was_running) l.was_running = true;
        if (l.remaining_days <= 0.0)
          l.outcome.completed_day = day + step_days;
      } else {
        l.outcome.waiting_days += step_days;
        if (l.was_running) {
          ++l.outcome.preemptions;
          l.was_running = false;
        }
      }
    }
    result.offered_gpu_days += arch.total_gpus() * step_days;
  }

  for (auto& l : live) result.outcomes.push_back(l.outcome);
  return result;
}

}  // namespace ihbd::core

// Hardware-counter attribution for the performance benchmarks.
//
// Wraps perf_event_open(2) so bench_ext_simperf can report *why* a number
// moved, not just that it did: cycles/event, instructions/event and the
// branch-miss rate localise a regression to "more work per event" vs
// "same work, worse IPC" vs "mispredicted control flow", which wall-clock
// alone cannot distinguish.
//
// Availability is per counter and strictly best-effort: VMs and locked-down
// kernels (perf_event_paranoid, seccomp) routinely refuse the hardware
// events. Each counter opens independently; whatever fails is simply
// absent and hw_available() reports false, while the software task-clock
// counter (no PMU needed) still works almost everywhere, so the report
// stays useful. Consumers must treat missing counters as "unavailable",
// never as zero (the CI attribution print shows them as "-").
//
// Not part of the simulator proper (bench/ only): the engine itself must
// never read host performance state.
#pragma once

#include <cstdint>

namespace g80211::bench {

class PerfCounters {
 public:
  // Opens the counters for the calling thread (inherited by children:
  // disabled — benchmarks here are single-threaded).
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  // Reset and enable every open counter.
  void start();
  // Disable and fold the elapsed counts into the running totals.
  void stop();

  // True when all four hardware counters (cycles, instructions, branches,
  // branch misses) are live.
  bool hw_available() const;
  // True when the software task-clock counter is live.
  bool task_clock_available() const;

  // Accumulated totals across every start()/stop() interval. Zero when the
  // corresponding counter is unavailable — gate on the availability
  // accessors before deriving rates.
  std::uint64_t cycles() const { return cycles_.total; }
  std::uint64_t instructions() const { return instructions_.total; }
  std::uint64_t branches() const { return branches_.total; }
  std::uint64_t branch_misses() const { return branch_misses_.total; }
  std::uint64_t task_clock_ns() const { return task_clock_.total; }

 private:
  struct Counter {
    int fd = -1;
    std::uint64_t total = 0;
  };

  void read_into_totals();

  Counter cycles_;
  Counter instructions_;
  Counter branches_;
  Counter branch_misses_;
  Counter task_clock_;
};

}  // namespace g80211::bench

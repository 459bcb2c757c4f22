// Host-side counters the benchmark reads around its measured phases: heap
// allocations (a counting global operator new, defined in host_counters.cc),
// the process's resource usage from getrusage, and the host clock; plus the
// CPU placement of its episodes.
#ifndef PERFBENCH_HOST_COUNTERS_H_
#define PERFBENCH_HOST_COUNTERS_H_

#include <cstdint>

namespace perfbench {

// Calls to operator new (every form) and the bytes they requested, since
// process start. The benchmark is single-threaded; the counters are relaxed
// atomics so an unexpected second thread cannot make them undefined.
struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};
AllocCount AllocSnapshot();

// Minor page faults of this process so far.
uint64_t MinorFaults();
// Peak resident set size of this process so far, in MiB.
double PeakRssMiB();
// Monotonic host clock in nanoseconds.
uint64_t HostNanos();

// Pins this process to whichever of the CPUs it was allowed to run on at its
// first call runs a short probe loop fastest now. Other tenants of a shared
// host load the cores' sibling hyperthreads unevenly, and the load moves
// around within seconds; the probe takes about 0.3 ms per CPU.
void MoveToQuietestCpu();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_COUNTERS_H_

#include "perfbench/host_counters.h"

#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_alloc_calls{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_probe_sink{0};  // keeps the CPU probe's loop alive

// A load and a store instead of fetch_add: no locked instruction on the
// allocation path, and exact counts for a single-threaded program.
void Count(std::size_t size) {
  g_alloc_calls.store(g_alloc_calls.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  g_alloc_bytes.store(g_alloc_bytes.load(std::memory_order_relaxed) + size,
                      std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count(size);
  auto alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

rusage Usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

}  // namespace

AllocCount AllocSnapshot() {
  return AllocCount{g_alloc_calls.load(std::memory_order_relaxed),
                    g_alloc_bytes.load(std::memory_order_relaxed)};
}

uint64_t MinorFaults() { return static_cast<uint64_t>(Usage().ru_minflt); }

double PeakRssMiB() { return static_cast<double>(Usage().ru_maxrss) / 1024.0; }

uint64_t HostNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void MoveToQuietestCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          allowed.push_back(cpu);
        }
      }
    }
    return allowed;
  }();
  if (cpus.size() < 2) {
    return;
  }
  auto pin = [](int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
  };
  int best = cpus.front();
  uint64_t best_ns = UINT64_MAX;
  for (int cpu : cpus) {
    pin(cpu);
    // About 0.3 ms of independent additions: the work a busy sibling
    // hyperthread slows most.
    uint64_t start = HostNanos();
    uint64_t a = 1, b = 2, c = 3, d = 4;
    for (uint64_t i = 0; i < 400000; ++i) {
      a += i;
      b ^= a;
      c += b >> 1;
      d += c ^ i;
    }
    g_probe_sink.store(a + b + c + d, std::memory_order_relaxed);
    uint64_t ns = HostNanos() - start;
    if (ns < best_ns) {
      best_ns = ns;
      best = cpu;
    }
  }
  pin(best);
}

}  // namespace perfbench

// Replacement global allocation functions (every throwing, nothrow and
// aligned form, so no allocation escapes the count) and their matching
// deallocation functions.
void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

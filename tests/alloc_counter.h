// A counting replacement for the global operator new. Linking
// alloc_counter.cc into a test binary installs it for that whole binary, so a
// test can check that a path allocates no large block, or nothing at all.
#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace lastcpu::alloc_counter {

inline constexpr uint64_t kLargeBlockBytes = 4096;

// Blocks of at least kLargeBlockBytes allocated through operator new so far.
uint64_t LargeBlocks();
// Calls to operator new so far, of any size.
uint64_t Calls();

}  // namespace lastcpu::alloc_counter

#endif  // TESTS_ALLOC_COUNTER_H_

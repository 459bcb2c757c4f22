// The replacement operators live in their own translation unit: were they
// inlined into a caller, the compiler would see operator new's block handed
// to free().
#include "tests/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace lastcpu::alloc_counter {
namespace {
uint64_t large_blocks = 0;
uint64_t calls = 0;
}  // namespace

uint64_t LargeBlocks() { return large_blocks; }
uint64_t Calls() { return calls; }

}  // namespace lastcpu::alloc_counter

void* operator new(std::size_t size) {
  ++lastcpu::alloc_counter::calls;
  if (size >= lastcpu::alloc_counter::kLargeBlockBytes) {
    ++lastcpu::alloc_counter::large_blocks;
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { std::free(block); }

// Heap-allocation counter for the benchmark binary: the global
// operator new/delete are replaced (alloc_counter.cpp) so that every
// allocation made on a thread bumps that thread's count. Readers take
// the difference across a call to get "allocations during this call".
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made on the calling thread since it started.
std::uint64_t thread_allocations();

}  // namespace perfbench

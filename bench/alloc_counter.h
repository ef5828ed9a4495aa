// Process-wide heap allocation counter for the allocation-gated benches.
//
// Linking alloc_counter.cc into a binary replaces the global operator
// new/delete: every operator-new in the process bumps one counter, so the
// delta around a single-threaded pass isolates that pass's allocations.
// The replacements live in their own translation unit so the compiler
// never inlines a malloc-backed new against a free-backed delete.

#ifndef SLADE_BENCH_ALLOC_COUNTER_H_
#define SLADE_BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace slade_bench {

/// Number of operator-new calls made by the process so far.
uint64_t AllocationCount();

}  // namespace slade_bench

#endif  // SLADE_BENCH_ALLOC_COUNTER_H_

// Counts operator new calls per thread, for the traced binary only: the
// allocation metrics come from this hook, and untraced runs stay unhooked.
#include <cstdlib>
#include <new>

#include "perfbench/src/common.h"

namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

uint64_t pb::ThreadAllocs() { return t_allocs; }

// The array and nothrow forms forward to this one in libstdc++.
void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

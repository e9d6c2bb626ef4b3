#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/profiler.h"

/// \file alloc_hook.cc
/// \brief Opt-in counting allocator: global `operator new`/`delete`
/// replacements that tally per-thread allocation count and bytes while a
/// `RetainAllocCounting` hold is live.
///
/// The replacements and the accessor functions live in the SAME
/// translation unit on purpose: `profiler.cc` references the accessors, so
/// any binary that links the profiler pulls this archive member — and with
/// it the operator replacements — out of `libdeco_obs.a`. Split across two
/// TUs, the replacements would be an unreferenced member the linker never
/// extracts and counting would silently record zero.
///
/// Gated by `DECO_ALLOC_HOOK_ENABLED` (CMake option `DECO_PROFILE_ALLOC`,
/// default ON). When compiled out, the accessors remain (inert) so callers
/// need no conditional code. The hook is sanitizer-safe: ASan/TSan support
/// user `operator new` replacements and intercept the `malloc`/`free`
/// underneath.

#ifndef DECO_ALLOC_HOOK_ENABLED
#define DECO_ALLOC_HOOK_ENABLED 1
#endif

namespace deco {
namespace {

// Live `RetainAllocCounting` holds. Constant-initialized: allocations can
// happen before any static ctor runs.
std::atomic<int> g_alloc_counting_holds{0};

// Trivially-destructible POD so TLS access needs no guard and thread exit
// runs no destructor that could itself allocate.
struct ThreadTally {
  uint64_t count;
  uint64_t bytes;
};
thread_local ThreadTally t_alloc_tally;  // zero-initialized

}  // namespace

bool AllocCountingCompiledIn() { return DECO_ALLOC_HOOK_ENABLED != 0; }

void RetainAllocCounting() {
  g_alloc_counting_holds.fetch_add(1, std::memory_order_relaxed);
}

void ReleaseAllocCounting() {
  g_alloc_counting_holds.fetch_sub(1, std::memory_order_relaxed);
}

AllocCounters ThreadAllocCounters() {
  return AllocCounters{t_alloc_tally.count, t_alloc_tally.bytes};
}

}  // namespace deco

#if DECO_ALLOC_HOOK_ENABLED

namespace {

void* CountedAlloc(std::size_t size, std::size_t align) noexcept {
  const std::size_t request = size == 0 ? 1 : size;
  void* ptr = nullptr;
  if (align <= alignof(std::max_align_t)) {
    ptr = std::malloc(request);
  } else {
    // posix_memalign requires the alignment to be a multiple of
    // sizeof(void*); operator new's extended alignments always are, but
    // clamp anyway so a hand-rolled align_val_t cannot trip EINVAL.
    const std::size_t effective =
        align < sizeof(void*) ? sizeof(void*) : align;
    if (posix_memalign(&ptr, effective, request) != 0) ptr = nullptr;
  }
  if (ptr != nullptr &&
      deco::g_alloc_counting_holds.load(std::memory_order_relaxed) > 0) {
    ++deco::t_alloc_tally.count;
    deco::t_alloc_tally.bytes += size;
  }
  return ptr;
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  void* ptr = CountedAlloc(size, align);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  return CountedAllocOrThrow(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAllocOrThrow(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}

// posix_memalign memory is free()-compatible, so one deallocator serves
// every variant.
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}

#endif  // DECO_ALLOC_HOOK_ENABLED

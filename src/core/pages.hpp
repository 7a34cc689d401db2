#pragma once
// Page-backed storage for the bulk float stores: Volume, ProjectionStack,
// sim::Texture3 / DeviceBuffer and the slab staging and reduce buffers.
//
// Blocks of kPageBackedMinBytes or more are mapped straight from the OS and
// unmapped when freed, so a finished reconstruction lowers the resident
// set at once.  glibc's malloc maps large blocks too, but the first free
// of one raises its mmap threshold to that block's size (up to 32 MiB),
// and from then on it serves such blocks from its per-thread heaps, which
// keep freed memory.  A process that reconstructs again and again (the
// benchmark loop, a serve worker) then peaked higher with every run.
// Smaller blocks go to the default allocator, where a page per block
// would waste memory.

#include <cstddef>
#include <vector>

namespace xct::core {

/// glibc's initial mmap threshold: the blocks it maps until it adapts.
inline constexpr std::size_t kPageBackedMinBytes = std::size_t{128} << 10;

/// `bytes` of storage aligned for any fundamental type; throws
/// std::bad_alloc.  Release with free_pages(p, bytes).
void* allocate_pages(std::size_t bytes);
void free_pages(void* p, std::size_t bytes) noexcept;

template <typename T>
struct PageAllocator {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U>&) noexcept
    {
    }

    T* allocate(std::size_t n) { return static_cast<T*>(allocate_pages(n * sizeof(T))); }
    void deallocate(T* p, std::size_t n) noexcept { free_pages(p, n * sizeof(T)); }

    friend bool operator==(const PageAllocator&, const PageAllocator&) { return true; }
};

/// std::vector whose storage is page-backed when large (see file header).
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace xct::core

#include "core/pages.hpp"

#include <sys/mman.h>

#include <memory>

namespace xct::core {

void* allocate_pages(std::size_t bytes)
{
    if (bytes < kPageBackedMinBytes) return std::allocator<char>().allocate(bytes);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
}

void free_pages(void* p, std::size_t bytes) noexcept
{
    if (bytes < kPageBackedMinBytes)
        std::allocator<char>().deallocate(static_cast<char*>(p), bytes);
    else
        ::munmap(p, bytes);
}

}  // namespace xct::core

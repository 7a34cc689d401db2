#include "core/simd.hpp"

namespace xct::simd {

bool runnable(Backend b)
{
    switch (b) {
    case Backend::scalar: return true;
    case Backend::avx2: {
#if defined(XCT_SIMD_HAVE_AVX2)
        static const bool cpu = [] {
            __builtin_cpu_init();
            return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
        }();
        return cpu;
#else
        return false;
#endif
    }
    case Backend::neon:
#if defined(XCT_SIMD_HAVE_NEON)
        return true;
#else
        return false;
#endif
    }
    return false;
}

Backend dispatched()
{
    if (runnable(Backend::avx2)) return Backend::avx2;
    if (runnable(Backend::neon)) return Backend::neon;
    return Backend::scalar;
}

const char* backend_name() { return name(dispatched()); }

}  // namespace xct::simd

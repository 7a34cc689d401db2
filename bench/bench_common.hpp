#pragma once
// Shared helpers for the table/figure regeneration harnesses.
//
// Every bench prints (a) locally *measured* numbers from real runs on the
// simulated substrate at laptop scale, and (b) *modelled* numbers at the
// paper's full scale from the Sec. 5 performance model with ABCI-like
// parameters.  Absolute values differ from the paper (different machine);
// the shapes — who wins, crossovers, scaling exponents — are the
// reproduction targets (see EXPERIMENTS.md).

#include <cstdint>
#include <cstdio>
#include <string>

#include "io/datasets.hpp"

namespace xct::bench {

inline void heading(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n(reproduces %s of Chen et al., SC'21)\n", title.c_str(), paper_ref.c_str());
    std::printf("================================================================\n");
}

inline void note(const std::string& text)
{
    std::printf("-- %s\n", text.c_str());
}

/// Format a byte count as MiB with one decimal.
inline double mib(std::uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace xct::bench

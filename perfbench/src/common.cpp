#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "io/datasets.hpp"

namespace perfbench {

void Result::add(const std::string& name, double value, const std::string& unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics.push_back({name, value, unit});
}

void Result::expect_eq(const std::string& what, std::uint64_t measured, std::uint64_t closed_form)
{
    if (measured != closed_form)
        fail("cross-check " + what + ": measured " + std::to_string(measured) +
             " != closed form " + std::to_string(closed_form));
}

double now_s()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib(int pid)
{
    std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0) continue;
        std::istringstream ss(line.substr(6));
        double kib = 0.0;
        ss >> kib;
        return kib / 1024.0;
    }
    return 0.0;
}

xct::CbctGeometry workload_geometry(double scale, index_t volume)
{
    xct::io::Dataset ds = xct::io::dataset_by_name("tomo_00030");
    if (scale > 1.0) ds = ds.scaled(scale);
    return ds.with_volume(volume).geometry;
}

std::vector<xct::phantom::Ellipsoid> workload_phantom(const xct::CbctGeometry& g,
                                                      std::uint64_t seed)
{
    const double radius = g.dx * static_cast<double>(g.vol.x) / 2.4;
    return xct::phantom::porous_bean(radius, 8, seed);
}

double gups(const xct::CbctGeometry& g, double seconds)
{
    return static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj) / seconds / 1e9;
}

std::uint64_t Rng::next()
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

}  // namespace perfbench

#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int64_t LastLevelCacheBytes() {
  // The highest cache level sysfs lists for cpu0 is the last level.
  int best_level = 0;
  int64_t best_bytes = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = ReadFirstLine(dir + "/level");
    const std::string size = ReadFirstLine(dir + "/size");
    if (level.empty() || size.empty()) continue;
    int64_t bytes = std::stoll(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (std::stoi(level) >= best_level) {
      best_level = std::stoi(level);
      best_bytes = bytes;
    }
  }
  if (best_bytes > 0) return best_bytes;
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return l3 > 0 ? l3 : 0;
}

std::string HostFingerprint() {
  std::ostringstream out;
  out << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\"" << CpuModel()
      << "\" llc_mib=" << (LastLevelCacheBytes() >> 20)
      << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\""
      << PERFBENCH_COMPILER << "\" flags=\"" << PERFBENCH_CXX_FLAGS << "\"";
  return out.str();
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailValue(std::vector<double> values, double* percentile,
                 int64_t* beyond) {
  if (values.empty()) {
    *percentile = 0.0;
    *beyond = 0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  // At least ten samples beyond, and at least 10% (a p90 cap): on a shared
  // host the slowest 5% of sparse-common-dim's ~900 short ops follow the
  // other tenants' load, and p95 spread 0.21-0.29 of its median between
  // runs of the same code where p90 spread 0.09-0.16.
  const int64_t rank = n > 10 ? n - 1 - std::max<int64_t>(10, n / 10) : n - 1;
  *beyond = n - 1 - rank;
  *percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return values[static_cast<size_t>(rank)];
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

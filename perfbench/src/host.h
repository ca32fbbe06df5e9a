// Host facts the benchmark reports beside its numbers, and small timing
// helpers shared by the workloads and the layer replays.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief One line naming the host and the build: nproc, CPU model, LLC
/// size, build type, compiler and compiler flags.
std::string HostFingerprint();

/// \brief Size of the last-level cache in bytes (0 if unknown).
int64_t LastLevelCacheBytes();

/// \brief Peak resident set size of this process so far, in MiB.
double PeakRssMiB();

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// \brief The highest percentile of `values` that still has at least ten
/// samples above it, capped at p90 (at least 10% of the samples above it).
/// Falls back to the maximum when there are fewer than eleven samples.
/// `percentile` and `beyond` receive the percentile and the number of
/// samples above it.
double TailValue(std::vector<double> values, double* percentile,
                 int64_t* beyond);

/// \brief splitmix64: derives independent generator seeds from the
/// benchmark seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

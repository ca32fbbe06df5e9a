// FlightRecorder: a lock-free, fixed-capacity ring buffer of structured
// engine events — the "black box" of a run. Executors and the GPU devices
// append events on the hot path (a handful of relaxed atomic stores, no
// allocation, no locks); the ring keeps the most
// recent `capacity` events and can be dumped on demand (JSON), on a failed
// run (RealExecutor's fault-injection path), or on a fatal abort
// (Result<T>::value() on an error) without allocating.
//
// Concurrency model: writers claim a global sequence number with one
// fetch_add, then publish into slot (seq % capacity) under a per-slot
// seqlock (odd = write in progress). Every payload field is itself an
// atomic, so a concurrent reader never tears a field and TSan stays silent;
// the seqlock version check rejects slots that were mid-overwrite. A reader
// can therefore snapshot the ring while eight workers hammer it.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace distme::obs {

/// \brief The kind of engine event a flight-recorder entry describes.
///
/// The enum and the string table `kFlightEventTypeNames` in
/// flight_recorder.cc must stay in sync entry-for-entry (each name is the
/// snake_case of the enumerator) — checked at compile time by a
/// static_assert on the count and by distme-lint rule `flight-enum-sync`
/// on the order.
enum class FlightEventType : uint8_t {
  kRunStart = 0,       ///< executor run begins (a = planned tasks)
  kRunFinish,          ///< executor run ends (a = 0 ok / status code)
  kTaskStart,          ///< task attempt begins (a = task id, b = attempt)
  kTaskFinish,         ///< task attempt ends, ok or not (a = task id,
                       ///< b = µs); a failed one precedes its kTaskRetry
  kTaskRetry,          ///< task attempt failed (a = task id, b = attempt)
  // Schema 6: the two blocked-time edges. Each says "task `a` spent `b` µs
  // blocked, ending at ts_us"; the causal-graph builder folds them into
  // the per-task decomposition (slot_wait + fetch_wait + gpu_wait + exec ==
  // task span), where slot_wait and exec are derived, not recorded.
  kFetchWait,          ///< blocked fetching remote input blocks (shuffle)
  kGpuWait,            ///< blocked on GPU transfer/kernel completion
  kStageBegin,         ///< stage barrier opens (detail = stage name)
  kStageEnd,           ///< stage barrier closes (detail = stage name)
  // Schema 3: per-engine GPU interval events. All six interval kinds share
  // one payload layout — ts_us is the device's *virtual* clock in µs, node
  // is the device's node, slot is the stream id, `a` is bytes (copies) or
  // flops (kernels), and `b` is a packed tag (device ordinal + cuboid id +
  // subcuboid index; see obs/gpu_timeline.h). Begin/end pairs are emitted
  // back to back under the device mutex, so the k-th begin on a
  // (node, ordinal, engine) matches the k-th end in sequence order.
  kGpuH2dBegin,        ///< H2D chunk copy starts on the copy-in engine
  kGpuH2dEnd,          ///< H2D chunk copy completes
  kGpuD2hBegin,        ///< D2H writeback starts on the copy-out engine
  kGpuD2hEnd,          ///< D2H writeback completes
  kGpuKernelBegin,     ///< kernel starts on the compute engine (a = flops)
  kGpuKernelEnd,       ///< kernel completes
  kGpuAlloc,           ///< device buffer alloc/free (a = memory in use,
                       ///< detail = "alloc"/"free") for θg occupancy
  kNumTypes            // sentinel — keep last
};

/// \brief Stable snake_case name of `type` ("task_start", ...).
const char* FlightEventTypeName(FlightEventType type);

/// \brief One decoded flight-recorder event (a snapshot copy of a slot).
struct FlightEvent {
  uint64_t seq = 0;   ///< global sequence number (1-based, gap-free)
  int64_t ts_us = 0;  ///< µs since the recorder was constructed
  FlightEventType type = FlightEventType::kRunStart;
  int32_t node = -1;  ///< simulated node (-1 = driver / not applicable)
  int32_t slot = -1;  ///< task slot, or the peer node for transfers
  int64_t a = 0;      ///< event-specific (see FlightEventType)
  int64_t b = 0;      ///< event-specific
  /// Static-storage detail string (always a literal; never freed).
  const char* detail = nullptr;
};

/// \brief Lock-free fixed-capacity ring of engine events.
class FlightRecorder {
 public:
  /// \brief `capacity` is rounded up to a power of two (min 64).
  explicit FlightRecorder(size_t capacity = 4096);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// \brief Appends one event. Lock-free, allocation-free; safe from any
  /// number of threads. `detail` MUST be a string literal (or otherwise
  /// have static storage duration) — the ring stores the pointer.
  void Record(FlightEventType type, int32_t node = -1, int32_t slot = -1,
              int64_t a = 0, int64_t b = 0, const char* detail = nullptr);

  /// \brief Like Record() but with a caller-supplied timestamp instead of
  /// NowMicros(). Lets the sim executor emit events on its simulated
  /// clock, so a sim dump replays through the same causal-analysis path
  /// as a real one.
  void RecordAt(int64_t ts_us, FlightEventType type, int32_t node = -1,
                int32_t slot = -1, int64_t a = 0, int64_t b = 0,
                const char* detail = nullptr);

  /// \brief Total events ever recorded (≥ the number retained).
  uint64_t TotalRecorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// \brief µs since this recorder was constructed (the event clock).
  int64_t NowMicros() const;

  /// \brief Wall-clock anchor: system_clock µs since the Unix epoch at
  /// construction (when the event clock read 0). Lets a dump be
  /// correlated with other dumps and with wall-clock logs.
  int64_t WallEpochMicros() const { return wall_epoch_us_; }

  /// \brief steady_clock µs (arbitrary epoch) at construction — the
  /// offset between the event clock and the process steady clock.
  int64_t SteadyEpochMicros() const { return steady_epoch_us_; }

  /// \brief Copies out the retained events, oldest first. Events being
  /// overwritten concurrently are skipped, never torn.
  std::vector<FlightEvent> Snapshot() const;

  /// \brief JSON dump: {"schema":6, "wall_epoch_us":…, "steady_epoch_us":…,
  /// "total_recorded":…, "capacity":…, "events":[…]}. ParseFlightDump()
  /// reads it back.
  std::string ToJson() const;

  /// \brief Writes ToJson() to `path`.
  [[nodiscard]] Status DumpToFile(const std::string& path) const;

  /// \brief Allocation-free dump of the ring to stderr, for fatal paths:
  /// formats each slot into a stack buffer and write(2)s it. Safe to call
  /// after a fatal status (no heap use, no locks).
  void FatalDumpToStderr() const;

  /// \brief Registers this recorder so a fatal abort
  /// (Result<T>::value()/ValueOrDie() on an error, DISTME_CHECK_OK) dumps
  /// it to stderr before the process dies. Bounded registry (8 recorders);
  /// registration past the bound is silently dropped. The destructor
  /// unregisters automatically.
  void InstallFatalDump();
  void UninstallFatalDump();

 private:
  struct Slot;
  struct SlotsUnmap {
    size_t capacity;
    void operator()(Slot* slots) const;
  };

  // The ring lives as long as its recorder, so it gets a mapping of its own
  // instead of a malloc heap chunk: a long-lived chunk that lands above a
  // run's short-lived blocks keeps the heap from shrinking once they are
  // freed. Throws std::bad_alloc when the mapping fails.
  static Slot* MapSlots(size_t capacity);

  // Seqlock-validated copy of one slot; false if empty or mid-write.
  bool ReadSlot(const Slot& slot, FlightEvent* out) const;

  const size_t capacity_;  // power of two
  std::unique_ptr<Slot[], SlotsUnmap> slots_
      DISTME_LOCKFREE("pointer fixed in ctor; slots are per-slot seqlocks");
  std::atomic<uint64_t> next_{0};
  const std::chrono::steady_clock::time_point epoch_;
  int64_t wall_epoch_us_ DISTME_LOCKFREE("written once in ctor") = 0;
  int64_t steady_epoch_us_ DISTME_LOCKFREE("written once in ctor") = 0;
  bool fatal_dump_installed_
      DISTME_UNSHARED("Install/Uninstall are owner-thread calls") = false;
};

/// \brief The dump schema ToJson() writes and ParseFlightDump() reads.
inline constexpr int64_t kFlightDumpSchema = 6;

/// \brief Exclusive bound on every `ts_us`, `a` and `b` a dump may carry:
/// ParseFlightDump() refuses a value outside [0, kFlightValueLimit). A ring
/// records only non-negative timestamps, ids, counts, sizes, durations and
/// tags, all far below it, and under it the difference of two values fits
/// in int64.
inline constexpr int64_t kFlightValueLimit = int64_t{1} << 62;

/// \brief l + r, clamped to [-kFlightValueLimit, kFlightValueLimit]. The
/// analyses sum event values with it: a parsed dump can hold any number of
/// values near the limit, and a signed overflow is undefined behavior.
inline int64_t FlightSum(int64_t l, int64_t r) {
  int64_t sum = 0;
  if (__builtin_add_overflow(l, r, &sum)) sum = r < 0 ? INT64_MIN : INT64_MAX;
  return std::clamp(sum, -kFlightValueLimit, kFlightValueLimit);
}

/// \brief A flight dump read back from its JSON form. Owns the events'
/// detail strings, so it is move-only: a copy's events would point into
/// the original's storage.
struct FlightDump {
  int64_t schema = 0;
  int64_t wall_epoch_us = 0;
  int64_t steady_epoch_us = 0;
  uint64_t total_recorded = 0;
  uint64_t capacity = 0;
  std::vector<FlightEvent> events;  ///< in dump order (oldest first)
  /// Storage behind every event's `detail` (set nodes never move, not
  /// even when the dump itself is moved).
  std::set<std::string> details;

  FlightDump() = default;
  FlightDump(FlightDump&&) = default;
  FlightDump& operator=(FlightDump&&) = default;
  FlightDump(const FlightDump&) = delete;
  FlightDump& operator=(const FlightDump&) = delete;

  /// \brief Events the ring overwrote before the dump was taken.
  uint64_t dropped() const {
    return total_recorded > capacity ? total_recorded - capacity : 0;
  }
};

/// \brief Parses a FlightRecorder::ToJson() document of schema
/// kFlightDumpSchema. Corrupt or hostile input — truncation, a wrong type,
/// an out-of-range integer, an unknown key or event type, another schema —
/// returns an Invalid status; nothing aborts.
[[nodiscard]] Result<FlightDump> ParseFlightDump(std::string_view json);

}  // namespace distme::obs

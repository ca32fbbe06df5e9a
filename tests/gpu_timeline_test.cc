// Tests for the GPU engine-timeline reconstruction (obs/gpu_timeline):
// tag packing, FIFO begin/end pairing, AnalyzeRun's run cut, and the overlap
// accounting's hard invariants — per-engine busy + idle tiles the
// device-active window exactly, and overlapped <= min(copy, kernel).

#include <gtest/gtest.h>

#include "gpu/device.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/gpu_timeline.h"

namespace distme::obs {
namespace {

using Type = FlightEventType;

TEST(GpuTagTest, RoundTrips) {
  const int64_t packed = PackGpuTag(3, 12345, 67);
  const GpuTag tag = UnpackGpuTag(packed);
  EXPECT_EQ(tag.ordinal, 3);
  EXPECT_EQ(tag.cuboid_id, 12345);
  EXPECT_EQ(tag.sub_index, 67);
}

TEST(GpuTagTest, NegativeCuboidUsesSentinel) {
  const GpuTag tag = UnpackGpuTag(PackGpuTag(0, -1, 4));
  EXPECT_EQ(tag.cuboid_id, -1);
  EXPECT_EQ(tag.sub_index, 4);
}

TEST(GpuTagTest, WithOrdinalReplacesOnlyOrdinal) {
  const int64_t base = PackGpuTag(0, 99, 7);
  const GpuTag tag = UnpackGpuTag(GpuTagWithOrdinal(5, base));
  EXPECT_EQ(tag.ordinal, 5);
  EXPECT_EQ(tag.cuboid_id, 99);
  EXPECT_EQ(tag.sub_index, 7);
}

// Emits one complete [begin, end) interval on `flight`.
void Interval(FlightRecorder* flight, Type begin, Type end, int64_t b_us,
              int64_t e_us, int64_t payload, int64_t tag, int32_t node = 0,
              int32_t slot = 0) {
  flight->RecordAt(b_us, begin, node, slot, payload, tag);
  flight->RecordAt(e_us, end, node, slot, payload, tag);
}

// A hand-crafted schedule with known answers:
//   h2d    [0, 100)               1000 bytes
//   kernel [50, 250) and [400, 500)
//   d2h    [240, 300)             500 bytes
// Window [0, 500). Expected buckets (priority kernel > h2d > d2h > bubble):
// kernel-bound 300, h2d-bound [0,50) = 50, d2h-bound [250,300) = 50,
// bubble [300,400) = 100 — the four tile the window exactly.
TEST(GpuTimelineTest, HandCraftedScheduleExactAccounting) {
  FlightRecorder flight(128);
  const int64_t tag = PackGpuTag(0, 1, 0);
  Interval(&flight, Type::kGpuH2dBegin, Type::kGpuH2dEnd, 0, 100, 1000, tag);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 50, 250,
           7000, tag);
  Interval(&flight, Type::kGpuD2hBegin, Type::kGpuD2hEnd, 240, 300, 500,
           tag);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 400, 500,
           3000, tag);

  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  ASSERT_EQ(analysis.devices.size(), 1u);
  const OverlapReport& r = analysis.devices[0].report;
  EXPECT_EQ(r.window_begin_us, 0);
  EXPECT_EQ(r.window_end_us, 500);
  EXPECT_EQ(r.h2d_busy_us, 100);
  EXPECT_EQ(r.d2h_busy_us, 60);
  EXPECT_EQ(r.kernel_busy_us, 300);
  EXPECT_EQ(r.copy_busy_us, 160);
  // copy ∩ kernel = [50,100) ∪ [240,250).
  EXPECT_EQ(r.overlapped_us, 60);
  EXPECT_EQ(r.kernel_bound_us, 300);
  EXPECT_EQ(r.h2d_bound_us, 50);
  EXPECT_EQ(r.d2h_bound_us, 50);
  EXPECT_EQ(r.bubble_us, 100);
  ASSERT_EQ(r.bubble_count, 1);
  EXPECT_EQ(r.bubbles[0], std::make_pair(int64_t{300}, int64_t{400}));
  EXPECT_EQ(r.h2d_bytes, 1000);
  EXPECT_EQ(r.d2h_bytes, 500);
  EXPECT_EQ(r.kernel_flops, 10000);
  EXPECT_EQ(r.h2d_copies, 1);
  EXPECT_EQ(r.d2h_copies, 1);
  EXPECT_EQ(r.kernel_launches, 2);
  // The invariants, stated directly:
  EXPECT_EQ(r.kernel_bound_us + r.h2d_bound_us + r.d2h_bound_us + r.bubble_us,
            r.window_us());
  EXPECT_LE(r.overlapped_us, std::min(r.copy_busy_us, r.kernel_busy_us));
  EXPECT_DOUBLE_EQ(r.overlap_ratio(), 60.0 / 160.0);
  EXPECT_DOUBLE_EQ(r.kernel_utilization(), 300.0 / 500.0);
  // 1500 bytes over 160 µs of copy-engine time.
  EXPECT_DOUBLE_EQ(r.effective_pcie_bytes_per_sec(), 1500.0 / 160e-6);
}

TEST(GpuTimelineTest, PerCuboidReportsPartitionTheDevice) {
  FlightRecorder flight(128);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 100, 10,
           PackGpuTag(0, 5, 0));
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 150, 300, 20,
           PackGpuTag(0, 9, 1));
  // Untagged work belongs to the device report only.
  Interval(&flight, Type::kGpuH2dBegin, Type::kGpuH2dEnd, 300, 320, 64,
           PackGpuTag(0, -1, 0));

  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  ASSERT_EQ(analysis.devices.size(), 1u);
  const GpuDeviceTimeline& device = analysis.devices[0];
  EXPECT_EQ(device.report.kernel_launches, 2);
  EXPECT_EQ(device.report.h2d_copies, 1);
  ASSERT_EQ(device.cuboids.size(), 2u);
  EXPECT_EQ(device.cuboids.at(5).kernel_busy_us, 100);
  EXPECT_EQ(device.cuboids.at(9).kernel_busy_us, 150);
  EXPECT_EQ(device.cuboids.at(9).window_begin_us, 150);
}

TEST(GpuTimelineTest, DevicesKeyedByNodeAndOrdinal) {
  FlightRecorder flight(128);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 100, 1,
           PackGpuTag(0, -1, 0), /*node=*/0);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 200, 1,
           PackGpuTag(1, -1, 0), /*node=*/0);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 300, 1,
           PackGpuTag(0, -1, 0), /*node=*/1);

  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  ASSERT_EQ(analysis.devices.size(), 3u);
  EXPECT_EQ(analysis.devices[0].node, 0);
  EXPECT_EQ(analysis.devices[0].ordinal, 0);
  EXPECT_EQ(analysis.devices[1].ordinal, 1);
  EXPECT_EQ(analysis.devices[2].node, 1);
  // Run aggregate: window is the sum of device windows.
  EXPECT_EQ(analysis.run.window_us(), 100 + 200 + 300);
  EXPECT_EQ(analysis.run.kernel_launches, 3);
}

TEST(GpuTimelineTest, AnalyzeRunBracketsToTheLastCompleteRun) {
  FlightRecorder flight(128);
  const int64_t tag = PackGpuTag(0, -1, 0);
  // A stale interval from an earlier run, then the bracketed run, then a
  // trailing interval after run_finish: only the middle one counts.
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 50, 1,
           tag);
  flight.Record(Type::kRunStart, -1, -1, 1, 0, "real");
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 100, 180, 2,
           tag);
  flight.Record(Type::kRunFinish, -1, -1, 1, 0);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 200, 260, 3,
           tag);
  const std::vector<FlightEvent> events = flight.Snapshot();

  const GpuTimelineAnalysis analysis = AnalyzeRun(events, 0.0).gpu;
  ASSERT_EQ(analysis.devices.size(), 1u);
  EXPECT_EQ(analysis.devices[0].report.kernel_launches, 1);
  EXPECT_EQ(analysis.devices[0].report.window_begin_us, 100);
  EXPECT_EQ(analysis.devices[0].report.window_end_us, 180);
  // AnalyzeGpuTimeline itself makes no cut: it analyzes what it is given.
  EXPECT_EQ(AnalyzeGpuTimeline(events).run.kernel_launches, 3);
}

TEST(GpuTimelineTest, OrphanEndsAndUnmatchedBeginsAreDropped) {
  FlightRecorder flight(128);
  const int64_t tag = PackGpuTag(0, -1, 0);
  // An end whose begin fell off the ring, one complete pair, and a begin
  // whose end lies outside the snapshot.
  flight.RecordAt(40, Type::kGpuKernelEnd, 0, 0, 1, tag);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 100, 150, 2,
           tag);
  flight.RecordAt(200, Type::kGpuKernelBegin, 0, 0, 3, tag);

  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  ASSERT_EQ(analysis.devices.size(), 1u);
  EXPECT_EQ(analysis.devices[0].report.kernel_launches, 1);
  EXPECT_EQ(analysis.devices[0].report.kernel_busy_us, 50);
}

TEST(GpuTimelineTest, AllocMarksFeedOccupancyHighWater) {
  FlightRecorder flight(128);
  flight.RecordAt(0, Type::kGpuAlloc, 0, -1, 1000, PackGpuTag(0, -1, 0),
                  "alloc");
  flight.RecordAt(5, Type::kGpuAlloc, 0, -1, 3000, PackGpuTag(0, -1, 0),
                  "alloc");
  flight.RecordAt(9, Type::kGpuAlloc, 0, -1, 2000, PackGpuTag(0, -1, 0),
                  "free");
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 10, 1,
           PackGpuTag(0, -1, 0));

  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  ASSERT_EQ(analysis.devices.size(), 1u);
  EXPECT_EQ(analysis.devices[0].occupancy_high_water_bytes, 3000);
  EXPECT_EQ(analysis.occupancy_high_water_bytes, 3000);
}

TEST(GpuTimelineTest, EmptySnapshotYieldsEmptyAnalysis) {
  FlightRecorder flight(16);
  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  EXPECT_TRUE(analysis.empty());
  EXPECT_EQ(analysis.run.window_us(), 0);
  EXPECT_DOUBLE_EQ(analysis.run.overlap_ratio(), 0.0);
}

TEST(GpuTimelineTest, ZeroLengthIntervalsDoNotSplitBubbles) {
  FlightRecorder flight(128);
  const int64_t tag = PackGpuTag(0, -1, 0);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 100, 1,
           tag);
  // A copy so small it rounds to zero µs, in the middle of an idle gap.
  Interval(&flight, Type::kGpuH2dBegin, Type::kGpuH2dEnd, 150, 150, 8, tag);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 200, 300, 1,
           tag);

  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  ASSERT_EQ(analysis.devices.size(), 1u);
  const OverlapReport& r = analysis.devices[0].report;
  EXPECT_EQ(r.bubble_us, 100);
  EXPECT_EQ(r.bubble_count, 1);  // [100,150) and [150,200) merged
  EXPECT_EQ(r.bubbles[0], std::make_pair(int64_t{100}, int64_t{200}));
  EXPECT_EQ(r.h2d_copies, 1);  // still counted, still carries its bytes
  EXPECT_EQ(r.h2d_bytes, 8);
}

// Integration: a real (software) device with an attached recorder. The
// reconstruction must agree with the device's own counters, and every
// begin must have its end (the enqueues emit pairs back to back).
TEST(GpuTimelineTest, DeviceEmitsBalancedPairsMatchingItsCounters) {
  FlightRecorder flight(1024);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  device.AttachFlight(&flight, /*node=*/2, /*ordinal=*/1);

  auto buffer = device.Allocate(1 * kMiB, "test");
  ASSERT_TRUE(buffer.ok());
  const gpu::StreamId s0 = device.CreateStream();
  const gpu::StreamId s1 = device.CreateStream();
  const int64_t tag = PackGpuTag(0, 42, 0);
  ASSERT_TRUE(device.EnqueueH2D(s0, 4 * kMiB, tag).ok());
  ASSERT_TRUE(device.EnqueueH2D(s1, 2 * kMiB, tag).ok());
  ASSERT_TRUE(device.EnqueueKernel(s0, 100000000, nullptr, false, tag).ok());
  ASSERT_TRUE(device.EnqueueD2H(s0, 1 * kMiB, tag).ok());
  device.Synchronize();
  ASSERT_TRUE(device.Free(*buffer).ok());

  int begins = 0;
  int ends = 0;
  for (const FlightEvent& e : flight.Snapshot()) {
    switch (e.type) {
      case Type::kGpuH2dBegin:
      case Type::kGpuD2hBegin:
      case Type::kGpuKernelBegin:
        ++begins;
        break;
      case Type::kGpuH2dEnd:
      case Type::kGpuD2hEnd:
      case Type::kGpuKernelEnd:
        ++ends;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(begins, 4);
  EXPECT_EQ(ends, 4);

  const GpuTimelineAnalysis analysis =
      AnalyzeGpuTimeline(flight.Snapshot(), HardwareModel{}.pcie_bandwidth);
  ASSERT_EQ(analysis.devices.size(), 1u);
  const GpuDeviceTimeline& dev = analysis.devices[0];
  EXPECT_EQ(dev.node, 2);
  EXPECT_EQ(dev.ordinal, 1);
  const OverlapReport& r = dev.report;
  EXPECT_EQ(r.h2d_copies, device.stats().h2d_copies);
  EXPECT_EQ(r.d2h_copies, device.stats().d2h_copies);
  EXPECT_EQ(r.kernel_launches, device.stats().kernel_calls);
  EXPECT_EQ(r.h2d_bytes, device.stats().h2d_bytes);
  EXPECT_EQ(r.d2h_bytes, device.stats().d2h_bytes);
  // Busy times match the device's virtual engine-busy seconds to µs
  // rounding (one llround per interval endpoint: ±1 µs per interval).
  EXPECT_NEAR(static_cast<double>(r.h2d_busy_us) * 1e-6,
              device.stats().h2d_seconds, 2e-6 * 2);
  EXPECT_NEAR(static_cast<double>(r.kernel_busy_us) * 1e-6,
              device.stats().kernel_seconds, 2e-6);
  // The invariants hold on a machine-generated schedule too.
  EXPECT_EQ(r.kernel_bound_us + r.h2d_bound_us + r.d2h_bound_us + r.bubble_us,
            r.window_us());
  EXPECT_LE(r.overlapped_us, std::min(r.copy_busy_us, r.kernel_busy_us));
  // Allocate/Free left their occupancy marks.
  EXPECT_EQ(dev.occupancy_high_water_bytes, 1 * kMiB);
  // The whole cuboid was tagged 42.
  ASSERT_EQ(dev.cuboids.size(), 1u);
  EXPECT_EQ(dev.cuboids.at(42).kernel_launches, 1);
}

TEST(GpuTimelineTest, JsonCarriesTheSchema) {
  FlightRecorder flight(64);
  Interval(&flight, Type::kGpuKernelBegin, Type::kGpuKernelEnd, 0, 10, 5,
           PackGpuTag(0, 3, 1));
  const GpuTimelineAnalysis analysis = AnalyzeGpuTimeline(flight.Snapshot());
  const std::string json = analysis.ToJson();
  EXPECT_NE(json.find("\"devices\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"run\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kernel_bound_us\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cuboid_id\":3"), std::string::npos) << json;
}

}  // namespace
}  // namespace distme::obs

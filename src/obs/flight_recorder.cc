#include "obs/flight_recorder.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

#include "obs/export.h"

namespace distme::obs {

namespace {

// Keep entry-for-entry in sync with FlightEventType (distme-lint rule
// `flight-enum-sync` checks that each name is the snake_case of the
// enumerator at the same index; the static_assert below checks the count).
constexpr const char* kFlightEventTypeNames[] = {
    "run_start",           // kRunStart
    "run_finish",          // kRunFinish
    "task_start",          // kTaskStart
    "task_finish",         // kTaskFinish
    "task_retry",          // kTaskRetry
    "fetch_wait",          // kFetchWait
    "gpu_wait",            // kGpuWait
    "stage_begin",         // kStageBegin
    "stage_end",           // kStageEnd
    "gpu_h2d_begin",       // kGpuH2dBegin
    "gpu_h2d_end",         // kGpuH2dEnd
    "gpu_d2h_begin",       // kGpuD2hBegin
    "gpu_d2h_end",         // kGpuD2hEnd
    "gpu_kernel_begin",    // kGpuKernelBegin
    "gpu_kernel_end",      // kGpuKernelEnd
    "gpu_alloc",           // kGpuAlloc
};

static_assert(std::size(kFlightEventTypeNames) ==
                  static_cast<size_t>(FlightEventType::kNumTypes),
              "kFlightEventTypeNames must cover every FlightEventType");

size_t RoundUpPow2(size_t v) {
  size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  const size_t i = static_cast<size_t>(type);
  if (i >= std::size(kFlightEventTypeNames)) return "unknown";
  return kFlightEventTypeNames[i];
}

// One ring slot. Every payload field is an atomic so a concurrent snapshot
// never tears a field; `seq` is the seqlock version: 0 = never written,
// odd = write in progress, even = 2 × (global sequence number).
struct FlightRecorder::Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<int64_t> ts_us{0};
  std::atomic<uint8_t> type{0};
  std::atomic<int32_t> node{-1};
  std::atomic<int32_t> slot{-1};
  std::atomic<int64_t> a{0};
  std::atomic<int64_t> b{0};
  std::atomic<const char*> detail{nullptr};
};

FlightRecorder::Slot* FlightRecorder::MapSlots(size_t capacity) {
  if (capacity > SIZE_MAX / sizeof(Slot)) throw std::bad_alloc();
  void* mapped = mmap(nullptr, capacity * sizeof(Slot), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) throw std::bad_alloc();
  Slot* slots = static_cast<Slot*>(mapped);
  std::uninitialized_default_construct_n(slots, capacity);
  return slots;
}

void FlightRecorder::SlotsUnmap::operator()(Slot* slots) const {
  std::destroy_n(slots, capacity);
  munmap(slots, capacity * sizeof(Slot));
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      slots_(MapSlots(capacity_), SlotsUnmap{capacity_}),
      epoch_(std::chrono::steady_clock::now()) {
  wall_epoch_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  steady_epoch_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                         epoch_.time_since_epoch())
                         .count();
}

FlightRecorder::~FlightRecorder() { UninstallFatalDump(); }

int64_t FlightRecorder::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void FlightRecorder::Record(FlightEventType type, int32_t node, int32_t slot,
                            int64_t a, int64_t b, const char* detail) {
  RecordAt(NowMicros(), type, node, slot, a, b, detail);
}

void FlightRecorder::RecordAt(int64_t ts_us, FlightEventType type,
                              int32_t node, int32_t slot, int64_t a,
                              int64_t b, const char* detail) {
  const int64_t now = ts_us;
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[seq & (capacity_ - 1)];
  // Seqlock publish: odd marks the write in progress; a reader that sees
  // the odd value (or different values before/after its copy) discards the
  // slot. If two writers ever land on the same slot (a full ring wrap
  // during one write), the loser's version wins and the reader still only
  // accepts a consistent pair.
  s.seq.store(2 * seq - 1, std::memory_order_release);
  s.ts_us.store(now, std::memory_order_relaxed);
  s.type.store(static_cast<uint8_t>(type), std::memory_order_relaxed);
  s.node.store(node, std::memory_order_relaxed);
  s.slot.store(slot, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.detail.store(detail, std::memory_order_relaxed);
  s.seq.store(2 * seq, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Slot& slot, FlightEvent* out) const {
  const uint64_t v1 = slot.seq.load(std::memory_order_acquire);
  if (v1 == 0 || (v1 & 1) != 0) return false;
  out->seq = v1 / 2;
  out->ts_us = slot.ts_us.load(std::memory_order_relaxed);
  out->type = static_cast<FlightEventType>(
      slot.type.load(std::memory_order_relaxed));
  out->node = slot.node.load(std::memory_order_relaxed);
  out->slot = slot.slot.load(std::memory_order_relaxed);
  out->a = slot.a.load(std::memory_order_relaxed);
  out->b = slot.b.load(std::memory_order_relaxed);
  out->detail = slot.detail.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.seq.load(std::memory_order_relaxed) == v1;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  events.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    FlightEvent e;
    if (ReadSlot(slots_[i], &e)) events.push_back(e);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& l, const FlightEvent& r) {
              return l.seq < r.seq;
            });
  return events;
}

std::string FlightRecorder::ToJson() const {
  const std::vector<FlightEvent> events = Snapshot();
  JsonWriter w;
  w.BeginObject();
  // Schema 2 added the wall-clock anchor: event ts_us values are µs since
  // the recorder's construction, which happened at `wall_epoch_us` on the
  // system clock (and `steady_epoch_us` on the process steady clock).
  // Schema 3 adds the per-engine GPU interval events (gpu_h2d/gpu_d2h/
  // gpu_kernel begin/end pairs + gpu_alloc), whose ts_us values sit on the
  // emitting device's virtual clock instead. Schema 4 drops the never-read
  // gpu_submit/gpu_complete and the never-recorded fatal kinds, schema 5
  // four more unread kinds. Schema 6 records the two wait edges as the
  // fetch_wait and gpu_wait event types instead of one dep_edge type whose
  // `detail` named the edge.
  w.Key("schema");
  w.Value(kFlightDumpSchema);
  w.Key("wall_epoch_us");
  w.Value(wall_epoch_us_);
  w.Key("steady_epoch_us");
  w.Value(steady_epoch_us_);
  w.Key("total_recorded");
  w.Value(static_cast<int64_t>(TotalRecorded()));
  w.Key("capacity");
  w.Value(static_cast<int64_t>(capacity_));
  w.Key("events");
  w.BeginArray();
  for (const FlightEvent& e : events) {
    w.BeginObject();
    w.Key("seq");
    w.Value(static_cast<int64_t>(e.seq));
    w.Key("ts_us");
    w.Value(e.ts_us);
    w.Key("type");
    w.Value(FlightEventTypeName(e.type));
    w.Key("node");
    w.Value(e.node);
    w.Key("slot");
    w.Value(e.slot);
    w.Key("a");
    w.Value(e.a);
    w.Key("b");
    w.Value(e.b);
    if (e.detail != nullptr) {
      w.Key("detail");
      w.Value(e.detail);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status FlightRecorder::DumpToFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

namespace {

// Cursor over a dump's JSON text. It reads exactly the JSON subset ToJson()
// writes — objects of known keys, arrays, strings, integers — so nothing
// recurses, and every read is bounds-checked: hostile input yields a
// Status, never an overrun.
class DumpReader {
 public:
  explicit DumpReader(std::string_view text) : s_(text) {}

  Status Fail(const std::string& what) const {
    return Status::Invalid("flight dump: " + what + " at byte " +
                           std::to_string(pos_));
  }

  bool AtEnd() const { return pos_ == s_.size(); }

  void SkipSpace() {
    while (pos_ < s_.size() && In(" \t\r\n", s_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Status Expect(char c) {
    return Consume(c) ? Status::OK()
                      : Fail(std::string("expected '") + c + "'");
  }

  // Calls on_member(key) per member of the object at the cursor; the
  // callback consumes the member's value.
  template <typename F>
  Status ForEachMember(F&& on_member) {
    DISTME_RETURN_NOT_OK(Expect('{'));
    if (Consume('}')) return Status::OK();
    std::string key;
    do {
      DISTME_RETURN_NOT_OK(ReadString(&key));
      DISTME_RETURN_NOT_OK(Expect(':'));
      DISTME_RETURN_NOT_OK(on_member(key));
    } while (Consume(','));
    return Expect('}');
  }

  // The writer escapes quote, backslash, \n, \r, \t, and other control
  // characters as \u00XX; a \u escape past ASCII, or of NUL (details are C
  // strings), is refused.
  Status ReadString(std::string* out) {
    DISTME_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) return Fail("raw control byte");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      constexpr std::string_view kEscaped = "\"\\/bfnrt";
      constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
      if (const size_t e = kEscaped.find(s_[pos_]); e != kEscaped.npos) {
        out->push_back(kMeaning[e]);
        ++pos_;
        continue;
      }
      unsigned code = 0;
      const char* hex = s_.data() + pos_ + 1;
      if (s_.size() - pos_ < 5 || s_[pos_] != 'u' ||
          std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
          code == 0 || code >= 0x80) {
        return Fail("bad escape");
      }
      out->push_back(static_cast<char>(code));
      pos_ += 5;
    }
    return Fail("unterminated string");
  }

  Status ReadInt(int64_t* out) {
    SkipSpace();
    const bool negative = pos_ < s_.size() && s_[pos_] == '-';
    if (negative) ++pos_;
    const size_t first_digit = pos_;
    constexpr uint64_t kLimit = uint64_t{1} << 63;  // |INT64_MIN|
    uint64_t magnitude = 0;
    for (; pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9'; ++pos_) {
      const auto digit = static_cast<uint64_t>(s_[pos_] - '0');
      if (magnitude > (kLimit - digit) / 10) return Fail("integer overflow");
      magnitude = magnitude * 10 + digit;
    }
    if (pos_ == first_digit ||
        (pos_ < s_.size() && In(".eE", s_[pos_]))) {
      return Fail("expected an integer");
    }
    if (!negative && magnitude == kLimit) return Fail("integer overflow");
    *out = negative ? static_cast<int64_t>(0 - magnitude)
                    : static_cast<int64_t>(magnitude);
    return Status::OK();
  }

 private:
  static bool In(std::string_view set, char c) {
    return set.find(c) != set.npos;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

// One element of the "events" array. Every field ToJson() writes is
// required; `detail` is optional and interned into dump->details.
Status ReadEvent(DumpReader* r, FlightDump* dump) {
  FlightEvent e;
  int64_t seq = 0;
  int64_t node = 0;
  int64_t slot = 0;
  const std::pair<const char*, int64_t*> ints[] = {
      {"seq", &seq},   {"ts_us", &e.ts_us}, {"node", &node},
      {"slot", &slot}, {"a", &e.a},         {"b", &e.b}};
  unsigned seen = 0;  // bit i: ints[i]; bit 6: type
  DISTME_RETURN_NOT_OK(r->ForEachMember([&](const std::string& key) -> Status {
    for (unsigned i = 0; i < std::size(ints); ++i) {
      if (key != ints[i].first) continue;
      seen |= 1u << i;
      return r->ReadInt(ints[i].second);
    }
    std::string text;
    if (key == "type") {
      DISTME_RETURN_NOT_OK(r->ReadString(&text));
      const auto* name = std::find(std::begin(kFlightEventTypeNames),
                                   std::end(kFlightEventTypeNames), text);
      if (name == std::end(kFlightEventTypeNames)) {
        return r->Fail("unknown event type");
      }
      e.type = static_cast<FlightEventType>(
          name - std::begin(kFlightEventTypeNames));
      seen |= 1u << 6;
      return Status::OK();
    }
    if (key == "detail") {
      DISTME_RETURN_NOT_OK(r->ReadString(&text));
      e.detail = dump->details.insert(std::move(text)).first->c_str();
      return Status::OK();
    }
    return r->Fail("unknown key");
  }));
  if (seen != 0x7F) return r->Fail("event misses a field");
  if (seq < 1 || node != static_cast<int32_t>(node) ||
      slot != static_cast<int32_t>(slot)) {
    return r->Fail("event field out of range");
  }
  for (const int64_t v : {e.ts_us, e.a, e.b}) {
    if (v < 0 || v >= kFlightValueLimit) {
      return r->Fail("event value out of range");
    }
  }
  e.seq = static_cast<uint64_t>(seq);
  e.node = static_cast<int32_t>(node);
  e.slot = static_cast<int32_t>(slot);
  dump->events.push_back(e);
  return Status::OK();
}

}  // namespace

Result<FlightDump> ParseFlightDump(std::string_view json) {
  DumpReader r(json);
  FlightDump dump;
  bool has_events = false;
  int64_t total_recorded = 0;
  int64_t capacity = 0;
  // Checked as soon as it is read as well as at the end, so an older dump
  // is refused by its schema, not by the first event kind it lacks.
  auto check_schema = [&dump]() -> Status {
    if (dump.schema == kFlightDumpSchema) return Status::OK();
    return Status::Invalid(
        "unsupported flight dump schema " + std::to_string(dump.schema) +
        "; this build reads schema " + std::to_string(kFlightDumpSchema) +
        " only, re-dump the run with it");
  };
  DISTME_RETURN_NOT_OK(r.ForEachMember([&](const std::string& key) -> Status {
    if (key == "schema") {
      DISTME_RETURN_NOT_OK(r.ReadInt(&dump.schema));
      return check_schema();
    }
    if (key == "wall_epoch_us") return r.ReadInt(&dump.wall_epoch_us);
    if (key == "steady_epoch_us") return r.ReadInt(&dump.steady_epoch_us);
    if (key == "total_recorded") return r.ReadInt(&total_recorded);
    if (key == "capacity") return r.ReadInt(&capacity);
    if (key != "events") return r.Fail("unknown key");
    has_events = true;
    dump.events.clear();
    DISTME_RETURN_NOT_OK(r.Expect('['));
    if (r.Consume(']')) return Status::OK();
    do {
      DISTME_RETURN_NOT_OK(ReadEvent(&r, &dump));
    } while (r.Consume(','));
    return r.Expect(']');
  }));
  r.SkipSpace();
  if (!r.AtEnd()) return r.Fail("trailing bytes");
  if (!has_events) return Status::Invalid("flight dump has no events array");
  DISTME_RETURN_NOT_OK(check_schema());
  if (total_recorded < 0 || capacity < 0) {
    return Status::Invalid("flight dump has a negative event count");
  }
  dump.total_recorded = static_cast<uint64_t>(total_recorded);
  dump.capacity = static_cast<uint64_t>(capacity);
  return dump;
}

namespace {

// write(2) the whole buffer, retrying on short writes. Async-signal-safe.
void WriteAllToStderr(const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(STDERR_FILENO, data + off, len - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

void FlightRecorder::FatalDumpToStderr() const {
  // No heap use past this point: the process is dying and the allocator may
  // be the thing that broke. Iterate the ring oldest-first via the global
  // sequence, format each slot into a stack buffer, write(2) it out.
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf),
                        "=== DistME flight recorder: last %zu of %llu "
                        "events ===\n",
                        std::min<size_t>(capacity_, TotalRecorded()),
                        static_cast<unsigned long long>(TotalRecorded()));
  if (n > 0) WriteAllToStderr(buf, static_cast<size_t>(n));
  const uint64_t end = next_.load(std::memory_order_relaxed);
  const uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  for (uint64_t seq = begin + 1; seq <= end; ++seq) {
    FlightEvent e;
    if (!ReadSlot(slots_[seq & (capacity_ - 1)], &e) || e.seq != seq) {
      continue;  // overwritten or mid-write; skip rather than misreport
    }
    n = std::snprintf(buf, sizeof(buf),
                      "[flight %8llu %10lld us] %-18s node=%d slot=%d "
                      "a=%lld b=%lld%s%s\n",
                      static_cast<unsigned long long>(e.seq),
                      static_cast<long long>(e.ts_us),
                      FlightEventTypeName(e.type), e.node, e.slot,
                      static_cast<long long>(e.a),
                      static_cast<long long>(e.b),
                      e.detail != nullptr ? " " : "",
                      e.detail != nullptr ? e.detail : "");
    if (n > 0) {
      WriteAllToStderr(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
    }
  }
  WriteAllToStderr("=== end flight recorder ===\n", 28);
}

namespace {

// Bounded registry of recorders to dump on a fatal abort. Slots are claimed
// and released with CAS; the dump hook walks all of them. A recorder past
// the bound simply isn't registered — the fatal path stays allocation-free
// and bounded no matter how many sessions a process creates.
constexpr size_t kMaxFatalRecorders = 8;
std::atomic<const FlightRecorder*> g_fatal_recorders[kMaxFatalRecorders];

void FatalDumpAll() {
  // Reentrancy guard: a crash inside the dump must not recurse.
  static std::atomic<bool> dumping{false};
  bool expected = false;
  if (!dumping.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    return;
  }
  for (auto& slot : g_fatal_recorders) {
    const FlightRecorder* recorder = slot.load(std::memory_order_acquire);
    if (recorder != nullptr) recorder->FatalDumpToStderr();
  }
  dumping.store(false, std::memory_order_release);
}

}  // namespace

void FlightRecorder::InstallFatalDump() {
  if (fatal_dump_installed_) return;
  for (auto& slot : g_fatal_recorders) {
    const FlightRecorder* expected = nullptr;
    if (slot.compare_exchange_strong(expected, this,
                                     std::memory_order_acq_rel)) {
      fatal_dump_installed_ = true;
      internal::SetFatalHook(&FatalDumpAll);
      return;
    }
  }
  // Registry full: silently skip (the bound keeps the fatal path simple).
}

void FlightRecorder::UninstallFatalDump() {
  if (!fatal_dump_installed_) return;
  for (auto& slot : g_fatal_recorders) {
    const FlightRecorder* expected = this;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel)) {
      break;
    }
  }
  fatal_dump_installed_ = false;
}

}  // namespace distme::obs

// Shared machinery of the end-to-end benchmark: host spans, the operation log the emulated
// programs stamp through OsCall services, the count snapshot that must repeat exactly, and
// the configuration helpers that keep the benchmark compiling as the emulator's knobs change.

#ifndef IMAX432_PERFBENCH_HARNESS_H_
#define IMAX432_PERFBENCH_HARNESS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/os/system.h"

namespace imax432::perfbench {

// Wall clock; used only to bound how long an invocation keeps measuring.
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU seconds the calling thread has consumed. Every host timing the benchmark reports reads
// this clock: the benchmark runs on one host thread, and the time that thread spends
// descheduled while other processes hold the CPU is not the emulator's cost.
inline double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// Median of a non-empty sample (mean of the middle two for an even count).
double Median(std::vector<double> values);

// --- Configuration pinned to the fastest interpreter that exists today -------------------

// Arms the AD-translation cache when this build still has the knob. Once the cache becomes
// unconditional and SystemConfig::xlat_cache is deleted, this compiles to nothing.
template <typename Config>
void EnableXlatCache(Config& config) {
  if constexpr (requires { config.xlat_cache = true; }) {
    config.xlat_cache = true;
  }
}

// XlatCacheStats counters that the certified tier adds; zero once that tier is deleted.
template <typename Stats>
uint64_t CertifiedHits(const Stats& stats) {
  if constexpr (requires { stats.certified_hits + stats.certified_program_hits; }) {
    return stats.certified_hits + stats.certified_program_hits;
  } else {
    return 0;
  }
}

// --- Host spans ---------------------------------------------------------------------------

// In-memory host-time spans (thread CPU time) recorded around the benchmark's calls into
// each layer. Spans nest by call order on the single host thread; a span's self time is its
// duration minus the time its direct children cover. Disabled spans cost one branch.
class HostSpans {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  // RAII scope: opens a span on construction (when enabled), closes it on destruction.
  class Scope {
   public:
    Scope(HostSpans* spans, const char* name) : spans_(spans), id_(spans->Open(name)) {}
    ~Scope() { spans_->Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostSpans* spans_;
    int id_;
  };

  explicit HostSpans(bool enabled = false) : enabled_(enabled), epoch_s_(ThreadCpuSeconds()) {}

  int Open(const char* name);
  void Close(int id);

  double TotalSeconds(const std::string& name) const;
  double SelfSeconds(const std::string& name) const;

  // One JSON object per span per line: the `run` label, then id, name, parent id (ids are
  // unique within one label), start and end in thread CPU seconds since this recorder was
  // created. Appends when `append` is set.
  bool WriteJsonLines(const std::string& path, const char* run, bool append) const;

 private:
  bool enabled_;
  double epoch_s_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- Operation log ------------------------------------------------------------------------

// OsCall service ids the benchmark registers (ids below 1024 are reserved for iMAX).
inline constexpr uint32_t kServiceIssue = 1024;     // r7 = op id
inline constexpr uint32_t kServiceComplete = 1025;  // r7 = op id, r6 = check difference
inline constexpr uint32_t kServiceFile = 1026;      // r7 = op id, a7 = record to file

inline constexpr Cycles kNotStamped = ~Cycles{0};

// Exact per-operation virtual stamps, written by the emulated programs through OsCall.
struct OpLog {
  explicit OpLog(uint64_t ops) : issue(ops, kNotStamped), done(ops, kNotStamped) {}

  std::vector<Cycles> issue;
  std::vector<Cycles> done;
  uint64_t completed = 0;
  uint64_t check_failures = 0;  // nonzero check differences and malformed stamps
  uint64_t files_failed = 0;
  std::vector<uint64_t> filed;  // op ids filed, in filing order

  // Latencies (done - issue) of every op stamped at both ends, sorted ascending.
  std::vector<Cycles> SortedLatencies() const;
  Cycles LastCompletion() const;
};

// The name the filing service files op `id` under.
std::string RecordName(uint64_t id);

// Registers the stamp services (and the filing service when `filing` is set) on the system's
// kernel. Each File call is recorded as a host span named "file" under the current slice.
void RegisterOpServices(System& system, OpLog* log, HostSpans* spans, bool filing);

// Nearest-rank percentile of an ascending sample (p in (0, 100]).
Cycles ExactPercentile(const std::vector<Cycles>& sorted, double p);

// --- Objects handed to programs -----------------------------------------------------------

// A generic object whose access slots carry `ads` (the standard way to pass ADs in).
AccessDescriptor MakeCarrier(System& system, const std::vector<AccessDescriptor>& ads,
                             const AccessDescriptor& sro = {});

// A generic data object holding `words`, little-endian, allocated from `sro`.
AccessDescriptor MakeDataObject(System& system, const AccessDescriptor& sro,
                                const std::vector<uint64_t>& words,
                                RightsMask rights = rights::kRead | rights::kWrite);

// Makes `ads` GC roots for the System's lifetime: objects the benchmark checks after the run
// stay live even once the processes that referenced them have terminated.
void KeepAlive(System& system, std::vector<AccessDescriptor> ads);

// Reads one 8-byte word of an object's data part from the host, swapping it in first if the
// memory manager swapped it out. Returns false when the AD no longer resolves.
bool HostReadWord(System& system, const AccessDescriptor& ad, uint32_t offset, uint64_t* out);

// --- Deterministic counts -----------------------------------------------------------------

// Every count the run produces that must repeat exactly across runs of one seed and between
// the traced and untraced runs: virtual time, instruction counts, per-layer work counters
// and the exact latency sample.
struct Counts {
  Cycles end_time = 0;
  uint64_t events = 0;
  uint64_t instructions = 0;
  uint64_t dispatches = 0;
  uint64_t slice_ends = 0;
  uint64_t blocks = 0;
  uint64_t faults = 0;
  uint64_t panics = 0;
  uint64_t xlat_hits = 0;
  uint64_t xlat_lookups = 0;
  uint64_t objects_created = 0;
  uint64_t swap_ins = 0;
  uint64_t swap_outs = 0;
  uint64_t resident_bytes = 0;
  uint64_t msgs_enqueued = 0;
  uint64_t handoffs = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t gc_cycles = 0;
  uint64_t gc_slots_scanned = 0;
  uint64_t gc_reclaimed = 0;
  uint64_t gc_work_units = 0;
  uint64_t bus_busy = 0;
  uint64_t bus_wait = 0;
  uint64_t port_wait_sum = 0;
  uint64_t port_wait_count = 0;
  uint64_t dispatch_latency_sum = 0;
  uint64_t dispatch_latency_count = 0;
  uint64_t domain_call_sum = 0;
  uint64_t domain_call_count = 0;
  uint64_t journaled = 0;
  uint64_t journal_appends = 0;
  uint64_t journal_bytes = 0;
  uint64_t journal_syncs = 0;
  uint64_t ops_completed = 0;
  Cycles last_completion = 0;
  Cycles p50 = 0;
  Cycles p99 = 0;

  bool operator==(const Counts&) const = default;
};

// Snapshot of the system's counters (events = EventQueue events run so far, tallied by the
// run loop; latency fields from the op log).
Counts Snapshot(System& system, uint64_t events, const OpLog& log);

// Fields that count work done during the run: `end` minus `start` for the monotone counters.
Counts Delta(const Counts& end, const Counts& start);

// "name a vs b" for every field that differs (empty when equal).
std::string CountsDifference(const Counts& a, const Counts& b);

}  // namespace imax432::perfbench

#endif  // IMAX432_PERFBENCH_HARNESS_H_

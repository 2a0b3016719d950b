#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace imax432::perfbench {

double Median(std::vector<double> values) {
  IMAX_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// --- HostSpans ----------------------------------------------------------------------------

int HostSpans::Open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_s = ThreadCpuSeconds() - epoch_s_;
  spans_.push_back(span);
  int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void HostSpans::Close(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_s = ThreadCpuSeconds() - epoch_s_;
  // Scopes close in reverse order of opening, so the closing span is the top of the stack.
  IMAX_CHECK(!stack_.empty() && stack_.back() == id);
  stack_.pop_back();
}

double HostSpans::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

double HostSpans::SelfSeconds(const std::string& name) const {
  // Children run on the same thread inside their parent, so they never overlap each other:
  // the time they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  double self = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      self += spans_[i].end_s - spans_[i].start_s - child_time[i];
    }
  }
  return self;
}

bool HostSpans::WriteJsonLines(const std::string& path, const char* run, bool append) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) {
    return false;
  }
  out.precision(9);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"run\":\"" << run << "\",\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
        << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s << "}\n";
  }
  return static_cast<bool>(out);
}

// --- OpLog --------------------------------------------------------------------------------

std::vector<Cycles> OpLog::SortedLatencies() const {
  std::vector<Cycles> latencies;
  latencies.reserve(issue.size());
  for (size_t i = 0; i < issue.size(); ++i) {
    if (issue[i] != kNotStamped && done[i] != kNotStamped) {
      latencies.push_back(done[i] - issue[i]);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

Cycles OpLog::LastCompletion() const {
  Cycles last = 0;
  for (Cycles t : done) {
    if (t != kNotStamped) {
      last = std::max(last, t);
    }
  }
  return last;
}

Cycles ExactPercentile(const std::vector<Cycles>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

std::string RecordName(uint64_t id) {
  char name[24];
  std::snprintf(name, sizeof(name), "r%llu", static_cast<unsigned long long>(id));
  return name;
}

void RegisterOpServices(System& system, OpLog* log, HostSpans* spans, bool filing) {
  Kernel& kernel = system.kernel();
  kernel.RegisterService(kServiceIssue, [log, &kernel](ExecutionContext& env)
                                            -> Result<NativeResult> {
    uint64_t id = env.reg(kArgReg);
    if (id >= log->issue.size() || log->issue[id] != kNotStamped) {
      ++log->check_failures;
    } else {
      log->issue[id] = kernel.now();
    }
    return NativeResult{};
  });
  kernel.RegisterService(kServiceComplete, [log, &kernel](ExecutionContext& env)
                                               -> Result<NativeResult> {
    uint64_t id = env.reg(kArgReg);
    if (id >= log->done.size() || log->done[id] != kNotStamped) {
      ++log->check_failures;
      return NativeResult{};
    }
    log->done[id] = kernel.now();
    ++log->completed;
    if (env.reg(6) != 0) {
      ++log->check_failures;
    }
    return NativeResult{};
  });
  if (!filing) {
    return;
  }
  kernel.RegisterService(kServiceFile, [log, spans, &system](ExecutionContext& env)
                                           -> Result<NativeResult> {
    uint64_t id = env.reg(kArgReg);
    HostSpans::Scope span(spans, "file");
    if (system.filing().File(RecordName(id), env.ad_reg(kArgAdReg)).ok()) {
      log->filed.push_back(id);
    } else {
      ++log->files_failed;
    }
    return NativeResult{};
  });
}

// --- Objects ------------------------------------------------------------------------------

AccessDescriptor MakeCarrier(System& system, const std::vector<AccessDescriptor>& ads,
                             const AccessDescriptor& sro) {
  auto carrier = system.memory().CreateObject(
      sro.is_null() ? system.memory().global_heap() : sro, SystemType::kGeneric, 8,
      static_cast<uint32_t>(ads.size()), rights::kRead | rights::kWrite);
  IMAX_CHECK(carrier.ok());
  for (size_t i = 0; i < ads.size(); ++i) {
    IMAX_CHECK(system.machine()
                   .addressing()
                   .WriteAd(carrier.value(), static_cast<uint32_t>(i), ads[i])
                   .ok());
  }
  return carrier.value();
}

AccessDescriptor MakeDataObject(System& system, const AccessDescriptor& sro,
                                const std::vector<uint64_t>& words, RightsMask rights) {
  uint32_t bytes = static_cast<uint32_t>(words.size() * 8);
  auto object = system.memory().CreateObject(sro, SystemType::kGeneric, bytes, 0,
                                             rights::kRead | rights::kWrite);
  IMAX_CHECK(object.ok());
  IMAX_CHECK(system.machine()
                 .addressing()
                 .WriteDataBlock(object.value(), 0, words.data(), bytes)
                 .ok());
  return object.value().Restricted(rights);
}

void KeepAlive(System& system, std::vector<AccessDescriptor> ads) {
  system.kernel().AddRootProvider([ads = std::move(ads)](std::vector<AccessDescriptor>* roots) {
    roots->insert(roots->end(), ads.begin(), ads.end());
  });
}

bool HostReadWord(System& system, const AccessDescriptor& ad, uint32_t offset, uint64_t* out) {
  if (!system.machine().table().Resolve(ad).ok()) {
    return false;
  }
  auto value = system.machine().addressing().ReadData(ad, offset, 8);
  if (!value.ok() && value.fault() == Fault::kSegmentSwapped) {
    if (!system.memory().EnsureResident(ad.index()).ok()) {
      return false;
    }
    value = system.machine().addressing().ReadData(ad, offset, 8);
  }
  if (!value.ok()) {
    return false;
  }
  *out = value.value();
  return true;
}

// --- Counts -------------------------------------------------------------------------------

Counts Snapshot(System& system, uint64_t events, const OpLog& log) {
  Counts c;
  Machine& machine = system.machine();
  const KernelStats& k = system.kernel().stats();
  c.end_time = system.now();
  c.events = events;
  c.instructions = k.instructions_executed;
  c.dispatches = k.dispatches;
  c.slice_ends = k.time_slice_ends;
  c.blocks = k.blocks;
  c.faults = k.faults_delivered;
  c.panics = k.panics;
  XlatCacheStats x = system.kernel().xlat_stats();
  c.xlat_hits = x.hits + x.program_hits + CertifiedHits(x);
  c.xlat_lookups = c.xlat_hits + x.misses + x.program_misses;
  MemoryStats m = system.memory().stats();
  c.objects_created = m.objects_created;
  c.swap_ins = m.swap_ins;
  c.swap_outs = m.swap_outs;
  c.resident_bytes = m.resident_bytes;
  const PortStats& p = system.kernel().ports().stats();
  c.msgs_enqueued = p.messages_enqueued;
  c.handoffs = p.direct_handoffs;
  c.peak_queue_depth = p.peak_queue_depth;
  const GcStats& g = system.gc().stats();
  c.gc_cycles = g.cycles_completed;
  c.gc_slots_scanned = g.slots_scanned;
  c.gc_reclaimed = g.objects_reclaimed;
  c.gc_work_units = system.gc().work_units();
  c.bus_busy = machine.bus().busy_cycles();
  c.bus_wait = machine.bus().wait_cycles();
  const LatencyHistograms& h = machine.latency();
  c.port_wait_sum = h.port_wait.sum();
  c.port_wait_count = h.port_wait.count();
  c.dispatch_latency_sum = h.dispatch_latency.sum();
  c.dispatch_latency_count = h.dispatch_latency.count();
  c.domain_call_sum = h.domain_call.sum();
  c.domain_call_count = h.domain_call.count();
  c.journaled = system.filing().stats().journaled_mutations;
  if (system.journal() != nullptr) {
    const JournalStats& j = system.journal()->stats();
    c.journal_appends = j.appends;
    c.journal_bytes = j.bytes_appended;
    c.journal_syncs = j.syncs;
  }
  c.ops_completed = log.completed;
  c.last_completion = log.LastCompletion();
  std::vector<Cycles> latencies = log.SortedLatencies();
  c.p50 = ExactPercentile(latencies, 50);
  c.p99 = ExactPercentile(latencies, 99);
  return c;
}

namespace {

// Every Counts field; gauges (levels and latency figures) are not differenced by Delta.
struct CountField {
  const char* name;
  uint64_t Counts::*field;
  bool gauge;
};

constexpr CountField kCountFields[] = {
    {"end_time", &Counts::end_time, true},
    {"events", &Counts::events, false},
    {"instructions", &Counts::instructions, false},
    {"dispatches", &Counts::dispatches, false},
    {"slice_ends", &Counts::slice_ends, false},
    {"blocks", &Counts::blocks, false},
    {"faults", &Counts::faults, false},
    {"panics", &Counts::panics, false},
    {"xlat_hits", &Counts::xlat_hits, false},
    {"xlat_lookups", &Counts::xlat_lookups, false},
    {"objects_created", &Counts::objects_created, false},
    {"swap_ins", &Counts::swap_ins, false},
    {"swap_outs", &Counts::swap_outs, false},
    {"resident_bytes", &Counts::resident_bytes, true},
    {"msgs_enqueued", &Counts::msgs_enqueued, false},
    {"handoffs", &Counts::handoffs, false},
    {"peak_queue_depth", &Counts::peak_queue_depth, true},
    {"gc_cycles", &Counts::gc_cycles, false},
    {"gc_slots_scanned", &Counts::gc_slots_scanned, false},
    {"gc_reclaimed", &Counts::gc_reclaimed, false},
    {"gc_work_units", &Counts::gc_work_units, false},
    {"bus_busy", &Counts::bus_busy, false},
    {"bus_wait", &Counts::bus_wait, false},
    {"port_wait_sum", &Counts::port_wait_sum, false},
    {"port_wait_count", &Counts::port_wait_count, false},
    {"dispatch_latency_sum", &Counts::dispatch_latency_sum, false},
    {"dispatch_latency_count", &Counts::dispatch_latency_count, false},
    {"domain_call_sum", &Counts::domain_call_sum, false},
    {"domain_call_count", &Counts::domain_call_count, false},
    {"journaled", &Counts::journaled, false},
    {"journal_appends", &Counts::journal_appends, false},
    {"journal_bytes", &Counts::journal_bytes, false},
    {"journal_syncs", &Counts::journal_syncs, false},
    {"ops_completed", &Counts::ops_completed, true},
    {"last_completion", &Counts::last_completion, true},
    {"p50", &Counts::p50, true},
    {"p99", &Counts::p99, true},
};

}  // namespace

Counts Delta(const Counts& end, const Counts& start) {
  Counts d = end;
  for (const CountField& f : kCountFields) {
    if (!f.gauge) {
      d.*f.field -= start.*f.field;
    }
  }
  return d;
}

std::string CountsDifference(const Counts& a, const Counts& b) {
  std::string out;
  for (const CountField& f : kCountFields) {
    if (a.*f.field != b.*f.field) {
      out += std::string(out.empty() ? "" : ", ") + f.name + " " + std::to_string(a.*f.field) +
             " vs " + std::to_string(b.*f.field);
    }
  }
  return out;
}

}  // namespace imax432::perfbench

#include "src/obs/perfetto.h"

#include <cstdio>
#include <map>
#include <set>

#include "src/arch/cycle_model.h"
#include "src/base/result.h"
#include "src/obs/span.h"

namespace imax432 {

namespace {

// `text` as the body of a JSON string: quotes, backslashes and control characters escaped.
// Symbol names and log annotations come from user code, so every one goes through here.
std::string Escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

// Emits one JSON object per trace event into `out`. All events share pid 0; tids are
// 1 + cpu for processor tracks, then GC / kernel / log tracks above the highest cpu.
class Exporter {
 public:
  Exporter(const std::vector<TraceEvent>& events,
           const std::vector<std::pair<Cycles, std::string>>& annotations,
           const SymbolTable* symbols)
      : events_(events), annotations_(annotations), symbols_(symbols) {}

  std::string Run();

 private:
  static std::string Ts(Cycles cycles);

  std::string NameFor(const char* prefix, uint32_t index) const;

  void Append(const std::string& event);
  void Metadata(uint32_t tid, const std::string& name);
  void OpenSlice(uint32_t tid, Cycles ts, const std::string& name, const std::string& args);
  void CloseSlice(uint32_t tid, Cycles ts);
  void Instant(uint32_t tid, Cycles ts, const std::string& name, const std::string& args);

  void HandleEvent(const TraceEvent& event);

  const std::vector<TraceEvent>& events_;
  const std::vector<std::pair<Cycles, std::string>>& annotations_;
  const SymbolTable* symbols_;

  uint32_t gc_tid_ = 0;
  uint32_t kernel_tid_ = 0;
  uint32_t log_tid_ = 0;
  std::map<uint32_t, bool> cpu_slice_open_;   // cpu tid -> B slice currently open
  bool gc_slice_open_ = false;
  std::set<uint32_t> open_port_waits_;        // process indices with an open async slice
  std::string out_;
  bool first_ = true;
};

std::string Exporter::Ts(Cycles cycles) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", cycles::ToMicroseconds(cycles));
  return buffer;
}

std::string Exporter::NameFor(const char* prefix, uint32_t index) const {
  if (symbols_ != nullptr) {
    const std::string* name = symbols_->Find(index);
    if (name != nullptr) {
      return Escape(*name);
    }
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%s %u", prefix, index);
  return buffer;
}

void Exporter::Append(const std::string& event) {
  if (!first_) out_ += ",\n";
  first_ = false;
  out_ += event;
}

void Exporter::Metadata(uint32_t tid, const std::string& name) {
  Append("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name + "\"}}");
}

void Exporter::OpenSlice(uint32_t tid, Cycles ts, const std::string& name,
                         const std::string& args) {
  Append("{\"ph\":\"B\",\"pid\":0,\"tid\":" + std::to_string(tid) + ",\"ts\":" + Ts(ts) +
         ",\"name\":\"" + name + "\"" + (args.empty() ? "" : ",\"args\":" + args) + "}");
}

void Exporter::CloseSlice(uint32_t tid, Cycles ts) {
  Append("{\"ph\":\"E\",\"pid\":0,\"tid\":" + std::to_string(tid) + ",\"ts\":" + Ts(ts) + "}");
}

void Exporter::Instant(uint32_t tid, Cycles ts, const std::string& name,
                       const std::string& args) {
  Append("{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" + std::to_string(tid) +
         ",\"ts\":" + Ts(ts) + ",\"name\":\"" + name + "\"" +
         (args.empty() ? "" : ",\"args\":" + args) + "}");
}

void Exporter::HandleEvent(const TraceEvent& event) {
  uint32_t tid = event.cpu == kTraceNoProcessor ? kernel_tid_ : event.cpu + 1u;
  switch (event.kind) {
    case TraceEventKind::kDispatch: {
      if (cpu_slice_open_[tid]) CloseSlice(tid, event.ts);
      OpenSlice(tid, event.ts, NameFor("process", event.process),
                "{\"process\":" + std::to_string(event.process) +
                    ",\"dispatch_latency_cycles\":" + std::to_string(event.a) + "}");
      cpu_slice_open_[tid] = true;
      break;
    }
    case TraceEventKind::kPreempt:
    case TraceEventKind::kIdle: {
      if (cpu_slice_open_[tid]) {
        CloseSlice(tid, event.ts);
        cpu_slice_open_[tid] = false;
      }
      if (event.kind == TraceEventKind::kPreempt) {
        Instant(tid, event.ts, "preempt", "{\"process\":" + std::to_string(event.process) + "}");
      }
      break;
    }
    case TraceEventKind::kDomainCall: {
      // The calibrated switch cost rides in payload b: ~520 cycles = ~65 us.
      char dur[32];
      std::snprintf(dur, sizeof(dur), "%.3f", cycles::ToMicroseconds(event.b));
      Append("{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(tid) +
             ",\"ts\":" + Ts(event.ts) + ",\"dur\":" + dur +
             ",\"cat\":\"call\",\"name\":\"domain call\",\"args\":{\"domain\":\"" +
             NameFor("domain", event.c) + "\",\"callee_context\":" + std::to_string(event.a) +
             "}}");
      break;
    }
    case TraceEventKind::kBlockSend:
    case TraceEventKind::kBlockReceive: {
      const char* what = event.kind == TraceEventKind::kBlockSend ? "send" : "receive";
      Append("{\"ph\":\"b\",\"cat\":\"port-wait\",\"id\":" + std::to_string(event.process) +
             ",\"pid\":0,\"tid\":" + std::to_string(tid) + ",\"ts\":" + Ts(event.ts) +
             ",\"name\":\"wait " + NameFor("port", event.a) + "\",\"args\":{\"op\":\"" + what +
             "\",\"queue_depth\":" + std::to_string(event.b) + "}}");
      open_port_waits_.insert(event.process);
      break;
    }
    case TraceEventKind::kUnblock: {
      if (open_port_waits_.erase(event.process) != 0) {
        Append("{\"ph\":\"e\",\"cat\":\"port-wait\",\"id\":" + std::to_string(event.process) +
               ",\"pid\":0,\"tid\":" + std::to_string(kernel_tid_) + ",\"ts\":" + Ts(event.ts) +
               ",\"name\":\"wait " + NameFor("port", event.a) + "\"}");
      }
      Instant(kernel_tid_, event.ts, "unblock",
              "{\"process\":" + std::to_string(event.process) +
                  ",\"waited_cycles\":" + std::to_string(event.b) + "}");
      break;
    }
    case TraceEventKind::kGcPhase: {
      if (gc_slice_open_) {
        CloseSlice(gc_tid_, event.ts);
        gc_slice_open_ = false;
      }
      auto phase = static_cast<GcTracePhase>(event.a);
      if (phase != GcTracePhase::kIdle) {
        OpenSlice(gc_tid_, event.ts, std::string("gc ") + GcTracePhaseName(phase), "");
        gc_slice_open_ = true;
      }
      break;
    }
    case TraceEventKind::kSend:
    case TraceEventKind::kReceive: {
      Instant(tid, event.ts, TraceEventKindName(event.kind),
              "{\"port\":\"" + NameFor("port", event.a) +
                  "\",\"queue_depth\":" + std::to_string(event.b) + "}");
      break;
    }
    case TraceEventKind::kAllocate:
    case TraceEventKind::kDestroy:
    case TraceEventKind::kSwapOut:
    case TraceEventKind::kSwapIn: {
      Instant(tid, event.ts, TraceEventKindName(event.kind),
              "{\"object\":" + std::to_string(event.a) +
                  ",\"bytes\":" + std::to_string(event.b) + "}");
      break;
    }
    case TraceEventKind::kFault: {
      Instant(tid, event.ts, std::string("fault: ") + FaultName(static_cast<Fault>(event.a)),
              "{\"process\":" + std::to_string(event.process) +
                  ",\"delivered\":" + std::to_string(event.b) + "}");
      break;
    }
    case TraceEventKind::kTerminate: {
      Instant(tid, event.ts, "terminate",
              "{\"process\":" + std::to_string(event.process) +
                  ",\"faulted\":" + std::to_string(event.a) + "}");
      break;
    }
    case TraceEventKind::kDomainReturn:
    case TraceEventKind::kLocalReturn:
    case TraceEventKind::kLocalCall: {
      Instant(tid, event.ts, TraceEventKindName(event.kind),
              "{\"context\":" + std::to_string(event.a) + "}");
      break;
    }
    case TraceEventKind::kInstruction: {
      Instant(tid, event.ts, "step",
              "{\"pc\":" + std::to_string(event.a) +
                  ",\"opcode\":" + std::to_string(event.b) + "}");
      break;
    }
    case TraceEventKind::kRaceDetected: {
      Instant(tid, event.ts, "race-detected",
              "{\"process\":" + std::to_string(event.process) +
                  ",\"object\":" + std::to_string(event.a) +
                  ",\"pc\":" + std::to_string(event.b) +
                  ",\"other\":" + std::to_string(event.c) + "}");
      break;
    }
    case TraceEventKind::kProcessorRetired: {
      // A retired GDP's execution slice ends forever; close it before the marker.
      if (cpu_slice_open_[tid]) {
        CloseSlice(tid, event.ts);
        cpu_slice_open_[tid] = false;
      }
      Instant(tid, event.ts, "processor-retired",
              "{\"requeued_process\":" + std::to_string(event.process) +
                  ",\"survivors\":" + std::to_string(event.a) + "}");
      break;
    }
    case TraceEventKind::kObjectQuarantined: {
      Instant(tid, event.ts, "object-quarantined",
              "{\"object\":" + std::to_string(event.a) +
                  ",\"check\":" + std::to_string(event.b) + "}");
      break;
    }
    case TraceEventKind::kDeviceRetry: {
      Instant(tid, event.ts, "device-retry",
              "{\"object\":" + std::to_string(event.a) +
                  ",\"attempt\":" + std::to_string(event.b) +
                  ",\"backoff_cycles\":" + std::to_string(event.c) + "}");
      break;
    }
    case TraceEventKind::kInjection: {
      Instant(tid, event.ts, "injection",
              "{\"kind\":" + std::to_string(event.a) +
                  ",\"target\":" + std::to_string(event.b) +
                  ",\"arg\":" + std::to_string(event.c) + "}");
      break;
    }
    case TraceEventKind::kPatrolSweep: {
      Instant(tid, event.ts, "patrol-sweep",
              "{\"scanned\":" + std::to_string(event.a) +
                  ",\"quarantined\":" + std::to_string(event.b) + "}");
      break;
    }
    case TraceEventKind::kLifetimeViolation: {
      Instant(tid, event.ts, "lifetime-violation",
              "{\"object\":" + std::to_string(event.a) +
                  ",\"holder\":" + std::to_string(event.b) +
                  ",\"alloc_pc\":" + std::to_string(event.c) + "}");
      break;
    }
    case TraceEventKind::kFilingOp: {
      Instant(tid, event.ts,
              std::string("filing-") +
                  FilingOpKindName(static_cast<FilingOpKind>(event.a)),
              "{\"op\":" + std::to_string(event.a) +
                  ",\"size\":" + std::to_string(event.b) +
                  ",\"name_hash\":" + std::to_string(event.c) + "}");
      break;
    }
  }
}

std::string Exporter::Run() {
  uint32_t max_cpu = 0;
  for (const TraceEvent& event : events_) {
    if (event.cpu != kTraceNoProcessor && event.cpu > max_cpu) {
      max_cpu = event.cpu;
    }
  }
  gc_tid_ = max_cpu + 2;
  kernel_tid_ = max_cpu + 3;
  log_tid_ = max_cpu + 4;

  out_ = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Append("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"iMAX-432\"}}");
  for (uint32_t cpu = 0; cpu <= max_cpu; ++cpu) {
    Metadata(cpu + 1, "GDP " + std::to_string(cpu));
  }
  Metadata(gc_tid_, "GC");
  Metadata(kernel_tid_, "kernel");
  if (!annotations_.empty()) {
    Metadata(log_tid_, "log");
  }

  Cycles last_ts = 0;
  for (const TraceEvent& event : events_) {
    HandleEvent(event);
    if (event.ts > last_ts) last_ts = event.ts;
  }
  for (const auto& [ts, message] : annotations_) {
    Instant(log_tid_, ts, Escape(message), "");
    if (ts > last_ts) last_ts = ts;
  }

  // Close whatever is still running so every slice has an end.
  for (auto& [tid, open] : cpu_slice_open_) {
    if (open) CloseSlice(tid, last_ts);
  }
  if (gc_slice_open_) CloseSlice(gc_tid_, last_ts);

  out_ += "\n]}\n";
  return out_;
}

}  // namespace

std::string ExportChromeTrace(const std::vector<TraceEvent>& events,
                              const std::vector<std::pair<Cycles, std::string>>& annotations,
                              const SymbolTable* symbols) {
  return Exporter(events, annotations, symbols).Run();
}

std::string ExportChromeTrace(const TraceRecorder& trace, const SymbolTable* symbols) {
  std::vector<std::pair<Cycles, std::string>> annotations(trace.annotations().begin(),
                                                          trace.annotations().end());
  return ExportChromeTrace(trace.Snapshot(), annotations, symbols);
}

std::string ExportSpanChromeTrace(const SpanTracer& spans, const SymbolTable* symbols) {
  auto ts_of = [](Cycles cycles) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", cycles::ToMicroseconds(cycles));
    return std::string(buffer);
  };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto append = [&out, &first](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };
  append("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"iMAX-432 spans\"}}");

  // One track per iMAX process, in order of first appearance.
  std::map<uint32_t, uint32_t> tids;
  for (const SpanRecord& span : spans.spans()) {
    if (tids.find(span.process) != tids.end()) {
      continue;
    }
    uint32_t tid = static_cast<uint32_t>(tids.size()) + 1;
    tids[span.process] = tid;
    std::string name = "process " + std::to_string(span.process);
    if (symbols != nullptr) {
      const std::string* symbol = symbols->Find(span.process);
      if (symbol != nullptr) name = Escape(*symbol);
    }
    append("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name + "\"}}");
  }

  const std::vector<SpanRecord>& records = spans.spans();
  for (const SpanRecord& span : records) {
    uint32_t tid = tids[span.process];
    std::string name = span.parent == 0 ? "request " + std::to_string(span.root)
                                        : "span " + std::to_string(span.id);
    std::string args = "{\"span\":" + std::to_string(span.id) +
                       ",\"parent\":" + std::to_string(span.parent) +
                       ",\"root\":" + std::to_string(span.root) +
                       ",\"process\":" + std::to_string(span.process);
    for (size_t b = 0; b < kCycleBucketCount; ++b) {
      if (span.cycles[b] == 0) continue;
      args += ",\"cycles_";
      args += CycleBucketName(static_cast<CycleBucket>(b));
      args += "\":" + std::to_string(span.cycles[b]);
    }
    args += '}';
    append("{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(tid) +
           ",\"ts\":" + ts_of(span.start) + ",\"dur\":" + ts_of(span.end - span.start) +
           ",\"cat\":\"span\",\"name\":\"" + name + "\",\"args\":" + args + "}");

    // Causal edge from the parent span: a flow-start pinned inside the parent slice and a
    // flow-finish at this span's beginning. Flow id = child span id (unique per edge).
    if (span.parent != 0 && span.parent <= records.size()) {
      const SpanRecord& parent = records[span.parent - 1];
      Cycles anchor = span.start;
      if (anchor > parent.end) anchor = parent.end;
      if (anchor < parent.start) anchor = parent.start;
      append("{\"ph\":\"s\",\"cat\":\"span-flow\",\"id\":" + std::to_string(span.id) +
             ",\"pid\":0,\"tid\":" + std::to_string(tids[parent.process]) +
             ",\"ts\":" + ts_of(anchor) + ",\"name\":\"causal\"}");
      append("{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"span-flow\",\"id\":" +
             std::to_string(span.id) + ",\"pid\":0,\"tid\":" + std::to_string(tid) +
             ",\"ts\":" + ts_of(span.start) + ",\"name\":\"causal\"}");
    }
  }

  out += "\n]}\n";
  return out;
}

}  // namespace imax432

#include "src/analysis/lifetime/lifetime.h"

#include <cstdio>

namespace imax432 {
namespace analysis {
namespace {

bool SiteEscapes(const AllocationSite& site) {
  return site.sent || site.passed_to_call || site.returned || site.destroyed ||
         site.unresolved || !site.heap_stores.empty();
}

}  // namespace

std::vector<uint32_t> DemotableSites(const LifetimeSummary& summary) {
  std::vector<uint32_t> result;
  if (summary.opaque) return result;
  const size_t n = summary.sites.size();
  std::vector<bool> demotable(n);
  for (size_t i = 0; i < n; ++i) demotable[i] = !SiteEscapes(summary.sites[i]);
  // A site stored into a sibling lives exactly as long as that sibling: demotability
  // propagates backward along store edges until nothing changes.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (!demotable[i]) continue;
      for (uint16_t target : summary.sites[i].stored_into_sites) {
        if (!demotable[target]) {
          demotable[i] = false;
          changed = true;
          break;
        }
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (demotable[i]) result.push_back(summary.sites[i].pc);
  }
  return result;
}

LifetimeAnalysisReport AnalyzeLifetimes(
    const SystemEffectGraph& graph,
    const std::map<ObjectIndex, LifetimeSummary>& lifetimes) {
  LifetimeAnalysisReport report;

  // Whole-system opacity: any program that could read an arbitrary access part or ship an
  // unresolvable payload could hold any stored AD, so every leak / anomaly claim dies.
  bool suppress_all = false;
  for (const auto& [segment, entry] : graph.programs()) {
    if (entry.summary.has_native) {
      ++report.opaque_programs;
      suppress_all = true;
    }
    if (entry.summary.has_unresolved_access) {
      ++report.unresolved_programs;
      suppress_all = true;
    }
  }
  for (const auto& [segment, summary] : lifetimes) {
    if (summary.sent_unknown) {
      ++report.unresolved_programs;
      suppress_all = true;
    }
  }

  // True when some summarized program may read slot ADs back out of `container`.
  auto container_read = [&graph](ObjectIndex container) {
    for (const auto& [segment, entry] : graph.programs()) {
      if (entry.summary.Reads(container, ObjectPart::kAccess)) return true;
    }
    return false;
  };

  for (const auto& [segment, summary] : lifetimes) {
    ++report.programs_analyzed;
    report.sites_analyzed += static_cast<uint32_t>(summary.sites.size());
    report.sites_demotable += static_cast<uint32_t>(DemotableSites(summary).size());

    if (!summary.opaque) {
      for (const AllocationSite& site : summary.sites) {
        // Leak suspect: the site's only escapes are stores into pre-existing containers
        // nothing ever reads back — retained forever, reachable by no program.
        if (site.heap_stores.empty() || site.sent || site.passed_to_call || site.returned ||
            site.destroyed || site.unresolved || !site.stored_into_sites.empty()) {
          continue;
        }
        if (suppress_all) {
          ++report.leaks_suppressed;
          continue;
        }
        bool read_back = false;
        for (const HeapStore& store : site.heap_stores) {
          if (container_read(store.container)) {
            read_back = true;
            break;
          }
        }
        if (read_back) {
          ++report.leaks_suppressed;  // retrievable, not lost
          continue;
        }
        const HeapStore& first = site.heap_stores.front();
        LeakDiagnostic leak;
        leak.program = summary.program_name;
        leak.alloc_pc = site.pc;
        leak.container = first.container;
        leak.store_pc = first.pc;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "leak suspect: '%s' stores the object allocated at pc %u into object "
                      "%u (pc %u); no program ever loads it back\n  %s",
                      summary.program_name.c_str(), site.pc, first.container, first.pc,
                      site.disasm.c_str());
        leak.message = line;
        report.leaks.push_back(std::move(leak));
      }
    }

    for (const RetentionAnomaly& anomaly : summary.anomalies) {
      // Another program reading the container could have copied the AD out before the
      // overwrite; opacity anywhere could be hiding the same thing.
      if (suppress_all || container_read(anomaly.container)) {
        ++report.anomalies_suppressed;
        continue;
      }
      AnomalyDiagnostic diagnostic;
      diagnostic.program = summary.program_name;
      diagnostic.anomaly = anomaly;
      char line[200];
      std::snprintf(line, sizeof(line),
                    "retention anomaly: '%s' overwrites object %u slot %u at pc %u, the "
                    "sole AD of the object allocated at pc %u (stored at pc %u)\n  %s",
                    summary.program_name.c_str(), anomaly.container, anomaly.slot,
                    anomaly.overwrite_pc, summary.sites[anomaly.site].pc, anomaly.store_pc,
                    anomaly.disasm.c_str());
      diagnostic.message = line;
      report.anomalies.push_back(std::move(diagnostic));
    }
  }
  return report;
}

std::string FormatLifetimeReport(const LifetimeAnalysisReport& report) {
  std::string out;
  for (const LeakDiagnostic& leak : report.leaks) {
    out += leak.message;
    out += '\n';
  }
  for (const AnomalyDiagnostic& anomaly : report.anomalies) {
    out += anomaly.message;
    out += '\n';
  }
  return out;
}

}  // namespace analysis
}  // namespace imax432

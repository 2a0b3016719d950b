// Static object-lifetime and escape analysis over allocation sites: the whole-system phase.
//
// The paper's storage model is lifetime-driven: local SROs are bulk-destroyed at scope exit
// (level numbers guarantee no dangling references), while global-heap objects wait for the
// parallel GC, with destruction filters recovering "lost objects" (§1.3–1.4). This pass is
// the static side of that story. Phase 1 is the per-program AD-flow pass (effects.h): its
// LifetimeSummary holds one record per `create_object` site — where the fresh object's ADs
// flow: stores into pre-existing ("longer-lived") objects, stores into other allocation
// sites, port sends, domain-call arguments (a7 at call), context returns (a7 at return),
// explicit destroys — with an `unresolved` tier for anything the bounded AD-set machinery
// cannot follow. Phase 2, here, composes those summaries across the whole system through the
// SystemEffectGraph (deadlock.h) and yields three verdict classes:
//
//   demotable         — the site provably never escapes the allocating context's lifetime:
//                       no heap store, no send, no call argument, no return, no destroy,
//                       nothing unresolved, and any store into a *sibling site* only reaches
//                       sites that are themselves demotable. The kernel may allocate such
//                       sites from a per-context local SRO and bulk-destroy them at context
//                       exit, skipping GC registration entirely (see kernel.h,
//                       SystemConfig::lifetime_demote).
//   leak suspect      — the static analogue of the paper's lost object: the site is stored
//                       into a pre-existing object whose access part no summarized program
//                       ever reads back, and the site never escapes any other way. The AD is
//                       retained forever but unreachable to every program.
//   retention anomaly — the mirror image: a store overwrites the one heap cell that held the
//                       site's sole remaining AD while no register or tracked cell still
//                       names it — the object silently becomes garbage that only the GC (or
//                       a destruction filter) will ever recover.
//
// Soundness posture (DESIGN.md §6.3): verdicts follow the suite's zero-false-positive rule.
// A site is demotable only when every fact about it resolved; leak and anomaly claims are
// additionally suppressed — counted, never reported — whenever any summarized program is
// opaque (native steps, unknown services), has unresolved accesses, or sent an unresolvable
// payload, since such code could read the container back or hold the AD. The dynamic
// cross-check for demotion verdicts is the lifetime auditor (auditor.h,
// SystemConfig::lifetime_audit).

#ifndef IMAX432_SRC_ANALYSIS_LIFETIME_LIFETIME_H_
#define IMAX432_SRC_ANALYSIS_LIFETIME_LIFETIME_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/effects.h"
#include "src/arch/types.h"

namespace imax432 {
namespace analysis {

// The pcs of this program's demotable sites (sorted): sites with no escape fact whose
// sibling-site stores reach only demotable sites, in a non-opaque program. Per-program by
// construction — a demoted object can only ever be referenced by registers of its own
// context and by sibling demoted objects in the same per-context SRO.
std::vector<uint32_t> DemotableSites(const LifetimeSummary& summary);

struct LeakDiagnostic {
  std::string program;
  uint32_t alloc_pc = 0;
  ObjectIndex container = kInvalidObjectIndex;
  uint32_t store_pc = 0;
  std::string message;  // rendered, disassembly-anchored
};

struct AnomalyDiagnostic {
  std::string program;
  RetentionAnomaly anomaly;
  std::string message;
};

struct LifetimeAnalysisReport {
  std::vector<LeakDiagnostic> leaks;
  std::vector<AnomalyDiagnostic> anomalies;
  uint32_t programs_analyzed = 0;
  uint32_t sites_analyzed = 0;
  uint32_t sites_demotable = 0;
  uint32_t leaks_suppressed = 0;      // candidate leaks voided by opacity / container reads
  uint32_t anomalies_suppressed = 0;  // candidate anomalies voided the same way
  uint32_t opaque_programs = 0;
  uint32_t unresolved_programs = 0;   // unresolved accesses or unresolvable send payloads

  bool ok() const { return leaks.empty() && anomalies.empty(); }
};

// One report as text, one block per diagnostic ("" when the report is clean).
std::string FormatLifetimeReport(const LifetimeAnalysisReport& report);

// Phase 2: composes per-program lifetime summaries with the whole-system effect graph.
// `lifetimes` is keyed by instruction-segment index like the graph's own program map; graph
// programs without a lifetime entry still participate in suppression (their effect
// summaries say whether they could read a container back).
LifetimeAnalysisReport AnalyzeLifetimes(
    const SystemEffectGraph& graph,
    const std::map<ObjectIndex, LifetimeSummary>& lifetimes);

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_LIFETIME_LIFETIME_H_

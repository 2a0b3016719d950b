#include "src/analysis/lifetime/auditor.h"

#include "src/arch/object_table.h"

namespace imax432 {
namespace analysis {

void LifetimeAuditor::OnDemoted(ObjectIndex object, uint32_t generation, ObjectIndex sro,
                                ObjectIndex segment, uint32_t pc) {
  Entry entry;
  entry.generation = generation;
  entry.sro = sro;
  entry.segment = segment;
  entry.pc = pc;
  demoted_[object] = entry;
  ++stats_.demoted_tracked;
}

void LifetimeAuditor::OnObjectDestroyed(ObjectIndex object) { demoted_.erase(object); }

std::vector<LifetimeViolation> LifetimeAuditor::AuditScopeExit(const ObjectTable& table,
                                                               ObjectIndex sro,
                                                               ObjectIndex owner_context) {
  ++stats_.scopes_audited;

  // The dying population: tracked entries from this SRO whose table slot still holds the
  // same incarnation. (A stale generation means the object was already reclaimed and the
  // index possibly reused — that object is not being destroyed now.) Entries are copied:
  // the loop erases them from demoted_ as it goes.
  std::map<ObjectIndex, Entry> population;
  for (auto it = demoted_.begin(); it != demoted_.end();) {
    if (it->second.sro != sro) {
      ++it;
      continue;
    }
    const ObjectDescriptor& descriptor = table.At(it->first);
    if (descriptor.allocated && descriptor.generation == it->second.generation) {
      population.emplace(it->first, it->second);
    }
    // Dropped either way: the caller bulk-destroys the SRO right after this audit.
    it = demoted_.erase(it);
  }

  std::vector<LifetimeViolation> found;
  if (population.empty()) return found;

  const ObjectIndex end = table.capacity();
  for (ObjectIndex holder = table.NextAllocated(0, end); holder < end;
       holder = table.NextAllocated(holder + 1, end)) {
    if (holder == owner_context || population.count(holder) != 0) continue;
    const ObjectDescriptor& descriptor = table.At(holder);
    ++stats_.objects_scanned;
    for (uint32_t slot = 0; slot < descriptor.access_count(); ++slot) {
      const AccessDescriptor& ad = descriptor.access[slot];
      if (ad.is_null()) continue;
      auto member = population.find(ad.index());
      if (member == population.end() ||
          ad.generation() != member->second.generation) {
        continue;
      }
      LifetimeViolation violation;
      violation.object = member->first;
      violation.holder = holder;
      violation.holder_slot = slot;
      violation.segment = member->second.segment;
      violation.alloc_pc = member->second.pc;
      found.push_back(violation);
      ++stats_.violations;
    }
  }
  violations_.insert(violations_.end(), found.begin(), found.end());
  return found;
}

}  // namespace analysis
}  // namespace imax432

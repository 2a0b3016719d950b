#include "src/gc/collector.h"

#include <bit>

#include "src/base/check.h"
#include "src/base/log.h"

namespace imax432 {

GarbageCollector::GarbageCollector(Kernel* kernel) : kernel_(kernel) {}

void GarbageCollector::SetSystemTypeFilter(SystemType type,
                                           const AccessDescriptor& filter_port) {
  system_filters_[static_cast<int>(type)] = filter_port;
}

uint64_t TerminationRescan(ObjectTable& table, std::vector<ObjectIndex>* gray) {
  // When the origin rule cannot fire, the walk reduces to the gray bitmap.
  const bool visit_black = table.AnyWhiteOrigin();
  uint64_t shaded = 0;
  for (size_t w = 0; w < table.bitmap_words(); ++w) {
    // Only a shade changes a color here, white to gray, so this word's bits stay exact
    // until the origin rule shades a slot; the word is re-read then.
    uint64_t gray_word = table.gray_bits(w);
    uint64_t pending = visit_black ? gray_word | table.black_bits(w) : gray_word;
    while (pending != 0) {
      const int b = std::countr_zero(pending);
      const uint64_t bit = uint64_t{1} << b;
      pending &= pending - 1;
      const ObjectIndex i = static_cast<ObjectIndex>(w * 64 + b);
      if ((gray_word & bit) != 0) {
        gray->push_back(i);
        continue;
      }
      // Origin-SRO liveness: a live (black) object keeps its allocating SRO (and
      // transitively that SRO's allocator) live, otherwise reclaiming the SRO would destroy
      // live objects. A shaded origin above i is pushed again when the walk reaches it,
      // still gray.
      const ObjectIndex origin = table.At(i).origin_sro;
      if (origin != kInvalidObjectIndex && table.Shade(origin)) {
        gray->push_back(origin);
        ++shaded;
        gray_word = table.gray_bits(w);
        pending = (gray_word | table.black_bits(w)) & ~((bit << 1) - 1);
      }
    }
  }
  return shaded;
}

void GarbageCollector::ShadeRoots() {
  ObjectTable& table = kernel_->machine().table();
  std::vector<AccessDescriptor> roots;
  kernel_->AppendRoots(&roots);
  roots.push_back(kernel_->memory().global_heap());
  for (const AccessDescriptor& root : roots) {
    ShadeReferent(table, root);
  }
  // Demoted (GC-exempt) objects are never traced — they stay black — but anything they
  // reference is live for as long as their demote SRO exists, so their outgoing slots are
  // pseudo-roots. Without this, a heap object referenced only from a demoted object would
  // be swept while still reachable. (Only allocated slots carry the exempt bit.)
  const ObjectIndex end = table.capacity();
  for (ObjectIndex i = table.NextExempt(0, end); i < end; i = table.NextExempt(i + 1, end)) {
    const ObjectDescriptor& descriptor = table.At(i);
    for (const AccessDescriptor& slot : descriptor.access) {
      ShadeReferent(table, slot);
    }
    stats_.slots_scanned += descriptor.access_count();
  }
}

void GarbageCollector::EmitPhase() {
  // Phase and GcTracePhase share the same ordinals by construction.
  kernel_->machine().trace().Emit(TraceEventKind::kGcPhase, kernel_->machine().now(),
                                  kTraceNoProcessor, kTraceNoProcess,
                                  static_cast<uint32_t>(phase_));
}

void GarbageCollector::BeginCycle() {
  IMAX_CHECK(phase_ == Phase::kIdle);
  phase_ = Phase::kWhiten;
  cursor_ = 0;
  gray_.clear();
  EmitPhase();
}

bool GarbageCollector::MarkFixpoint() {
  IMAX_DCHECK(gray_.empty());

  // Dijkstra's termination scan: the mutator's gray bit marks objects gray *in place* (the
  // hardware cannot push onto the collector's worklist), so the collector must rescan for
  // gray objects until a full pass finds none. This is the "minimal synchronization"
  // between mutators and the collector.
  stats_.sros_kept_live += TerminationRescan(kernel_->machine().table(), &gray_);

  // Fresh root snapshot: processes may have moved into shadow queues since the last one.
  ShadeRoots();
  return !gray_.empty();
}

bool GarbageCollector::Step(uint32_t units) {
  ObjectTable& table = kernel_->machine().table();

  while (units > 0) {
    switch (phase_) {
      case Phase::kIdle:
        return false;

      case Phase::kWhiten: {
        // Flip every descriptor to white; the mutator's gray bit re-shades anything moved
        // from here on, so no live object can stay white through a full mark. Demoted
        // objects never enter the cycle: permanently black, reclaimed only by their demote
        // SRO's bulk destroy at context exit. The batch is charged for every slot it
        // covers, though the table whitens it a bitmap word at a time.
        uint32_t batch = std::min(units, table.capacity() - cursor_);
        const ObjectIndex end = cursor_ + batch;
        stats_.exempt_objects_skipped += table.Whiten(cursor_, end);
        cursor_ = end;
        units -= batch;
        work_units_ += batch;
        if (cursor_ == table.capacity()) {
          ShadeRoots();
          phase_ = Phase::kMark;
          EmitPhase();
        }
        break;
      }

      case Phase::kMark: {
        if (gray_.empty()) {
          if (MarkFixpoint()) {
            break;  // new gray work appeared
          }
          phase_ = Phase::kSweep;
          cursor_ = 0;
          EmitPhase();
          break;
        }
        ObjectIndex index = gray_.back();
        gray_.pop_back();
        ObjectDescriptor& descriptor = table.At(index);
        if (!descriptor.allocated) {
          continue;  // reclaimed by explicit destroy while queued
        }
        // Blacken: scan every AD slot, shading white referents.
        for (const AccessDescriptor& slot : descriptor.access) {
          ShadeReferent(table, slot);
        }
        stats_.slots_scanned += descriptor.access_count();
        table.Blacken(index);
        ++stats_.objects_scanned;
        uint32_t cost = 1 + descriptor.access_count();
        work_units_ += cost;
        units = units > cost ? units - cost : 0;
        break;
      }

      case Phase::kSweep: {
        // Charged for every slot like whiten, but only the slots SweepOne would act on are
        // visited: allocated, white and not exempt. SweepOne may free later slots of the
        // batch (a garbage SRO's cascade); NextSweepCandidate re-reads the bitmaps, so they
        // are skipped.
        uint32_t batch = std::min(units, table.capacity() - cursor_);
        const ObjectIndex end = cursor_ + batch;
        for (ObjectIndex i = table.NextSweepCandidate(cursor_, end); i < end;
             i = table.NextSweepCandidate(i + 1, end)) {
          SweepOne(i);
        }
        cursor_ = end;
        units -= batch;
        work_units_ += batch;
        if (cursor_ == table.capacity()) {
          phase_ = Phase::kIdle;
          ++stats_.cycles_completed;
          EmitPhase();
          return false;
        }
        break;
      }
    }
  }
  return phase_ != Phase::kIdle;
}

AccessDescriptor GarbageCollector::FilterPortFor(const ObjectDescriptor& descriptor) {
  if (descriptor.finalized) {
    return AccessDescriptor();  // the filter already saw this object once
  }
  // User-type filter, armed through the type definition object.
  if (descriptor.type_def != kInvalidObjectIndex) {
    ObjectTable& table = kernel_->machine().table();
    const ObjectDescriptor& tdo = table.At(descriptor.type_def);
    if (tdo.allocated && tdo.type == SystemType::kTypeDefinition) {
      auto armed =
          kernel_->machine().memory().Read(tdo.data_base + TdoLayout::kOffHasFilter, 1);
      if (armed.ok() && armed.value() != 0 &&
          TdoLayout::kSlotFilterPort < tdo.access_count()) {
        return tdo.access[TdoLayout::kSlotFilterPort];
      }
    }
  }
  // System-type filter (lost-process recovery).
  return system_filters_[static_cast<int>(descriptor.type)];
}

void GarbageCollector::SweepOne(ObjectIndex index) {
  ObjectTable& table = kernel_->machine().table();
  ObjectDescriptor& descriptor = table.At(index);
  if (!descriptor.allocated || table.gc_exempt(index) ||
      table.color(index) != GcColor::kWhite) {
    return;
  }

  AccessDescriptor filter_port = FilterPortFor(descriptor);
  if (!filter_port.is_null() && table.Resolve(filter_port).ok()) {
    // "The garbage collector will manufacture an access descriptor for such objects and send
    // them to a port defined by the type manager."
    auto manufactured = table.MintAd(index, rights::kAll);
    IMAX_CHECK(manufactured.ok());
    descriptor.finalized = true;
    table.Shade(index);  // reachable again, via the filter port
    Status sent = kernel_->PostMessage(filter_port, manufactured.value());
    if (sent.ok()) {
      ++stats_.objects_finalized;
      // Bump the TDO's finalization counter if this was a user type.
      if (descriptor.type_def != kInvalidObjectIndex) {
        const ObjectDescriptor& tdo = table.At(descriptor.type_def);
        if (tdo.allocated && !tdo.swapped_out) {
          auto count =
              kernel_->machine().memory().Read(tdo.data_base + TdoLayout::kOffFinalized, 8);
          if (count.ok()) {
            (void)kernel_->machine().memory().Write(tdo.data_base + TdoLayout::kOffFinalized,
                                                    8, count.value() + 1);
          }
        }
      }
    } else {
      // Filter port full: the object survives this cycle and is offered again next time.
      descriptor.finalized = false;
      ++stats_.filter_send_failures;
    }
    return;
  }

  // Plain garbage: reclaim. (A garbage SRO cascades through the memory manager, destroying
  // everything it allocated — all of which is itself garbage by the origin-liveness rule.)
  uint32_t bytes = descriptor.data_length;
  ObjectDescriptor snapshot = descriptor;  // observers see the pre-free descriptor
  Status reclaimed = kernel_->memory().ReclaimGarbage(index);
  if (reclaimed.ok()) {
    ++stats_.objects_reclaimed;
    stats_.bytes_reclaimed += bytes;
    for (const ReclaimObserver& observer : observers_) {
      observer(index, snapshot);
    }
  }
}

GcStats GarbageCollector::CollectNow() {
  GcStats before = stats_;
  BeginCycle();
  while (Step(1u << 20)) {
  }
  GcStats delta;
  delta.cycles_completed = stats_.cycles_completed - before.cycles_completed;
  delta.objects_scanned = stats_.objects_scanned - before.objects_scanned;
  delta.slots_scanned = stats_.slots_scanned - before.slots_scanned;
  delta.objects_reclaimed = stats_.objects_reclaimed - before.objects_reclaimed;
  delta.bytes_reclaimed = stats_.bytes_reclaimed - before.bytes_reclaimed;
  delta.objects_finalized = stats_.objects_finalized - before.objects_finalized;
  delta.sros_kept_live = stats_.sros_kept_live - before.sros_kept_live;
  delta.filter_send_failures = stats_.filter_send_failures - before.filter_send_failures;
  delta.exempt_objects_skipped =
      stats_.exempt_objects_skipped - before.exempt_objects_skipped;
  return delta;
}

Result<GcStats> GarbageCollector::CollectLocalNow(const AccessDescriptor& sro_ad) {
  if (phase_ != Phase::kIdle) {
    return Fault::kWrongState;
  }
  ObjectTable& table = kernel_->machine().table();
  IMAX_ASSIGN_OR_RETURN(
      ObjectDescriptor * sro,
      kernel_->machine().addressing().ResolveTyped(sro_ad, SystemType::kStorageResource,
                                                   rights::kNone));
  (void)sro;
  ObjectIndex sro_index = sro_ad.index();
  GcStats before = stats_;

  // Population: objects allocated directly from this SRO. Whiten them; everything else
  // keeps its color (a non-white color elsewhere never matters below). The pass is charged
  // one unit per table slot, as a full descriptor scan.
  const ObjectIndex end = table.capacity();
  std::vector<bool> population(end, false);
  std::vector<ObjectIndex> members;
  for (ObjectIndex i = table.NextAllocated(0, end); i < end;
       i = table.NextAllocated(i + 1, end)) {
    const ObjectDescriptor& descriptor = table.At(i);
    if (descriptor.origin_sro == sro_index && !table.gc_exempt(i) &&
        descriptor.type != SystemType::kStorageResource) {
      population[i] = true;
      table.Whiten(i, i + 1);
      members.push_back(i);
    }
  }
  work_units_ += end;

  IMAX_CHECK(gray_.empty());
  auto shade_if_member = [&](const AccessDescriptor& ad) {
    if (!ad.is_null() && ad.index() < population.size() && population[ad.index()] &&
        table.Resolve(ad).ok()) {
      Shade(ad.index());
    }
  };

  // External scan: one flat pass over every other object's access part, plus the root set.
  // The level rule guarantees no reference into the population hides anywhere else.
  for (ObjectIndex i = table.NextAllocated(0, end); i < end;
       i = table.NextAllocated(i + 1, end)) {
    if (population[i]) {
      continue;
    }
    for (const AccessDescriptor& slot : table.At(i).access) {
      shade_if_member(slot);
      ++stats_.slots_scanned;
      ++work_units_;
    }
  }
  std::vector<AccessDescriptor> roots;
  kernel_->AppendRoots(&roots);
  roots.push_back(kernel_->memory().global_heap());
  for (const AccessDescriptor& root : roots) {
    shade_if_member(root);
  }

  // Trace inside the population only.
  while (!gray_.empty()) {
    ObjectIndex index = gray_.back();
    gray_.pop_back();
    ObjectDescriptor& descriptor = table.At(index);
    if (!descriptor.allocated) {
      continue;
    }
    for (const AccessDescriptor& slot : descriptor.access) {
      shade_if_member(slot);
      ++stats_.slots_scanned;
    }
    table.Blacken(index);
    ++stats_.objects_scanned;
    work_units_ += 1 + descriptor.access_count();
  }

  // Sweep the population.
  for (ObjectIndex index : members) {
    SweepOne(index);
    ++work_units_;
  }

  GcStats delta;
  delta.objects_scanned = stats_.objects_scanned - before.objects_scanned;
  delta.slots_scanned = stats_.slots_scanned - before.slots_scanned;
  delta.objects_reclaimed = stats_.objects_reclaimed - before.objects_reclaimed;
  delta.bytes_reclaimed = stats_.bytes_reclaimed - before.bytes_reclaimed;
  delta.objects_finalized = stats_.objects_finalized - before.objects_finalized;
  delta.filter_send_failures = stats_.filter_send_failures - before.filter_send_failures;
  return delta;
}

Result<AccessDescriptor> GarbageCollector::SpawnDaemon(uint32_t units_per_step,
                                                       uint8_t priority) {
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor request_port,
                        kernel_->ports().CreatePort(kernel_->memory().global_heap(), 16,
                                                    QueueDiscipline::kFifo));
  // The request port is referenced only from the daemon's native code; it must be a root or
  // the collector would collect its own doorbell.
  kernel_->AddRootProvider(
      [request_port](std::vector<AccessDescriptor>* roots) { roots->push_back(request_port); });

  Assembler a("gc-daemon");
  auto loop = a.NewLabel();
  a.Bind(loop);
  // Wait for a collection request. The message may be a reply port (or any placeholder).
  a.Native([request_port](ExecutionContext&) -> Result<NativeResult> {
    NativeResult r;
    r.action = NativeResult::Action::kBlockReceive;
    r.port = request_port;
    r.dest_adreg = 3;
    r.compute = cycles::kReceive;
    return r;
  });
  a.Native([this](ExecutionContext&) -> Result<NativeResult> {
    BeginCycle();
    return NativeResult{};
  });
  // Incremental collection: one native instruction per work batch; the daemon is an
  // ordinary process, so time-slice end interleaves it with mutators — the "parallel"
  // garbage collector running as "a daemon process that globally scans the system".
  uint32_t step_pc = a.here();
  a.Native([this, units_per_step, step_pc](ExecutionContext&) -> Result<NativeResult> {
    uint64_t units_before = work_units_;
    uint64_t reclaimed_before = stats_.objects_reclaimed;
    uint64_t finalized_before = stats_.objects_finalized;
    bool more = Step(units_per_step);
    // Charge what the batch actually did: descriptor/slot examinations at the scan rate,
    // plus full reclamation cost per freed object (tracing collection pays kGcFreeObject
    // per object; bulk SRO destruction pays a quarter of that — the E6 comparison), plus a
    // send per finalized object.
    uint64_t scanned = work_units_ - units_before;
    uint64_t reclaimed = stats_.objects_reclaimed - reclaimed_before;
    uint64_t finalized = stats_.objects_finalized - finalized_before;
    NativeResult r;
    r.compute = scanned * cycles::kGcScanSlot / 4 + reclaimed * cycles::kGcFreeObject +
                finalized * cycles::kSend;
    r.bus = scanned * cycles::kBusPerWord / 8 + reclaimed * cycles::kBusCreateObject / 2;
    if (more) {
      r.action = NativeResult::Action::kJump;
      r.jump_target = step_pc;
    }
    return r;
  });
  // Completion: if the request carried a port, acknowledge on it.
  a.Native([this](ExecutionContext& env) -> Result<NativeResult> {
    AccessDescriptor reply = env.ad_reg(3);
    auto descriptor = kernel_->machine().table().Resolve(reply);
    if (descriptor.ok() && descriptor.value()->type == SystemType::kPort) {
      (void)kernel_->PostMessage(reply, env.process_ad());
    }
    env.set_ad_reg(3, AccessDescriptor());
    NativeResult r;
    r.compute = cycles::kSend;
    return r;
  });
  a.Branch(loop);

  ProcessOptions options;
  options.priority = priority;
  options.imax_level = kImaxLevelServices;
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor daemon, kernel_->CreateProcess(a.Build(), options));
  // The daemon's interpreter cycles are GC work: rebin them under the gc bucket so the
  // profiler attributes collection cost to collection, not to "some process computing".
  kernel_->machine().profiler().TagProcess(daemon.index(), CycleBucket::kGc);
  IMAX_RETURN_IF_FAULT(kernel_->StartProcess(daemon));
  return request_port;
}

}  // namespace imax432

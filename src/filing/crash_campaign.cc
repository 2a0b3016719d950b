#include "src/filing/crash_campaign.h"

#include <algorithm>
#include <string>

#include "src/base/xorshift.h"
#include "src/isa/assembler.h"
#include "src/memory/swapping_memory_manager.h"
#include "src/os/fault_service.h"
#include "src/os/system.h"

namespace imax432 {

namespace {

// The typed sentinel every epoch files: its recovery is the §7.2 cross-restart type
// identity check. Constant contents so any incarnation's copy verifies.
constexpr uint32_t kSentinelTypeId = 0x7432;
constexpr uint32_t kWrongTypeId = 0x0bad;
constexpr uint32_t kTickTypeId = 0x7001;
constexpr char kSentinelName[] = "crash-sentinel";
constexpr uint32_t kSentinelBytes = 64;

// Every incarnation's machine, and the virtual time between filing mutations.
constexpr uint32_t kMemoryBytes = 192 * 1024;
constexpr uint32_t kObjectTableCapacity = 4096;
constexpr Cycles kFilingTickInterval = 9'000;

void SentinelData(uint8_t* out) {
  for (uint32_t i = 0; i < kSentinelBytes; ++i) {
    out[i] = static_cast<uint8_t>(0x43 + i * 7);
  }
}

uint64_t FingerprintTrace(const std::vector<TraceEvent>& events) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  for (const TraceEvent& event : events) {
    mix(event.ts);
    mix(event.process);
    mix((static_cast<uint64_t>(event.a) << 32) | event.b);
    mix((static_cast<uint64_t>(event.c) << 16) | event.cpu);
    mix(static_cast<uint64_t>(event.kind));
  }
  return hash;
}

// One epoch of the partitioned crash schedule. Times are epoch-relative: each incarnation
// boots at virtual time 0.
struct EpochPlan {
  Cycles start = 0;  // campaign-absolute start, for reporting
  Cycles span = 0;   // cut time (or remaining horizon for the final epoch)
  std::vector<InjectionEvent> in_run;
  bool has_cut = false;
  InjectionEvent cut;
};

std::vector<EpochPlan> PartitionSchedule(const std::vector<InjectionEvent>& schedule,
                                         Cycles horizon) {
  std::vector<EpochPlan> epochs(1);
  Cycles epoch_start = 0;
  for (const InjectionEvent& event : schedule) {
    if (event.kind == InjectionKind::kPowerCut) {
      EpochPlan& epoch = epochs.back();
      epoch.start = epoch_start;
      epoch.span = event.at - epoch_start;
      epoch.has_cut = true;
      epoch.cut = event;
      epoch.cut.at = event.at - epoch_start;
      epoch_start = event.at;
      epochs.emplace_back();
    } else {
      InjectionEvent relative = event;
      relative.at = event.at - epoch_start;
      epochs.back().in_run.push_back(relative);
    }
  }
  epochs.back().start = epoch_start;
  epochs.back().span = horizon > epoch_start ? horizon - epoch_start : 0;
  return epochs;
}

// The churn worker, the only copy of this program: allocation pressure, swap-ins, and
// compute, at the services level with faults routed to the recovery service.
void SpawnChurnWorkers(System& system, const AccessDescriptor& fault_port, int workers) {
  for (int w = 0; w < workers; ++w) {
    auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                                SystemType::kGeneric, 8, 2,
                                                rights::kRead | rights::kWrite);
    if (!carrier.ok()) {
      continue;
    }
    (void)system.machine().addressing().WriteAd(carrier.value(), 0,
                                                system.memory().global_heap());
    Assembler a("crash-churn");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0);
    auto loop = a.NewLabel();
    a.LoadImm(0, 0).LoadImm(1, 40).Bind(loop);
    a.CreateObject(3, 2, 4 * 1024);
    a.StoreData(3, 0, 0, 8);
    a.StoreAd(1, 3, 1);
    a.LoadAd(4, 1, 1);
    a.LoadData(5, 4, 0, 8);
    a.Compute(400);
    a.AddImm(0, 0, 1).BranchIfLess(0, 1, loop);
    a.Halt();
    ProcessOptions options;
    options.initial_arg = carrier.value();
    options.imax_level = kImaxLevelServices;
    options.fault_port = fault_port;
    (void)system.Spawn(a.Build(), options);
  }
}

// Mutation source shared by every filing tick in one epoch. Owns the deterministic RNG and
// the record of per-prefix store digests (the crash oracle).
struct FilingDriver {
  System* system = nullptr;
  StableStore* device = nullptr;
  AccessDescriptor tick_tdo;
  Xorshift rng;
  std::vector<uint64_t> prefix_digests;  // [0] = post-recovery state, then one per mutation

  explicit FilingDriver(uint64_t seed) : rng(seed) {}

  void RecordMutation() { prefix_digests.push_back(system->filing().StateDigest()); }

  Result<AccessDescriptor> MakeSource(uint32_t type_id, uint32_t bytes, uint32_t slots) {
    AccessDescriptor sro = system->memory().global_heap();
    Result<AccessDescriptor> object =
        type_id != 0
            ? system->types().CreateTypedObject(tick_tdo, sro, bytes, slots,
                                                rights::kRead | rights::kWrite |
                                                    rights::kDelete)
            : system->memory().CreateObject(sro, SystemType::kGeneric, bytes, slots,
                                            rights::kRead | rights::kWrite |
                                                rights::kDelete);
    if (!object.ok()) {
      return object;
    }
    std::vector<uint8_t> data(bytes);
    for (uint8_t& byte : data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    if (bytes > 0) {
      IMAX_RETURN_IF_FAULT(system->machine().addressing().WriteDataBlock(
          object.value(), 0, data.data(), bytes));
    }
    return object;
  }

  // One deterministic filing mutation: file a plain image, a typed image, or a small
  // cyclic composite, or remove a previously filed name. Occasionally injects a transient
  // stable-device failure first, so the journal's retry-with-backoff path runs under the
  // campaign too.
  void Tick() {
    if (rng.NextChance(1, 16)) {
      device->InjectTransientFailures(1);
    }
    uint64_t choice = rng.NextBelow(8);
    ObjectStore& filing = system->filing();
    if (choice < 3) {
      std::string name = "img-" + std::to_string(rng.NextBelow(6));
      uint32_t bytes = static_cast<uint32_t>(16 + rng.NextBelow(240));
      auto object = MakeSource(0, bytes, 0);
      if (object.ok() && filing.File(name, object.value()).ok()) {
        RecordMutation();
      }
      if (object.ok()) {
        (void)system->memory().DestroyObject(object.value());
      }
    } else if (choice < 5) {
      std::string name = "typ-" + std::to_string(rng.NextBelow(4));
      auto object = MakeSource(kTickTypeId, 32, 0);
      if (object.ok() && filing.File(name, object.value()).ok()) {
        RecordMutation();
      }
      if (object.ok()) {
        (void)system->memory().DestroyObject(object.value());
      }
    } else if (choice < 6) {
      std::string name = "cmp-" + std::to_string(rng.NextBelow(3));
      auto a = MakeSource(0, 16, 2);
      auto b = MakeSource(0, 8, 1);
      auto c = MakeSource(0, 24, 0);
      if (a.ok() && b.ok() && c.ok()) {
        AddressingUnit& addressing = system->machine().addressing();
        bool linked = addressing.WriteAd(a.value(), 0, b.value()).ok() &&
                      addressing.WriteAd(a.value(), 1, c.value()).ok() &&
                      addressing.WriteAd(b.value(), 0, a.value()).ok();  // a cycle
        if (linked && filing.FileComposite(name, a.value()).ok()) {
          RecordMutation();
        }
      }
      for (auto* object : {&a, &b, &c}) {
        if (object->ok()) {
          (void)system->memory().DestroyObject(object->value());
        }
      }
    } else {
      static const char* const kPools[] = {"img-", "typ-", "cmp-"};
      std::string name = std::string(kPools[rng.NextBelow(3)]) +
                         std::to_string(rng.NextBelow(6));
      if (filing.Remove(name).ok()) {
        RecordMutation();
      }
    }
  }
};

// Files the sentinel typed image (constant contents, fixed type id) for the §7.2 check.
void FileSentinel(System& system) {
  auto tdo = system.types().CreateTypeDefinition(kSentinelTypeId);
  if (!tdo.ok()) {
    return;
  }
  auto object = system.types().CreateTypedObject(
      tdo.value(), system.memory().global_heap(), kSentinelBytes, 0,
      rights::kRead | rights::kWrite | rights::kDelete);
  if (!object.ok()) {
    return;
  }
  uint8_t data[kSentinelBytes];
  SentinelData(data);
  if (system.machine().addressing().WriteDataBlock(object.value(), 0, data,
                                                   kSentinelBytes).ok()) {
    (void)system.filing().File(kSentinelName, object.value());
  }
  (void)system.memory().DestroyObject(object.value());
}

// Post-recovery §7.2 check: the recovered sentinel resurrects through a matching TDO with
// its contents intact, and refuses a TDO with the wrong type id.
void CheckTypedIdentity(System& system, CrashEpochReport* epoch) {
  if (!system.filing().Contains(kSentinelName)) {
    return;  // nothing recovered to check (first epoch, or sentinel not durable yet)
  }
  epoch->typed_identity_checked = true;
  epoch->typed_identity_ok = false;

  auto wrong_tdo = system.types().CreateTypeDefinition(kWrongTypeId);
  if (wrong_tdo.ok()) {
    auto refused = system.filing().Retrieve(kSentinelName, system.memory().global_heap(),
                                            wrong_tdo.value());
    if (refused.ok() || refused.fault() != Fault::kTypeMismatch) {
      return;  // the wrong TDO must be refused with kTypeMismatch, nothing else
    }
  }
  auto tdo = system.types().CreateTypeDefinition(kSentinelTypeId);
  if (!tdo.ok()) {
    return;
  }
  auto object = system.filing().Retrieve(kSentinelName, system.memory().global_heap(),
                                         tdo.value());
  if (!object.ok()) {
    return;
  }
  uint8_t expected[kSentinelBytes];
  uint8_t actual[kSentinelBytes] = {};
  SentinelData(expected);
  bool data_ok = system.machine()
                     .addressing()
                     .ReadDataBlock(object.value(), 0, actual, kSentinelBytes)
                     .ok() &&
                 std::equal(expected, expected + kSentinelBytes, actual);
  bool type_ok = system.types().CheckType(object.value(), tdo.value()).ok();
  (void)system.memory().DestroyObject(object.value());
  epoch->typed_identity_ok = data_ok && type_ok;
}

void AccumulateJournal(const JournalStats& stats, JournalStats* total) {
  total->appends += stats.appends;
  total->commits += stats.commits;
  total->bytes_appended += stats.bytes_appended;
  total->syncs += stats.syncs;
  total->retries += stats.retries;
  total->backoff_cycles += stats.backoff_cycles;
  total->device_errors += stats.device_errors;
  total->checkpoints += stats.checkpoints;
  total->replayed_records += stats.replayed_records;
  total->replayed_transactions += stats.replayed_transactions;
  total->torn_tail_truncations += stats.torn_tail_truncations;
  total->corrupt_records_dropped += stats.corrupt_records_dropped;
  total->orphan_commits += stats.orphan_commits;
  total->rolled_back_transactions += stats.rolled_back_transactions;
}

}  // namespace

CrashCampaignReport RunCrashCampaign(const CrashCampaignConfig& config) {
  CrashCampaignReport report;
  report.config = config;

  std::vector<InjectionEvent> schedule = FaultInjector::GenerateCrashSchedule(
      config.seed, config.events, config.power_cuts, config.horizon);
  std::vector<EpochPlan> epochs = PartitionSchedule(schedule, config.horizon);
  report.epochs = static_cast<uint32_t>(epochs.size());

  // The one device the whole campaign shares: the only state that survives a cut.
  StableStore device;

  // The oracle carried across the boot boundary: digests of every valid mutation prefix of
  // the previous incarnation, and the durable floor at the moment of its cut.
  std::vector<uint64_t> expected_digests = {ObjectStore(nullptr, nullptr).StateDigest()};
  uint64_t durable_floor = 0;

  uint64_t campaign_hash = 1469598103934665603ull;
  auto mix = [&campaign_hash](uint64_t value) {
    campaign_hash ^= value;
    campaign_hash *= 1099511628211ull;
  };

  for (size_t index = 0; index < epochs.size(); ++index) {
    const EpochPlan& plan = epochs[index];
    CrashEpochReport epoch;
    epoch.start = plan.start;
    epoch.power_cut = plan.has_cut;
    epoch.durable_floor = durable_floor;

    SystemConfig system_config;
    system_config.processors = config.processors;
    system_config.machine.memory_bytes = kMemoryBytes;
    system_config.machine.object_table_capacity = kObjectTableCapacity;
    system_config.memory_manager = MemoryManagerKind::kSwapping;
    system_config.trace = true;
    system_config.start_patrol_daemon = true;
    system_config.stable_store = &device;
    system_config.filing_checkpoint_interval = kCrashCheckpointInterval;
    System system(system_config);

    // --- Post-recovery verification (before any new work touches the store) ---
    epoch.recovered_digest = system.filing().StateDigest();
    for (uint64_t k = durable_floor; k < expected_digests.size(); ++k) {
      if (expected_digests[k] == epoch.recovered_digest) {
        epoch.recovery_matched = true;
        epoch.recovery_prefix = k;
        break;
      }
    }
    if (!epoch.recovery_matched) {
      ++report.recovery_mismatches;
    }
    {
      PatrolStats sweep = system.patrol().SweepNow();
      epoch.patrol_violations =
          sweep.checksum_failures + sweep.invariant_failures + sweep.data_crc_failures;
      report.post_recovery_violations += epoch.patrol_violations;
    }
    CheckTypedIdentity(system, &epoch);
    if (epoch.typed_identity_checked && !epoch.typed_identity_ok) {
      ++report.typed_identity_failures;
    }

    // --- Workload ---
    FaultService service(&system.kernel(), FaultService::MakeRecoveryPolicy());
    auto fault_port = service.Spawn();
    if (fault_port.ok()) {
      SpawnChurnWorkers(system, fault_port.value(), 3);
    }

    FilingDriver driver(config.seed ^ (0x9e3779b97f4a7c15ull * (index + 1)));
    driver.system = &system;
    driver.device = &device;
    auto tick_tdo = system.types().CreateTypeDefinition(kTickTypeId);
    if (tick_tdo.ok()) {
      driver.tick_tdo = tick_tdo.value();
    }
    FileSentinel(system);
    if (system.filing().stats().filed > 0) {
      driver.RecordMutation();  // the sentinel counts toward the prefix oracle
    }
    driver.prefix_digests.insert(driver.prefix_digests.begin(),
                                 epoch.recovered_digest);

    Cycles tick_limit = plan.span;
    for (Cycles t = kFilingTickInterval; t < tick_limit; t += kFilingTickInterval) {
      FilingDriver* d = &driver;
      system.machine().events().ScheduleAt(t, [d] { d->Tick(); });
    }

    FaultInjector injector(&system.kernel(),
                           static_cast<SwappingMemoryManager*>(&system.memory()));
    injector.Arm(plan.in_run);
    uint64_t durable_at_cut = 0;
    injector.SetPowerCutHook([&system, &device, &durable_at_cut](uint32_t arg) {
      durable_at_cut = system.journal()->durable_mutations();
      device.PowerCut(arg);
      return true;
    });

    // --- Run the epoch ---
    if (plan.has_cut) {
      system.RunUntil(plan.cut.at);
      injector.Apply(plan.cut);
    } else {
      system.Run();
      system.patrol().SweepNow();
    }

    // --- Harvest before teardown ---
    epoch.end = system.now();
    epoch.trace_fingerprint = FingerprintTrace(system.machine().trace().Snapshot());
    epoch.store_digest = system.filing().StateDigest();
    epoch.mutations_applied = driver.prefix_digests.size() - 1;
    epoch.panics = system.kernel().stats().panics;

    report.injections_fired += injector.stats().fired;
    report.injections_skipped += injector.stats().skipped;
    for (size_t k = 0; k < static_cast<size_t>(InjectionKind::kKindCount); ++k) {
      report.per_kind[k] += injector.stats().per_kind[k];
    }
    report.mutations_applied += epoch.mutations_applied;
    AccumulateJournal(system.journal()->stats(), &report.journal);
    report.filing_type_checks_failed += system.filing().stats().type_checks_failed;
    report.retrieve_cleanups += system.filing().stats().retrieve_cleanups;
    report.panics += epoch.panics;
    report.virtual_cycles += epoch.end;

    mix(epoch.end);
    mix(epoch.trace_fingerprint);
    mix(epoch.store_digest);
    mix(epoch.recovered_digest);

    // Hand the oracle to the next incarnation. A clean (final-epoch) teardown keeps the
    // whole tail, so the floor is everything applied; a cut floors at what was durable.
    if (plan.has_cut) {
      durable_floor = durable_at_cut;
      report.mutations_durable += durable_at_cut;
    } else {
      durable_floor = epoch.mutations_applied;
      report.mutations_durable += system.journal()->durable_mutations();
    }
    expected_digests = std::move(driver.prefix_digests);

    report.epoch_reports.push_back(epoch);
  }
  report.power_cuts_fired =
      report.per_kind[static_cast<size_t>(InjectionKind::kPowerCut)];

  // Final verification boot: a clean restart after the last epoch must recover the exact
  // final store (clean shutdown loses nothing: durable + tail both replay).
  {
    SystemConfig system_config;
    system_config.processors = 1;
    system_config.machine.memory_bytes = kMemoryBytes;
    system_config.machine.object_table_capacity = kObjectTableCapacity;
    system_config.memory_manager = MemoryManagerKind::kSwapping;
    system_config.stable_store = &device;
    system_config.filing_checkpoint_interval = kCrashCheckpointInterval;
    System verifier(system_config);
    if (verifier.filing().StateDigest() != expected_digests.back()) {
      ++report.recovery_mismatches;
    }
    AccumulateJournal(verifier.journal()->stats(), &report.journal);
  }

  report.campaign_fingerprint = campaign_hash;
  return report;
}

}  // namespace imax432

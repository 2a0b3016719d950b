// Crash-restart campaign driver: full-durability testing of the journaled filing system.
//
// A crash campaign is a seeded fault campaign (PR 5 semantics: pure schedule, bit-identical
// replay) whose schedule also contains kPowerCut events. The driver partitions the schedule
// at the cuts into *epochs*. Each epoch boots a fresh System against the one StableStore
// that survives the whole campaign, recovers the filing store from the journal, verifies
// the recovery, runs a mixed workload (churn processes + deterministic filing mutations)
// under the epoch's in-run injections, and then the power cut fires: the unsynced journal
// tail is torn at a seeded offset and the System is destroyed mid-operation. The next epoch
// must recover.
//
// Post-recovery verification per epoch:
//   1. Prefix consistency: the recovered store digest must equal the digest the previous
//      incarnation had after its k-th mutation, for some k between the durable count at the
//      cut and the total applied count (the torn tail may preserve complete unsynced
//      transactions, never partial ones).
//   2. Zero patrol violations: an ObjectPatrol sweep of the recovered System finds no
//      checksum / level-invariant / data-CRC failures.
//   3. Type identity across restart (§7.2): the recovered typed sentinel image resurrects
//      through a TDO carrying its type id and refuses one that does not (kTypeMismatch).
//
// The whole campaign is a pure function of its config: two runs produce identical
// per-epoch trace fingerprints and an identical campaign fingerprint.

#ifndef IMAX432_SRC_FILING_CRASH_CAMPAIGN_H_
#define IMAX432_SRC_FILING_CRASH_CAMPAIGN_H_

#include <cstdint>
#include <vector>

#include "src/arch/types.h"
#include "src/filing/journal.h"
#include "src/filing/object_store.h"
#include "src/sim/fault_injector.h"

namespace imax432 {

// Journaled mutations between checkpoint compactions in every epoch's System.
inline constexpr uint32_t kCrashCheckpointInterval = 24;

struct CrashCampaignConfig {
  uint64_t seed = 432;
  uint32_t events = 200;      // total injection events, power cuts included
  uint32_t power_cuts = 25;   // kPowerCut events among them (epochs = power_cuts + 1)
  Cycles horizon = 2'000'000;
  int processors = 2;
};

struct CrashEpochReport {
  Cycles start = 0;            // campaign-absolute epoch start
  Cycles end = 0;              // virtual cycles this incarnation ran
  bool power_cut = false;      // ended by a cut (false only for the final epoch)
  uint64_t trace_fingerprint = 0;
  uint64_t store_digest = 0;          // live store digest at teardown
  uint64_t recovered_digest = 0;      // store digest right after boot-time recovery
  bool recovery_matched = false;      // digest matched a valid mutation prefix
  uint64_t recovery_prefix = 0;       // the matched k
  uint64_t durable_floor = 0;         // durable mutation count at the previous cut
  uint64_t mutations_applied = 0;     // filing mutations applied this epoch
  uint64_t patrol_violations = 0;     // post-recovery sweep failures (must be 0)
  bool typed_identity_checked = false;
  bool typed_identity_ok = false;
  uint64_t panics = 0;
};

struct CrashCampaignReport {
  CrashCampaignConfig config;
  uint32_t epochs = 0;
  uint64_t power_cuts_fired = 0;
  uint64_t injections_fired = 0;
  uint64_t injections_skipped = 0;
  uint64_t per_kind[static_cast<size_t>(InjectionKind::kKindCount)] = {};

  // Pass/fail aggregates (all failure counts must be zero for a healthy campaign).
  uint64_t recovery_mismatches = 0;
  uint64_t typed_identity_failures = 0;
  uint64_t post_recovery_violations = 0;
  uint64_t panics = 0;

  // Filing/journal aggregates across all incarnations.
  uint64_t mutations_applied = 0;
  uint64_t mutations_durable = 0;
  JournalStats journal;  // summed over epochs
  uint64_t filing_type_checks_failed = 0;
  uint64_t retrieve_cleanups = 0;

  Cycles virtual_cycles = 0;        // summed epoch end times
  uint64_t campaign_fingerprint = 0;  // FNV over per-epoch fingerprints/digests/end times

  std::vector<CrashEpochReport> epoch_reports;

  bool healthy() const {
    return recovery_mismatches == 0 && typed_identity_failures == 0 &&
           post_recovery_violations == 0 && panics == 0;
  }
};

// Runs the campaign. Deterministic: same config => same report, bit for bit.
CrashCampaignReport RunCrashCampaign(const CrashCampaignConfig& config);

}  // namespace imax432

#endif  // IMAX432_SRC_FILING_CRASH_CAMPAIGN_H_

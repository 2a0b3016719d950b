// Journal: write-ahead log for the object filing system.
//
// Every ObjectStore mutation first lands on the StableStore as a checksummed, typed record
// followed by a sealed commit record; only then does the in-memory store apply it. After a
// crash (kPowerCut injection), a fresh System replays the log: complete, checksum-valid
// transactions are re-applied in order, the torn tail is truncated, corrupt records and
// commit-less transactions are rolled back. Periodic checkpoints rewrite the log as one
// snapshot record so recovery cost tracks the live store, not the mutation history.
//
// Record wire format (little-endian):
//   u32 magic       'J' '4' '3' '2' (0x32333448 ^ ... spelled out in kRecordMagic)
//   u64 seq         transaction sequence number; a mutation and its commit share one seq
//   u8  type        RecordType
//   u8  pad[3]      zero
//   u32 payload_len payload bytes following the header
//   u32 crc         FNV-1a/32 over seq, type, payload_len, payload
//   u8  payload[payload_len]
//
// A transaction is <mutation record, commit record> with the same seq, appended as one
// batch. The commit record seals it: replay applies a mutation only after reading its
// commit. Appends go to the device's volatile tail and become durable when the scheduled
// sync completes (one media-transfer latency later, on the simulation event queue) — that
// window is what a power cut tears.

#ifndef IMAX432_SRC_FILING_JOURNAL_H_
#define IMAX432_SRC_FILING_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/filing/stable_store.h"
#include "src/obs/metrics.h"

namespace imax432 {

class Machine;

enum class JournalRecordType : uint8_t {
  kFileImage = 1,      // payload: serialized plain image
  kFileComposite = 2,  // payload: serialized composite graph
  kRemove = 3,         // payload: name
  kCommit = 4,         // payload: empty; seals the same-seq mutation record
  kCheckpoint = 5,     // payload: whole-store snapshot (self-sealing; no commit needed)
};

const char* JournalRecordTypeName(JournalRecordType type);

struct JournalStats {
  uint64_t appends = 0;            // transactions appended (mutation + commit batches)
  uint64_t commits = 0;            // transactions whose sync completed (durable)
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t retries = 0;            // device-error retries across all appends
  uint64_t backoff_cycles = 0;     // virtual cycles charged to retry backoff
  uint64_t device_errors = 0;      // append batches abandoned after retry exhaustion
  uint64_t checkpoints = 0;
  uint64_t replayed_records = 0;
  uint64_t replayed_transactions = 0;
  uint64_t torn_tail_truncations = 0;
  uint64_t corrupt_records_dropped = 0;
  uint64_t orphan_commits = 0;
  uint64_t rolled_back_transactions = 0;
};

CounterMap CountersFor(const JournalStats& stats);

class Journal {
 public:
  // How a replayed mutation is applied to the store being recovered. Returning a fault
  // counts the transaction as rolled back but never aborts replay: recovery is best-effort
  // and must not panic the kernel over one bad record.
  using ApplyFn = std::function<Status(JournalRecordType type,
                                       const std::vector<uint8_t>& payload)>;

  // `machine` may be null (unit tests): appends then sync synchronously instead of
  // scheduling the completion one media-transfer latency ahead on the event queue.
  Journal(StableStore* device, Machine* machine) : device_(device), machine_(machine) {}

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Appends <mutation, commit> as one batch, retrying device errors with exponential
  // backoff like the swap layer (attempts are capped; exhaustion rolls the tail back and
  // surfaces kDeviceError — the store then rejects the mutation, keeping WAL discipline).
  Status Commit(JournalRecordType type, const std::vector<uint8_t>& payload);

  // Rewrites the whole log as one checkpoint record (atomic overwrite on the device).
  // The payload is the store snapshot; pending unsynced appends are superseded by it.
  Status WriteCheckpoint(const std::vector<uint8_t>& snapshot);

  // Reads the device back and applies every committed transaction in order. kCheckpoint
  // records reset replay state (they supersede everything before them). Returns
  // kDeviceError only if the device itself cannot be read; malformed content is consumed
  // and counted, never fatal.
  Status Replay(const ApplyFn& apply);

  // Mutation-transaction durability accounting, the crash-verification oracle: the store
  // recovered after a power cut reflects at least the first durable_mutations() — and at
  // most all appended_mutations() — of this incarnation's mutations, in order (the torn
  // tail may preserve complete transactions whose sync had not yet fired).
  uint64_t appended_mutations() const { return appended_mutations_; }
  uint64_t durable_mutations() const { return durable_mutations_; }
  uint64_t next_seq() const { return next_seq_; }

  const JournalStats& stats() const { return stats_; }
  StableStore& device() { return *device_; }

  // Encodes one record (exposed so tests can forge orphan commits and truncated records
  // without a Journal instance).
  static std::vector<uint8_t> EncodeRecord(uint64_t seq, JournalRecordType type,
                                           const std::vector<uint8_t>& payload);

  static constexpr uint32_t kRecordMagic = 0x4a343332;  // "J432"
  static constexpr size_t kRecordHeaderBytes = 24;
  static constexpr uint32_t kMaxAppendAttempts = 3;

 private:
  Status AppendWithRetry(const std::vector<uint8_t>& batch);
  void ScheduleSync(uint64_t target_mutations, uint32_t batch_bytes);
  void CompleteSync(uint64_t target_mutations);

  StableStore* device_;
  Machine* machine_;
  uint64_t next_seq_ = 1;
  uint64_t appended_mutations_ = 0;  // mutation transactions appended to the device tail
  uint64_t durable_mutations_ = 0;   // mutation transactions whose flush completed
  JournalStats stats_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_FILING_JOURNAL_H_

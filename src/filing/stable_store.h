// StableStore: the simulated stable device behind the filing journal.
//
// Modeled like the swap device (src/memory/backing_store.h) — fixed access latency plus
// per-byte streaming cost, transient/permanent failure injection behind a CheckDevice()
// gate — but byte-addressed and append-only, because a write-ahead journal is a log, not a
// slot array. The device has two regions:
//
//   durable_  bytes a restarted node reads back. Survives System teardown (the store is
//             owned by the crash-restart driver, never by the System it serves).
//   tail_     bytes appended but not yet synced: the device's volatile write buffer. A
//             clean restart still sees them (Contents() = durable + tail, like a disk whose
//             cache drained on orderly shutdown); a power cut loses them mid-flight.
//
// PowerCut() is the crash model: it keeps an arbitrary *prefix* of the unsynced tail — the
// bytes the head happened to finish before the supply collapsed — so recovery always faces
// exactly the torn-write problem real journals are designed around: the last record may be
// cut anywhere, including inside its checksum or mid-way through a sealed commit.

#ifndef IMAX432_SRC_FILING_STABLE_STORE_H_
#define IMAX432_SRC_FILING_STABLE_STORE_H_

#include <cstdint>
#include <vector>

#include "src/arch/types.h"
#include "src/base/result.h"

namespace imax432 {

class StableStore {
 public:
  // Same cost model as the swap device: the journal shares the IP subsystem's media path.
  static constexpr Cycles kAccessLatencyCycles = 24000;
  static Cycles TransferCost(uint32_t bytes) { return kAccessLatencyCycles + bytes / 2; }

  StableStore() = default;

  StableStore(const StableStore&) = delete;
  StableStore& operator=(const StableStore&) = delete;

  // Appends bytes to the volatile tail. A media transfer: fails with kDeviceError under an
  // injected fault (the journal retries with backoff, like the swap layer).
  Status Append(const uint8_t* data, size_t size) {
    IMAX_RETURN_IF_FAULT(CheckDevice());
    tail_.insert(tail_.end(), data, data + size);
    ++writes_;
    bytes_written_ += size;
    return Status::Ok();
  }

  // Makes every tail byte durable (the journal's commit barrier). Also a media transfer.
  Status Sync() {
    IMAX_RETURN_IF_FAULT(CheckDevice());
    durable_.insert(durable_.end(), tail_.begin(), tail_.end());
    tail_.clear();
    ++syncs_;
    return Status::Ok();
  }

  // Drops tail bytes appended after `mark` (rollback of a failed append batch; the caller
  // snapshots tail_size() before appending). Pure bookkeeping, never a device error.
  void TruncateTail(size_t mark) {
    if (mark < tail_.size()) {
      tail_.resize(mark);
    }
  }

  // Atomically replaces the whole durable log (checkpoint compaction, modeled as the
  // classic write-new-then-swap). Any unsynced tail is folded into the replacement by the
  // caller, so it is cleared here.
  Status Overwrite(std::vector<uint8_t> bytes) {
    IMAX_RETURN_IF_FAULT(CheckDevice());
    durable_ = std::move(bytes);
    tail_.clear();
    ++writes_;
    bytes_written_ += durable_.size();
    return Status::Ok();
  }

  // What a rebooted node reads back. A clean shutdown keeps the tail; a power cut has
  // already torn it. Reading is a media transfer too: a dead device cannot recover.
  Result<std::vector<uint8_t>> ReadAll() {
    IMAX_RETURN_IF_FAULT(CheckDevice());
    ++reads_;
    std::vector<uint8_t> all = durable_;
    all.insert(all.end(), tail_.begin(), tail_.end());
    return all;
  }

  // --- Crash model (driven by the kPowerCut injection) ---
  // Loses power mid-operation: a `selector`-chosen prefix of the unsynced tail lands on the
  // medium (the torn write), the rest vanishes. Deterministic per (tail contents, selector).
  void PowerCut(uint32_t selector) {
    size_t keep = tail_.empty() ? 0 : selector % (tail_.size() + 1);
    durable_.insert(durable_.end(), tail_.begin(), tail_.begin() + keep);
    torn_bytes_ += tail_.size() - keep;
    tail_.clear();
    ++power_cuts_;
  }

  // --- Fault injection (same contract as BackingStore) ---
  void InjectTransientFailures(uint32_t count) { transient_failures_ += count; }
  void SetPermanentFailure(bool failed) { permanent_failure_ = failed; }
  bool permanent_failure() const { return permanent_failure_; }

  // --- Corpus seeding (tests) ---
  // Flips bits in a durable byte (simulated media rot under a committed record).
  void CorruptDurable(size_t offset, uint8_t mask) {
    if (offset < durable_.size()) {
      durable_[offset] ^= mask;
    }
  }
  // Chops the durable log (a torn tail that predates this boot).
  void TruncateDurable(size_t size) {
    if (size < durable_.size()) {
      durable_.resize(size);
    }
  }
  // Replaces the device image wholesale (snapshot/restore for seeded corpora).
  void LoadImage(std::vector<uint8_t> bytes) {
    durable_ = std::move(bytes);
    tail_.clear();
  }
  const std::vector<uint8_t>& durable_bytes() const { return durable_; }

  size_t durable_size() const { return durable_.size(); }
  size_t tail_size() const { return tail_.size(); }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t failed_transfers() const { return failed_transfers_; }
  uint64_t power_cuts() const { return power_cuts_; }
  uint64_t torn_bytes() const { return torn_bytes_; }

 private:
  Status CheckDevice() {
    if (permanent_failure_) {
      ++failed_transfers_;
      return Fault::kDeviceError;
    }
    if (transient_failures_ > 0) {
      --transient_failures_;
      ++failed_transfers_;
      return Fault::kDeviceError;
    }
    return Status::Ok();
  }

  std::vector<uint8_t> durable_;
  std::vector<uint8_t> tail_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t syncs_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t failed_transfers_ = 0;
  uint64_t power_cuts_ = 0;
  uint64_t torn_bytes_ = 0;
  uint32_t transient_failures_ = 0;
  bool permanent_failure_ = false;
};

}  // namespace imax432

#endif  // IMAX432_SRC_FILING_STABLE_STORE_H_

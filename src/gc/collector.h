// GarbageCollector: the system-wide parallel garbage collector of iMAX.
//
// "iMAX provides a system-wide parallel garbage collector based upon the algorithm of
// Dijkstra et al. To support this, the 432 hardware implements the gray bit of that
// algorithm, setting it whenever access descriptors are moved." (§8.1)
//
// The collector is tri-color mark/sweep over the object descriptor table. Mutator
// cooperation (the hardware gray bit) is in AddressingUnit: every AD store shades the
// referenced object gray, so concurrent pointer moves never hide a live object from an
// in-progress mark. Collection proceeds in bounded work increments so it can run "as a
// daemon process that globally scans the system" interleaved with mutators in virtual time;
// it "requires only minimal synchronization with the rest of the operating system" — here,
// none at all beyond the gray bit and the root snapshot.
//
// Cost model versus host work: virtual time charges the global scans one work unit per
// table slot (whiten, sweep, and local collection's population pass), allocated or not. The
// host finds the slots that matter from the table's bitmaps (live, GC-exempt, gray, black,
// origin; see object_table.h) in ascending order, so it does the same work in the same
// order as a loop over every descriptor would: whiten rewrites the color bitmaps a word at a
// time, sweep visits only white slots, and the mark's termination rescan (TerminationRescan)
// visits only gray slots unless some white slot is an origin SRO, when it visits the
// non-white ones. The rescan goes by the bitmap word, not by the slot: on `swap_gc_churn`
// each first rescan of a cycle visits about 2,000 mostly black slots, and a call or two per
// slot to find, color-test and shade it cost more than the descriptor loads. The mark
// reads a referent's white bit before it resolves the AD, since only a white referent can
// be shaded, and counts an object's scanned slots with one add.
//
// Two extensions beyond plain Dijkstra, both from the paper:
//   - SRO liveness: a storage resource object is live while any object allocated from it is
//     live (reclaiming an SRO reclaims everything it allocated, which must never hit a live
//     object). The mark fixpoint shades origin SROs of live objects.
//   - Destruction filters (§8.2): when sweep finds a garbage object whose type definition
//     armed a filter, the collector "will manufacture an access descriptor for such objects
//     and send them to a port defined by the type manager" instead of freeing it. The type
//     manager can disassemble the resource (close the tape drive) and either keep or drop
//     the object; a dropped, already-finalized object is reclaimed silently next cycle.

#ifndef IMAX432_SRC_GC_COLLECTOR_H_
#define IMAX432_SRC_GC_COLLECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/exec/kernel.h"
#include "src/proc/layouts.h"

namespace imax432 {

struct GcStats {
  uint64_t cycles_completed = 0;     // full collection cycles
  uint64_t objects_scanned = 0;      // gray objects blackened
  uint64_t slots_scanned = 0;        // AD slots examined during marking
  uint64_t objects_reclaimed = 0;    // garbage freed
  uint64_t bytes_reclaimed = 0;
  uint64_t objects_finalized = 0;    // garbage sent to destruction filters
  uint64_t sros_kept_live = 0;       // SROs shaded by the origin-liveness rule
  uint64_t filter_send_failures = 0; // filter port full: object survives to next cycle
  uint64_t exempt_objects_skipped = 0;  // demoted (GC-exempt) objects held black at whiten
};

// Dijkstra's termination rescan over `table`, in ascending slot order: appends each gray
// slot to `gray` and applies the origin-SRO rule to each black one, shading the slot's
// white origin SRO and appending it too; an origin shaded above the current slot is
// appended again when the walk reaches it, still gray. When no allocated white slot is
// anyone's origin (ObjectTable::AnyWhiteOrigin), the rule cannot fire and only gray slots
// are visited. Returns how many origins it shaded. It reads the color bitmaps a word at a
// time and re-reads the current word only after a shade.
uint64_t TerminationRescan(ObjectTable& table, std::vector<ObjectIndex>* gray);

class GarbageCollector {
 public:
  // Observers are told when the collector frees an object so subsystems can drop shadow
  // state (port queues, program store, SRO state is handled by the memory manager itself).
  using ReclaimObserver = std::function<void(ObjectIndex, const ObjectDescriptor&)>;

  explicit GarbageCollector(Kernel* kernel);

  void AddReclaimObserver(ReclaimObserver observer) {
    observers_.push_back(std::move(observer));
  }

  // Arms a destruction filter for a hardware system type (iMAX release 1 "uses this facility
  // only to recover lost process objects": filter on SystemType::kProcess). User types arm
  // filters through their type definition objects instead.
  //
  // Filter delivery is an ordinary port send: the level rule applies, so a filter port must
  // live at (at least) the level of the objects it is to recover — a global port cannot
  // receive dying local-heap objects. An undeliverable finalization is counted in
  // filter_send_failures and the object survives the cycle.
  void SetSystemTypeFilter(SystemType type, const AccessDescriptor& filter_port);

  // --- Synchronous interface (tests, host-side maintenance) ---

  // Runs one full collection cycle to completion, outside virtual time.
  GcStats CollectNow();

  // Local collection: the paper's §8.1 extension ("The local heap and level mechanisms
  // effectively partition the system into nested sets of objects based on lifetime. ... It
  // would be possible to perform garbage collection on a local basis, either asynchronously
  // or synchronously, but we have not chosen to do this until we have data that suggests it
  // would be worthwhile." — bench_gc's LocalCollection rows are that data).
  //
  // Collects garbage among the objects allocated *directly* from `sro_ad` without tracing
  // the global object graph: by the level storing rule, references into the population can
  // only live in same-or-deeper-level objects and in register files, so one flat scan of
  // other objects' access parts plus the root set finds every external reference; tracing
  // then proceeds inside the population only. Fails with kWrongState while a global cycle
  // is in progress (the two share the color bits).
  Result<GcStats> CollectLocalNow(const AccessDescriptor& sro_ad);

  // --- Incremental interface (the daemon) ---

  // Starts a new collection cycle (whiten + root shading setup).
  void BeginCycle();
  // Performs up to `units` units of work; returns true while more work remains. One unit is
  // one descriptor slot covered by whiten or sweep (free slots included), one gray object
  // blackened, or one AD slot scanned.
  bool Step(uint32_t units);
  bool cycle_in_progress() const { return phase_ != Phase::kIdle; }

  // Builds the collector daemon: a process whose program loops { block on the request port;
  // run one full cycle in bounded increments; reply if the request carried a reply port }.
  // Returns the request port; every message posted to it triggers one collection cycle.
  // `units_per_step` controls granularity (work per native instruction); `imax_level`
  // defaults to the services level so the daemon may fault only in ways iMAX permits.
  Result<AccessDescriptor> SpawnDaemon(uint32_t units_per_step = 512, uint8_t priority = 32);

  const GcStats& stats() const { return stats_; }
  // Cumulative work units this collector performed (for cost accounting in benches).
  uint64_t work_units() const { return work_units_; }

 private:
  enum class Phase : uint8_t { kIdle, kWhiten, kMark, kSweep };

  void ShadeRoots();
  // Shades an allocated white object gray and pushes it on the mark worklist.
  void Shade(ObjectIndex index) {
    if (kernel_->machine().table().Shade(index)) {
      gray_.push_back(index);
    }
  }
  // Shades the object `ad` names when it is white and `ad` still resolves. The white bit is
  // tested first, so a referent that cannot be shaded costs no descriptor read.
  void ShadeReferent(const ObjectTable& table, const AccessDescriptor& ad) {
    if (table.IsWhite(ad.index()) && table.Resolve(ad).ok()) {
      Shade(ad.index());
    }
  }
  // Records a phase transition on the machine's event trace.
  void EmitPhase();
  // Runs the end-of-mark fixpoint checks (origin SROs, fresh roots). Returns true if new
  // gray objects appeared and marking must continue.
  bool MarkFixpoint();
  // Sweeps one descriptor; may free it or divert it to a destruction filter.
  void SweepOne(ObjectIndex index);
  // Returns the filter port for a garbage object, or null if none armed.
  AccessDescriptor FilterPortFor(const ObjectDescriptor& descriptor);

  Kernel* kernel_;
  std::vector<ReclaimObserver> observers_;
  AccessDescriptor system_filters_[kNumSystemTypes];

  Phase phase_ = Phase::kIdle;
  uint32_t cursor_ = 0;                 // table scan position (whiten / sweep)
  std::vector<ObjectIndex> gray_;       // mark worklist
  GcStats stats_;
  uint64_t work_units_ = 0;
};

}  // namespace imax432

#endif  // IMAX432_SRC_GC_COLLECTOR_H_

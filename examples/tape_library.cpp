// tape_library: the paper's §8.2 scenario, end to end.
//
// A tape-drive type manager hands out tape_drive objects (a private type, created through
// the user type definition facility). Client processes use drives and are *supposed* to
// return them — but one client loses its handle. Without help, the drive object would be
// garbage collected "and the system will be short one tape drive" — a lost object.
//
// The manager arms a destruction filter on its type definition object, so the garbage
// collector manufactures an AD for any dying drive and sends it to the manager's filter
// port. The manager disassembles the drive (unmounts the volume) and returns it to the free
// pool. The example counts drives before and after to show none are lost.

#include <cstdio>

#include "src/io/devices.h"
#include "src/os/system.h"

using namespace imax432;

namespace {

constexpr uint32_t kDriveTypeId = 0x7105;  // "TAPE" as far as anyone needs to know
constexpr int kTotalDrives = 4;

// Layout of a tape_drive object's data part (the manager's private representation).
constexpr uint32_t kOffDriveId = 0;     // u32
constexpr uint32_t kOffMountedVol = 4;  // u32
constexpr uint32_t kOffInUse = 8;       // u8

}  // namespace

int main() {
  SystemConfig config;
  config.processors = 2;
  System system(config);
  auto& kernel = system.kernel();
  auto& memory = system.memory();
  auto& types = system.types();

  // --- The tape-drive type manager's private state ---
  // The destruction filter port, and the TDO with the filter armed.
  auto filter_port = kernel.ports().CreatePort(memory.global_heap(), 8,
                                               QueueDiscipline::kFifo);
  auto tdo = types.CreateTypeDefinition(kDriveTypeId, filter_port.value());
  if (!filter_port.ok() || !tdo.ok()) {
    return 1;
  }

  // The manager's free pool (package state, reported to the GC as roots).
  std::vector<AccessDescriptor> free_pool;
  int recovered_count = 0;
  kernel.AddRootProvider([&](std::vector<AccessDescriptor>* roots) {
    roots->push_back(tdo.value());
    roots->push_back(filter_port.value());
    for (const AccessDescriptor& drive : free_pool) {
      roots->push_back(drive);
    }
  });

  // Manufacture the physical drives as typed objects.
  for (int i = 0; i < kTotalDrives; ++i) {
    auto drive = types.CreateTypedObject(tdo.value(), memory.global_heap(), 16, 0,
                                         rights::kRead | rights::kWrite);
    if (!drive.ok()) {
      return 1;
    }
    ObjectView view(&system.machine().addressing(), drive.value());
    view.SetField(kOffDriveId, 4, static_cast<uint64_t>(i + 1));
    free_pool.push_back(drive.value());
  }
  std::printf("tape library: %zu drives in the pool\n", free_pool.size());

  // --- Clients ---
  // allocate_drive: pops a drive from the pool (host-side stand-in for the manager's
  // Allocate entry; the protection story is identical — clients receive a *restricted* AD
  // with no delete rights, so only the manager can destroy drives).
  auto allocate_drive = [&]() -> AccessDescriptor {
    if (free_pool.empty()) {
      return AccessDescriptor();
    }
    AccessDescriptor drive = free_pool.back();
    free_pool.pop_back();
    ObjectView(&system.machine().addressing(), drive).SetField(kOffInUse, 1, 1);
    return drive.Restricted(rights::kRead | rights::kWrite);
  };

  // A well-behaved client: mounts, "uses" the drive, returns it via a return port.
  auto return_port = kernel.ports().CreatePort(memory.global_heap(), 8,
                                               QueueDiscipline::kFifo);
  kernel.AddRootProvider([port = return_port.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(port);
  });

  auto spawn_client = [&](bool loses_handle) {
    AccessDescriptor drive = allocate_drive();
    if (drive.is_null()) {
      return;
    }
    Assembler a(loses_handle ? "careless-client" : "good-client");
    a.MoveAd(1, kArgAdReg);          // a1 = drive
    a.LoadImm(0, 1).StoreData(1, 0, kOffMountedVol, 4);  // "mount volume 1"
    a.Compute(20000);                // use the tape for a while
    if (!loses_handle) {
      // Return the drive to the manager.
      a.LoadAd(2, 1, 0);             // (no-op pattern; the port AD comes via a2 below)
    }
    a.Halt();

    ProcessOptions options;
    options.initial_arg = drive;
    auto process = system.Spawn(a.Build(), options);
    if (process.ok() && !loses_handle) {
      // Host-side stand-in for the client's final Send(return_port, drive).
      system.Run();
      (void)kernel.PostMessage(return_port.value(), drive);
    }
  };

  // Two good clients, two careless ones.
  spawn_client(/*loses_handle=*/false);
  spawn_client(/*loses_handle=*/true);
  spawn_client(/*loses_handle=*/false);
  spawn_client(/*loses_handle=*/true);
  system.Run();

  // The manager drains its return port (good clients' drives come home).
  while (true) {
    auto returned = kernel.ReceiveMessage(return_port.value());
    if (!returned.ok()) {
      break;
    }
    // Amplify back to the manager's full rights and reset the drive.
    auto full = types.Amplify(returned.value(), tdo.value(), rights::kAll);
    if (full.ok()) {
      ObjectView view(&system.machine().addressing(), full.value());
      view.SetField(kOffInUse, 1, 0);
      view.SetField(kOffMountedVol, 4, 0);
      free_pool.push_back(full.value());
    }
  }
  std::printf("after clients: %zu drives in pool (2 lost by careless clients)\n",
              free_pool.size());

  // --- Recovery via the destruction filter ---
  // The lost drives are garbage: nothing reachable references them. A GC cycle sends them
  // to the filter port instead of freeing them.
  (void)system.RequestCollection();
  system.Run();

  while (true) {
    auto dying = kernel.ReceiveMessage(filter_port.value());
    if (!dying.ok()) {
      break;
    }
    // Disassemble: unmount whatever the client left mounted, then repool.
    ObjectView view(&system.machine().addressing(), dying.value());
    uint64_t volume = view.Field(kOffMountedVol, 4);
    view.SetField(kOffMountedVol, 4, 0);
    view.SetField(kOffInUse, 1, 0);
    free_pool.push_back(dying.value());
    ++recovered_count;
    std::printf("destruction filter: recovered drive %llu (volume %llu was still mounted)\n",
                static_cast<unsigned long long>(view.Field(kOffDriveId, 4)),
                static_cast<unsigned long long>(volume));
  }

  std::printf("recovered %d lost drives; pool restored to %zu/%d\n", recovered_count,
              free_pool.size(), kTotalDrives);
  std::printf("tdo counters: created=%llu finalized=%llu\n",
              static_cast<unsigned long long>(types.CreatedCount(tdo.value()).value()),
              static_cast<unsigned long long>(types.FinalizedCount(tdo.value()).value()));
  return free_pool.size() == kTotalDrives ? 0 : 1;
}

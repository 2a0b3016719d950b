#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>

#include "src/base/xorshift.h"

namespace imax432::perfbench {
namespace {

// Counts a program walks down to zero are stored negated (two's complement): the loop adds 1
// per step, since AddImm adds its 32-bit immediate zero-extended.
constexpr uint64_t Negated(uint64_t count) { return 0 - count; }

// --- Generated inputs ---------------------------------------------------------------------
//
// A program receives its generated records through an input directory: a data part
// [count, first op id, chunk bytes, next chunk] and access slots naming chunk objects of up to
// kChunkRecords records each (a segment's data part is at most 64 KB). The program keeps the
// directory in kDirAd, the current chunk in an AD register of its choice, the op id in r0,
// the end id in r1 and the record offset within the chunk in r2.
constexpr uint32_t kChunkRecords = 1024;
constexpr uint8_t kDirAd = 6;

AccessDescriptor MakeInputs(System& system, uint64_t first_id,
                            const std::vector<uint64_t>& records, uint32_t record_words) {
  AccessDescriptor heap = system.memory().global_heap();
  const size_t chunk_words = size_t{kChunkRecords} * record_words;
  std::vector<AccessDescriptor> chunks;
  for (size_t begin = 0; begin < records.size(); begin += chunk_words) {
    auto first = records.begin() + static_cast<std::ptrdiff_t>(begin);
    auto last = records.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(records.size(), begin + chunk_words));
    chunks.push_back(
        MakeDataObject(system, heap, std::vector<uint64_t>(first, last), rights::kRead));
  }
  const uint64_t header[4] = {records.size() / record_words, first_id, chunk_words * 8, 1};
  auto directory = system.memory().CreateObject(heap, SystemType::kGeneric, sizeof(header),
                                                static_cast<uint32_t>(chunks.size()),
                                                rights::kRead | rights::kWrite);
  IMAX_CHECK(directory.ok());
  AddressingUnit& au = system.machine().addressing();
  IMAX_CHECK(au.WriteDataBlock(directory.value(), 0, header, sizeof(header)).ok());
  for (uint32_t i = 0; i < chunks.size(); ++i) {
    IMAX_CHECK(au.WriteAd(directory.value(), i, chunks[i]).ok());
  }
  return directory.value();
}

// r0 = first op id, r1 = end id, r2 = 0, `chunk` = the first chunk. Expects kDirAd loaded.
void EmitInputPrologue(Assembler& a, uint8_t chunk) {
  a.LoadData(1, kDirAd, 0)
      .LoadData(0, kDirAd, 8)
      .Add(1, 1, 0)
      .LoadImm(2, 0)
      .LoadAd(chunk, kDirAd, 0);
}

// Advances to the next record (switching chunks at a chunk boundary) and branches back to
// `loop` while ops remain; halts after the last. Clobbers r3.
void EmitInputEpilogue(Assembler& a, uint8_t chunk, uint32_t record_bytes,
                       Assembler::Label loop) {
  auto more = a.NewLabel();
  a.AddImm(2, 2, record_bytes)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, more)
      .Halt()
      .Bind(more)
      .LoadData(3, kDirAd, 16)
      .BranchIfLess(2, 3, loop)
      .LoadData(3, kDirAd, 24)
      .LoadAdIndexed(chunk, kDirAd, 3, 0)
      .AddImm(3, 3, 1)
      .StoreData(kDirAd, 3, 24)
      .LoadImm(2, 0)
      .Branch(loop);
}

// The arithmetic loop every workload runs per op: r[value] <<= n, one doubling per
// iteration, where r[count] holds Negated(n) and steps up to zero. The count comes from the
// generated record, so each op's interpreter work (and virtual service time) varies with the
// inputs.
void EmitShiftLoop(Assembler& a, uint8_t value, uint8_t count) {
  auto loop = a.NewLabel();
  auto done = a.NewLabel();
  a.Bind(loop)
      .BranchIfZero(count, done)
      .Add(value, value, value)
      .AddImm(count, count, 1)
      .Branch(loop)
      .Bind(done);
}

uint64_t CountMismatch(const char* what, uint64_t index, uint64_t got, uint64_t want) {
  if (got == want) {
    return 0;
  }
  std::fprintf(stderr, "check failed: %s %llu: got %llu, want %llu\n", what,
               static_cast<unsigned long long>(index), static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
  return 1;
}

uint64_t ReportFailure(const char* what, uint64_t index) {
  std::fprintf(stderr, "check failed: %s %llu\n", what, static_cast<unsigned long long>(index));
  return 1;
}

// Asks the GC daemon for a cycle unless one is running or already requested.
void RequestIdleCollection(System& system, HostSpans* spans) {
  auto queued = system.kernel().ports().QueuedCount(system.gc_request_port());
  if (!system.gc().cycle_in_progress() && queued.ok() && queued.value() == 0) {
    HostSpans::Scope span(spans, "request_collection");
    IMAX_CHECK(system.RequestCollection().ok());
  }
}

// --- interp_alloc -------------------------------------------------------------------------
//
// Two processes time-sliced on one GDP. Each op: two read-modify-writes of long-lived state
// objects at generated slots (one through a generated-length shift loop), one
// create/initialize/read/destroy of an object whose size class the record picks, and the
// op's check difference.
class InterpAlloc final : public Workload {
 public:
  static constexpr int kProcesses = 2;
  static constexpr uint64_t kOpsPerProcess = 1500;
  static constexpr uint32_t kStateWords = 64;
  static constexpr uint32_t kRecordWords = 5;
  static constexpr uint64_t kMaxShift = 31;

  explicit InterpAlloc(uint64_t seed) {
    Xorshift rng(seed);
    for (auto& ops : ops_) {
      ops.resize(kOpsPerProcess);
      for (Op& op : ops) {
        op.value = rng.Next();
        op.a_slot = rng.NextBelow(kStateWords);
        op.b_slot = rng.NextBelow(kStateWords);
        op.size_class = rng.NextBelow(4);
        op.shift = rng.NextInRange(0, kMaxShift);
      }
    }
  }

  uint64_t ops() const override { return kProcesses * kOpsPerProcess; }
  Cycles tick_cycles() const override { return 2'000'000; }

  SystemConfig Config() override {
    SystemConfig config;
    config.processors = 1;
    config.machine.memory_bytes = 1024 * 1024;
    config.machine.object_table_capacity = 4096;
    return config;
  }

  void Load(System& system, OpLog* log, HostSpans* spans) override {
    RegisterOpServices(system, log, spans, /*filing=*/false);
    ProgramRef program = Program();
    AccessDescriptor heap = system.memory().global_heap();
    for (int p = 0; p < kProcesses; ++p) {
      std::vector<uint64_t> records;
      for (const Op& op : ops_[p]) {
        records.insert(records.end(),
                       {op.value, op.a_slot * 8, op.b_slot * 8, Negated(op.size_class),
                        Negated(op.shift)});
      }
      AccessDescriptor inputs = MakeInputs(system, p * kOpsPerProcess, records, kRecordWords);
      state_a_[p] = MakeDataObject(system, heap, std::vector<uint64_t>(kStateWords, 0));
      state_b_[p] = MakeDataObject(system, heap, std::vector<uint64_t>(kStateWords, 0));
      KeepAlive(system, {state_a_[p], state_b_[p]});
      ProcessOptions options;
      options.initial_arg = MakeCarrier(system, {heap, inputs, state_a_[p], state_b_[p]});
      IMAX_CHECK(system.Spawn(program, options).ok());
    }
  }

  uint64_t Verify(System& system, const OpLog&) override {
    uint64_t failures = 0;
    for (int p = 0; p < kProcesses; ++p) {
      std::vector<uint64_t> a(kStateWords, 0);
      std::vector<uint64_t> b(kStateWords, 0);
      for (const Op& op : ops_[p]) {
        a[op.a_slot] += op.value;
        b[op.b_slot] = (b[op.b_slot] << op.shift) + op.value;
      }
      for (uint32_t i = 0; i < kStateWords; ++i) {
        uint64_t got_a = 0;
        uint64_t got_b = 0;
        if (!HostReadWord(system, state_a_[p], i * 8, &got_a) ||
            !HostReadWord(system, state_b_[p], i * 8, &got_b)) {
          failures += ReportFailure("interp_alloc state object unreadable, slot", i);
          continue;
        }
        failures += CountMismatch("interp_alloc state A slot", i, got_a, a[i]);
        failures += CountMismatch("interp_alloc state B slot", i, got_b, b[i]);
      }
    }
    return failures;
  }

 private:
  struct Op {
    uint64_t value = 0;
    uint64_t a_slot = 0;
    uint64_t b_slot = 0;
    uint64_t size_class = 0;
    uint64_t shift = 0;
  };

  // a1 carrier, a2 heap, a3 input chunk, a4 state A, a5 state B, a0 the op's fresh object;
  // r3 value, r4/r5 offsets and scratch, r6 check difference.
  static ProgramRef Program() {
    Assembler a("interp-alloc");
    auto loop = a.NewLabel();
    auto size0 = a.NewLabel();
    auto size1 = a.NewLabel();
    auto size2 = a.NewLabel();
    auto made = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(kDirAd, 1, 1)
        .LoadAd(4, 1, 2)
        .LoadAd(5, 1, 3);
    EmitInputPrologue(a, 3);
    a.Bind(loop)
        .Move(kArgReg, 0)
        .OsCall(kServiceIssue)
        .LoadDataIndexed(3, 3, 2, 0)
        .LoadDataIndexed(4, 3, 2, 8)
        .LoadDataIndexed(5, 3, 2, 16)
        .LoadDataIndexed(6, 4, 4, 0)  // A[a] += value
        .Add(6, 6, 3)
        .StoreDataIndexed(4, 6, 4, 0)
        .LoadDataIndexed(6, 5, 5, 0)  // B[b] = (B[b] << shift) + value
        .LoadDataIndexed(4, 3, 2, 32);
    EmitShiftLoop(a, 6, 4);
    a.Add(6, 6, 3)
        .StoreDataIndexed(5, 6, 5, 0)
        .LoadDataIndexed(4, 3, 2, 24)  // negated size class 0..3
        .BranchIfZero(4, size0)
        .AddImm(4, 4, 1)
        .BranchIfZero(4, size1)
        .AddImm(4, 4, 1)
        .BranchIfZero(4, size2)
        .CreateObject(0, 2, 256)
        .Branch(made)
        .Bind(size0)
        .CreateObject(0, 2, 32)
        .Branch(made)
        .Bind(size1)
        .CreateObject(0, 2, 64)
        .Branch(made)
        .Bind(size2)
        .CreateObject(0, 2, 128)
        .Bind(made)
        .StoreData(0, 3, 0)
        .StoreData(0, 0, 8)
        .LoadData(6, 0, 0)
        .LoadData(4, 0, 8)
        .DestroyObject(0)
        .Sub(6, 6, 3)
        .Sub(4, 4, 0)
        .Add(6, 6, 4)
        .Move(kArgReg, 0)
        .OsCall(kServiceComplete);
    EmitInputEpilogue(a, 3, kRecordWords * 8, loop);
    return a.Build();
  }

  std::vector<Op> ops_[kProcesses];
  AccessDescriptor state_a_[kProcesses];
  AccessDescriptor state_b_[kProcesses];
};

// --- request_reply ------------------------------------------------------------------------
//
// Closed loop on 4 GDPs: each client sends a request and waits for its reply. A worker pool
// receives requests, allocates a reply, domain-calls a service that updates a shared table
// under a port-token lock, files every k-th reply through an OsCall service, and replies.
class RequestReply final : public Workload {
 public:
  static constexpr int kProcessors = 4;
  static constexpr int kClients = 8;
  static constexpr int kWorkers = 4;
  static constexpr uint64_t kOpsPerClient = 500;
  static constexpr uint32_t kTableSlots = 256;
  static constexpr uint64_t kFileEvery = 8;
  static constexpr uint32_t kRecordWords = 4;
  static constexpr uint64_t kMaxShift = 31;

  explicit RequestReply(uint64_t seed) {
    Xorshift rng(seed);
    for (auto& ops : ops_) {
      ops.resize(kOpsPerClient);
      for (Op& op : ops) {
        op.key = rng.NextBelow(kTableSlots);
        op.value = rng.Next() >> 8;
        op.shift = rng.NextInRange(0, kMaxShift);
      }
    }
  }

  uint64_t ops() const override { return kClients * kOpsPerClient; }
  Cycles tick_cycles() const override { return 1'000'000; }

  SystemConfig Config() override {
    store_ = std::make_unique<StableStore>();  // fresh device per run; outlives the System
    SystemConfig config;
    config.processors = kProcessors;
    config.machine.memory_bytes = 2 * 1024 * 1024;
    config.machine.object_table_capacity = 8192;
    config.stable_store = store_.get();
    return config;
  }

  void Load(System& system, OpLog* log, HostSpans* spans) override {
    RegisterOpServices(system, log, spans, /*filing=*/true);
    Kernel& kernel = system.kernel();
    AccessDescriptor heap = system.memory().global_heap();

    table_ = MakeDataObject(system, heap, std::vector<uint64_t>(kTableSlots, 0));
    KeepAlive(system, {table_});
    auto lock = kernel.ports().CreatePort(heap, 1, QueueDiscipline::kFifo);
    IMAX_CHECK(lock.ok());
    IMAX_CHECK(kernel.PostMessage(lock.value(), MakeDataObject(system, heap, {0})).ok());
    auto service = kernel.programs().Register(ServiceProgram());
    IMAX_CHECK(service.ok());
    auto domain = kernel.CreateDomain({service.value()}, /*state_slots=*/2);
    IMAX_CHECK(domain.ok());
    IMAX_CHECK(kernel.SetDomainState(domain.value(), 0, table_).ok());
    IMAX_CHECK(kernel.SetDomainState(domain.value(), 1, lock.value()).ok());

    auto requests = kernel.ports().CreatePort(heap, 2 * kClients, QueueDiscipline::kFifo);
    IMAX_CHECK(requests.ok());
    ProgramRef worker = WorkerProgram();
    for (int w = 0; w < kWorkers; ++w) {
      ProcessOptions options;
      options.initial_arg = MakeCarrier(system, {heap, requests.value(), domain.value()});
      IMAX_CHECK(system.Spawn(worker, options).ok());
    }
    ProgramRef client = ClientProgram();
    for (int c = 0; c < kClients; ++c) {
      auto reply_port = kernel.ports().CreatePort(heap, 2, QueueDiscipline::kFifo);
      IMAX_CHECK(reply_port.ok());
      // Request object: [op id, key offset, value, file flag, shift], slot 0 = the reply port.
      auto request = system.memory().CreateObject(heap, SystemType::kGeneric, 40, 1,
                                                  rights::kRead | rights::kWrite);
      IMAX_CHECK(request.ok());
      IMAX_CHECK(
          system.machine().addressing().WriteAd(request.value(), 0, reply_port.value()).ok());
      uint64_t first = static_cast<uint64_t>(c) * kOpsPerClient;
      std::vector<uint64_t> records;
      for (uint64_t j = 0; j < kOpsPerClient; ++j) {
        const Op& op = ops_[c][j];
        records.insert(records.end(),
                       {op.key * 8, op.value, Filed(first + j) ? 1u : 0u, Negated(op.shift)});
      }
      AccessDescriptor inputs = MakeInputs(system, first, records, kRecordWords);
      ProcessOptions options;
      options.initial_arg =
          MakeCarrier(system, {requests.value(), reply_port.value(), request.value(), inputs});
      IMAX_CHECK(system.Spawn(client, options).ok());
    }
  }

  // The collection schedule: one request per tick unless a cycle is still running.
  void OnTick(System& system, HostSpans* spans) override { RequestIdleCollection(system, spans); }

  uint64_t Verify(System& system, const OpLog& log) override {
    uint64_t failures = 0;
    // The shared table against the host model.
    std::vector<uint64_t> table(kTableSlots, 0);
    for (const auto& ops : ops_) {
      for (const Op& op : ops) {
        table[op.key] += op.value;
      }
    }
    for (uint32_t k = 0; k < kTableSlots; ++k) {
      uint64_t got = 0;
      if (!HostReadWord(system, table_, k * 8, &got)) {
        failures += ReportFailure("request_reply table unreadable, slot", k);
        continue;
      }
      failures += CountMismatch("request_reply table slot", k, got, table[k]);
    }

    // Every k-th op filed exactly once, each record reading back as the host model says.
    std::vector<uint64_t> filed = log.filed;
    std::sort(filed.begin(), filed.end());
    std::vector<uint64_t> expected;
    for (uint64_t id = 0; id < ops(); ++id) {
      if (Filed(id)) {
        expected.push_back(id);
      }
    }
    if (filed != expected) {
      failures += ReportFailure("request_reply: filed ops are not every k-th op; filed",
                                filed.size());
    }
    AccessDescriptor heap = system.memory().global_heap();
    for (uint64_t id : expected) {
      auto record = system.filing().Retrieve(RecordName(id), heap);
      std::vector<uint64_t> want = Record(id);
      for (uint32_t w = 0; w < want.size(); ++w) {
        uint64_t got = 0;
        if (!record.ok() || !HostReadWord(system, record.value(), w * 8, &got)) {
          failures += ReportFailure("request_reply record not retrievable, op", id);
          break;
        }
        failures += CountMismatch("request_reply record word", id * 4 + w, got, want[w]);
      }
    }

    // A second, independent host-side filing of the modeled records must digest equal.
    SystemConfig replay_config;
    replay_config.processors = 1;
    replay_config.start_gc_daemon = false;
    System replay(replay_config);
    for (uint64_t id : expected) {
      AccessDescriptor object =
          MakeDataObject(replay, replay.memory().global_heap(), Record(id));
      IMAX_CHECK(replay.filing().File(RecordName(id), object).ok());
    }
    failures += CountMismatch("request_reply filing digest", 0, system.filing().StateDigest(),
                              replay.filing().StateDigest());
    return failures;
  }

 private:
  struct Op {
    uint64_t key = 0;
    uint64_t value = 0;
    uint64_t shift = 0;
  };

  static bool Filed(uint64_t id) { return id % kFileEvery == 0; }

  // The reply a worker builds for op `id`: check, id, value, value << shift.
  std::vector<uint64_t> Record(uint64_t id) const {
    const Op& op = ops_[id / kOpsPerClient][id % kOpsPerClient];
    return {op.key * 8 + op.value + id, id, op.value, op.value << op.shift};
  }

  // Client: a1 carrier, a2 request port, a3 reply port, a4 request object, a5 input chunk,
  // a0 reply; r3 key offset, r4 value, r5 file flag, r6 check difference.
  static ProgramRef ClientProgram() {
    Assembler a("rr-client");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .LoadAd(4, 1, 2)
        .LoadAd(kDirAd, 1, 3);
    EmitInputPrologue(a, 5);
    a.Bind(loop)
        .Move(kArgReg, 0)
        .OsCall(kServiceIssue)
        .LoadDataIndexed(3, 5, 2, 0)
        .LoadDataIndexed(4, 5, 2, 8)
        .LoadDataIndexed(5, 5, 2, 16)
        .StoreData(4, 0, 0)
        .StoreData(4, 3, 8)
        .StoreData(4, 4, 16)
        .StoreData(4, 5, 24)
        .LoadDataIndexed(5, 5, 2, 24)
        .StoreData(4, 5, 32)
        .Send(2, 4)
        .Receive(0, 3)
        .LoadData(6, 0, 0)  // check = key offset + value + id
        .Sub(6, 6, 3)
        .Sub(6, 6, 4)
        .Sub(6, 6, 0)
        .LoadData(5, 0, 8)  // echoed id
        .Sub(5, 5, 0)
        .Add(6, 6, 5)
        .ClearAd(0)
        .Move(kArgReg, 0)
        .OsCall(kServiceComplete);
    EmitInputEpilogue(a, 5, kRecordWords * 8, loop);
    return a.Build();
  }

  // Worker: a1 carrier, a2 heap, a3 request port, a4 service domain, a5 request, a0 reply,
  // a6 the client's reply port; r0 op id, r3 key offset, r4 value, r5 value << shift.
  static ProgramRef WorkerProgram() {
    Assembler a("rr-worker");
    auto loop = a.NewLabel();
    auto no_file = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .LoadAd(4, 1, 2)
        .Bind(loop)
        .Receive(5, 3)
        .LoadData(0, 5, 0)
        .LoadData(3, 5, 8)
        .LoadData(4, 5, 16)
        .CreateObject(0, 2, 32)
        .MoveAd(kArgAdReg, 5)
        .Call(4, 0)  // r7 = key offset + value
        .Add(6, kArgReg, 0)
        .StoreData(0, 6, 0)
        .StoreData(0, 0, 8)
        .StoreData(0, 4, 16)
        .Move(5, 4)
        .LoadData(6, 5, 32);
    EmitShiftLoop(a, 5, 6);
    a.StoreData(0, 5, 24)
        .LoadData(6, 5, 24)
        .BranchIfZero(6, no_file)
        .Move(kArgReg, 0)
        .MoveAd(kArgAdReg, 0)
        .OsCall(kServiceFile)
        .Bind(no_file)
        .LoadAd(6, 5, 0)
        .Send(6, 0)
        .ClearAd(0)
        .ClearAd(5)
        .ClearAd(6)
        .ClearAd(kArgAdReg)
        .Branch(loop);
    return a.Build();
  }

  // Service domain entry: table[key] += value under the lock port's token; returns
  // r7 = key offset + value. a6 is the domain (state slot 1 table, slot 2 lock port),
  // a7 the request.
  static ProgramRef ServiceProgram() {
    Assembler a("rr-service");
    a.LoadAd(1, kDomainAdReg, 1)
        .LoadAd(2, kDomainAdReg, 2)
        .LoadData(3, kArgAdReg, 8)
        .LoadData(4, kArgAdReg, 16)
        .Receive(3, 2)
        .LoadDataIndexed(5, 1, 3, 0)
        .Add(5, 5, 4)
        .StoreDataIndexed(1, 5, 3, 0)
        .Send(2, 3)
        .ClearAd(3)
        .ClearAd(kArgAdReg)
        .Add(kArgReg, 3, 4)
        .Return();
    return a.Build();
  }

  std::vector<Op> ops_[kClients];
  std::unique_ptr<StableStore> store_;
  AccessDescriptor table_;
};

// --- swap_gc_churn ------------------------------------------------------------------------
//
// Swapping memory manager; the churn heap holding the shared table's objects is much
// smaller than the live set. Each op allocates and initializes an object, publishes it into
// a slot the mutator owns (orphaning the previous occupant through the gray-bit barrier),
// then reads another random slot back and checks the object's internal consistency. The GC
// daemon is asked for a new cycle whenever the last one finished.
class SwapGcChurn final : public Workload {
 public:
  static constexpr int kProcessors = 2;
  static constexpr int kMutators = 2;
  static constexpr uint64_t kOpsPerMutator = 2000;
  static constexpr uint32_t kSlots = 2048;
  static constexpr uint32_t kObjectBytes = 512;
  static constexpr uint32_t kChurnHeapBytes = 384 * 1024;
  static constexpr uint32_t kRecordWords = 4;
  static constexpr uint64_t kMaxShift = 15;
  static constexpr uint64_t kInitialIdBase = 1ull << 40;
  static constexpr uint8_t kMutatorPriority = 16;

  explicit SwapGcChurn(uint64_t seed) {
    Xorshift rng(seed);
    initial_values_.resize(kSlots);
    for (uint64_t& v : initial_values_) {
      v = rng.Next() >> 8;
    }
    for (int m = 0; m < kMutators; ++m) {
      ops_[m].resize(kOpsPerMutator);
      for (Op& op : ops_[m]) {
        op.write_slot = rng.NextBelow(kSlots / kMutators) * kMutators + m;
        op.value = rng.Next() >> 8;
        op.read_slot = rng.NextBelow(kSlots);
        op.shift = rng.NextInRange(0, kMaxShift);
      }
    }
  }

  uint64_t ops() const override { return kMutators * kOpsPerMutator; }
  Cycles tick_cycles() const override { return 100'000; }

  SystemConfig Config() override {
    SystemConfig config;
    config.processors = kProcessors;
    config.memory_manager = MemoryManagerKind::kSwapping;
    config.machine.memory_bytes = 1024 * 1024;
    config.machine.object_table_capacity = 8192;
    return config;
  }

  void Load(System& system, OpLog* log, HostSpans* spans) override {
    RegisterOpServices(system, log, spans, /*filing=*/false);
    MemoryManager& memory = system.memory();
    AccessDescriptor heap = memory.global_heap();
    // Level-1 heaps: the table and carriers live in one that is never allocated from after
    // load (so nothing in it is ever evicted); the churned objects in the other.
    auto fixed = memory.CreateLocalSro(heap, 64 * 1024, 1);
    auto churn = memory.CreateLocalSro(heap, kChurnHeapBytes, 1);
    IMAX_CHECK(fixed.ok() && churn.ok());
    auto table = memory.CreateObject(fixed.value(), SystemType::kGeneric, 8, kSlots,
                                     rights::kRead | rights::kWrite);
    IMAX_CHECK(table.ok());
    table_ = table.value();
    KeepAlive(system, {table_});
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      std::vector<uint64_t> words(kObjectBytes / 8, 0);
      words[0] = initial_values_[slot];
      words[1] = kInitialIdBase + slot;
      words[2] = words[0] + words[1];
      AccessDescriptor object = MakeDataObject(system, churn.value(), words);
      IMAX_CHECK(system.machine().addressing().WriteAd(table_, slot, object).ok());
    }
    ProgramRef program = Program();
    for (int m = 0; m < kMutators; ++m) {
      std::vector<uint64_t> records;
      for (const Op& op : ops_[m]) {
        records.insert(records.end(),
                       {op.write_slot, op.value, op.read_slot, Negated(op.shift)});
      }
      AccessDescriptor inputs = MakeInputs(system, m * kOpsPerMutator, records, kRecordWords);
      ProcessOptions options;
      // Below the GC daemon's priority: a requested cycle gets a GDP as soon as it is ready.
      options.priority = kMutatorPriority;
      options.initial_arg = MakeCarrier(system, {churn.value(), table_, inputs}, fixed.value());
      IMAX_CHECK(system.Spawn(program, options).ok());
    }
  }

  // Continuous collection: the tick is short, so a new cycle starts soon after the last.
  void OnTick(System& system, HostSpans* spans) override { RequestIdleCollection(system, spans); }

  uint64_t Verify(System& system, const OpLog&) override {
    // Final occupant of every slot: the owner's last write, else the initial object.
    std::vector<uint64_t> value(kSlots);
    std::vector<uint64_t> id(kSlots);
    std::vector<uint64_t> shifted(kSlots, 0);
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      value[slot] = initial_values_[slot];
      id[slot] = kInitialIdBase + slot;
    }
    for (int m = 0; m < kMutators; ++m) {
      for (uint64_t j = 0; j < kOpsPerMutator; ++j) {
        const Op& op = ops_[m][j];
        value[op.write_slot] = op.value;
        id[op.write_slot] = m * kOpsPerMutator + j;
        shifted[op.write_slot] = op.value << op.shift;
      }
    }
    uint64_t failures = 0;
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      auto ad = system.machine().addressing().ReadAd(table_, slot);
      uint64_t got[4] = {};
      bool readable = ad.ok();
      for (uint32_t w = 0; readable && w < 4; ++w) {
        readable = HostReadWord(system, ad.value(), w * 8, &got[w]);
      }
      if (!readable) {
        // A referenced object that no longer resolves was reclaimed while live.
        failures += ReportFailure("swap_gc_churn table object unreadable, slot", slot);
        continue;
      }
      failures += CountMismatch("swap_gc_churn slot value", slot, got[0], value[slot]);
      failures += CountMismatch("swap_gc_churn slot op id", slot, got[1], id[slot]);
      failures += CountMismatch("swap_gc_churn slot sum", slot, got[2], value[slot] + id[slot]);
      failures += CountMismatch("swap_gc_churn slot shifted", slot, got[3], shifted[slot]);
    }
    return failures;
  }

 private:
  struct Op {
    uint64_t write_slot = 0;
    uint64_t value = 0;
    uint64_t read_slot = 0;
    uint64_t shift = 0;
  };

  // a1 carrier, a2 churn heap, a3 table, a4 input chunk, a5 object; r3 slot, r4 value,
  // r5 shift count, r6 scratch and check difference.
  static ProgramRef Program() {
    Assembler a("swap-churn");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .LoadAd(kDirAd, 1, 2);
    EmitInputPrologue(a, 4);
    a.Bind(loop)
        .Move(kArgReg, 0)
        .OsCall(kServiceIssue)
        .LoadDataIndexed(3, 4, 2, 0)
        .LoadDataIndexed(4, 4, 2, 8)
        .CreateObject(5, 2, kObjectBytes)
        .StoreData(5, 4, 0)
        .StoreData(5, 0, 8)
        .Add(6, 4, 0)
        .StoreData(5, 6, 16)
        .Move(6, 4)
        .LoadDataIndexed(5, 4, 2, 24);
    EmitShiftLoop(a, 6, 5);
    a.StoreData(5, 6, 24)
        .StoreAdIndexed(3, 5, 3, 0)  // publish; the previous occupant becomes garbage
        .LoadDataIndexed(3, 4, 2, 16)
        .LoadAdIndexed(5, 3, 3, 0)
        .LoadData(4, 5, 0)
        .LoadData(6, 5, 8)
        .Add(4, 4, 6)
        .LoadData(6, 5, 16)
        .Sub(6, 6, 4)
        .ClearAd(5)
        .Move(kArgReg, 0)
        .OsCall(kServiceComplete);
    EmitInputEpilogue(a, 4, kRecordWords * 8, loop);
    return a.Build();
  }

  std::vector<uint64_t> initial_values_;
  std::vector<Op> ops_[kMutators];
  AccessDescriptor table_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"interp_alloc", "request_reply",
                                                 "swap_gc_churn"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "interp_alloc") return std::make_unique<InterpAlloc>(seed);
  if (name == "request_reply") return std::make_unique<RequestReply>(seed);
  if (name == "swap_gc_churn") return std::make_unique<SwapGcChurn>(seed);
  return nullptr;
}

}  // namespace imax432::perfbench

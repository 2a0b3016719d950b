// The instruction set of the emulated 432 GDP, and Program, its container.
//
// The real 432 executed a bit-aligned variable-length instruction stream; reproducing that
// encoding adds nothing to the paper's claims, so instructions here are fixed-size records.
// What *is* reproduced carefully is the instruction repertoire's shape: ordinary data and
// branch operations, access-descriptor manipulation (with the protection side effects in
// AddressingUnit), and the 432's signature *high-level* instructions — create object, send,
// receive, inter-domain call — each charged its microcoded cost from cycle_model.h.
//
// kNative embeds a C++ callback in a program; iMAX system daemons (the garbage collector,
// device servers, schedulers) are ordinary processes whose programs are mostly native steps.
// This mirrors iMAX being "implemented entirely in a superset of Ada": system code runs under
// exactly the same process/dispatching regime as user code.

#ifndef IMAX432_SRC_ISA_PROGRAM_H_
#define IMAX432_SRC_ISA_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/arch/access_descriptor.h"
#include "src/arch/types.h"
#include "src/base/result.h"

namespace imax432 {

class ExecutionContext;  // defined in src/exec/execution_context.h

enum class Opcode : uint8_t {
  // Data operations (registers are per-context: 8 data registers r0..r7).
  kCompute,         // consume `imm` cycles of pure computation
  kLoadImm,         // r[a] = imm64
  kMove,            // r[a] = r[b]
  kAdd,             // r[a] = r[b] + r[c]
  kAddImm,          // r[a] = r[b] + imm (imm sign-extended from 32 bits)
  kSub,             // r[a] = r[b] - r[c]
  kMul,             // r[a] = r[b] * r[c]
  kLoadData,        // r[a] = data part of object at adreg[b], offset imm, width c bytes
  kStoreData,       // data part of object at adreg[a], offset imm, width c bytes = r[b]
  kLoadDataIndexed, // r[a] = data[adreg[b]], offset r[c] + imm, width 8
  kStoreDataIndexed,// data[adreg[a]], offset r[c] + imm, width 8 = r[b]

  // Access descriptor operations (8 AD registers a0..a7 per context).
  kMoveAd,          // adreg[a] = adreg[b]
  kClearAd,         // adreg[a] = null
  kLoadAd,          // adreg[a] = access part of object at adreg[b], slot imm
  kStoreAd,         // access part of object at adreg[a], slot imm = adreg[b]
  kLoadAdIndexed,   // adreg[a] = access[adreg[b]], slot r[c] + imm
  kStoreAdIndexed,  // access[adreg[a]], slot r[c] + imm = adreg[b]
  kRestrictRights,  // adreg[a] = adreg[a] restricted to rights mask imm
  kAdIsNull,        // r[a] = adreg[b].is_null() ? 1 : 0

  // High-level object instructions.
  kCreateObject,    // adreg[a] = create generic object from SRO adreg[b]; data bytes imm,
                    // access slots c; new AD carries all generic rights
  kDestroyObject,   // destroy object at adreg[a] (requires delete rights)
  kCreateSro,       // adreg[a] = create local SRO from parent adreg[b]; bytes imm; the new
                    // SRO allocates at (current context level + 1)
  kDestroySro,      // destroy SRO at adreg[a] and everything allocated from it

  // Interprocess communication.
  kSend,            // send adreg[b] to port adreg[a]; blocks when the port is full
  kReceive,         // adreg[a] = message from port adreg[b]; blocks when empty
  kCondSend,        // r[c] = 1 and send if room, else r[c] = 0 (never blocks)
  kCondReceive,     // r[c] = 1 and adreg[a] = message if available, else r[c] = 0

  // Control transfer.
  kCall,            // inter-domain call: domain adreg[a], entry index imm
  kCallLocal,       // intra-domain call: entry index imm of the current domain
  kReturn,          // return to caller context; top-level return terminates the process
  kBranch,          // pc = imm
  kBranchIfZero,    // if r[a] == 0: pc = imm
  kBranchIfNotZero, // if r[a] != 0: pc = imm
  kBranchIfLess,    // if r[a] < r[b]: pc = imm (unsigned)
  kHalt,            // terminate the process

  // Escapes.
  kNative,          // run native step `imm` of this program
  kOsCall,          // invoke registered kernel service imm (arguments in r/a registers)
};

struct Instruction {
  Opcode op = Opcode::kHalt;
  uint8_t a = 0;
  uint8_t b = 0;
  uint8_t c = 0;
  uint32_t imm = 0;
  uint64_t imm64 = 0;
};

// Outcome of one native step. The interpreter applies the action after charging the cycles.
struct NativeResult {
  enum class Action : uint8_t {
    kContinue,      // fall through to the next instruction
    kJump,          // set pc = jump_target
    kYield,         // reenter the dispatching mix (voluntary time-slice end)
    kHalt,          // terminate the process
    kBlockReceive,  // receive from `port` into adreg `dest_adreg`, blocking if empty
  };
  Action action = Action::kContinue;
  uint32_t jump_target = 0;
  AccessDescriptor port;
  uint8_t dest_adreg = 0;
  Cycles compute = 0;  // cycles of computation this step performed
  Cycles bus = 0;      // interconnect cycles this step performed
};

using NativeFn = std::function<Result<NativeResult>(ExecutionContext&)>;

// Number of data and AD registers per context. Register 7 of each file is the argument /
// return register of the calling convention; AD register 6 is set to the current domain on
// every inter-domain call.
inline constexpr uint8_t kNumDataRegs = 8;
inline constexpr uint8_t kNumAdRegs = 8;
inline constexpr uint8_t kArgReg = 7;
inline constexpr uint8_t kArgAdReg = 7;
inline constexpr uint8_t kDomainAdReg = 6;

// How a program is entered. A process's top-level program starts with a null a6 and the
// loader's initial argument in a7; a domain entry runs only when a call lands in it, with a6
// amplified to the callee's own domain and a7 the caller's argument.
enum class ProgramKind : uint8_t { kProcess, kDomainEntry };

// Well-known OsCall service ids.
namespace os_service {
inline constexpr uint32_t kYield = 1;        // reenter the dispatching mix
inline constexpr uint32_t kGetTime = 2;      // r7 = current virtual time (cycles)
inline constexpr uint32_t kSetPriority = 3;  // set own priority = r7
inline constexpr uint32_t kSetDeadline = 4;  // set own deadline = r7
inline constexpr uint32_t kTimedReceive = 5; // receive from port a7 with timeout r7 cycles;
                                             // message lands in a7; expiry faults kTimeout
                                             // (the "limited set of timeout faults" level-2
                                             // iMAX processes are permitted, §7.3)
inline constexpr uint32_t kFirstPackageService = 16;  // iMAX packages register from here up
}  // namespace os_service

class Program {
 public:
  explicit Program(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<Instruction>& code() const { return code_; }
  const Instruction& at(uint32_t pc) const { return code_[pc]; }
  uint32_t size() const { return static_cast<uint32_t>(code_.size()); }

  uint32_t Append(const Instruction& instruction) {
    code_.push_back(instruction);
    return static_cast<uint32_t>(code_.size() - 1);
  }

  void Patch(uint32_t index, uint32_t imm) { code_[index].imm = imm; }

  uint32_t AddNative(NativeFn fn) {
    natives_.push_back(std::move(fn));
    return static_cast<uint32_t>(natives_.size() - 1);
  }
  const NativeFn* native(uint32_t index) const {
    return index < natives_.size() ? &natives_[index] : nullptr;
  }

 private:
  std::string name_;
  std::vector<Instruction> code_;
  std::vector<NativeFn> natives_;
};

using ProgramRef = std::shared_ptr<const Program>;

}  // namespace imax432

#endif  // IMAX432_SRC_ISA_PROGRAM_H_

// Control-flow graph over a Program's instruction stream.
//
// Basic blocks are maximal straight-line runs: a leader is instruction 0, any branch target,
// and any instruction following a control transfer (branch, return, halt). kCall/kCallLocal/
// kOsCall fall through in the *caller's* stream — the callee executes in a fresh context with
// its own program, so a call is an ordinary instruction from this CFG's point of view.
//
// kNative is special: a native step may return NativeResult::Action::kJump with an arbitrary
// target computed at run time (the GC daemon's batch loop does exactly this), so a program
// containing natives has statically unknowable edges. The CFG records that fact in
// `has_native`; the analyses respond by treating every block as reachable and joining the
// all-unknown state into each block entry (ForwardFixpoint below), which keeps them sound
// (it can only make them more permissive).

#ifndef IMAX432_SRC_ANALYSIS_CFG_H_
#define IMAX432_SRC_ANALYSIS_CFG_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "src/isa/program.h"

namespace imax432 {
namespace analysis {

struct BasicBlock {
  uint32_t begin = 0;  // first instruction index
  uint32_t end = 0;    // one past the last instruction index
  std::vector<uint32_t> successors;  // block ids; branches past program end fall off (exit)
  bool reachable = false;            // from block 0 along static edges
};

class ControlFlowGraph {
 public:
  // Builds the CFG. Branch targets beyond program.size() do not create edges (at run time
  // pc >= size is an implicit return); the verifier reports them separately.
  static ControlFlowGraph Build(const Program& program);

  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const BasicBlock& block(uint32_t id) const { return blocks_[id]; }
  // Block containing instruction `pc`.
  uint32_t block_of(uint32_t pc) const { return block_of_[pc]; }
  bool has_native() const { return has_native_; }
  uint32_t size() const { return static_cast<uint32_t>(blocks_.size()); }

 private:
  std::vector<BasicBlock> blocks_;
  std::vector<uint32_t> block_of_;
  bool has_native_ = false;
};

// True when the instruction ends a basic block (control does not implicitly continue to the
// next instruction in this stream, or continues only conditionally).
bool IsBlockTerminator(Opcode op);

// True when the instruction names a branch target in `imm`.
bool IsBranch(Opcode op);

// The forward worklist fixpoint both per-program analyses run: the capability verifier
// (verifier.h) and the AD-flow pass (effects.h). `State` is a lattice of finite height with
// a monotone `bool Join(const State&)` that returns whether the state grew. Block 0 starts
// from `entry`; when the program has natives, every block also starts from `havoc`, since a
// native step may jump anywhere with any register file. `step(block, state)` applies one
// block's instructions to `state` and returns true when a program-wide fact outside the
// block states grew (the AD-flow pass's dirty set); every visited block then goes round
// again, so loads that consult that fact see its new value. The lowest-numbered pending
// block runs first, and blocks are numbered in program order. Returns each block's fixpoint
// entry state; a block no path reaches stays empty.
template <typename State, typename Step>
std::vector<std::optional<State>> ForwardFixpoint(const ControlFlowGraph& cfg,
                                                  const State& entry, const State& havoc,
                                                  Step step) {
  std::vector<std::optional<State>> in(cfg.size());
  if (cfg.size() == 0) return in;
  std::vector<bool> pending(cfg.size(), false);
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<uint32_t>> worklist;
  auto enqueue = [&](uint32_t block) {
    if (!pending[block]) {
      pending[block] = true;
      worklist.push(block);
    }
  };
  auto seed = [&](uint32_t block, const State& state) {
    if (!in[block]) {
      in[block] = state;
      enqueue(block);
    } else if (in[block]->Join(state)) {
      enqueue(block);
    }
  };

  seed(0, entry);
  if (cfg.has_native()) {
    for (uint32_t block = 0; block < cfg.size(); ++block) seed(block, havoc);
  }
  while (!worklist.empty()) {
    const uint32_t block = worklist.top();
    worklist.pop();
    pending[block] = false;
    State state = *in[block];
    const bool grew = step(block, state);
    for (uint32_t successor : cfg.block(block).successors) seed(successor, state);
    if (grew) {
      for (uint32_t other = 0; other < cfg.size(); ++other) {
        if (in[other]) enqueue(other);
      }
    }
  }
  return in;
}

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_CFG_H_

// The iMAX port packages: Untyped_Ports and the generic Typed_Ports (paper figures 1 & 2).
//
// "The applications interface to iMAX is a set of Ada package specifications ... the iMAX
// user sees no difference whatsoever between calling an operating system subprogram and
// calling some user-defined subprogram."
//
// UntypedPorts corresponds to `package Untyped_Ports`: Create is software-implemented (only
// this package can construct port objects); Send and Receive "will correspond to single
// instructions" — here, the kSend/kReceive opcodes, emitted inline by EmitSend/EmitReceive
// exactly as the Ada `pragma inline` expanded them.
//
// TypedPorts<UserMessage> corresponds to `generic package Typed_Ports`: a compile-time-typed
// veneer whose generated code is *identical* to the untyped package ("the user of typed
// ports suffers no penalty relative to even a hypothetical assembly language programmer").
// C++ templates play the role of Ada generics; the phantom message type is checked entirely
// at compile time and erased thereafter — EmitSend/EmitReceive forward to the untyped
// emitters, so the instruction streams are bit-identical (asserted by tests and measured by
// bench E4).
//
// CheckedPorts<UserMessage> is the further step the paper sketches: "It is possible to take
// the idea of typed ports one step further in the 432 to provide the type checking
// dynamically at runtime. The implementation would require a few more generated
// instructions making use of user-defined types." Its receive emits one extra native type
// check against the message type's TDO.

#ifndef IMAX432_SRC_OS_PORTS_API_H_
#define IMAX432_SRC_OS_PORTS_API_H_

#include "src/exec/kernel.h"
#include "src/os/type_manager.h"

namespace imax432 {

// An untyped port handle: the Ada `type port is access ...` value.
struct Port {
  AnyAccess ad;
};

class UntypedPorts {
 public:
  static constexpr uint16_t kMaxMessageCount = PortSubsystem::kMaxMessageCount;

  explicit UntypedPorts(Kernel* kernel) : kernel_(kernel) {}

  // function Create_port(message_count; port_discipline := FIFO) return port;
  // Software-implemented: constructs the port object. The returned AD carries send+receive
  // rights; hand out restricted copies to confine a party to one direction.
  Result<Port> Create(uint16_t message_count,
                      QueueDiscipline discipline = QueueDiscipline::kFifo) {
    IMAX_ASSIGN_OR_RETURN(AccessDescriptor ad,
                          kernel_->ports().CreatePort(kernel_->memory().global_heap(),
                                                      message_count, discipline));
    return Port{ad};
  }

  // procedure Send(prt, msg) / procedure Receive(prt, msg: out) — the inline expansions.
  // These emit the single hardware instruction into a program under construction.
  static Assembler& EmitSend(Assembler& a, uint8_t port_adreg, uint8_t msg_adreg) {
    return a.Send(port_adreg, msg_adreg);
  }
  static Assembler& EmitReceive(Assembler& a, uint8_t dst_adreg, uint8_t port_adreg) {
    return a.Receive(dst_adreg, port_adreg);
  }

  // Host-side conveniences for boot code and tests (outside virtual time). They behave as
  // the instructions do (a Receive admits a blocked sender) but never block: they fault
  // with kQueueFull and kQueueEmpty instead.
  Status Send(const Port& port, const AnyAccess& message) {
    return kernel_->PostMessage(port.ad, message);
  }
  Result<AnyAccess> Receive(const Port& port) { return kernel_->ReceiveMessage(port.ad); }

 private:
  Kernel* kernel_;
};

// The generic package: one instance per user message type. `UserMessage` is any C++ tag
// type; message values are ADs branded with the tag.
template <typename UserMessage>
class TypedPorts {
 public:
  struct UserPort {
    AnyAccess ad;  // "type user_port is new port" — same representation, new name
  };
  struct Message {
    AnyAccess ad;
  };

  explicit TypedPorts(Kernel* kernel) : untyped_(kernel) {}

  Result<UserPort> Create(uint16_t message_count,
                          QueueDiscipline discipline = QueueDiscipline::kFifo) {
    IMAX_ASSIGN_OR_RETURN(Port port, untyped_.Create(message_count, discipline));
    return UserPort{port.ad};
  }

  // The emitted code is identical to Untyped_Ports' — the zero-penalty claim. The
  // unchecked_conversion of the Ada body is the brand-erasing forward below.
  static Assembler& EmitSend(Assembler& a, uint8_t port_adreg, uint8_t msg_adreg) {
    return UntypedPorts::EmitSend(a, port_adreg, msg_adreg);
  }
  static Assembler& EmitReceive(Assembler& a, uint8_t dst_adreg, uint8_t port_adreg) {
    return UntypedPorts::EmitReceive(a, dst_adreg, port_adreg);
  }

  // Host-side typed conveniences: only Message values of this instance's type compile.
  Status Send(const UserPort& port, const Message& message) {
    return untyped_.Send(Port{port.ad}, message.ad);
  }
  Result<Message> Receive(const UserPort& port) {
    IMAX_ASSIGN_OR_RETURN(AnyAccess ad, untyped_.Receive(Port{port.ad}));
    return Message{ad};
  }

 private:
  UntypedPorts untyped_;
};

// Runtime-checked ports: the dynamic type check the paper sketches, using the user type
// definition facility. Receive verifies the message against the instance's TDO; a mismatch
// faults the receiver with kTypeMismatch.
template <typename UserMessage>
class CheckedPorts {
 public:
  struct UserPort {
    AnyAccess ad;
  };

  CheckedPorts(Kernel* kernel, TypeManagerFacility* types, const AccessDescriptor& tdo)
      : kernel_(kernel), types_(types), tdo_(tdo), untyped_(kernel) {}

  Result<UserPort> Create(uint16_t message_count,
                          QueueDiscipline discipline = QueueDiscipline::kFifo) {
    IMAX_ASSIGN_OR_RETURN(Port port, untyped_.Create(message_count, discipline));
    return UserPort{port.ad};
  }

  // Send is unchanged; receive appends the runtime type check ("a few more generated
  // instructions making use of user-defined types").
  Assembler& EmitSend(Assembler& a, uint8_t port_adreg, uint8_t msg_adreg) {
    return UntypedPorts::EmitSend(a, port_adreg, msg_adreg);
  }
  Assembler& EmitReceive(Assembler& a, uint8_t dst_adreg, uint8_t port_adreg) {
    UntypedPorts::EmitReceive(a, dst_adreg, port_adreg);
    a.Native([types = types_, tdo = tdo_, dst_adreg](ExecutionContext& env)
                 -> Result<NativeResult> {
      IMAX_RETURN_IF_FAULT(types->CheckType(env.ad_reg(dst_adreg), tdo));
      NativeResult r;
      r.compute = cycles::kSimpleOp * 4;  // the extra generated instructions
      return r;
    });
    return a;
  }

  const AccessDescriptor& tdo() const { return tdo_; }

 private:
  Kernel* kernel_;
  TypeManagerFacility* types_;
  AccessDescriptor tdo_;
  UntypedPorts untyped_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OS_PORTS_API_H_

#include "src/io/device.h"

#include <vector>

#include "src/base/check.h"

namespace imax432 {

Result<std::unique_ptr<DeviceServer>> DeviceServer::Spawn(Kernel* kernel,
                                                          std::unique_ptr<DeviceModel> model,
                                                          uint8_t priority) {
  auto server = std::unique_ptr<DeviceServer>(new DeviceServer());
  server->model_ = std::move(model);

  IMAX_ASSIGN_OR_RETURN(server->request_port_,
                        kernel->ports().CreatePort(kernel->memory().global_heap(), 32,
                                                   QueueDiscipline::kFifo));
  AccessDescriptor request_port = server->request_port_;
  kernel->AddRootProvider(
      [request_port](std::vector<AccessDescriptor>* roots) { roots->push_back(request_port); });

  DeviceServer* raw = server.get();
  Assembler a(server->model_->kind());
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Native([request_port](ExecutionContext&) -> Result<NativeResult> {
    NativeResult r;
    r.action = NativeResult::Action::kBlockReceive;
    r.port = request_port;
    r.dest_adreg = 3;
    r.compute = cycles::kReceive;
    return r;
  });
  a.Native([raw, kernel](ExecutionContext& env) -> Result<NativeResult> {
    AccessDescriptor request = env.ad_reg(3);
    env.set_ad_reg(3, AccessDescriptor());
    NativeResult r;
    if (!request.is_null()) {
      auto cost = raw->Serve(kernel, request);
      r.compute = cost.ok() ? cost.value() : cycles::kSimpleOp;
      // Device transfers move data over the interconnect too.
      r.bus = r.compute / 16;
    }
    return r;
  });
  a.Branch(loop);

  ProcessOptions options;
  options.priority = priority;
  options.imax_level = kImaxLevelServices;
  IMAX_ASSIGN_OR_RETURN(server->server_process_, kernel->CreateProcess(a.Build(), options));
  IMAX_RETURN_IF_FAULT(kernel->StartProcess(server->server_process_));
  return server;
}

Result<Cycles> DeviceServer::Serve(Kernel* kernel, const AccessDescriptor& request) {
  AddressingUnit& au = kernel->machine().addressing();
  ObjectView view(&au, request);
  ++stats_.requests;

  uint8_t op = static_cast<uint8_t>(view.Field(IoRequestLayout::kOffOp, 1));
  uint32_t offset = static_cast<uint32_t>(view.Field(IoRequestLayout::kOffOffset, 4));
  uint32_t length = static_cast<uint32_t>(view.Field(IoRequestLayout::kOffLength, 4));
  AccessDescriptor buffer = view.Slot(IoRequestLayout::kSlotBuffer);
  AccessDescriptor reply_port = view.Slot(IoRequestLayout::kSlotReplyPort);

  IoOutcome outcome;
  switch (op) {
    case io_op::kRead: {
      std::vector<uint8_t> data(length);
      outcome = model_->Read(offset, data.data(), length);
      if (outcome.status == io_status::kOk && outcome.actual > 0) {
        Status stored = au.WriteDataBlock(buffer, 0, data.data(), outcome.actual);
        if (!stored.ok()) {
          outcome.status = io_status::kDeviceFault;
        } else {
          stats_.bytes_read += outcome.actual;
        }
      }
      break;
    }
    case io_op::kWrite: {
      std::vector<uint8_t> data(length);
      Status loaded = au.ReadDataBlock(buffer, 0, data.data(), length);
      if (!loaded.ok()) {
        outcome.status = io_status::kDeviceFault;
      } else {
        outcome = model_->Write(offset, data.data(), length);
        stats_.bytes_written += outcome.actual;
      }
      break;
    }
    case io_op::kStatus:
      outcome.value = model_->StatusWord();
      outcome.cost = cycles::kSimpleOp * 4;
      break;
    default:
      // Class- or device-dependent operation: the model decides whether it exists.
      outcome = model_->Control(op, offset);
      break;
  }
  if (outcome.status != io_status::kOk) {
    ++stats_.errors;
  }

  view.SetField(IoRequestLayout::kOffStatus, 1, outcome.status);
  view.SetField(IoRequestLayout::kOffActual, 4, outcome.actual);
  view.SetField(IoRequestLayout::kOffValue, 8, outcome.value);

  if (!reply_port.is_null()) {
    (void)kernel->PostMessage(reply_port, request);
  }
  return outcome.cost;
}

IoClient::IoClient(Kernel* kernel) : kernel_(kernel) {
  auto port = kernel_->ports().CreatePort(kernel_->memory().global_heap(), 8,
                                          QueueDiscipline::kFifo);
  IMAX_CHECK(port.ok());
  reply_port_ = port.value();
  kernel_->AddRootProvider([port = reply_port_](std::vector<AccessDescriptor>* roots) {
    roots->push_back(port);
  });
}

Result<IoOutcome> IoClient::Execute(const AccessDescriptor& device_port,
                                    const AccessDescriptor& request) {
  IMAX_RETURN_IF_FAULT(kernel_->PostMessage(device_port, request));
  kernel_->Run();  // let the server process the request in virtual time
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor reply, kernel_->ReceiveMessage(reply_port_));
  if (!reply.SameObject(request)) {
    return Fault::kWrongState;
  }
  ObjectView view(&kernel_->machine().addressing(), reply);
  IoOutcome outcome;
  outcome.status = static_cast<uint8_t>(view.Field(IoRequestLayout::kOffStatus, 1));
  outcome.actual = static_cast<uint32_t>(view.Field(IoRequestLayout::kOffActual, 4));
  outcome.value = view.Field(IoRequestLayout::kOffValue, 8);
  return outcome;
}

Result<IoOutcome> IoClient::Transfer(const AccessDescriptor& device_port, uint8_t op,
                                     uint32_t offset, const AccessDescriptor& buffer,
                                     uint32_t length) {
  IMAX_ASSIGN_OR_RETURN(
      AccessDescriptor request,
      kernel_->memory().CreateObject(kernel_->memory().global_heap(), SystemType::kGeneric,
                                     IoRequestLayout::kDataBytes,
                                     IoRequestLayout::kAccessSlots,
                                     rights::kRead | rights::kWrite | rights::kDelete));
  ObjectView view(&kernel_->machine().addressing(), request);
  view.SetField(IoRequestLayout::kOffOp, 1, op);
  view.SetField(IoRequestLayout::kOffOffset, 4, offset);
  view.SetField(IoRequestLayout::kOffLength, 4, length);
  IMAX_RETURN_IF_FAULT(
      kernel_->machine().addressing().WriteAd(request, IoRequestLayout::kSlotBuffer, buffer));
  view.SetSlot(IoRequestLayout::kSlotReplyPort, reply_port_);
  auto outcome = Execute(device_port, request);
  (void)kernel_->memory().DestroyObject(request);
  return outcome;
}

Result<IoOutcome> IoClient::Control(const AccessDescriptor& device_port, uint8_t op,
                                    uint32_t argument) {
  IMAX_ASSIGN_OR_RETURN(
      AccessDescriptor request,
      kernel_->memory().CreateObject(kernel_->memory().global_heap(), SystemType::kGeneric,
                                     IoRequestLayout::kDataBytes,
                                     IoRequestLayout::kAccessSlots,
                                     rights::kRead | rights::kWrite | rights::kDelete));
  ObjectView view(&kernel_->machine().addressing(), request);
  view.SetField(IoRequestLayout::kOffOp, 1, op);
  view.SetField(IoRequestLayout::kOffOffset, 4, argument);
  view.SetSlot(IoRequestLayout::kSlotReplyPort, reply_port_);
  auto outcome = Execute(device_port, request);
  (void)kernel_->memory().DestroyObject(request);
  return outcome;
}

}  // namespace imax432

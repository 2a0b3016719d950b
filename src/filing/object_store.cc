#include "src/filing/object_store.h"

namespace imax432 {

namespace {

// Little-endian serialization for journal payloads. Every variable-length field is
// length-prefixed, so payloads decode sequentially with pure bounds checks.
void PutU32(std::vector<uint8_t>& out, uint32_t value) {
  out.push_back(static_cast<uint8_t>(value));
  out.push_back(static_cast<uint8_t>(value >> 8));
  out.push_back(static_cast<uint8_t>(value >> 16));
  out.push_back(static_cast<uint8_t>(value >> 24));
}

void PutString(std::vector<uint8_t>& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void PutBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// Bounds-checked sequential reader. The journal CRC already vouches for payload integrity,
// but a checkpoint forged by a test (or a future format revision) must fail with
// kFilingFormatError, never with an out-of-range read.
struct Cursor {
  const std::vector<uint8_t>& buf;
  size_t pos = 0;
  bool ok = true;

  uint32_t U32() {
    if (!ok || buf.size() - pos < 4) {
      ok = false;
      return 0;
    }
    uint32_t v = static_cast<uint32_t>(buf[pos]) | static_cast<uint32_t>(buf[pos + 1]) << 8 |
                 static_cast<uint32_t>(buf[pos + 2]) << 16 |
                 static_cast<uint32_t>(buf[pos + 3]) << 24;
    pos += 4;
    return v;
  }
  std::string Str() {
    uint32_t len = U32();
    if (!ok || buf.size() - pos < len) {
      ok = false;
      return {};
    }
    std::string s(buf.begin() + pos, buf.begin() + pos + len);
    pos += len;
    return s;
  }
  std::vector<uint8_t> Bytes() {
    uint32_t len = U32();
    if (!ok || buf.size() - pos < len) {
      ok = false;
      return {};
    }
    std::vector<uint8_t> b(buf.begin() + pos, buf.begin() + pos + len);
    pos += len;
    return b;
  }
  bool Done() const { return ok && pos == buf.size(); }
};

uint32_t HashName(const std::string& name) {
  uint32_t hash = 2166136261u;
  for (char c : name) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace

Result<ObjectStore::Image> ObjectStore::Capture(const AccessDescriptor& object) const {
  IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* descriptor,
                        kernel_->machine().table().Resolve(object));
  if (!object.HasRights(rights::kRead)) {
    return Fault::kRightsViolation;
  }
  Image image;
  auto type_id = types_->TypeIdOf(object);
  image.type_id = type_id.ok() ? type_id.value() : 0;
  image.data.resize(descriptor->data_length);
  if (descriptor->data_length > 0) {
    IMAX_RETURN_IF_FAULT(kernel_->machine().addressing().ReadDataBlock(
        object, 0, image.data.data(), descriptor->data_length));
  }
  return image;
}

void ObjectStore::EmitTrace(FilingOpKind op, uint32_t b, const std::string& name) const {
  kernel_->machine().trace().Emit(TraceEventKind::kFilingOp, kernel_->machine().now(),
                                  kTraceNoProcessor, kTraceNoProcess,
                                  static_cast<uint32_t>(op), b, HashName(name));
}

Status ObjectStore::JournalMutation(JournalRecordType type,
                                    const std::vector<uint8_t>& payload) {
  if (journal_ == nullptr) {
    return Status::Ok();
  }
  Status status = journal_->Commit(type, payload);
  if (!status.ok()) {
    // WAL discipline: a mutation that cannot reach the log must not reach memory either,
    // or a crash would silently lose it after the caller saw success.
    ++stats_.journal_rejections;
    return status;
  }
  ++stats_.journaled_mutations;
  return Status::Ok();
}

void ObjectStore::MaybeCheckpoint() {
  if (journal_ == nullptr || checkpoint_interval_ == 0) {
    return;
  }
  if (++mutations_since_checkpoint_ < checkpoint_interval_) {
    return;
  }
  mutations_since_checkpoint_ = 0;
  // Best-effort: a failed compaction leaves the (longer but valid) log in place.
  (void)Checkpoint();
}

Status ObjectStore::Checkpoint() {
  if (journal_ == nullptr) {
    return Fault::kWrongState;
  }
  IMAX_RETURN_IF_FAULT(journal_->WriteCheckpoint(EncodeSnapshot()));
  return Status::Ok();
}

Status ObjectStore::File(const std::string& name, const AccessDescriptor& object) {
  IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* descriptor,
                        kernel_->machine().table().Resolve(object));
  // Only fully passive objects file under the plain form: live capabilities cannot enter a
  // passive store (use FileComposite for linked structures).
  for (const AccessDescriptor& slot : descriptor->access) {
    if (!slot.is_null()) {
      return Fault::kInvalidArgument;
    }
  }
  IMAX_ASSIGN_OR_RETURN(Image image, Capture(object));

  std::vector<uint8_t> payload;
  PutString(payload, name);
  PutU32(payload, image.type_id);
  PutBytes(payload, image.data);
  IMAX_RETURN_IF_FAULT(JournalMutation(JournalRecordType::kFileImage, payload));

  uint32_t bytes = static_cast<uint32_t>(image.data.size());
  images_[name] = std::move(image);
  composites_.erase(name);  // one namespace: the new image shadows nothing
  ++stats_.filed;
  EmitTrace(FilingOpKind::kFile, bytes, name);
  MaybeCheckpoint();
  return Status::Ok();
}

Status ObjectStore::FileComposite(const std::string& name, const AccessDescriptor& root) {
  // Breadth-first closure over the access graph. Each discovered object becomes a node;
  // every AD becomes an (slot -> node) edge — structure, not capability.
  Composite composite;
  std::map<ObjectIndex, uint32_t> node_of;
  std::vector<AccessDescriptor> worklist = {root};
  IMAX_RETURN_IF_FAULT(kernel_->machine().table().Resolve(root).ok()
                           ? Status::Ok()
                           : Status(Fault::kNullAccess));
  node_of[root.index()] = 0;
  composite.nodes.emplace_back();

  for (size_t cursor = 0; cursor < worklist.size(); ++cursor) {
    AccessDescriptor current = worklist[cursor];
    IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* descriptor,
                          kernel_->machine().table().Resolve(current));
    // Build into a local: composite.nodes grows inside the loop, so references into it
    // would dangle.
    Node node;
    IMAX_ASSIGN_OR_RETURN(node.image, Capture(current));
    node.access_slots = descriptor->access_count();
    for (uint32_t slot = 0; slot < descriptor->access_count(); ++slot) {
      const AccessDescriptor& edge = descriptor->access[slot];
      if (edge.is_null()) {
        continue;
      }
      if (!kernel_->machine().table().Resolve(edge).ok()) {
        return Fault::kInvalidAccess;  // dangling edges do not file
      }
      auto it = node_of.find(edge.index());
      uint32_t target;
      if (it == node_of.end()) {
        target = static_cast<uint32_t>(composite.nodes.size());
        node_of[edge.index()] = target;
        composite.nodes.emplace_back();
        worklist.push_back(edge);
      } else {
        target = it->second;
      }
      node.edges.emplace_back(slot, target);
    }
    composite.nodes[node_of[current.index()]] = std::move(node);
  }

  std::vector<uint8_t> payload;
  PutString(payload, name);
  PutU32(payload, static_cast<uint32_t>(composite.nodes.size()));
  for (const Node& node : composite.nodes) {
    PutU32(payload, node.image.type_id);
    PutBytes(payload, node.image.data);
    PutU32(payload, node.access_slots);
    PutU32(payload, static_cast<uint32_t>(node.edges.size()));
    for (const auto& [slot, target] : node.edges) {
      PutU32(payload, slot);
      PutU32(payload, target);
    }
  }
  IMAX_RETURN_IF_FAULT(JournalMutation(JournalRecordType::kFileComposite, payload));

  uint32_t nodes = static_cast<uint32_t>(composite.nodes.size());
  composites_[name] = std::move(composite);
  images_.erase(name);
  ++stats_.filed;
  EmitTrace(FilingOpKind::kFileComposite, nodes, name);
  MaybeCheckpoint();
  return Status::Ok();
}

void ObjectStore::DestroyAll(const std::vector<AccessDescriptor>& created) {
  if (created.empty()) {
    return;
  }
  for (const AccessDescriptor& ad : created) {
    (void)kernel_->memory().DestroyObject(ad);
  }
  ++stats_.retrieve_cleanups;
}

Result<AccessDescriptor> ObjectStore::RetrieveComposite(const std::string& name,
                                                        const AccessDescriptor& sro,
                                                        const TdoResolver& resolver) {
  auto it = composites_.find(name);
  if (it == composites_.end()) {
    return Fault::kNotFound;
  }
  const Composite& composite = it->second;

  // Pass 1: materialize every node (type identity restored through the resolver's TDOs).
  // Any failure destroys the partial graph before surfacing: retrieval is atomic — the
  // caller sees either the whole composite or none of it.
  std::vector<AccessDescriptor> fresh;
  fresh.reserve(composite.nodes.size());
  for (const Node& node : composite.nodes) {
    AccessDescriptor object;
    uint32_t data_bytes = static_cast<uint32_t>(node.image.data.size());
    if (node.image.type_id != 0) {
      AccessDescriptor tdo = resolver ? resolver(node.image.type_id) : AccessDescriptor();
      if (tdo.is_null()) {
        ++stats_.type_checks_failed;
        DestroyAll(fresh);
        return Fault::kTypeMismatch;
      }
      auto created = types_->CreateTypedObject(tdo, sro, data_bytes, node.access_slots,
                                               rights::kRead | rights::kWrite |
                                                   rights::kDelete);
      if (!created.ok()) {
        DestroyAll(fresh);
        return created.fault();
      }
      object = created.value();
    } else {
      auto created = kernel_->memory().CreateObject(sro, SystemType::kGeneric, data_bytes,
                                                    node.access_slots,
                                                    rights::kRead | rights::kWrite |
                                                        rights::kDelete);
      if (!created.ok()) {
        DestroyAll(fresh);
        return created.fault();
      }
      object = created.value();
    }
    fresh.push_back(object);
    if (data_bytes > 0) {
      Status wrote = kernel_->machine().addressing().WriteDataBlock(
          object, 0, node.image.data.data(), data_bytes);
      if (!wrote.ok()) {
        DestroyAll(fresh);
        return wrote.fault();
      }
    }
  }
  // Pass 2: rebuild the edges with checked stores (all nodes share the SRO's level, so the
  // level rule is trivially satisfied within the graph).
  for (size_t i = 0; i < composite.nodes.size(); ++i) {
    for (const auto& [slot, target] : composite.nodes[i].edges) {
      Status linked = kernel_->machine().addressing().WriteAd(fresh[i], slot, fresh[target]);
      if (!linked.ok()) {
        DestroyAll(fresh);
        return linked.fault();
      }
    }
  }
  ++stats_.retrieved;
  EmitTrace(FilingOpKind::kRetrieveComposite,
            static_cast<uint32_t>(composite.nodes.size()), name);
  return fresh[0];
}

Result<uint32_t> ObjectStore::CompositeSize(const std::string& name) const {
  auto it = composites_.find(name);
  if (it == composites_.end()) {
    return Fault::kNotFound;
  }
  return static_cast<uint32_t>(it->second.nodes.size());
}

Result<AccessDescriptor> ObjectStore::Retrieve(const std::string& name,
                                               const AccessDescriptor& sro,
                                               const AccessDescriptor& tdo) {
  auto it = images_.find(name);
  if (it == images_.end()) {
    return Fault::kNotFound;
  }
  const Image& image = it->second;

  AccessDescriptor object;
  if (image.type_id != 0) {
    // The image is typed: it may only come back to life through its own type definition.
    if (tdo.is_null()) {
      ++stats_.type_checks_failed;
      return Fault::kTypeMismatch;
    }
    auto tdo_descriptor = kernel_->machine().table().Resolve(tdo);
    if (!tdo_descriptor.ok()) {
      return tdo_descriptor.fault();
    }
    auto tdo_type_id = kernel_->machine().memory().Read(
        tdo_descriptor.value()->data_base + TdoLayout::kOffTypeId, 4);
    if (!tdo_type_id.ok() || tdo_type_id.value() != image.type_id) {
      ++stats_.type_checks_failed;
      return Fault::kTypeMismatch;
    }
    IMAX_ASSIGN_OR_RETURN(
        object, types_->CreateTypedObject(tdo, sro,
                                          static_cast<uint32_t>(image.data.size()), 0,
                                          rights::kRead | rights::kWrite | rights::kDelete));
  } else {
    if (!tdo.is_null()) {
      ++stats_.type_checks_failed;
      return Fault::kTypeMismatch;  // asking for a typed view of an untyped image
    }
    IMAX_ASSIGN_OR_RETURN(
        object, kernel_->memory().CreateObject(
                    sro, SystemType::kGeneric, static_cast<uint32_t>(image.data.size()), 0,
                    rights::kRead | rights::kWrite | rights::kDelete));
  }
  if (!image.data.empty()) {
    Status wrote = kernel_->machine().addressing().WriteDataBlock(
        object, 0, image.data.data(), static_cast<uint32_t>(image.data.size()));
    if (!wrote.ok()) {
      DestroyAll({object});
      return wrote.fault();
    }
  }
  ++stats_.retrieved;
  EmitTrace(FilingOpKind::kRetrieve, static_cast<uint32_t>(image.data.size()), name);
  return object;
}

Status ObjectStore::Remove(const std::string& name) {
  if (!Contains(name)) {
    return Fault::kNotFound;  // nothing to remove, so nothing to journal
  }
  std::vector<uint8_t> payload;
  PutString(payload, name);
  IMAX_RETURN_IF_FAULT(JournalMutation(JournalRecordType::kRemove, payload));
  images_.erase(name);
  composites_.erase(name);
  ++stats_.removed;
  EmitTrace(FilingOpKind::kRemove, 0, name);
  MaybeCheckpoint();
  return Status::Ok();
}

Result<uint32_t> ObjectStore::FiledTypeId(const std::string& name) const {
  auto it = images_.find(name);
  if (it != images_.end()) {
    return it->second.type_id;
  }
  auto cit = composites_.find(name);
  if (cit != composites_.end()) {
    return cit->second.nodes.empty() ? 0u : cit->second.nodes[0].image.type_id;
  }
  return Fault::kNotFound;
}

// --- Journal serialization and recovery ---

uint64_t ObjectStore::StateDigest() const {
  std::vector<uint8_t> snapshot = EncodeSnapshot();
  uint64_t hash = 1469598103934665603ull;
  for (uint8_t byte : snapshot) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::vector<uint8_t> ObjectStore::EncodeSnapshot() const {
  // Snapshot = every live image and composite, re-encoded exactly as its mutation payload
  // so checkpoint replay shares the decoder with ordinary records.
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(images_.size()));
  for (const auto& [name, image] : images_) {
    PutString(out, name);
    PutU32(out, image.type_id);
    PutBytes(out, image.data);
  }
  PutU32(out, static_cast<uint32_t>(composites_.size()));
  for (const auto& [name, composite] : composites_) {
    PutString(out, name);
    PutU32(out, static_cast<uint32_t>(composite.nodes.size()));
    for (const Node& node : composite.nodes) {
      PutU32(out, node.image.type_id);
      PutBytes(out, node.image.data);
      PutU32(out, node.access_slots);
      PutU32(out, static_cast<uint32_t>(node.edges.size()));
      for (const auto& [slot, target] : node.edges) {
        PutU32(out, slot);
        PutU32(out, target);
      }
    }
  }
  return out;
}

namespace {

// Decodes one image payload body (after the name) into an ObjectStore-shaped pair.
bool DecodeImageBody(Cursor& cursor, uint32_t* type_id, std::vector<uint8_t>* data) {
  *type_id = cursor.U32();
  *data = cursor.Bytes();
  return cursor.ok;
}

}  // namespace

Status ObjectStore::ApplyJournalRecord(JournalRecordType type,
                                       const std::vector<uint8_t>& payload) {
  Cursor cursor{payload};
  switch (type) {
    case JournalRecordType::kFileImage: {
      std::string name = cursor.Str();
      Image image;
      if (!DecodeImageBody(cursor, &image.type_id, &image.data) || !cursor.Done()) {
        return Fault::kFilingFormatError;
      }
      images_[name] = std::move(image);
      composites_.erase(name);
      ++stats_.recovered_images;
      return Status::Ok();
    }
    case JournalRecordType::kFileComposite: {
      std::string name = cursor.Str();
      Composite composite;
      uint32_t node_count = cursor.U32();
      for (uint32_t i = 0; cursor.ok && i < node_count; ++i) {
        Node node;
        if (!DecodeImageBody(cursor, &node.image.type_id, &node.image.data)) {
          break;
        }
        node.access_slots = cursor.U32();
        uint32_t edge_count = cursor.U32();
        for (uint32_t e = 0; cursor.ok && e < edge_count; ++e) {
          uint32_t slot = cursor.U32();
          uint32_t target = cursor.U32();
          node.edges.emplace_back(slot, target);
        }
        composite.nodes.push_back(std::move(node));
      }
      if (!cursor.Done() || composite.nodes.size() != node_count) {
        return Fault::kFilingFormatError;
      }
      composites_[name] = std::move(composite);
      images_.erase(name);
      ++stats_.recovered_composites;
      return Status::Ok();
    }
    case JournalRecordType::kRemove: {
      std::string name = cursor.Str();
      if (!cursor.Done()) {
        return Fault::kFilingFormatError;
      }
      images_.erase(name);
      composites_.erase(name);
      return Status::Ok();
    }
    case JournalRecordType::kCheckpoint: {
      images_.clear();
      composites_.clear();
      uint32_t image_count = cursor.U32();
      for (uint32_t i = 0; cursor.ok && i < image_count; ++i) {
        std::string name = cursor.Str();
        Image image;
        if (!DecodeImageBody(cursor, &image.type_id, &image.data)) {
          break;
        }
        images_[name] = std::move(image);
        ++stats_.recovered_images;
      }
      uint32_t composite_count = cursor.ok ? cursor.U32() : 0;
      for (uint32_t c = 0; cursor.ok && c < composite_count; ++c) {
        std::string name = cursor.Str();
        Composite composite;
        uint32_t node_count = cursor.U32();
        for (uint32_t i = 0; cursor.ok && i < node_count; ++i) {
          Node node;
          if (!DecodeImageBody(cursor, &node.image.type_id, &node.image.data)) {
            break;
          }
          node.access_slots = cursor.U32();
          uint32_t edge_count = cursor.U32();
          for (uint32_t e = 0; cursor.ok && e < edge_count; ++e) {
            uint32_t slot = cursor.U32();
            uint32_t target = cursor.U32();
            node.edges.emplace_back(slot, target);
          }
          composite.nodes.push_back(std::move(node));
        }
        if (cursor.ok) {
          composites_[name] = std::move(composite);
          ++stats_.recovered_composites;
        }
      }
      if (!cursor.Done()) {
        // A malformed checkpoint must not leave half a snapshot pretending to be the
        // store: recovery falls back to empty-at-this-point and later records still apply.
        images_.clear();
        composites_.clear();
        return Fault::kFilingFormatError;
      }
      return Status::Ok();
    }
    case JournalRecordType::kCommit:
      return Fault::kInvalidArgument;  // commits seal transactions; they carry no state
  }
  return Fault::kInvalidArgument;
}

Status ObjectStore::Recover() {
  IMAX_CHECK(journal_ != nullptr);
  images_.clear();
  composites_.clear();
  mutations_since_checkpoint_ = 0;

  const JournalStats before = journal_->stats();
  Status replayed = journal_->Replay(
      [this](JournalRecordType type, const std::vector<uint8_t>& payload) {
        return ApplyJournalRecord(type, payload);
      });
  ++stats_.recoveries;
  const JournalStats& after = journal_->stats();
  uint32_t applied =
      static_cast<uint32_t>(after.replayed_transactions - before.replayed_transactions);
  uint32_t dropped = static_cast<uint32_t>(
      (after.rolled_back_transactions - before.rolled_back_transactions) +
      (after.corrupt_records_dropped - before.corrupt_records_dropped) +
      (after.orphan_commits - before.orphan_commits) +
      (after.torn_tail_truncations - before.torn_tail_truncations));
  kernel_->machine().trace().Emit(TraceEventKind::kFilingOp, kernel_->machine().now(),
                                  kTraceNoProcessor, kTraceNoProcess,
                                  static_cast<uint32_t>(FilingOpKind::kJournalReplay),
                                  applied, dropped);
  if (!replayed.ok()) {
    return replayed;  // unreadable device: boot proceeds with an empty store
  }
  // Compact the recovered state so torn garbage does not accumulate across restarts. A
  // failed compaction is tolerable — the pre-checkpoint log is still valid.
  (void)Checkpoint();
  return Status::Ok();
}

}  // namespace imax432

#include "src/ssddev/file_client.h"

#include <utility>

#include "src/base/check.h"

namespace lastcpu::ssddev {

FileClient::FileClient(dev::Device* host, Pasid pasid, FileClientConfig config)
    : host_(host), pasid_(pasid), config_(config) {
  LASTCPU_CHECK(host != nullptr, "file client needs a host device");
  if (host_->fabric() != nullptr) {
    bells_ = std::make_unique<fabric::DoorbellBatcher>(host_->fabric(), host_->id());
  }
  // The RPC layer aborts control transactions to a failed peer on its own;
  // this hook extends the same guarantee to the virtqueue data plane.
  peer_failed_hook_ = host_->AddPeerFailedHook([this](DeviceId device) {
    if (device == provider_ && provider_.valid()) {
      Reset(Unavailable("file provider " + std::to_string(device.value()) + " failed"));
    }
  });
  permanent_failed_hook_ = host_->AddPeerPermanentlyFailedHook([this](DeviceId device) {
    if (device == provider_ && provider_.valid()) {
      Reset(Unavailable("file provider " + std::to_string(device.value()) +
                        " permanently failed"));
    }
  });
}

FileClient::~FileClient() {
  host_->RemovePeerFailedHook(peer_failed_hook_);
  host_->RemovePeerPermanentlyFailedHook(permanent_failed_hook_);
}

void FileClient::Open(const std::string& file, uint64_t auth_token, OpenCallback done) {
  LASTCPU_CHECK(done != nullptr, "open without callback");
  LASTCPU_CHECK(queue_ == nullptr, "session already open");
  auto done_ptr = std::make_shared<OpenCallback>(std::move(done));

  // Step 1 (Fig. 2): broadcast — who owns this file?
  host_->rpc().Discover(
      proto::ServiceType::kFile, file, config_.discover_window,
      [this, file, auth_token, done_ptr](std::vector<proto::ServiceDescriptor> services) {
        if (services.empty()) {
          (*done_ptr)(NotFound("no file service owns " + file));
          return;
        }
        provider_ = services[0].provider;
        const std::string service_name = services[0].name;

        // Locate the memory controller too (usually cached by real firmware).
        host_->rpc().Discover(
            proto::ServiceType::kMemory, "", config_.discover_window,
            [this, file, auth_token, service_name, done_ptr](
                std::vector<proto::ServiceDescriptor> memory_services) {
              if (memory_services.empty()) {
                (*done_ptr)(Unavailable("no memory controller on the bus"));
                return;
              }
              memctrl_ = memory_services[0].provider;

              // Step 3: open the service instance with the auth token.
              host_->rpc().Call<proto::OpenResponse>(
                  provider_, proto::OpenRequest{service_name, file, auth_token, pasid_},
                  [this, done_ptr](Result<proto::OpenResponse> open) {
                    if (!open.ok()) {
                      (*done_ptr)(open.status());
                      return;
                    }
                    instance_ = open->instance;
                    session_bytes_ = open->shared_bytes_required;
                    depth_ = open->queue_depth;

                    // Step 5: allocate the shared session memory.
                    host_->rpc().Call<proto::MemAllocResponse>(
                        memctrl_,
                        proto::MemAllocRequest{pasid_, session_bytes_, VirtAddr(0),
                                               Access::kReadWrite},
                        [this, done_ptr](Result<proto::MemAllocResponse> alloc) {
                          if (!alloc.ok()) {
                            (*done_ptr)(alloc.status());
                            return;
                          }
                          session_base_ = alloc->vaddr;

                          // Step 7: grant the region to the provider.
                          host_->rpc().Call<void>(
                              kBusDevice,
                              proto::GrantRequest{pasid_, session_base_, session_bytes_,
                                                  provider_, Access::kReadWrite},
                              [this, done_ptr](Result<void> granted) {
                                if (!granted.ok()) {
                                  (*done_ptr)(granted.status());
                                  return;
                                }
                                // Final step: hand the queue location to the
                                // provider, then initialize our end.
                                host_->rpc().Call<void>(
                                    provider_, proto::AttachQueue{instance_, session_base_},
                                    [this, done_ptr](Result<void> attached) {
                                      if (!attached.ok()) {
                                        (*done_ptr)(attached.status());
                                        return;
                                      }
                                      layout_.emplace(session_base_, depth_);
                                      queue_ = std::make_unique<virtio::VirtqueueDriver>(
                                          host_->fabric(), host_->id(), pasid_, session_base_,
                                          depth_);
                                      Status init = queue_->Initialize();
                                      if (!init.ok()) {
                                        queue_.reset();
                                        (*done_ptr)(init);
                                        return;
                                      }
                                      ++session_;
                                      if (slots_.size() < depth_ / 2) {
                                        slots_.resize(depth_ / 2);
                                      }
                                      free_slots_.clear();
                                      for (uint16_t s = depth_ / 2; s > 0; --s) {
                                        if (slots_[s - 1].session == 0) {
                                          free_slots_.push_back(static_cast<uint16_t>(s - 1));
                                        }
                                      }
                                      StartCompletionPoll();
                                      (*done_ptr)(OkStatus());
                                    });
                              });
                        });
                  });
            });
      });
}

void FileClient::StartCompletionPoll() {
  if (config_.completion_poll <= sim::Duration::Zero()) {
    return;
  }
  // Assigning cancels any poll left over from a previous session.
  poll_ = sim::ScopedEvent(
      host_->simulator(),
      host_->simulator()->SchedulePeriodic(config_.completion_poll, [this] {
        if (queue_ != nullptr && in_flight_count_ > 0) {
          DrainCompletions();
        }
      }));
}

void FileClient::Issue(FileRequestHeader header, std::vector<uint8_t> payload, Pending pending) {
  if (queue_ == nullptr) {
    Fail(pending, FailedPrecondition("session not open"));
    return;
  }
  if (free_slots_.empty()) {
    Fail(pending, ResourceExhausted("all request slots in flight"));
    return;
  }
  uint16_t slot = free_slots_.back();
  free_slots_.pop_back();

  std::vector<uint8_t> wire(FileRequestHeader::kWireBytes + payload.size());
  header.EncodeTo(wire);
  std::copy(payload.begin(), payload.end(), wire.begin() + FileRequestHeader::kWireBytes);
  slots_[slot] = Slot{std::move(pending), session_, static_cast<uint32_t>(wire.size())};
  VirtAddr request_slot = layout_->RequestSlot(slot);

  sim::Duration window = host_->fabric()->config().batch_window;
  if (window > sim::Duration::Zero()) {
    // Fast path (FabricConfig::batch_window): stage the request (the slot is
    // already claimed, so the backpressure contract is unchanged) and flush
    // the whole batch in one scatter-gather DMA + one doorbell at window
    // close. A burst of N requests costs 1 DMA transaction and 1 doorbell
    // instead of N of each.
    staged_.push_back(Staged{{request_slot, std::move(wire)}, slot});
    if (!flush_.armed()) {
      flush_ = sim::ScopedEvent(host_->simulator(),
                                host_->simulator()->Schedule(window, [this] { FlushBatch(); }));
    }
    return;
  }

  host_->fabric()->DmaWrite(host_->id(), pasid_, request_slot, std::move(wire),
                            [this, slot](Status wrote) {
                              SubmitWritten(wrote, std::span<const uint16_t>(&slot, 1));
                            });
}

void FileClient::FlushBatch() {
  flush_.Release();  // this is the flush event firing; nothing left to cancel
  std::vector<Staged> batch = std::move(staged_);
  staged_.clear();
  if (batch.empty()) {
    return;
  }
  if (queue_ == nullptr) {
    // The session was reset while requests were staged; the slot pool was
    // rebuilt, so do not return the slots.
    for (Staged& staged : batch) {
      Pending pending = TakePending(staged.slot);
      Fail(pending, reset_reason_);
    }
    return;
  }
  std::vector<fabric::DmaWriteSegment> writes;
  std::vector<uint16_t> slots;
  writes.reserve(batch.size());
  slots.reserve(batch.size());
  for (Staged& staged : batch) {
    writes.push_back(std::move(staged.write));
    slots.push_back(staged.slot);
  }
  host_->stats().GetCounter("file_client_batch_flushes").Increment();
  host_->fabric()->DmaWritev(host_->id(), pasid_, std::move(writes),
                             [this, slots = std::move(slots)](Status wrote) {
                               SubmitWritten(wrote, slots);
                             });
}

void FileClient::SubmitWritten(const Status& wrote, std::span<const uint16_t> slots) {
  bool submitted = false;
  for (uint16_t slot : slots) {
    if (queue_ == nullptr || slots_[slot].session != session_) {
      // The session was reset while the DMA was in flight, or by a callback
      // below; the slot pool was rebuilt without this slot.
      Pending pending = TakePending(slot);
      FreeSlot(slot);
      Fail(pending, reset_reason_);
      continue;
    }
    const virtio::BufferDesc chain[] = {
        {layout_->RequestSlot(slot), slots_[slot].request_len, false},
        {layout_->ResponseSlot(slot), static_cast<uint32_t>(kResponseSlotBytes), true}};
    Result<uint16_t> head = wrote.ok() ? queue_->Submit(chain) : Result<uint16_t>(wrote);
    if (!head.ok()) {
      FailSlot(slot, head.status());
      continue;
    }
    if (*head >= head_slots_.size()) {
      head_slots_.resize(*head + 1, kNoSlot);
    }
    head_slots_[*head] = slot;
    ++in_flight_count_;
    requests_.Increment();
    submitted = true;
  }
  if (submitted && queue_ != nullptr) {
    bells_->Ring(provider_, instance_.value());
  }
}

void FileClient::ReadAt(uint64_t offset, uint32_t length, ReadCallback done) {
  LASTCPU_CHECK(done != nullptr, "read without callback");
  Issue(FileRequestHeader{FileOp::kRead, offset, length}, {},
        Pending{FileOp::kRead, std::move(done)});
}

void FileClient::WriteAt(uint64_t offset, std::vector<uint8_t> data, WriteCallback done) {
  LASTCPU_CHECK(done != nullptr, "write without callback");
  if (data.size() > kMaxWriteBytes) {
    done(InvalidArgument("write exceeds per-request limit"));
    return;
  }
  FileRequestHeader header{FileOp::kWrite, offset, static_cast<uint32_t>(data.size())};
  Issue(header, std::move(data), Pending{FileOp::kWrite, std::move(done)});
}

void FileClient::Append(std::vector<uint8_t> data, AppendCallback done) {
  LASTCPU_CHECK(done != nullptr, "append without callback");
  if (data.size() > kMaxWriteBytes) {
    done(InvalidArgument("append exceeds per-request limit"));
    return;
  }
  FileRequestHeader header{FileOp::kAppend, 0, static_cast<uint32_t>(data.size())};
  Issue(header, std::move(data), Pending{FileOp::kAppend, std::move(done)});
}

void FileClient::Stat(StatCallback done) {
  LASTCPU_CHECK(done != nullptr, "stat without callback");
  Issue(FileRequestHeader{FileOp::kStat, 0, 0}, {}, Pending{FileOp::kStat, std::move(done)});
}

uint64_t FileClient::doorbells_coalesced() const {
  return bells_ != nullptr ? bells_->coalesced() : 0;
}

bool FileClient::HandleDoorbell(DeviceId from, uint64_t value) {
  if (from != provider_ || value != instance_.value() || queue_ == nullptr) {
    return false;
  }
  DrainCompletions();
  return true;
}

void FileClient::DrainCompletions() {
  // A completion callback may reset this session (an aborted KVS compaction
  // does), which drops the queue mid-drain.
  while (queue_ != nullptr) {
    auto used = queue_->PollUsed();
    if (!used.ok()) {
      // The virtqueue driver refused the used ring (a corrupted chain link).
      // The element it consumed named a request that can no longer complete,
      // and the device may still write every other request's slot, so the
      // whole session goes: each request in flight fails once with the error.
      Reset(used.status());
      return;
    }
    if (!used->has_value()) {
      return;
    }
    uint16_t head = (*used)->head;
    if (head >= head_slots_.size() || head_slots_[head] == kNoSlot) {
      host_->stats().GetCounter("orphan_completions").Increment();
      continue;
    }
    uint16_t slot = std::exchange(head_slots_[head], kNoSlot);
    --in_flight_count_;
    CompleteOne(slot);
  }
}

void FileClient::CompleteOne(uint16_t slot) {
  VirtAddr response_slot = layout_->ResponseSlot(slot);
  uint8_t header_bytes[FileResponseHeader::kWireBytes];
  fabric::AccessResult read =
      host_->fabric()->MemRead(host_->id(), pasid_, response_slot, header_bytes);
  if (!read.status.ok()) {
    FailSlot(slot, read.status);
    return;
  }
  auto header = FileResponseHeader::DecodeFrom(header_bytes);
  if (!header.ok()) {
    FailSlot(slot, header.status());
    return;
  }
  if (header->status != StatusCode::kOk) {
    FailSlot(slot, Status(header->status, "file service error"));
    return;
  }
  if (slots_[slot].pending.op == FileOp::kRead && header->length > 0) {
    host_->fabric()->DmaRead(host_->id(), pasid_,
                             response_slot + FileResponseHeader::kWireBytes, header->length,
                             [this, slot](Result<std::vector<uint8_t>> data) {
                               Pending pending = TakePending(slot);
                               ReleaseSlot(slot);
                               std::get<ReadCallback>(pending.done)(std::move(data));
                             });
    return;
  }
  Pending pending = TakePending(slot);
  ReleaseSlot(slot);
  switch (pending.op) {
    case FileOp::kRead:
      std::get<ReadCallback>(pending.done)(std::vector<uint8_t>());
      return;
    case FileOp::kWrite:
      std::get<WriteCallback>(pending.done)(OkStatus());
      return;
    case FileOp::kAppend:
    case FileOp::kStat:
      std::get<AppendCallback>(pending.done)(header->file_size);
      return;
  }
}

FileClient::Pending FileClient::TakePending(uint16_t slot) {
  slots_[slot].session = 0;
  return std::move(slots_[slot].pending);
}

void FileClient::FreeSlot(uint16_t slot) {
  if (queue_ != nullptr && slot < depth_ / 2) {
    free_slots_.push_back(slot);
  }
}

void FileClient::ReleaseSlot(uint16_t slot) {
  FreeSlot(slot);
  if (on_slot_available_) {
    on_slot_available_();
  }
}

void FileClient::FailSlot(uint16_t slot, Status status) {
  Pending pending = TakePending(slot);
  ReleaseSlot(slot);
  Fail(pending, std::move(status));
}

void FileClient::Fail(Pending& pending, Status status) {
  host_->stats().GetCounter("file_client_failures").Increment();
  std::visit([&status](auto& done) { done(status); }, pending.done);
}

void FileClient::AbortAll(Status reason) {
  flush_.Cancel();
  auto staged = std::move(staged_);
  staged_.clear();
  for (Staged& s : staged) {
    Pending pending = TakePending(s.slot);
    FreeSlot(s.slot);
    Fail(pending, reason);
  }
  // Take every in-flight request off the table before failing any: a
  // failure callback may issue again or reset this session.
  std::vector<uint16_t> doomed;
  for (uint16_t& slot : head_slots_) {
    if (slot != kNoSlot) {
      doomed.push_back(std::exchange(slot, kNoSlot));
    }
  }
  in_flight_count_ = 0;
  for (uint16_t slot : doomed) {
    Pending pending = TakePending(slot);
    FreeSlot(slot);
    Fail(pending, reason);
  }
}

void FileClient::Reset(Status reason) {
  reset_reason_ = reason;
  AbortAll(std::move(reason));
  poll_.Cancel();
  if (bells_ != nullptr) {
    bells_->CancelPending();
  }
  queue_.reset();
  layout_.reset();
  free_slots_.clear();
  provider_ = DeviceId::Invalid();
  instance_ = InstanceId::Invalid();
  depth_ = 0;
}

void FileClient::Close(sim::MoveFn<void(Status), 160> done) {
  LASTCPU_CHECK(done != nullptr, "close without callback");
  bool open = queue_ != nullptr;
  if (!open && session_base_ == VirtAddr(0)) {
    done(FailedPrecondition("session not open"));
    return;
  }
  reset_reason_ = Aborted("session closing");
  AbortAll(Aborted("session closing"));
  poll_.Cancel();
  queue_.reset();
  // Free the session memory whatever the close's outcome.
  auto free_memory = [this, done = std::move(done),
                      region = proto::MemFreeRequest{
                          pasid_, std::exchange(session_base_, VirtAddr(0)),
                          std::exchange(session_bytes_, 0)}](bool closed) mutable {
    host_->rpc().Call<void>(
        kBusDevice, region, [done = std::move(done), closed](Result<void> freed) mutable {
          if (!closed) {
            done(Internal("close failed"));
            return;
          }
          done(freed.ok() ? OkStatus() : freed.status());
        });
  };
  if (!open) {
    // A reset session's instance died with its provider: only the memory
    // is left to free.
    free_memory(true);
    return;
  }
  host_->rpc().Call<void>(provider_, proto::CloseRequest{instance_},
                          [free_memory = std::move(free_memory)](Result<void> closed) mutable {
                            free_memory(closed.ok());
                          });
}

namespace {

void SendFileAdmin(dev::Device* host, DeviceId provider, proto::Payload payload,
                   std::function<void(Status)> done) {
  LASTCPU_CHECK(host != nullptr && done != nullptr, "file admin needs host and callback");
  host->rpc().Call<void>(provider, std::move(payload),
                         [done = std::move(done)](Result<void> result) {
                           done(result.ok() ? OkStatus() : result.status());
                         });
}

}  // namespace

void CreateRemoteFile(dev::Device* host, DeviceId provider, const std::string& name,
                      uint64_t auth_token, std::function<void(Status)> done) {
  SendFileAdmin(host, provider, proto::FileCreate{name, auth_token}, std::move(done));
}

void DeleteRemoteFile(dev::Device* host, DeviceId provider, const std::string& name,
                      uint64_t auth_token, std::function<void(Status)> done) {
  SendFileAdmin(host, provider, proto::FileDelete{name, auth_token}, std::move(done));
}

void ListRemoteFiles(dev::Device* host, DeviceId provider, uint64_t auth_token,
                     std::function<void(Result<std::vector<std::string>>)> done) {
  LASTCPU_CHECK(host != nullptr && done != nullptr, "file list needs host and callback");
  // Listing is read-only, hence idempotent: opt into bounded retries so a
  // dropped request or response does not stall recovery scans.
  dev::RpcOptions options;
  options.max_attempts = 3;
  host->rpc().Call<proto::FileListResponse>(
      provider, proto::FileList{auth_token}, options,
      [done = std::move(done)](Result<proto::FileListResponse> response) {
        if (!response.ok()) {
          done(response.status());
          return;
        }
        done(std::move(response->names));
      });
}

}  // namespace lastcpu::ssddev

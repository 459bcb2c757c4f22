#include "src/ssddev/file_service.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::ssddev {

// Firmware cost to parse + dispatch one request on the embedded core.
constexpr sim::Duration kRequestCost = sim::Duration::Micros(2);
// Concurrent chains the firmware keeps in flight per session (commands
// outstanding against the FTL; exploits NAND die parallelism).
constexpr uint32_t kMaxInFlight = 32;

FileService::FileService(dev::Device* host, FlashFs* fs, auth::AuthService* auth,
                         FileServiceConfig config)
    : Service(proto::ServiceDescriptor{host->id(), proto::ServiceType::kFile, "flashfs", 0}),
      host_(host),
      fs_(fs),
      auth_(auth),
      config_(config) {
  LASTCPU_CHECK(host != nullptr && fs != nullptr, "file service needs host and filesystem");
  if (host_->fabric() != nullptr) {
    bells_ = std::make_unique<fabric::DoorbellBatcher>(host_->fabric(), host_->id());
  }
}

bool FileService::Matches(const proto::DiscoverRequest& query) const {
  if (query.type != proto::ServiceType::kFile) {
    return false;
  }
  return query.resource.empty() || fs_->Exists(query.resource);
}

Result<proto::OpenResponse> FileService::Open(DeviceId client, const proto::OpenRequest& request) {
  if (!fs_->Exists(request.resource)) {
    return NotFound("no such file: " + request.resource);
  }
  std::string user;
  if (auth_ != nullptr) {
    auto resolved = auth_->UserForToken(request.auth_token);
    if (!resolved.has_value()) {
      return PermissionDenied("invalid or expired token");
    }
    user = *resolved;
    auto info = fs_->Stat(request.resource);
    if (!info->acl.MayRead(user)) {
      return PermissionDenied("user '" + user + "' may not read " + request.resource);
    }
  }
  auto instance = CreateInstance(client, request.pasid, request.resource);
  if (!instance.ok()) {
    return instance.status();
  }
  Session session;
  session.file = request.resource;
  session.user = user;
  session.pasid = request.pasid;
  session.client = client;
  sessions_.emplace(*instance, std::move(session));
  return proto::OpenResponse{*instance, SessionLayout::BytesRequired(config_.queue_depth),
                             config_.queue_depth};
}

std::optional<Result<proto::Payload>> FileService::HandleMessage(const proto::Message& message) {
  if (message.Is<proto::FileCreate>()) {
    const auto& create = message.As<proto::FileCreate>();
    FileAcl acl;
    if (auth_ != nullptr) {
      auto user = auth_->UserForToken(create.auth_token);
      if (!user.has_value()) {
        return Result<proto::Payload>(PermissionDenied("invalid or expired token"));
      }
      acl.owner = *user;
    }
    Status created = fs_->Create(create.name, std::move(acl));
    if (!created.ok()) {
      return Result<proto::Payload>(created);
    }
    host_->stats().GetCounter("files_created").Increment();
    return Result<proto::Payload>(proto::Payload(proto::FileAdminResponse{}));
  }
  if (message.Is<proto::FileDelete>()) {
    const auto& del = message.As<proto::FileDelete>();
    if (auth_ != nullptr) {
      auto user = auth_->UserForToken(del.auth_token);
      if (!user.has_value()) {
        return Result<proto::Payload>(PermissionDenied("invalid or expired token"));
      }
      auto info = fs_->Stat(del.name);
      if (!info.ok()) {
        return Result<proto::Payload>(info.status());
      }
      if (!info->acl.MayWrite(*user)) {
        return Result<proto::Payload>(
            PermissionDenied("user '" + *user + "' may not delete " + del.name));
      }
    }
    // Sessions open on the doomed file become dead resources; tell consumers
    // (Sec. 4) and drop their instances.
    std::vector<InstanceId> doomed;
    for (const auto& [id, session] : sessions_) {
      if (session.file == del.name) {
        doomed.push_back(id);
      }
    }
    for (InstanceId id : doomed) {
      InjectResourceFailure(id, "file deleted");
    }
    Status deleted = fs_->Delete(del.name);
    if (!deleted.ok()) {
      return Result<proto::Payload>(deleted);
    }
    host_->stats().GetCounter("files_deleted").Increment();
    return Result<proto::Payload>(proto::Payload(proto::FileAdminResponse{}));
  }
  if (message.Is<proto::FileList>()) {
    const auto& list = message.As<proto::FileList>();
    if (auth_ != nullptr && !auth_->ValidateToken(list.auth_token)) {
      return Result<proto::Payload>(PermissionDenied("invalid or expired token"));
    }
    host_->stats().GetCounter("file_lists").Increment();
    return Result<proto::Payload>(proto::Payload(proto::FileListResponse{fs_->List()}));
  }
  return std::nullopt;
}

FileService::Session* FileService::FindSession(InstanceId instance) {
  auto it = sessions_.find(instance);
  return it == sessions_.end() ? nullptr : &it->second;
}

Status FileService::AttachQueue(InstanceId instance, VirtAddr base) {
  Session* session = FindSession(instance);
  if (session == nullptr) {
    return NotFound("no such session");
  }
  if (session->layout.has_value()) {
    return FailedPrecondition("queue already attached");
  }
  if (base.offset() != 0) {
    return InvalidArgument("queue base must be page-aligned");
  }
  session->layout.emplace(base, config_.queue_depth);
  session->queue = std::make_unique<virtio::VirtqueueDevice>(
      host_->fabric(), host_->id(), session->pasid, base, config_.queue_depth);
  return OkStatus();
}

void FileService::OnDoorbell(InstanceId instance) { ScheduleDrain(instance); }

void FileService::ScheduleDrain(InstanceId instance) {
  Session* session = FindSession(instance);
  if (session == nullptr || session->queue == nullptr || session->drain_scheduled) {
    return;
  }
  session->drain_scheduled = true;
  // The embedded firmware picks the next request up after its dispatch cost.
  host_->simulator()->Schedule(kRequestCost, [this, instance] { DrainSession(instance); });
}

void FileService::DrainSession(InstanceId instance) {
  Session* session = FindSession(instance);
  if (session == nullptr || session->queue == nullptr) {
    return;  // closed mid-drain
  }
  session->drain_scheduled = false;
  if (session->in_flight >= kMaxInFlight) {
    return;  // a completion will re-arm the drain
  }
  auto chain = session->queue->PopAvail();
  if (!chain.ok() || !chain->has_value()) {
    // Queue fault or empty ring: stop draining. A fault means the client's
    // grant disappeared; the session will be torn down by close/teardown.
    return;
  }
  ++session->in_flight;
  ServeChain(instance, **std::move(chain));
  // Keep pulling while there may be more work and budget.
  if (session->in_flight < kMaxInFlight) {
    ScheduleDrain(instance);
  }
}

void FileService::ServeChain(InstanceId instance, virtio::Chain chain) {
  Session* session = FindSession(instance);
  if (session == nullptr) {
    return;
  }
  file_requests_.Increment();
  ++requests_served_;

  // Validate the chain shape: request buffer (device-read) + response buffer
  // (device-write).
  if (chain.buffers.size() < 2 || chain.buffers[0].device_writes ||
      !chain.buffers[1].device_writes) {
    host_->stats().GetCounter("malformed_chains").Increment();
    CompleteChain(instance, chain.head,
                  FileResponseHeader{StatusCode::kInvalidArgument, 0, 0}, {},
                  chain.buffers.size() > 1 ? chain.buffers[1].addr : VirtAddr(0));
    return;
  }
  VirtAddr request_slot = chain.buffers[0].addr;
  VirtAddr response_slot = chain.buffers[1].addr;

  // Read the 16-byte header synchronously (descriptor-sized access).
  uint8_t header_bytes[FileRequestHeader::kWireBytes];
  fabric::AccessResult read = host_->fabric()->MemRead(host_->id(), session->pasid, request_slot,
                                                       header_bytes);
  if (!read.status.ok()) {
    CompleteChain(instance, chain.head, FileResponseHeader{StatusCode::kPermissionDenied, 0, 0},
                  {}, response_slot);
    return;
  }
  auto header = FileRequestHeader::DecodeFrom(header_bytes);
  if (!header.ok()) {
    CompleteChain(instance, chain.head, FileResponseHeader{StatusCode::kInvalidArgument, 0, 0},
                  {}, response_slot);
    return;
  }

  const std::string& file = session->file;
  const std::string& user = session->user;
  uint16_t head = chain.head;

  switch (header->op) {
    case FileOp::kRead: {
      uint64_t wanted = std::min<uint64_t>(header->length, kMaxReadBytes);
      fs_->Read(file, header->offset, wanted,
                [this, instance, head, response_slot](Result<std::vector<uint8_t>> data) {
                  if (!data.ok()) {
                    CompleteChain(instance, head,
                                  FileResponseHeader{data.status().code(), 0, 0}, {},
                                  response_slot);
                    return;
                  }
                  FileResponseHeader response{StatusCode::kOk,
                                              static_cast<uint32_t>(data->size()), 0};
                  CompleteChain(instance, head, response, *std::move(data), response_slot);
                });
      return;
    }
    case FileOp::kWrite:
    case FileOp::kAppend: {
      if (auth_ != nullptr) {
        auto info = fs_->Stat(file);
        if (!info.ok() || !info->acl.MayWrite(user)) {
          CompleteChain(instance, head, FileResponseHeader{StatusCode::kPermissionDenied, 0, 0},
                        {}, response_slot);
          return;
        }
      }
      if (header->length > kMaxWriteBytes) {
        CompleteChain(instance, head, FileResponseHeader{StatusCode::kInvalidArgument, 0, 0}, {},
                      response_slot);
        return;
      }
      // Pull the payload from the request slot (bulk DMA). The file name is
      // captured as an owned string, so the completion stays inline.
      bool is_append = header->op == FileOp::kAppend;
      uint64_t offset = header->offset;
      auto land = [this, instance, head, response_slot, file = std::string(file), offset,
                   is_append](Result<std::vector<uint8_t>> payload) {
        if (!payload.ok()) {
          CompleteChain(instance, head, FileResponseHeader{payload.status().code(), 0, 0}, {},
                        response_slot);
          return;
        }
        if (is_append) {
          fs_->Append(file, *std::move(payload),
                      [this, instance, head, response_slot](Result<uint64_t> at) {
                        if (!at.ok()) {
                          CompleteChain(instance, head,
                                        FileResponseHeader{at.status().code(), 0, 0}, {},
                                        response_slot);
                          return;
                        }
                        CompleteChain(instance, head, FileResponseHeader{StatusCode::kOk, 0, *at},
                                      {}, response_slot);
                      });
          return;
        }
        fs_->Write(file, offset, *std::move(payload),
                   [this, instance, head, response_slot](Status s) {
                     CompleteChain(instance, head, FileResponseHeader{s.code(), 0, 0}, {},
                                   response_slot);
                   });
      };
      static_assert(fabric::Fabric::DmaReadCallback::StoresInline<decltype(land)>(),
                    "payload read must stay inline");
      host_->fabric()->DmaRead(host_->id(), session->pasid,
                               request_slot + FileRequestHeader::kWireBytes, header->length,
                               std::move(land));
      return;
    }
    case FileOp::kStat: {
      auto info = fs_->Stat(file);
      FileResponseHeader response{StatusCode::kOk, 0, 0};
      if (!info.ok()) {
        response.status = info.status().code();
      } else {
        response.file_size = info->size;
      }
      CompleteChain(instance, head, response, {}, response_slot);
      return;
    }
  }
}

void FileService::CompleteChain(InstanceId instance, uint16_t head,
                                const FileResponseHeader& header, std::vector<uint8_t> payload,
                                VirtAddr response_slot) {
  Session* session = FindSession(instance);
  if (session == nullptr || session->queue == nullptr) {
    return;
  }
  std::vector<uint8_t> wire(FileResponseHeader::kWireBytes + payload.size());
  header.EncodeTo(wire);
  std::copy(payload.begin(), payload.end(), wire.begin() + FileResponseHeader::kWireBytes);
  uint32_t written = static_cast<uint32_t>(wire.size());
  DeviceId client = session->client;
  Pasid pasid = session->pasid;

  sim::Duration window = host_->fabric()->config().batch_window;
  if (window > sim::Duration::Zero()) {
    // Fast path (FabricConfig::batch_window): stage the response; the window
    // flush writes every staged response in one scatter-gather DMA and rings
    // the client once per session.
    session->staged.push_back(StagedCompletion{head, std::move(wire), response_slot});
    if (!session->completion_flush_scheduled) {
      session->completion_flush_scheduled = true;
      host_->simulator()->Schedule(window, [this, instance] { FlushCompletions(instance); });
    }
    return;
  }

  host_->fabric()->DmaWrite(host_->id(), pasid, response_slot, std::move(wire),
                            [this, instance, head, written, client](Status) {
                              std::pair<uint16_t, uint32_t> used{head, written};
                              PublishUsed(instance, client, {&used, 1});
                            });
}

void FileService::FlushCompletions(InstanceId instance) {
  Session* session = FindSession(instance);
  if (session == nullptr) {
    return;  // session closed mid-window; its staged responses died with it
  }
  session->completion_flush_scheduled = false;
  std::vector<StagedCompletion> batch = std::move(session->staged);
  session->staged.clear();
  if (batch.empty() || session->queue == nullptr) {
    return;
  }
  std::vector<fabric::DmaWriteSegment> segments;
  std::vector<std::pair<uint16_t, uint32_t>> used;  // head, bytes written
  segments.reserve(batch.size());
  used.reserve(batch.size());
  for (auto& staged : batch) {
    used.emplace_back(staged.head, static_cast<uint32_t>(staged.wire.size()));
    segments.push_back(fabric::DmaWriteSegment{staged.response_slot, std::move(staged.wire)});
  }
  host_->stats().GetCounter("file_service_batch_flushes").Increment();
  host_->fabric()->DmaWritev(host_->id(), session->pasid, std::move(segments),
                             [this, instance, client = session->client,
                              used = std::move(used)](Status) {
                               PublishUsed(instance, client, used);
                             });
}

void FileService::PublishUsed(InstanceId instance, DeviceId client,
                              std::span<const std::pair<uint16_t, uint32_t>> used) {
  Session* live = FindSession(instance);
  if (live == nullptr || live->queue == nullptr) {
    return;
  }
  bool pushed = false;
  for (const auto& [head, written] : used) {
    if (live->in_flight > 0) {
      --live->in_flight;
    }
    if (live->queue->PushUsed(head, written).ok()) {
      pushed = true;
    }
  }
  if (pushed) {
    bells_->Ring(client, instance.value());
  }
  // Serve the next pending request, if any.
  ScheduleDrain(instance);
}

void FileService::InjectResourceFailure(InstanceId instance, const std::string& reason) {
  Session* session = FindSession(instance);
  if (session == nullptr) {
    return;
  }
  // Sec. 4: "It must send a message to any consumer using that resource and
  // then reset the resource."
  host_->SendOneWay(session->client,
                    proto::ResourceFailed{descriptor().name, instance, reason});
  (void)Close(instance);
}

void FileService::OnInstanceClosed(const dev::ServiceInstance& instance) {
  sessions_.erase(instance.id);
}

void FileService::PowerCut() {
  // Dropping the sessions makes every in-flight completion a no-op (they all
  // re-resolve the session first) — requests die silently, never half-done.
  sessions_.clear();
  if (bells_ != nullptr) {
    bells_->CancelPending();
  }
}

}  // namespace lastcpu::ssddev

// The file service a smart SSD exposes over VIRTIO queues.
//
// Session bring-up mirrors Figure 2: discover(file) -> open(token) ->
// [client allocates + grants shared memory] -> attach-queue -> virtqueue I/O
// with doorbell notifications. Each instance is an isolated context: its own
// file handle, resolved user identity, queue, and in-flight state.
#ifndef SRC_SSDDEV_FILE_SERVICE_H_
#define SRC_SSDDEV_FILE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/auth/auth_service.h"
#include "src/dev/device.h"
#include "src/fabric/fabric.h"
#include "src/dev/service.h"
#include "src/ssddev/file_protocol.h"
#include "src/ssddev/flash_fs.h"
#include "src/virtio/virtqueue.h"

namespace lastcpu::ssddev {

struct FileServiceConfig {
  uint16_t queue_depth = 64;
};

class FileService : public dev::Service {
 public:
  // `auth` may be null (no access control; bring-up and benchmarks).
  FileService(dev::Device* host, FlashFs* fs, auth::AuthService* auth,
              FileServiceConfig config = {});

  // Matches file queries when the named file exists here (Fig. 2 step 2).
  bool Matches(const proto::DiscoverRequest& query) const override;

  // Validates the token's read access to the file and creates the session.
  Result<proto::OpenResponse> Open(DeviceId client, const proto::OpenRequest& request) override;

  // Single-exchange file administration: FileCreate (token's user becomes
  // owner) and FileDelete (owner-only under access control).
  std::optional<Result<proto::Payload>> HandleMessage(const proto::Message& message) override;

  // Binds the session's shared-memory queue (AttachQueue message).
  Status AttachQueue(InstanceId instance, VirtAddr base);

  // Doorbell from the client: drain the session's avail ring.
  void OnDoorbell(InstanceId instance);

  // Fails one session's resource (Sec. 4 fault injection): consumers get a
  // ResourceFailed message and the instance resets.
  void InjectResourceFailure(InstanceId instance, const std::string& reason);

  // The power rail drops: every session (queue state, staged completions,
  // in-flight chains) vanishes without a goodbye message — clients learn via
  // the supervisor's failure notice, exactly like a real dead drive.
  void PowerCut();

  uint64_t requests_served() const { return requests_served_; }

 protected:
  void OnInstanceClosed(const dev::ServiceInstance& instance) override;

 private:
  // One response staged for the next completion-batch flush.
  struct StagedCompletion {
    uint16_t head = 0;
    std::vector<uint8_t> wire;
    VirtAddr response_slot;
  };

  struct Session {
    std::string file;
    std::string user;
    Pasid pasid;
    DeviceId client;
    std::optional<SessionLayout> layout;
    std::unique_ptr<virtio::VirtqueueDevice> queue;
    uint32_t in_flight = 0;
    bool drain_scheduled = false;
    std::vector<StagedCompletion> staged;
    bool completion_flush_scheduled = false;
  };

  // Re-arms the drain loop for a session unless one is already pending.
  void ScheduleDrain(InstanceId instance);

  // Pulls and serves the next request of a session; re-arms itself until the
  // ring is empty.
  void DrainSession(InstanceId instance);
  void ServeChain(InstanceId instance, virtio::Chain chain);
  void CompleteChain(InstanceId instance, uint16_t head, const FileResponseHeader& header,
                     std::vector<uint8_t> payload, VirtAddr response_slot);
  // Flushes every staged completion of a session: one DmaWritev, then each
  // used-ring push, then one doorbell.
  void FlushCompletions(InstanceId instance);
  // Runs once the DMA carrying responses into their slots completes, with or
  // without a batch window: pushes each (head, bytes written) onto the used
  // ring, rings the client once, and serves the session's next request. A
  // failed response write is not reported; it surfaces as a client timeout.
  void PublishUsed(InstanceId instance, DeviceId client,
                   std::span<const std::pair<uint16_t, uint32_t>> used);

  Session* FindSession(InstanceId instance);

  dev::Device* host_;
  FlashFs* fs_;
  auth::AuthService* auth_;
  FileServiceConfig config_;
  // Per-request counter resolved once from the host's registry (declared
  // after host_, so the reference is valid at construction).
  sim::Counter& file_requests_ = host_->stats().GetCounter("file_requests");
  std::map<InstanceId, Session> sessions_;
  std::unique_ptr<fabric::DoorbellBatcher> bells_;
  uint64_t requests_served_ = 0;
};

}  // namespace lastcpu::ssddev

#endif  // SRC_SSDDEV_FILE_SERVICE_H_

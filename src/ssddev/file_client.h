// FileClient: the consumer-side library for the SSD file service.
//
// This is the paper's Sec. 4 "Programmability" artifact: "the development
// environment for the smartNIC would include a library that encapsulates the
// functionality of the system bus, and provide functions for service
// discovery, resource allocation, etc." FileClient runs inside any device
// (the smart NIC's app engine, or an example harness) and performs the full
// Figure-2 bring-up: discover -> open -> allocate -> grant -> attach, then
// virtqueue I/O with doorbells.
#ifndef SRC_SSDDEV_FILE_CLIENT_H_
#define SRC_SSDDEV_FILE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/sim/move_fn.h"
#include "src/dev/device.h"
#include "src/fabric/fabric.h"
#include "src/ssddev/file_protocol.h"
#include "src/virtio/virtqueue.h"

namespace lastcpu::ssddev {

struct FileClientConfig {
  sim::Duration discover_window = sim::Duration::Micros(20);
  // Completion-poll backstop period. Doorbells are edge-triggered and carry
  // no acknowledgement, so under fault injection a dropped doorbell would
  // strand completed requests; the poll drains them. Zero (the default)
  // disables polling — on a healthy interconnect the doorbell always
  // arrives, and a disabled poll cannot perturb timing.
  sim::Duration completion_poll = sim::Duration::Zero();
};

class FileClient {
 public:
  using OpenCallback = sim::MoveFn<void(Status), 160>;
  // 224-byte tier: a KVS put's completion (a key, a length and a 160-tier
  // callback) stays inline.
  using ReadCallback = sim::MoveFn<void(Result<std::vector<uint8_t>>), 224>;
  using WriteCallback = sim::MoveFn<void(Status), 224>;
  using AppendCallback = sim::MoveFn<void(Result<uint64_t>), 224>;
  using StatCallback = sim::MoveFn<void(Result<uint64_t>), 224>;

  // `host` is the device this client runs on; `pasid` the application's
  // address space. The host must forward doorbells via HandleDoorbell.
  // Registers a peer-failed hook on the host: when the bus declares this
  // session's provider failed, outstanding requests complete with
  // kUnavailable and the session resets.
  FileClient(dev::Device* host, Pasid pasid, FileClientConfig config = {});
  ~FileClient();
  FileClient(const FileClient&) = delete;
  FileClient& operator=(const FileClient&) = delete;

  // Runs the full session bring-up for `file`. Requires a live memory
  // controller and a file service owning the file somewhere on the bus.
  void Open(const std::string& file, uint64_t auth_token, OpenCallback done);

  bool ready() const { return queue_ != nullptr; }
  // True when a request can be issued right now without being rejected.
  bool HasFreeSlot() const { return queue_ != nullptr && !free_slots_.empty(); }
  // Requests submitted and not yet completed.
  size_t InFlight() const { return in_flight_count_; }
  // Invoked whenever a request slot frees up (completion or failure), so
  // callers can implement backpressure queues.
  void SetSlotAvailableCallback(std::function<void()> fn) { on_slot_available_ = std::move(fn); }
  DeviceId provider() const { return provider_; }
  InstanceId instance() const { return instance_; }
  VirtAddr session_base() const { return session_base_; }

  // --- I/O (session must be ready) ------------------------------------------

  void ReadAt(uint64_t offset, uint32_t length, ReadCallback done);
  void WriteAt(uint64_t offset, std::vector<uint8_t> data, WriteCallback done);
  void Append(std::vector<uint8_t> data, AppendCallback done);
  void Stat(StatCallback done);

  // Closes the instance and frees the session memory. After a Reset, only
  // the memory is left, and Close frees it.
  void Close(sim::MoveFn<void(Status), 160> done);

  // The host device must call this from its OnDoorbell for doorbells whose
  // value equals this session's instance id. Returns true when consumed.
  bool HandleDoorbell(DeviceId from, uint64_t value);

  // Fails every outstanding request (e.g. the provider died).
  void AbortAll(Status reason);

  // Drops all session state without any protocol exchange (the provider is
  // gone, or wrote a used ring the virtqueue driver refuses). The session
  // memory stays allocated, and Close frees it. An Open without that Close
  // starts a new allocation and leaves the old one to app teardown.
  void Reset(Status reason);

  // Rings coalesced into a trailing doorbell by this client's batcher.
  uint64_t doorbells_coalesced() const;

 private:
  // A request's waiter: its op and the one completion that op takes (Append
  // and Stat share the Result<uint64_t> callback).
  struct Pending {
    FileOp op = FileOp::kRead;
    std::variant<ReadCallback, WriteCallback, AppendCallback> done;
  };

  // One request slot. An issued request keeps its waiter here until it
  // completes, so the DMA completions on its way capture only the slot
  // index. `session` names the session whose request holds the slot, 0 when
  // free. A reset leaves a slot whose DMA is in flight busy, and Open does
  // not hand a busy slot to the new session: it frees once its DMA is done.
  struct Slot {
    Pending pending;
    uint64_t session = 0;
    uint32_t request_len = 0;
  };

  // One request staged for the next batch flush (a nonzero batch window),
  // with the write that carries it into its slot.
  struct Staged {
    fabric::DmaWriteSegment write;
    uint16_t slot = 0;
  };

  static constexpr uint16_t kNoSlot = UINT16_MAX;

  // Issues one request: writes the slot, submits the chain, rings the bell.
  void Issue(FileRequestHeader header, std::vector<uint8_t> payload, Pending pending);
  // Flushes every staged request as one DmaWritev + one doorbell.
  void FlushBatch();
  // Runs once the DMA carrying the requests in `slots` completes, with or
  // without a batch window: fails each request when its session is gone or
  // the write faulted, else submits its chain and files it in flight, then
  // rings the provider once.
  void SubmitWritten(const Status& wrote, std::span<const uint16_t> slots);
  // Arms the completion-poll backstop daemon for the current session.
  void StartCompletionPoll();
  void DrainCompletions();
  void CompleteOne(uint16_t slot);
  void Fail(Pending& pending, Status status);
  // Takes the waiter out of a slot and marks the slot free.
  Pending TakePending(uint16_t slot);
  // Puts a freed slot back on the free list when a session is open and the
  // slot lies within its depth.
  void FreeSlot(uint16_t slot);
  // FreeSlot, then fires the availability callback.
  void ReleaseSlot(uint16_t slot);
  // Releases a slot, then fails the request it held.
  void FailSlot(uint16_t slot, Status status);

  dev::Device* host_;
  Pasid pasid_;
  FileClientConfig config_;
  // Per-request counter resolved once from the host's registry (declared
  // after host_, so the reference is valid at construction).
  sim::Counter& requests_ = host_->stats().GetCounter("file_client_requests");

  DeviceId provider_;
  DeviceId memctrl_;
  InstanceId instance_;
  VirtAddr session_base_;
  uint64_t session_bytes_ = 0;
  uint16_t depth_ = 0;
  std::optional<SessionLayout> layout_;
  std::unique_ptr<virtio::VirtqueueDriver> queue_;
  // Bumped by each Open; a slot records the session that claimed it.
  uint64_t session_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint16_t> free_slots_;
  // The slot of each submitted request, by its chain's head descriptor
  // index (kNoSlot when none). Heads are small dense integers, so a flat
  // table serves: no node allocation and no ordered walk per request.
  std::vector<uint16_t> head_slots_;
  size_t in_flight_count_ = 0;
  std::vector<Staged> staged_;             // awaiting the next batch flush
  // Armed while a batch flush is pending; cancelled when the batch aborts.
  sim::ScopedEvent flush_;
  std::unique_ptr<fabric::DoorbellBatcher> bells_;
  std::function<void()> on_slot_available_;
  // Why the session was last torn down. Submit-path continuations that find
  // the session gone report this, so a provider power loss surfaces as
  // Unavailable (not a generic Aborted) in every interleaving.
  Status reset_reason_ = Aborted("session reset during submit");
  uint64_t peer_failed_hook_ = 0;
  uint64_t permanent_failed_hook_ = 0;
  // The periodic completion-poll backstop; cancelled on session turnover.
  sim::ScopedEvent poll_;
};

// Session-less file administration from any device: create or delete a file
// on a file-service provider (used e.g. by the KVS compactor to roll logs).
void CreateRemoteFile(dev::Device* host, DeviceId provider, const std::string& name,
                      uint64_t auth_token, std::function<void(Status)> done);
void DeleteRemoteFile(dev::Device* host, DeviceId provider, const std::string& name,
                      uint64_t auth_token, std::function<void(Status)> done);
void ListRemoteFiles(dev::Device* host, DeviceId provider, uint64_t auth_token,
                     std::function<void(Result<std::vector<std::string>>)> done);

}  // namespace lastcpu::ssddev

#endif  // SRC_SSDDEV_FILE_CLIENT_H_

// KvsEngine: the paper's Sec. 3 application logic, running on the smart NIC.
//
// "The data (keys and values) are stored in a file hosted by a smart SSD,
// while the operations (get, insert, update, etc.) are processed in a
// smart-NIC." The engine keeps a hash index (key -> log offset) in NIC
// memory, appends puts/deletes to the SSD log through the file service, and
// serves gets by reading the log at the indexed offset — a KV-Direct/
// LightStore-style log-structured store with zero CPU involvement.
//
// Log compaction (implemented future work): overwrites and deletes leave dead
// bytes in the log. When the garbage ratio crosses a threshold the engine
// rewrites live records into a fresh generation file ("kv.log.N"), seals it
// with a commit-marker record, atomically swaps its index/session over, and
// deletes the old generation — entirely via the remote file service. New ops
// queue from the moment a compaction starts; the index snapshot is taken only
// once the old session has drained, so it holds every acked write. The copy
// runs in old-log order: one read covers a run of live records (dead bytes
// between them included) and whole records are packed into few appends. The
// superseded session and an aborted compaction's session are closed, so their
// ring memory goes back to the memory controller.
// Recovery lists the provider's files and adopts the newest *committed*
// generation (an uncommitted one is half-copied debris and is deleted).
#ifndef SRC_KVS_KVS_ENGINE_H_
#define SRC_KVS_KVS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/move_fn.h"
#include "src/dev/device.h"
#include "src/kvs/kvs_protocol.h"
#include "src/ssddev/file_client.h"

namespace lastcpu::kvs {

// In-memory index: key -> location of its newest log record.
class HashIndex {
 public:
  struct Location {
    uint64_t offset = 0;
    uint32_t length = 0;  // full record bytes
  };

  void Put(const std::string& key, Location location);
  bool Get(const std::string& key, Location* out) const;
  void Remove(const std::string& key);

  size_t size() const { return map_.size(); }
  // Approximate NIC-DRAM footprint (keys + entries).
  uint64_t memory_bytes() const { return memory_bytes_; }
  const std::unordered_map<std::string, Location>& entries() const { return map_; }

 private:
  std::unordered_map<std::string, Location> map_;
  uint64_t memory_bytes_ = 0;
};

struct KvsEngineConfig {
  std::string log_file = "kv.log";
  uint64_t auth_token = 0;
  // Compaction trigger: dead-byte fraction of the log (0 disables) and the
  // minimum log size before compaction is considered.
  double compact_garbage_ratio = 0.0;
  uint64_t min_compact_bytes = 64 << 10;
  // Propagated to every FileClient the engine creates (sessions and
  // compaction); enable completion_poll when running under fault injection.
  ssddev::FileClientConfig file_client;
};

class KvsEngine {
 public:
  using GetCallback = sim::MoveFn<void(Result<std::vector<uint8_t>>), 160>;
  using PutCallback = sim::MoveFn<void(Status), 160>;
  using StartCallback = std::function<void(Status)>;
  using Responder = std::function<void(std::vector<uint8_t>)>;

  // Runs on `host` (the NIC) in application address space `pasid`.
  KvsEngine(dev::Device* host, Pasid pasid, KvsEngineConfig config = {});

  // Brings the store up: discovers the file service, picks the newest
  // committed log generation, opens its session, and rebuilds the index by
  // scanning the log (crash recovery — the index is volatile NIC state).
  void Start(StartCallback done);
  bool running() const { return running_; }

  // --- the KVS operations ----------------------------------------------------

  void Get(const std::string& key, GetCallback done);
  void Put(const std::string& key, std::vector<uint8_t> value, PutCallback done);
  void Delete(const std::string& key, PutCallback done);

  // Decodes one network request, executes it, and encodes the response.
  void HandleRequest(std::vector<uint8_t> wire, Responder respond);

  // Wiring: the host forwards matching doorbells here.
  bool HandleDoorbell(DeviceId from, uint64_t value);

  // Recovery/teardown: drop the session (e.g. the SSD died); Start() again
  // re-opens and re-scans.
  void Stop(Status reason);

  // Rewrites live records into the next log generation now (normally driven
  // automatically by the garbage-ratio trigger).
  void CompactNow(StartCallback done);
  bool compacting() const { return compaction_ != nullptr; }
  uint32_t generation() const { return generation_; }
  uint64_t log_tail_bytes() const { return log_tail_; }
  uint64_t live_bytes() const { return live_bytes_; }

  const HashIndex& index() const { return index_; }
  ssddev::FileClient& file() { return *file_; }
  sim::StatsRegistry& stats() { return stats_; }

  // Operations queued while every session slot is in flight (backpressure
  // instead of rejection under burst load).
  size_t queued_ops() const { return waiting_.size(); }

 private:
  // The commit-marker record sealing a compacted generation. The leading
  // control byte keeps it out of the application keyspace.
  static const std::string& CommitMarkerKey();

  std::string GenName(uint32_t generation) const;
  // Parses a generation number out of a candidate file name; nullopt if the
  // name does not belong to this store.
  std::optional<uint32_t> GenOf(const std::string& name) const;

  // Start pipeline: list provider files -> try candidates newest-first.
  void StartWithProvider(DeviceId provider, StartCallback done);
  void TryCandidate(DeviceId provider, std::vector<uint32_t> candidates, size_t index,
                    StartCallback done);
  // Recovery scan of the open session's log into the index.
  void RecoverFrom(uint64_t offset, std::function<void(Status)> done);

  // Compaction pipeline: CompactNow creates and opens the next generation;
  // StartCopy snapshots the index once the old session has drained; CopyNext
  // alternates ReadRun (one read per run of live records) and AppendPack (one
  // append per pack of whole records); Seal appends the commit marker;
  // FinishCompaction swaps. Every completion names its compaction by id and
  // does nothing once that compaction has ended.
  struct Compaction {
    enum class Phase { kOpening, kDraining, kCopying };
    uint64_t id = 0;
    Phase phase = Phase::kOpening;
    DeviceId provider;
    StartCallback done;
    std::unique_ptr<ssddev::FileClient> file;  // the next generation's session
    // The live records at the snapshot, in old-log order. Records before
    // `packed` are in the next generation, [packed, next) wait in `pack`, and
    // [next, read_end) in `read`, which holds the old log from `read_start`.
    std::vector<std::pair<std::string, HashIndex::Location>> live;
    size_t packed = 0;
    size_t next = 0;
    size_t read_end = 0;
    uint64_t read_start = 0;
    std::vector<uint8_t> read;
    std::vector<uint8_t> pack;
    HashIndex index;  // the next generation's
  };
  // The running compaction if `id` names it, else null.
  Compaction* Current(uint64_t id) const;
  void StartCopy();
  void CopyNext();
  void ReadRun();
  void AppendPack();
  void Seal();
  void FinishCompaction(uint64_t tail);
  void AbortCompaction(Status reason);
  // Detaches the running compaction and retires its session; returns the
  // compaction's callback.
  StartCallback EndCompaction();
  // Runs after each op on the serving session completes: a compaction waiting
  // for the session to drain starts its copy once the last op is in.
  void OpSettled();
  void MaybeCompact();

  // A closed client from spare_clients_, else a new one.
  std::unique_ptr<ssddev::FileClient> NewClient();
  // Closes a session the engine no longer serves from, reset or not.
  void Retire(std::unique_ptr<ssddev::FileClient> client);
  // Closes a client already in closing_, off its own completion stack.
  void CloseLater(ssddev::FileClient* client);
  // Closes the client at `it`, then moves it to spare_clients_.
  void CloseRetired(std::list<std::unique_ptr<ssddev::FileClient>>::iterator it);

  // 256-byte tier: a queued op captures a key, a record and a nested
  // 160-tier completion (256 bytes for a put) and must stay inline.
  using Op = sim::MoveFn<void(), 256>;

  // Runs `op` now if the session has a free slot (and no compaction is in
  // progress), else queues it.
  void RunOrQueue(Op op);
  void PumpWaiting();

  dev::Device* host_;
  Pasid pasid_;
  KvsEngineConfig config_;
  std::unique_ptr<ssddev::FileClient> file_;
  HashIndex index_;
  bool running_ = false;
  std::string active_file_;
  uint32_t generation_ = 0;
  uint64_t log_tail_ = 0;    // high-water mark of appended bytes
  uint64_t live_bytes_ = 0;  // bytes of records the index still references
  bool commit_seen_ = false;

  std::unique_ptr<Compaction> compaction_;
  uint64_t next_compaction_id_ = 0;
  // Clients of sessions the engine no longer serves from. A client stays in
  // closing_ until its Close completes (Close's RPC callbacks capture it),
  // then waits in spare_clients_ for a later compaction or recovery to open
  // it again. It lives as long as the engine: a DMA of its old session may
  // still complete into it, and a reopened client hands out no slot that
  // DMA still holds.
  std::list<std::unique_ptr<ssddev::FileClient>> closing_;
  std::list<std::unique_ptr<ssddev::FileClient>> spare_clients_;

  // Ops waiting for a slot; finished entries wait in spare_ops_ for the next
  // one, so queueing allocates nothing once warm.
  std::list<Op> waiting_;
  std::list<Op> spare_ops_;
  sim::StatsRegistry stats_;
  // Per-op counters resolved once; registry references are stable.
  sim::Counter& gets_ = stats_.GetCounter("gets");
  sim::Counter& puts_ = stats_.GetCounter("puts");
  sim::Counter& ops_queued_ = stats_.GetCounter("ops_queued");
};

}  // namespace lastcpu::kvs

#endif  // SRC_KVS_KVS_ENGINE_H_

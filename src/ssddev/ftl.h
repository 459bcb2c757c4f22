// Flash translation layer: page-mapped, with greedy/cost-benefit garbage
// collection, wear-leveling, and a persistent mapping log.
//
// Exposes a flat logical-page space (the usable capacity after
// over-provisioning) on top of the NAND constraints: out-of-place writes,
// per-die striping for parallelism, invalidation tracking, and background GC
// that relocates valid pages out of the emptiest victim block before erasing
// it. Write amplification is measured, not assumed.
//
// Durability model. Every data program carries an OOB tag {seq, lpn, file
// identity}; trims and filesystem metadata are journaled as records batched
// into dedicated meta pages. The mapping is therefore reconstructible from
// media alone: Recover() scans every OOB area, merges highest-seq-wins per
// lpn, applies trim tombstones, discards torn pages (interrupted programs),
// and reseeds the sequence counter past everything seen. GC relocations
// rewrite the source page's tag under a fresh sequence number, so a power cut
// mid-GC leaves either the old or the new copy the winner — never neither.
// There is no checkpoint: recovery cost is one full OOB scan (charged to the
// dies as modeled busy time).
#ifndef SRC_SSDDEV_FTL_H_
#define SRC_SSDDEV_FTL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/move_fn.h"
#include "src/base/status.h"
#include "src/ssddev/nand.h"

namespace lastcpu::ssddev {

struct FtlConfig {
  double over_provisioning = 0.25;  // fraction of raw capacity reserved
  // SSD-DRAM read cache (pages). Hot logical pages are served from device
  // DRAM without occupying a NAND die. 0 disables.
  uint32_t read_cache_pages = 1024;
};

// A durable journal record carried in meta pages. Trim tombstones and
// filesystem metadata share one record stream; each record owns a sequence
// number drawn from the same counter as data-page OOB tags, so replay is a
// single highest-seq-wins merge across both streams.
struct MetaRecord {
  enum class Kind : uint8_t { kTrim = 1, kFsCreate = 2, kFsDelete = 3, kFsAcl = 4 };
  Kind kind = Kind::kTrim;
  uint64_t seq = 0;      // assigned by AppendMeta
  uint64_t lpn = 0;      // kTrim
  uint32_t file_id = 0;  // kFs*
  std::string name;      // kFsCreate
  std::string acl_owner;
  std::vector<std::string> acl_readers;
  std::vector<std::string> acl_writers;
};

// One live data page with a filesystem identity, as rebuilt by Recover().
struct RecoveredFilePage {
  uint32_t file_id = 0;
  uint32_t file_page = 0;
  uint64_t lpn = 0;
  uint64_t seq = 0;
  uint64_t size_after = 0;
};

class Ftl {
 public:
  // Reads complete with a view of the page, not an owned copy: the bytes are
  // valid only for the duration of the callback (they are the NAND's own
  // page buffer, which the read cache shares). Callers that need data past
  // the callback copy the slice they want — which every caller does anyway,
  // so no read path pays a full-page copy.
  // 240-byte tier: the widest with which this callback alone still fits an
  // EventFn's 256-byte buffer exactly. FlashFs's continuations need far less;
  // each captures an iterator into its read or write queue and an offset or
  // two.
  using ReadCallback = sim::MoveFn<void(Result<std::span<const uint8_t>>), 240>;
  using WriteCallback = sim::MoveFn<void(Status), 240>;

  // Filesystem identity journaled with a data page (all-zero = anonymous).
  struct FileTag {
    uint32_t file_id = 0;
    uint32_t file_page = 0;
    uint64_t size_after = 0;
  };

  Ftl(sim::Simulator* simulator, NandArray* nand, FtlConfig config = {});

  // Host-visible logical pages.
  uint64_t logical_pages() const { return logical_pages_; }

  // Reads a logical page. Unwritten pages return NotFound.
  void Read(uint64_t lpn, ReadCallback done);

  // Writes a logical page out of place; old data is invalidated. Writes to
  // the same lpn are serialized in submission order (media sequence numbers
  // must match ack order, or recovery could resurrect a superseded value).
  void Write(uint64_t lpn, std::vector<uint8_t> data, WriteCallback done);
  void Write(uint64_t lpn, std::vector<uint8_t> data, FileTag tag, WriteCallback done);

  // Discards a logical page (file deletion path). Applied in memory
  // immediately; the durable tombstone rides the next meta-page flush.
  void Trim(uint64_t lpn);

  // Appends a journal record (assigns its seq). Records buffer in DRAM and
  // flush to a meta page when the buffer fills or SyncMeta is called.
  void AppendMeta(MetaRecord record);
  // Completes once every record appended so far is durable on media.
  void SyncMeta(WriteCallback done);

  // The power rail drops: every in-flight host op fails with Unavailable,
  // unflushed journal records are lost, all volatile state (mapping, block
  // accounting, cache) is dropped, and the NAND tears in-flight programs.
  void PowerCut();

  // Rebuilds mapping and block accounting from the media's OOB stream, then
  // exposes the replayed record stream / live file pages for the filesystem
  // layer. Charges one full OOB scan of modeled busy time to each die.
  void Recover();
  const std::vector<MetaRecord>& recovered_meta() const { return recovered_meta_; }
  const std::vector<RecoveredFilePage>& recovered_file_pages() const {
    return recovered_file_pages_;
  }

  bool IsMapped(uint64_t lpn) const;

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

  // nand-writes / host-writes; 0 when nothing written yet. Meta-page and GC
  // programs count as nand writes (they are the amplification).
  double WriteAmplification() const;
  uint64_t host_writes() const { return host_writes_; }
  uint64_t nand_writes() const { return nand_writes_; }
  uint64_t gc_runs() const { return gc_runs_; }
  uint64_t gc_relocated_pages() const { return gc_relocated_pages_; }
  uint64_t write_stalls() const { return write_stalls_; }
  uint64_t recoveries() const { return recoveries_; }
  sim::StatsRegistry& stats() { return stats_; }

 private:
  // lpn_of_page sentinel for meta (journal) pages: live, but not mapped.
  static constexpr int64_t kMetaPage = -2;

  struct BlockInfo {
    std::vector<int64_t> lpn_of_page;  // -1 = invalid / erased; -2 = meta
    uint32_t valid = 0;
    uint32_t next_page = 0;  // program cursor; == pages_per_block when full
    uint32_t inflight = 0;   // programs issued but not yet completed
    bool is_active = false;
    bool is_free = true;
    sim::SimTime last_program;  // cost-benefit GC age
  };

  struct DieState {
    std::vector<BlockInfo> blocks;
    std::deque<uint32_t> free_blocks;
    std::optional<uint32_t> active_block;
  };

  // An op queued behind an in-flight write to the same lpn: either a write
  // (data + tag, completion in pending_writes_) or a trim.
  struct QueuedOp {
    bool is_trim = false;
    std::vector<uint8_t> data;
    FileTag tag;
    uint64_t op = 0;
  };

  // Completions of in-flight host ops by ascending op id, so a power cut
  // fails them in issue order. Finished ops' map nodes are kept for the
  // next ones: filing an op allocates nothing in steady state.
  template <typename Callback>
  class PendingOps {
   public:
    void Add(uint64_t op, Callback done) {
      if (spare_.empty()) {
        ops_.emplace_hint(ops_.end(), op, std::move(done));
        return;
      }
      auto node = std::move(spare_.back());
      spare_.pop_back();
      node.key() = op;
      node.mapped() = std::move(done);
      // Op ids only grow, so the new op goes last.
      ops_.insert(ops_.end(), std::move(node));
    }
    std::optional<Callback> Take(uint64_t op) {
      auto it = ops_.find(op);
      if (it == ops_.end()) {
        return std::nullopt;
      }
      auto node = ops_.extract(it);
      std::optional<Callback> done(std::move(node.mapped()));
      spare_.push_back(std::move(node));
      return done;
    }
    // Removes every op, in ascending id order.
    std::map<uint64_t, Callback> TakeAll() { return std::exchange(ops_, {}); }

   private:
    std::map<uint64_t, Callback> ops_;
    std::vector<typename std::map<uint64_t, Callback>::node_type> spare_;
  };

  struct StalledWrite {
    uint64_t lpn = 0;
    std::vector<uint8_t> data;
    FileTag tag;
    uint64_t op = 0;
  };

  void InitVolatile();

  // Pending-op registry: every host completion is delivered through a take,
  // so a power cut can fail all in-flight ops exactly once and late NAND
  // completions (already dropped by the array's generation check) can never
  // double-deliver.
  std::optional<ReadCallback> TakeRead(uint64_t op);
  std::optional<WriteCallback> TakeWrite(uint64_t op);
  void FailWriteSoon(uint64_t op, Status status);

  // Claims the next programmable PPA, opening a fresh block when needed.
  Result<Ppa> ClaimSlot();

  void StartWrite(uint64_t lpn, std::vector<uint8_t> data, FileTag tag, uint64_t op);
  // Runs the ops queued behind the lpn's finished write, or releases its
  // write gate when none is left.
  void FinishLpnOp(uint64_t lpn);
  void ApplyTrim(uint64_t lpn);

  // Records that `ppa` now holds `lpn` (and invalidates any prior location).
  void CommitMapping(uint64_t lpn, Ppa ppa, uint64_t seq);
  void InvalidateCurrent(uint64_t lpn);

  // Meta journal: group-commit flush of the DRAM record buffer.
  void MaybeFlushMeta();
  void FlushMeta();

  // Read-cache (LRU over logical pages backed by SSD DRAM). A cached page is
  // the NAND's own immutable page buffer, so a fill copies nothing and a hit
  // hands out a reference — in-flight readers keep evicted pages alive.
  // Inserts carry the write epoch observed when the miss started; a
  // write/trim in between bumps the epoch and the stale fill is dropped.
  // Lookup returns nullptr on a miss.
  const PageData* CacheLookup(uint64_t lpn);
  void CacheInsert(uint64_t lpn, uint32_t epoch, const PageData& data);
  void CacheInvalidate(uint64_t lpn);
  void CacheClear();

  // Kicks GC if any die runs low on free blocks. One collection at a time.
  std::optional<std::pair<uint32_t, uint32_t>> FindVictim() const;
  bool CanGcReclaim() const;
  void MaybeStartGc();
  void RelocateNext(uint32_t die, uint32_t block, std::vector<uint32_t> pages, size_t index);
  void RelocateMetaPage(uint32_t die, uint32_t block, std::vector<uint32_t> pages, size_t index,
                        Ppa source);
  void FinishGc(uint32_t die, uint32_t block);
  // GC cannot relocate for lack of slots: fail everything waiting on it.
  void AbortGcWedged(const Status& why);
  void PumpStalled();

  sim::Simulator* simulator_;
  NandArray* nand_;
  FtlConfig config_;
  uint64_t logical_pages_;
  std::vector<std::optional<Ppa>> mapping_;
  // Media sequence number of the tag backing each mapping (tombstone pruning
  // during meta-page relocation compares against this).
  std::vector<uint64_t> mapping_seq_;
  std::vector<DieState> dies_;
  uint32_t next_die_ = 0;
  bool gc_in_progress_ = false;
  bool powered_off_ = false;
  uint64_t seq_ = 1;
  uint64_t host_writes_ = 0;
  uint64_t nand_writes_ = 0;
  uint64_t gc_runs_ = 0;
  uint64_t gc_relocated_pages_ = 0;
  uint64_t write_stalls_ = 0;
  uint64_t recoveries_ = 0;

  uint64_t next_op_ = 1;
  PendingOps<ReadCallback> pending_reads_;
  PendingOps<WriteCallback> pending_writes_;
  // Per-lpn write gate: set while a write to the lpn is on its way to media.
  std::vector<bool> write_gate_;
  // Ops waiting on a held gate, for the lpns that have any.
  std::map<uint64_t, std::deque<QueuedOp>> gate_queues_;
  std::deque<StalledWrite> stalled_;

  // Meta journal buffer and group-commit state. Waiters attached to the
  // in-flight flush complete with it; waiters needing records buffered after
  // the flush started ride the next one.
  std::vector<MetaRecord> meta_buffer_;
  size_t meta_buffer_bytes_ = 0;
  bool meta_flush_in_flight_ = false;
  bool meta_flush_stalled_ = false;
  std::vector<WriteCallback> meta_waiters_inflight_;
  std::vector<WriteCallback> meta_waiters_queued_;

  std::vector<MetaRecord> recovered_meta_;
  std::vector<RecoveredFilePage> recovered_file_pages_;

  // LRU read cache: list front = most recent. The index maps every lpn to
  // its list entry, or to cache_lru_.end() when the page is not cached.
  // Entries of invalidated pages wait in cache_spare_ for the next fill, and
  // a fill into a full cache takes the least recent entry: once warm, the
  // cache allocates nothing.
  using CacheList = std::list<std::pair<uint64_t, PageData>>;
  CacheList cache_lru_;
  CacheList cache_spare_;
  std::vector<CacheList::iterator> cache_index_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  std::vector<uint32_t> write_epoch_;
  sim::StatsRegistry stats_;
  // Per-IO counters resolved once; registry references are stable.
  sim::Counter& host_reads_stat_ = stats_.GetCounter("host_reads");
  sim::Counter& host_writes_stat_ = stats_.GetCounter("host_writes");
  sim::Counter& cache_hits_stat_ = stats_.GetCounter("cache_hits");
};

}  // namespace lastcpu::ssddev

#endif  // SRC_SSDDEV_FTL_H_

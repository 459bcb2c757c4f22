// FlashFs: the flat-namespace filesystem a smart SSD exposes as a service
// (paper Sec. 2.1: "a smart SSD that exposes a file system").
//
// Files are page-extent lists over the FTL's logical space. Per-file ACLs
// implement Sec. 4's access control ("access control to an individual file is
// implemented by the file system service"). Metadata lives in SSD DRAM for
// speed, but every mutation is journaled through the FTL's persistent meta
// log (create/delete/acl records) and every data page carries its file
// identity in the OOB tag — so the whole namespace is reconstructible from
// media after a power cut:
//
//  - Create() journals a create record and inserts a sync barrier ahead of
//    the file's data writes: no data write is acked before the record that
//    names the file is durable (otherwise recovery would orphan the pages).
//  - Delete() trims the pages (journaling tombstones) and parks the lpns
//    until the delete record is durable, so they cannot be recycled into a
//    state an old create record would resurrect.
//  - Each data page's tag records the file size made durable by that page;
//    a recovered file's size is the max over its surviving pages — the
//    acked durable prefix, never optimistic DRAM state.
#ifndef SRC_SSDDEV_FLASH_FS_H_
#define SRC_SSDDEV_FLASH_FS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sim/move_fn.h"
#include "src/base/status.h"
#include "src/ssddev/ftl.h"

namespace lastcpu::ssddev {

// Per-file access control list. Empty sets mean "owner only".
struct FileAcl {
  std::string owner;
  std::set<std::string> readers;
  std::set<std::string> writers;

  bool MayRead(const std::string& user) const {
    return user == owner || readers.contains(user);
  }
  bool MayWrite(const std::string& user) const {
    return user == owner || writers.contains(user);
  }
};

struct FileInfo {
  uint64_t size = 0;
  uint64_t pages = 0;
  FileAcl acl;
};

class FlashFs {
 public:
  using ReadCallback = sim::MoveFn<void(Result<std::vector<uint8_t>>), 160>;
  // 192-byte tier: Append's completion (an offset plus a 160-tier callback)
  // stays inline.
  using WriteCallback = sim::MoveFn<void(Status), 192>;

  explicit FlashFs(Ftl* ftl);

  // --- metadata (SSD-DRAM resident, synchronous) ----------------------------

  Status Create(const std::string& name, FileAcl acl = {});
  Status Delete(const std::string& name);
  bool Exists(const std::string& name) const;
  Result<FileInfo> Stat(const std::string& name) const;
  std::vector<std::string> List() const;
  Status SetAcl(const std::string& name, FileAcl acl);

  // --- data (flash resident, asynchronous) ----------------------------------

  // Reads [offset, offset+length) clamped to the file size; reading entirely
  // past EOF yields an empty buffer.
  void Read(const std::string& name, uint64_t offset, uint64_t length, ReadCallback done);

  // Writes at `offset`, extending the file as needed (sparse gaps read as
  // zeros). Partial-page writes read-modify-write the underlying page.
  void Write(const std::string& name, uint64_t offset, std::vector<uint8_t> data,
             WriteCallback done);

  // Appends atomically at the current EOF; reports the offset written.
  void Append(const std::string& name, std::vector<uint8_t> data,
              sim::MoveFn<void(Result<uint64_t>), 160> done);

  // The power rail drops: every queued (not yet started) write fails with
  // Unavailable immediately — in-flight ones fail when the FTL flushes its
  // pending-op registry — and all DRAM metadata is discarded.
  void PowerCut();

  // Rebuilds the namespace from the FTL's replayed journal (must run after
  // Ftl::Recover()). Orphan pages — data whose create record never became
  // durable, or stragglers of deleted files — are trimmed back to the pool.
  void Recover();

  uint64_t free_pages() const;
  uint64_t total_pages() const { return ftl_->logical_pages(); }

 private:
  struct Inode {
    uint32_t id = 0;  // journaled identity; data-page tags carry it
    uint64_t size = 0;
    // Bytes known durable on media (≤ size, which is reserved optimistically
    // when a write is accepted): the end of the last write whose pages are
    // all on media. Data-page tags snapshot this so recovery reports it.
    uint64_t durable_size = 0;
    std::vector<uint64_t> lpns;  // one per page-sized extent
    FileAcl acl;
  };

  // Writes to one file go to media in submission order: concurrent
  // read-modify-writes of a shared tail page would otherwise lose updates.
  // A data write that starts takes with it, as one batch, every queued write
  // to the same file that begins where the one before it ends. The batch
  // walks its pages once, each page it touches is read-modify-written and
  // programmed once, and its writes complete in order when its last page is
  // durable: appends queued behind a running write share its page programs.
  // A gap, a barrier or another file ends a batch. Barriers (created by
  // Create) hold the queue until the meta journal is durable. A structured
  // queue — not opaque thunks — lets PowerCut fail everything still waiting.
  struct QueuedWrite {
    enum class Kind : uint8_t { kData, kBarrier };
    Kind kind = Kind::kData;
    uint32_t file_id = 0;  // the inode written (kData)
    uint64_t offset = 0;
    std::vector<uint8_t> data;
    WriteCallback done;
  };
  // One file's queue. Its first `running` entries, a barrier or a batch of
  // data writes, are at work and keep their bytes and completions here, so
  // the FTL completions on their way capture only the queue. Finished
  // entries wait in `spare` for the next writes, so a steady stream of
  // writes allocates no queue storage. A file keeps its queue from its first
  // write until it is deleted; a queue whose file is gone goes once it
  // drains.
  struct WriteQueue {
    std::list<QueuedWrite> writes;
    std::list<QueuedWrite> spare;
    size_t running = 0;
  };
  using WriteQueues = std::map<std::string, WriteQueue>;
  // A read in flight: its file, first byte, result buffer and completion. The
  // FTL completions on its way capture only the entry. Finished entries wait
  // in spare_reads_ for the next read, so a warm read allocates only its
  // result.
  struct PendingRead {
    std::string name;
    uint32_t file_id = 0;
    uint64_t offset = 0;
    std::vector<uint8_t> out;
    ReadCallback done;
  };
  using Reads = std::list<PendingRead>;

  // The file `name` names, when it is still the inode `id`: a file deleted
  // and created again under the same name is a different file.
  Inode* FindInode(const std::string& name, uint32_t id);
  Result<uint64_t> AllocLpn();
  // Ensures the inode has backing pages through byte `end`.
  Status EnsureCapacity(Inode& inode, uint64_t end);

  // The page walk of a queue's running batch, shared by Write/Append: writes
  // file page `page`, then the next. Looks the inode up at every step so
  // mid-flight deletion aborts cleanly.
  void WritePages(WriteQueues::iterator queue, uint64_t page);
  // Copies each running write's slice of the tag's page into `page` (empty,
  // or the page's current bytes) and writes it to `lpn`.
  void WritePage(WriteQueues::iterator queue, uint64_t lpn, Ftl::FileTag tag,
                 std::vector<uint8_t> page);
  // Completes the running barrier or batch, in submission order, and starts
  // what waits behind it.
  void FinishWrite(WriteQueues::iterator queue, Status status);
  // The one page walk of a read: copies page `page`'s slice into the result,
  // then reads the next page. The file's existence is checked before each
  // page and after the last, so mid-flight deletion aborts cleanly.
  void ReadPage(Reads::iterator read, uint64_t page);
  void FinishRead(Reads::iterator read, Status status);

  void EnqueueWrite(const std::string& name, QueuedWrite queued);
  void PumpWrites(WriteQueues::iterator queue);

  Ftl* ftl_;
  std::map<std::string, Inode> files_;
  std::deque<uint64_t> free_lpns_;
  uint64_t next_lpn_ = 0;
  uint32_t next_file_id_ = 1;
  WriteQueues write_queues_;
  Reads reads_;
  Reads spare_reads_;
};

}  // namespace lastcpu::ssddev

#endif  // SRC_SSDDEV_FLASH_FS_H_

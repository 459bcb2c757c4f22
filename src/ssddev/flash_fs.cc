#include "src/ssddev/flash_fs.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::ssddev {
namespace {

MetaRecord AclRecord(MetaRecord::Kind kind, uint32_t file_id, const std::string& name,
                     const FileAcl& acl) {
  MetaRecord record;
  record.kind = kind;
  record.file_id = file_id;
  record.name = name;
  record.acl_owner = acl.owner;
  record.acl_readers.assign(acl.readers.begin(), acl.readers.end());
  record.acl_writers.assign(acl.writers.begin(), acl.writers.end());
  return record;
}

FileAcl AclFromRecord(const MetaRecord& record) {
  FileAcl acl;
  acl.owner = record.acl_owner;
  acl.readers.insert(record.acl_readers.begin(), record.acl_readers.end());
  acl.writers.insert(record.acl_writers.begin(), record.acl_writers.end());
  return acl;
}

}  // namespace

FlashFs::FlashFs(Ftl* ftl) : ftl_(ftl) { LASTCPU_CHECK(ftl != nullptr, "filesystem needs an FTL"); }

Status FlashFs::Create(const std::string& name, FileAcl acl) {
  if (name.empty()) {
    return InvalidArgument("empty file name");
  }
  if (files_.contains(name)) {
    return AlreadyExists("file exists: " + name);
  }
  Inode inode;
  inode.id = next_file_id_++;
  inode.acl = acl;
  ftl_->AppendMeta(AclRecord(MetaRecord::Kind::kFsCreate, inode.id, name, acl));
  files_.emplace(name, std::move(inode));
  // Barrier: the file's first data-write ack must imply the create record is
  // durable, or recovery would orphan the acked pages. The per-file queue
  // holds data writes behind this journal sync.
  QueuedWrite barrier;
  barrier.kind = QueuedWrite::Kind::kBarrier;
  EnqueueWrite(name, std::move(barrier));
  return OkStatus();
}

Status FlashFs::Delete(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFound("no such file: " + name);
  }
  std::vector<uint64_t> lpns = std::move(it->second.lpns);
  uint32_t id = it->second.id;
  files_.erase(it);
  auto queue = write_queues_.find(name);
  if (queue != write_queues_.end() && queue->second.running == 0) {
    write_queues_.erase(queue);  // idle, so empty: a running one goes once it drains
  }
  for (uint64_t lpn : lpns) {
    ftl_->Trim(lpn);
  }
  MetaRecord record;
  record.kind = MetaRecord::Kind::kFsDelete;
  record.file_id = id;
  ftl_->AppendMeta(std::move(record));
  // Park the lpns until the delete record and trim tombstones are durable:
  // recycling them earlier could hand a not-yet-dead file's pages to a new
  // one. If the sync fails the lpns leak until the next recovery reclaims
  // them — safe, just not reused.
  ftl_->SyncMeta([this, lpns = std::move(lpns)](Status s) mutable {
    if (s.ok()) {
      for (uint64_t lpn : lpns) {
        free_lpns_.push_back(lpn);
      }
    }
  });
  return OkStatus();
}

bool FlashFs::Exists(const std::string& name) const { return files_.contains(name); }

Result<FileInfo> FlashFs::Stat(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFound("no such file: " + name);
  }
  return FileInfo{it->second.size, it->second.lpns.size(), it->second.acl};
}

std::vector<std::string> FlashFs::List() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, inode] : files_) {
    names.push_back(name);
  }
  return names;
}

Status FlashFs::SetAcl(const std::string& name, FileAcl acl) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFound("no such file: " + name);
  }
  ftl_->AppendMeta(AclRecord(MetaRecord::Kind::kFsAcl, it->second.id, name, acl));
  it->second.acl = std::move(acl);
  return OkStatus();
}

uint64_t FlashFs::free_pages() const {
  uint64_t used = next_lpn_ - free_lpns_.size();
  return ftl_->logical_pages() - used;
}

FlashFs::Inode* FlashFs::FindInode(const std::string& name, uint32_t id) {
  auto it = files_.find(name);
  return it != files_.end() && it->second.id == id ? &it->second : nullptr;
}

Result<uint64_t> FlashFs::AllocLpn() {
  if (!free_lpns_.empty()) {
    uint64_t lpn = free_lpns_.front();
    free_lpns_.pop_front();
    return lpn;
  }
  if (next_lpn_ >= ftl_->logical_pages()) {
    return ResourceExhausted("filesystem full");
  }
  return next_lpn_++;
}

Status FlashFs::EnsureCapacity(Inode& inode, uint64_t end) {
  uint64_t pages_needed = (end + kNandPageBytes - 1) / kNandPageBytes;
  while (inode.lpns.size() < pages_needed) {
    auto lpn = AllocLpn();
    if (!lpn.ok()) {
      return lpn.status();
    }
    inode.lpns.push_back(*lpn);
  }
  return OkStatus();
}

void FlashFs::Write(const std::string& name, uint64_t offset, std::vector<uint8_t> data,
                    WriteCallback done) {
  LASTCPU_CHECK(done != nullptr, "write without callback");
  auto it = files_.find(name);
  if (it == files_.end()) {
    done(NotFound("no such file: " + name));
    return;
  }
  if (data.empty()) {
    done(OkStatus());
    return;
  }
  Inode& inode = it->second;
  Status capacity = EnsureCapacity(inode, offset + data.size());
  if (!capacity.ok()) {
    done(capacity);
    return;
  }
  // Reserve the byte range now so concurrent appends see the new EOF.
  inode.size = std::max(inode.size, offset + data.size());
  QueuedWrite queued;
  queued.kind = QueuedWrite::Kind::kData;
  queued.file_id = inode.id;
  queued.offset = offset;
  queued.data = std::move(data);
  queued.done = std::move(done);
  EnqueueWrite(name, std::move(queued));
}

void FlashFs::EnqueueWrite(const std::string& name, QueuedWrite queued) {
  auto queue = write_queues_.try_emplace(name).first;
  WriteQueue& q = queue->second;
  if (q.spare.empty()) {
    q.writes.push_back(std::move(queued));
  } else {
    q.writes.splice(q.writes.end(), q.spare, q.spare.begin());
    q.writes.back() = std::move(queued);
  }
  if (q.running == 0) {
    PumpWrites(queue);
  }
}

void FlashFs::PumpWrites(WriteQueues::iterator queue) {
  WriteQueue& q = queue->second;
  if (q.writes.empty()) {
    if (!files_.contains(queue->first)) {
      write_queues_.erase(queue);
    }
    return;
  }
  q.running = 1;
  if (q.writes.front().kind == QueuedWrite::Kind::kBarrier) {
    ftl_->SyncMeta([this, queue](Status) {
      // Even a failed sync releases the queue; the writes behind it will
      // surface their own errors (or succeed un-journaled and be reclaimed
      // as orphans at the next recovery).
      FinishWrite(queue, OkStatus());
    });
    return;
  }
  for (auto prev = q.writes.begin(), next = std::next(prev);
       next != q.writes.end() && next->kind == QueuedWrite::Kind::kData &&
       next->file_id == prev->file_id && next->offset == prev->offset + prev->data.size();
       prev = next++) {
    ++q.running;
  }
  WritePages(queue, q.writes.front().offset / kNandPageBytes);
}

void FlashFs::FinishWrite(WriteQueues::iterator queue, Status status) {
  WriteQueue& q = queue->second;
  // The batch stays at the front, running, until each of its writes has
  // completed: writes that a completion submits queue behind it.
  auto write = q.writes.begin();
  for (size_t i = 0; i < q.running; ++i, ++write) {
    QueuedWrite finished = std::move(*write);
    if (finished.done != nullptr) {  // barriers have none
      finished.done(status);
    }
  }
  q.spare.splice(q.spare.begin(), q.writes, q.writes.begin(), write);
  q.running = 0;
  PumpWrites(queue);
}

void FlashFs::WritePages(WriteQueues::iterator queue, uint64_t page) {
  const WriteQueue& q = queue->second;
  const QueuedWrite& first = q.writes.front();
  const QueuedWrite& last = *std::next(q.writes.begin(), q.running - 1);
  const Inode* file = FindInode(queue->first, first.file_id);
  if (file == nullptr) {
    FinishWrite(queue, Aborted("file deleted during write"));
    return;
  }
  const Inode& inode = *file;
  uint64_t end = last.offset + last.data.size();
  uint64_t last_page = (end - 1) / kNandPageBytes;
  if (page > last_page) {
    FinishWrite(queue, OkStatus());
    return;
  }
  uint64_t page_start = page * kNandPageBytes;
  uint64_t slice_begin = std::max(first.offset, page_start);
  uint64_t slice_end = std::min(end, page_start + kNandPageBytes);
  uint64_t lpn = inode.lpns[page];
  // Journal the file identity with the page, and the file size durable once
  // it is on media. Only a batch's last page carries the batch's end, so a
  // batch torn by a power cut leaves the file at its old size: an append is
  // durable whole or not at all, never as a prefix later appends land behind.
  Ftl::FileTag tag{inode.id, static_cast<uint32_t>(page),
                   page == last_page ? std::max(inode.durable_size, slice_end)
                                     : inode.durable_size};

  bool full_page = slice_begin == page_start && slice_end == page_start + kNandPageBytes;
  if (full_page || !ftl_->IsMapped(lpn)) {
    // Fresh or fully-covered page: no read-modify-write needed.
    WritePage(queue, lpn, tag, {});
    return;
  }
  // Partial overwrite of existing data: read-modify-write.
  ftl_->Read(lpn, [this, queue, lpn, tag](Result<std::span<const uint8_t>> existing) {
    std::vector<uint8_t> base;
    if (existing.ok()) {
      base.assign(existing->begin(), existing->end());
    }
    WritePage(queue, lpn, tag, std::move(base));
  });
}

void FlashFs::WritePage(WriteQueues::iterator queue, uint64_t lpn, Ftl::FileTag tag,
                        std::vector<uint8_t> page) {
  const WriteQueue& q = queue->second;
  uint64_t page_start = uint64_t{tag.file_page} * kNandPageBytes;
  uint64_t page_end = page_start + kNandPageBytes;
  page.resize(kNandPageBytes, 0);
  auto write = q.writes.begin();
  for (size_t i = 0; i < q.running; ++i, ++write) {
    uint64_t slice_begin = std::max(write->offset, page_start);
    uint64_t slice_end = std::min(write->offset + write->data.size(), page_end);
    if (slice_begin < slice_end) {
      std::memcpy(page.data() + (slice_begin - page_start),
                  write->data.data() + (slice_begin - write->offset), slice_end - slice_begin);
    }
  }
  ftl_->Write(lpn, std::move(page), tag,
              [this, queue, page = tag.file_page, durable = tag.size_after](Status s) {
    if (!s.ok()) {
      FinishWrite(queue, s);
      return;
    }
    // This page is durable, and with it the size its tag carries.
    if (Inode* inode = FindInode(queue->first, queue->second.writes.front().file_id)) {
      inode->durable_size = std::max(inode->durable_size, durable);
    }
    WritePages(queue, uint64_t{page} + 1);
  });
}

void FlashFs::Append(const std::string& name, std::vector<uint8_t> data,
                     sim::MoveFn<void(Result<uint64_t>), 160> done) {
  LASTCPU_CHECK(done != nullptr, "append without callback");
  auto it = files_.find(name);
  if (it == files_.end()) {
    done(NotFound("no such file: " + name));
    return;
  }
  uint64_t offset = it->second.size;
  auto land = [offset, done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    done(offset);
  };
  static_assert(WriteCallback::StoresInline<decltype(land)>(), "append must stay inline");
  Write(name, offset, std::move(data), std::move(land));
}

void FlashFs::Read(const std::string& name, uint64_t offset, uint64_t length, ReadCallback done) {
  LASTCPU_CHECK(done != nullptr, "read without callback");
  auto it = files_.find(name);
  if (it == files_.end()) {
    done(NotFound("no such file: " + name));
    return;
  }
  uint64_t end = std::min(offset + length, it->second.size);
  if (offset >= end) {
    done(std::vector<uint8_t>());
    return;
  }
  if (spare_reads_.empty()) {
    reads_.emplace_back();
  } else {
    reads_.splice(reads_.end(), spare_reads_, spare_reads_.begin());
  }
  auto read = std::prev(reads_.end());
  read->name = name;
  read->file_id = it->second.id;
  read->offset = offset;
  read->out.assign(end - offset, 0);
  read->done = std::move(done);
  ReadPage(read, offset / kNandPageBytes);
}

void FlashFs::ReadPage(Reads::iterator read, uint64_t page) {
  const Inode* inode = FindInode(read->name, read->file_id);
  if (inode == nullptr) {
    FinishRead(read, Aborted("file deleted during read"));
    return;
  }
  if (page * kNandPageBytes >= read->offset + read->out.size()) {
    FinishRead(read, OkStatus());
    return;
  }
  auto land = [this, read, page](Result<std::span<const uint8_t>> page_data) {
    if (page_data.ok()) {
      std::span<const uint8_t> bytes = *page_data;
      uint64_t page_start = page * kNandPageBytes;
      uint64_t slice_begin = std::max(read->offset, page_start);
      uint64_t slice_end = std::min(read->offset + read->out.size(), page_start + kNandPageBytes);
      uint64_t src_off = slice_begin - page_start;
      if (src_off < bytes.size()) {
        std::memcpy(read->out.data() + (slice_begin - read->offset), bytes.data() + src_off,
                    std::min(slice_end - slice_begin, bytes.size() - src_off));
      }
    } else if (page_data.status().code() != StatusCode::kNotFound) {
      // Real media error: surface it. (NotFound = sparse hole, reads as 0s.)
      FinishRead(read, page_data.status());
      return;
    }
    ReadPage(read, page + 1);
  };
  static_assert(Ftl::ReadCallback::StoresInline<decltype(land)>(), "read must stay inline");
  ftl_->Read(inode->lpns[page], std::move(land));
}

void FlashFs::FinishRead(Reads::iterator read, Status status) {
  ReadCallback done = std::move(read->done);
  std::vector<uint8_t> out = std::move(read->out);
  spare_reads_.splice(spare_reads_.begin(), reads_, read);
  if (status.ok()) {
    done(std::move(out));
  } else {
    done(std::move(status));
  }
}

void FlashFs::PowerCut() {
  Status why = Unavailable("ssd power loss");
  // Every waiting write fails now, in name then queue order. A running batch
  // keeps its queue until the FTL fails its pending op.
  std::vector<QueuedWrite> doomed;
  for (auto it = write_queues_.begin(); it != write_queues_.end();) {
    std::list<QueuedWrite>& writes = it->second.writes;
    auto waiting = std::next(writes.begin(), it->second.running);
    std::move(waiting, writes.end(), std::back_inserter(doomed));
    writes.erase(waiting, writes.end());
    it = it->second.running > 0 ? std::next(it) : write_queues_.erase(it);
  }
  for (QueuedWrite& w : doomed) {
    if (w.done != nullptr) {
      w.done(why);
    }
  }
  files_.clear();
  free_lpns_.clear();
  next_lpn_ = 0;
  next_file_id_ = 1;
}

void FlashFs::Recover() {
  files_.clear();
  free_lpns_.clear();
  next_lpn_ = 0;

  // Replay the journal's file records in sequence order (Ftl::Recover sorted
  // them) into per-id state.
  struct FileRec {
    std::string name;
    FileAcl acl;
    bool alive = false;
    uint64_t created_seq = 0;
    uint64_t size = 0;
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> pages;  // file_page -> (lpn, seq)
  };
  std::map<uint32_t, FileRec> by_id;
  for (const MetaRecord& record : ftl_->recovered_meta()) {
    switch (record.kind) {
      case MetaRecord::Kind::kTrim:
        break;  // already applied by Ftl::Recover
      case MetaRecord::Kind::kFsCreate: {
        FileRec& rec = by_id[record.file_id];
        rec.name = record.name;
        rec.acl = AclFromRecord(record);
        rec.alive = true;
        rec.created_seq = record.seq;
        break;
      }
      case MetaRecord::Kind::kFsDelete:
        by_id[record.file_id].alive = false;
        break;
      case MetaRecord::Kind::kFsAcl: {
        auto it = by_id.find(record.file_id);
        if (it != by_id.end()) {
          it->second.acl = AclFromRecord(record);
        }
        break;
      }
    }
  }

  // A name may be claimed by several live records if a delete record was
  // lost with the rail; the newest creation wins and the loser's pages are
  // reclaimed as orphans.
  std::map<std::string, uint32_t> name_winner;
  for (const auto& [id, rec] : by_id) {
    if (!rec.alive) {
      continue;
    }
    auto [it, inserted] = name_winner.emplace(rec.name, id);
    if (!inserted && by_id[it->second].created_seq < rec.created_seq) {
      by_id[it->second].alive = false;
      it->second = id;
    } else if (!inserted) {
      by_id[id].alive = false;
    }
  }

  // Attach the surviving data pages; orphans go back to the FTL.
  std::vector<uint64_t> orphan_lpns;
  for (const RecoveredFilePage& page : ftl_->recovered_file_pages()) {
    auto it = by_id.find(page.file_id);
    if (it == by_id.end() || !it->second.alive) {
      orphan_lpns.push_back(page.lpn);
      continue;
    }
    FileRec& rec = it->second;
    auto [pit, inserted] = rec.pages.emplace(page.file_page, std::make_pair(page.lpn, page.seq));
    if (!inserted && pit->second.second < page.seq) {
      pit->second = {page.lpn, page.seq};
    }
    rec.size = std::max(rec.size, page.size_after);
  }
  for (uint64_t lpn : orphan_lpns) {
    ftl_->Trim(lpn);
  }

  // Build inodes (ascending id: deterministic), find the lpn high-water
  // mark, then fill sparse holes and the free pool from the unused range.
  uint64_t max_used_lpn = 0;
  bool any_used = false;
  std::set<uint64_t> used_lpns;
  for (const auto& [id, rec] : by_id) {
    if (!rec.alive) {
      continue;
    }
    for (const auto& [file_page, lpn_seq] : rec.pages) {
      used_lpns.insert(lpn_seq.first);
      max_used_lpn = std::max(max_used_lpn, lpn_seq.first);
      any_used = true;
    }
  }
  next_lpn_ = any_used ? max_used_lpn + 1 : 0;
  std::deque<uint64_t> unused;
  for (uint64_t lpn = 0; lpn < next_lpn_; ++lpn) {
    if (!used_lpns.contains(lpn)) {
      unused.push_back(lpn);
    }
  }
  uint32_t max_id = 0;
  for (const auto& [id, rec] : by_id) {
    max_id = std::max(max_id, id);
    if (!rec.alive) {
      continue;
    }
    Inode inode;
    inode.id = id;
    inode.acl = rec.acl;
    inode.size = rec.size;
    inode.durable_size = rec.size;
    uint64_t npages = (rec.size + kNandPageBytes - 1) / kNandPageBytes;
    if (!rec.pages.empty()) {
      npages = std::max<uint64_t>(npages, rec.pages.rbegin()->first + 1);
    }
    for (uint64_t p = 0; p < npages; ++p) {
      auto pit = rec.pages.find(static_cast<uint32_t>(p));
      if (pit != rec.pages.end()) {
        inode.lpns.push_back(pit->second.first);
      } else if (!unused.empty()) {
        // A hole (page never durably written, or its lpn trimmed): back it
        // with a fresh unmapped lpn so it reads as zeros.
        inode.lpns.push_back(unused.front());
        unused.pop_front();
      } else {
        inode.lpns.push_back(next_lpn_++);
      }
    }
    files_.emplace(rec.name, std::move(inode));
  }
  free_lpns_ = std::move(unused);
  next_file_id_ = max_id + 1;
}

}  // namespace lastcpu::ssddev

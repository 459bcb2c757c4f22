#include "src/ssddev/ftl.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "src/base/bytes.h"
#include "src/base/check.h"

namespace lastcpu::ssddev {
namespace {

constexpr uint32_t kGcFreeBlockThreshold = 2;  // per die, start GC below this
constexpr sim::Duration kReadCacheLatency = sim::Duration::Micros(1);
// Cost-benefit victim selection: blocks programmed within this window are
// skipped when an older candidate exists (young blocks are likely to keep
// self-invalidating; relocating them is wasted work).
constexpr sim::Duration kGcMinBlockAge = sim::Duration::Millis(2);
// When no slot is free but GC can still reclaim space, host writes stall in
// a bounded queue (pumped as GC frees blocks) instead of failing.
constexpr size_t kMaxStalledWrites = 256;
// Modeled per-page cost of the recovery OOB scan, charged to each die.
constexpr sim::Duration kRecoveryScanPerPage = sim::Duration::Nanos(200);

// Meta-page payload codec. One page holds `u32 count` followed by records:
//   u8 kind, u64 seq, u64 lpn, u32 file_id,
//   u16 name_len + bytes, u16 owner_len + bytes,
//   u16 n_readers + (u16 len + bytes)*, u16 n_writers + (u16 len + bytes)*
// Little-endian throughout. Decoding stops at the first record that does not
// fit the page and keeps the records before it (possible only on media
// corruption the NAND model does not currently produce; torn pages never
// reach the decoder).

constexpr size_t kMetaPageHeaderBytes = 4;
// An empty record: the fixed fields and four zero lengths.
constexpr size_t kMinRecordBytes = 1 + 8 + 8 + 4 + 2 + 2 + 2 + 2;

size_t EncodedSize(const MetaRecord& record) {
  size_t n = kMinRecordBytes + record.name.size() + record.acl_owner.size();
  for (const auto& s : record.acl_readers) n += 2 + s.size();
  for (const auto& s : record.acl_writers) n += 2 + s.size();
  return n;
}

void PutNames(ByteWriter& w, const std::vector<std::string>& names) {
  w.PutU16(static_cast<uint16_t>(names.size()));
  for (const auto& s : names) w.PutString<uint16_t>(s);
}

std::vector<uint8_t> EncodeMetaPage(const std::vector<MetaRecord>& records) {
  size_t bytes = kMetaPageHeaderBytes;
  for (const auto& record : records) bytes += EncodedSize(record);
  ByteWriter w(bytes);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const auto& record : records) {
    w.PutU8(static_cast<uint8_t>(record.kind));
    w.PutU64(record.seq);
    w.PutU64(record.lpn);
    w.PutU32(record.file_id);
    w.PutString<uint16_t>(record.name);
    w.PutString<uint16_t>(record.acl_owner);
    PutNames(w, record.acl_readers);
    PutNames(w, record.acl_writers);
  }
  return w.Take();
}

Status GetNames(ByteReader& r, std::vector<std::string>& out) {
  uint16_t count = 0;
  LASTCPU_RETURN_IF_ERROR(Assign(r.GetU16(), count));
  // Each name takes at least its u16 length: check before allocating.
  if (size_t{count} * 2 > r.remaining()) {
    return InvalidArgument("name count exceeds page");
  }
  out.resize(count);
  for (std::string& name : out) {
    LASTCPU_RETURN_IF_ERROR(Assign(r.GetString<uint16_t>(), name));
  }
  return OkStatus();
}

Status GetRecord(ByteReader& r, MetaRecord& record) {
  uint8_t kind = 0;
  LASTCPU_RETURN_IF_ERROR(Assign(r.GetU8(), kind));
  record.kind = static_cast<MetaRecord::Kind>(kind);
  LASTCPU_RETURN_IF_ERROR(Assign(r.GetU64(), record.seq));
  LASTCPU_RETURN_IF_ERROR(Assign(r.GetU64(), record.lpn));
  LASTCPU_RETURN_IF_ERROR(Assign(r.GetU32(), record.file_id));
  LASTCPU_RETURN_IF_ERROR(Assign(r.GetString<uint16_t>(), record.name));
  LASTCPU_RETURN_IF_ERROR(Assign(r.GetString<uint16_t>(), record.acl_owner));
  LASTCPU_RETURN_IF_ERROR(GetNames(r, record.acl_readers));
  return GetNames(r, record.acl_writers);
}

std::vector<MetaRecord> DecodeMetaPage(std::span<const uint8_t> data) {
  std::vector<MetaRecord> records;
  ByteReader r(data);
  uint32_t count = 0;
  if (!Assign(r.GetU32(), count).ok()) {
    return records;
  }
  // The count comes from media: reserve no more than the page can hold.
  records.reserve(std::min<size_t>(count, r.remaining() / kMinRecordBytes));
  for (uint32_t i = 0; i < count; ++i) {
    MetaRecord record;
    if (!GetRecord(r, record).ok()) {
      break;
    }
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace

Ftl::Ftl(sim::Simulator* simulator, NandArray* nand, FtlConfig config)
    : simulator_(simulator), nand_(nand), config_(config) {
  LASTCPU_CHECK(simulator != nullptr && nand != nullptr, "FTL needs simulator and NAND");
  LASTCPU_CHECK(config.over_provisioning > 0.0 && config.over_provisioning < 0.9,
                "over-provisioning must be in (0, 0.9)");
  const NandGeometry& geometry = nand->geometry();
  logical_pages_ =
      static_cast<uint64_t>(static_cast<double>(geometry.total_pages()) *
                            (1.0 - config.over_provisioning));
  InitVolatile();
}

void Ftl::InitVolatile() {
  const NandGeometry& geometry = nand_->geometry();
  mapping_.assign(logical_pages_, std::nullopt);
  mapping_seq_.assign(logical_pages_, 0);
  write_epoch_.assign(logical_pages_, 0);
  dies_.clear();
  dies_.resize(geometry.dies);
  for (auto& die : dies_) {
    die.blocks.resize(geometry.blocks_per_die);
    for (uint32_t b = 0; b < geometry.blocks_per_die; ++b) {
      die.blocks[b].lpn_of_page.assign(geometry.pages_per_block, -1);
      die.free_blocks.push_back(b);
    }
  }
  next_die_ = 0;
  gc_in_progress_ = false;
  write_gate_.assign(logical_pages_, false);
  gate_queues_.clear();
  stalled_.clear();
  meta_buffer_.clear();
  meta_buffer_bytes_ = 0;
  meta_flush_in_flight_ = false;
  meta_flush_stalled_ = false;
  CacheClear();
}

bool Ftl::IsMapped(uint64_t lpn) const {
  return lpn < logical_pages_ && mapping_[lpn].has_value();
}

double Ftl::WriteAmplification() const {
  if (host_writes_ == 0) {
    return 0.0;
  }
  return static_cast<double>(nand_writes_) / static_cast<double>(host_writes_);
}

std::optional<Ftl::ReadCallback> Ftl::TakeRead(uint64_t op) { return pending_reads_.Take(op); }

std::optional<Ftl::WriteCallback> Ftl::TakeWrite(uint64_t op) { return pending_writes_.Take(op); }

void Ftl::FailWriteSoon(uint64_t op, Status status) {
  simulator_->Schedule(sim::Duration::Nanos(100), [this, op, status = std::move(status)] {
    if (auto cb = TakeWrite(op)) {
      (*cb)(status);
    }
  });
}

const PageData* Ftl::CacheLookup(uint64_t lpn) {
  auto it = cache_index_[lpn];
  if (it == cache_lru_.end()) {
    return nullptr;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it);
  return &it->second;
}

void Ftl::CacheInsert(uint64_t lpn, uint32_t epoch, const PageData& data) {
  if (config_.read_cache_pages == 0) {
    return;
  }
  if (write_epoch_[lpn] != epoch) {
    stats_.GetCounter("cache_stale_fills_dropped").Increment();
    return;  // a write raced this fill; its data is stale
  }
  auto it = cache_index_[lpn];
  if (it != cache_lru_.end()) {
    it->second = data;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it);
    return;
  }
  if (!cache_spare_.empty()) {
    cache_lru_.splice(cache_lru_.begin(), cache_spare_, cache_spare_.begin());
  } else if (cache_lru_.size() < config_.read_cache_pages) {
    cache_lru_.emplace_front();
  } else {
    // Full: evict the least recent page and reuse its entry.
    cache_index_[cache_lru_.back().first] = cache_lru_.end();
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, std::prev(cache_lru_.end()));
  }
  cache_lru_.front() = {lpn, data};
  cache_index_[lpn] = cache_lru_.begin();
}

void Ftl::CacheInvalidate(uint64_t lpn) {
  auto it = cache_index_[lpn];
  if (it != cache_lru_.end()) {
    it->second = PageData();  // let go of the page now
    cache_spare_.splice(cache_spare_.begin(), cache_lru_, it);
    cache_index_[lpn] = cache_lru_.end();
  }
}

void Ftl::CacheClear() {
  cache_lru_.clear();
  cache_spare_.clear();
  cache_index_.assign(logical_pages_, cache_lru_.end());
}

void Ftl::Read(uint64_t lpn, ReadCallback done) {
  LASTCPU_CHECK(done != nullptr, "FTL read without callback");
  if (powered_off_) {
    simulator_->Schedule(sim::Duration::Nanos(100), [done = std::move(done)] {
      done(Unavailable("ssd power loss"));
    });
    return;
  }
  if (lpn >= logical_pages_) {
    simulator_->Schedule(sim::Duration::Nanos(100), [done = std::move(done)] {
      done(InvalidArgument("logical page out of range"));
    });
    return;
  }
  uint64_t op = next_op_++;
  pending_reads_.Add(op, std::move(done));
  if (!mapping_[lpn].has_value()) {
    simulator_->Schedule(sim::Duration::Nanos(100), [this, op] {
      if (auto cb = TakeRead(op)) {
        (*cb)(NotFound("unwritten logical page"));
      }
    });
    return;
  }
  host_reads_stat_.Increment();
  // Device-DRAM read cache: hot pages skip the NAND dies entirely. The hit
  // hands the caller a view of the shared page — no copy; the captured
  // reference keeps the page alive even if it is evicted before delivery.
  if (const PageData* cached = CacheLookup(lpn)) {
    ++cache_hits_;
    cache_hits_stat_.Increment();
    simulator_->Schedule(kReadCacheLatency, [this, op, page = *cached] {
      if (auto cb = TakeRead(op)) {
        (*cb)(std::span<const uint8_t>(page.bytes()));
      }
    });
    return;
  }
  ++cache_misses_;
  uint32_t epoch = write_epoch_[lpn];
  nand_->ReadPage(*mapping_[lpn], [this, lpn, epoch, op](Result<PageData> page) {
    auto cb = TakeRead(op);
    if (!cb.has_value()) {
      return;  // the op was failed by a power cut before media answered
    }
    if (!page.ok()) {
      (*cb)(page.status());
      return;
    }
    // The cache keeps the NAND's own buffer, which this read also hands out.
    CacheInsert(lpn, epoch, *page);
    (*cb)(std::span<const uint8_t>(page->bytes()));
  });
}

Result<Ppa> Ftl::ClaimSlot() {
  const NandGeometry& geometry = nand_->geometry();
  // Round-robin across dies for striping; skip dies with nothing available.
  for (uint32_t attempt = 0; attempt < geometry.dies; ++attempt) {
    uint32_t d = next_die_;
    next_die_ = (next_die_ + 1) % geometry.dies;
    DieState& die = dies_[d];
    if (die.active_block.has_value()) {
      BlockInfo& active = die.blocks[*die.active_block];
      if (active.next_page < geometry.pages_per_block) {
        return Ppa{d, *die.active_block, active.next_page};
      }
      active.is_active = false;
      die.active_block.reset();
    }
    if (!die.free_blocks.empty()) {
      // Wear-leveling: open the least-worn free block (the oldest of equals)
      // so erase cycles spread evenly.
      auto pick = std::min_element(die.free_blocks.begin(), die.free_blocks.end(),
                                   [&](uint32_t a, uint32_t b) {
                                     return nand_->EraseCount(d, a) < nand_->EraseCount(d, b);
                                   });
      uint32_t b = *pick;
      die.free_blocks.erase(pick);
      BlockInfo& block = die.blocks[b];
      block.is_free = false;
      block.is_active = true;
      block.next_page = 0;
      block.valid = 0;
      std::fill(block.lpn_of_page.begin(), block.lpn_of_page.end(), -1);
      die.active_block = b;
      return Ppa{d, b, 0};
    }
  }
  return ResourceExhausted("no free NAND blocks");
}

void Ftl::InvalidateCurrent(uint64_t lpn) {
  if (!mapping_[lpn].has_value()) {
    return;
  }
  Ppa old = *mapping_[lpn];
  BlockInfo& block = dies_[old.die].blocks[old.block];
  LASTCPU_CHECK(block.lpn_of_page[old.page] == static_cast<int64_t>(lpn),
                "reverse map out of sync");
  block.lpn_of_page[old.page] = -1;
  LASTCPU_CHECK(block.valid > 0, "invalidating page in empty block");
  --block.valid;
  mapping_[lpn].reset();
}

void Ftl::CommitMapping(uint64_t lpn, Ppa ppa, uint64_t seq) {
  InvalidateCurrent(lpn);
  mapping_[lpn] = ppa;
  mapping_seq_[lpn] = seq;
  BlockInfo& block = dies_[ppa.die].blocks[ppa.block];
  block.lpn_of_page[ppa.page] = static_cast<int64_t>(lpn);
  ++block.valid;
}

void Ftl::Write(uint64_t lpn, std::vector<uint8_t> data, WriteCallback done) {
  Write(lpn, std::move(data), FileTag{}, std::move(done));
}

void Ftl::Write(uint64_t lpn, std::vector<uint8_t> data, FileTag tag, WriteCallback done) {
  LASTCPU_CHECK(done != nullptr, "FTL write without callback");
  if (powered_off_) {
    simulator_->Schedule(sim::Duration::Nanos(100), [done = std::move(done)] {
      done(Unavailable("ssd power loss"));
    });
    return;
  }
  if (lpn >= logical_pages_) {
    simulator_->Schedule(sim::Duration::Nanos(100), [done = std::move(done)] {
      done(InvalidArgument("logical page out of range"));
    });
    return;
  }
  uint64_t op = next_op_++;
  pending_writes_.Add(op, std::move(done));
  if (write_gate_[lpn]) {
    // A write to this lpn is already on media. Its OOB sequence number must
    // stay below ours, so we queue behind it instead of racing it to a die.
    gate_queues_[lpn].push_back(QueuedOp{false, std::move(data), tag, op});
    return;
  }
  write_gate_[lpn] = true;
  StartWrite(lpn, std::move(data), tag, op);
}

void Ftl::StartWrite(uint64_t lpn, std::vector<uint8_t> data, FileTag tag, uint64_t op) {
  auto slot = ClaimSlot();
  if (!slot.ok()) {
    if (CanGcReclaim() && stalled_.size() < kMaxStalledWrites) {
      // Out of slots but GC can make space: park the write (the lpn gate
      // stays held, preserving order) and lean on the collector.
      ++write_stalls_;
      stats_.GetCounter("write_stalls").Increment();
      stalled_.push_back(StalledWrite{lpn, std::move(data), tag, op});
      MaybeStartGc();
      return;
    }
    stats_.GetCounter("write_failures").Increment();
    FailWriteSoon(op, slot.status());
    FinishLpnOp(lpn);
    return;
  }
  Ppa ppa = *slot;
  BlockInfo& block = dies_[ppa.die].blocks[ppa.block];
  // Advance the program cursor immediately so concurrent writes take
  // successive pages.
  block.next_page = ppa.page + 1;
  ++block.inflight;
  block.last_program = simulator_->Now();
  ++write_epoch_[lpn];
  CacheInvalidate(lpn);
  ++host_writes_;
  ++nand_writes_;
  host_writes_stat_.Increment();
  uint64_t seq = seq_++;
  OobTag oob{OobTag::Kind::kData, seq, lpn, tag.file_id, tag.file_page, tag.size_after};
  nand_->ProgramPage(ppa, std::move(data), oob, [this, lpn, ppa, seq, op](Status s) {
    --dies_[ppa.die].blocks[ppa.block].inflight;
    auto cb = TakeWrite(op);
    if (!s.ok()) {
      if (cb.has_value()) {
        (*cb)(s);
      }
      FinishLpnOp(lpn);
      return;
    }
    CommitMapping(lpn, ppa, seq);
    // A read that started inside the program window walked the *old* mapping
    // under the already-bumped epoch and may have landed in the cache before
    // this commit; bump the epoch again and purge any such fill.
    ++write_epoch_[lpn];
    CacheInvalidate(lpn);
    if (cb.has_value()) {
      (*cb)(OkStatus());
    }
    FinishLpnOp(lpn);
    MaybeStartGc();
  });
}

void Ftl::FinishLpnOp(uint64_t lpn) {
  if (powered_off_ || !write_gate_[lpn]) {
    return;
  }
  auto it = gate_queues_.find(lpn);
  if (it == gate_queues_.end()) {
    write_gate_[lpn] = false;
    return;
  }
  std::deque<QueuedOp>& queue = it->second;
  while (!queue.empty() && queue.front().is_trim) {
    queue.pop_front();
    ApplyTrim(lpn);
  }
  if (queue.empty()) {
    gate_queues_.erase(it);
    write_gate_[lpn] = false;
    return;
  }
  QueuedOp next = std::move(queue.front());
  queue.pop_front();
  StartWrite(lpn, std::move(next.data), next.tag, next.op);
}

void Ftl::Trim(uint64_t lpn) {
  if (powered_off_ || lpn >= logical_pages_) {
    return;
  }
  if (write_gate_[lpn]) {
    // A write to this lpn is in flight; applying the trim now would journal
    // a tombstone that the in-flight write's lower sequence number cannot
    // beat at recovery. Queue it behind the write instead.
    gate_queues_[lpn].push_back(QueuedOp{true, {}, {}, 0});
    return;
  }
  ApplyTrim(lpn);
}

void Ftl::ApplyTrim(uint64_t lpn) {
  ++write_epoch_[lpn];
  CacheInvalidate(lpn);
  if (mapping_[lpn].has_value()) {
    // Journal a tombstone so recovery discards the page's old data tags. An
    // unmapped lpn needs none: every tag it ever had is already dominated by
    // an earlier tombstone.
    MetaRecord record;
    record.kind = MetaRecord::Kind::kTrim;
    record.lpn = lpn;
    AppendMeta(std::move(record));
  }
  InvalidateCurrent(lpn);
  stats_.GetCounter("trims").Increment();
  MaybeStartGc();
}

void Ftl::AppendMeta(MetaRecord record) {
  if (powered_off_) {
    return;  // the journal dies with the rail; callers learn via SyncMeta
  }
  record.seq = seq_++;
  meta_buffer_bytes_ += EncodedSize(record);
  meta_buffer_.push_back(std::move(record));
  MaybeFlushMeta();
}

void Ftl::SyncMeta(WriteCallback done) {
  LASTCPU_CHECK(done != nullptr, "SyncMeta without callback");
  if (powered_off_) {
    simulator_->Schedule(sim::Duration::Nanos(100), [done = std::move(done)] {
      done(Unavailable("ssd power loss"));
    });
    return;
  }
  if (meta_flush_in_flight_) {
    if (meta_buffer_.empty()) {
      meta_waiters_inflight_.push_back(std::move(done));
    } else {
      meta_waiters_queued_.push_back(std::move(done));
    }
    return;
  }
  if (meta_buffer_.empty()) {
    simulator_->Schedule(sim::Duration::Nanos(100),
                         [done = std::move(done)] { done(OkStatus()); });
    return;
  }
  meta_waiters_inflight_.push_back(std::move(done));
  FlushMeta();
}

void Ftl::MaybeFlushMeta() {
  if (powered_off_ || meta_flush_in_flight_ || meta_flush_stalled_ || meta_buffer_.empty()) {
    return;
  }
  bool overfull = kMetaPageHeaderBytes + meta_buffer_bytes_ > kNandPageBytes;
  if (!overfull && meta_waiters_queued_.empty()) {
    return;
  }
  for (auto& waiter : meta_waiters_queued_) {
    meta_waiters_inflight_.push_back(std::move(waiter));
  }
  meta_waiters_queued_.clear();
  FlushMeta();
}

void Ftl::FlushMeta() {
  LASTCPU_CHECK(!meta_flush_in_flight_ && !meta_buffer_.empty(), "bad meta flush state");
  auto slot = ClaimSlot();
  if (!slot.ok()) {
    if (CanGcReclaim()) {
      meta_flush_stalled_ = true;
      MaybeStartGc();
      return;
    }
    std::vector<WriteCallback> waiters = std::move(meta_waiters_inflight_);
    meta_waiters_inflight_.clear();
    for (auto& waiter : waiters) {
      simulator_->Schedule(sim::Duration::Nanos(100),
                           [w = std::move(waiter), s = slot.status()]() mutable { w(s); });
    }
    return;
  }
  // Take records off the front until the page is full; the remainder rides
  // the next flush.
  std::vector<MetaRecord> batch;
  size_t bytes = kMetaPageHeaderBytes;
  while (!meta_buffer_.empty()) {
    size_t need = EncodedSize(meta_buffer_.front());
    if (!batch.empty() && bytes + need > kNandPageBytes) {
      break;
    }
    bytes += need;
    meta_buffer_bytes_ -= need;
    batch.push_back(std::move(meta_buffer_.front()));
    meta_buffer_.erase(meta_buffer_.begin());
  }
  meta_flush_in_flight_ = true;
  Ppa ppa = *slot;
  BlockInfo& block = dies_[ppa.die].blocks[ppa.block];
  block.next_page = ppa.page + 1;
  ++block.inflight;
  block.last_program = simulator_->Now();
  // The journal page is accounted live immediately so GC never treats the
  // claimed slot as garbage while the program is in flight.
  block.lpn_of_page[ppa.page] = kMetaPage;
  ++block.valid;
  ++nand_writes_;
  stats_.GetCounter("meta_flushes").Increment();
  OobTag oob{OobTag::Kind::kMeta, seq_++, 0, 0, 0, 0};
  nand_->ProgramPage(ppa, EncodeMetaPage(batch), oob, [this, ppa](Status s) {
    --dies_[ppa.die].blocks[ppa.block].inflight;
    meta_flush_in_flight_ = false;
    std::vector<WriteCallback> waiters = std::move(meta_waiters_inflight_);
    meta_waiters_inflight_.clear();
    for (auto& waiter : waiters) {
      waiter(s);
    }
    MaybeFlushMeta();
    MaybeStartGc();
  });
}

bool Ftl::CanGcReclaim() const {
  // Callers ask this with every program slot exhausted. A running GC will
  // free a block when it completes; otherwise GC can only make progress by
  // erasing an already-empty block — relocation would need the very slots we
  // lack, so a valid>0 victim is no help here.
  if (gc_in_progress_) {
    return true;
  }
  for (const auto& die : dies_) {
    for (const auto& block : die.blocks) {
      if (!block.is_free && !block.is_active && block.inflight == 0 && block.valid == 0) {
        return true;
      }
    }
  }
  return false;
}

std::optional<std::pair<uint32_t, uint32_t>> Ftl::FindVictim() const {
  const NandGeometry& geometry = nand_->geometry();
  // Greedy with a cost-benefit age filter: prefer the fewest valid pages,
  // but skip blocks programmed within kGcMinBlockAge — they are likely
  // still self-invalidating and relocating them is wasted work. If every
  // candidate is young, fall back to pure greedy.
  std::optional<std::pair<uint32_t, uint32_t>> victim;
  for (int pass = 0; pass < 2 && !victim.has_value(); ++pass) {
    uint32_t best_valid = geometry.pages_per_block;
    for (uint32_t d = 0; d < geometry.dies; ++d) {
      for (uint32_t b = 0; b < geometry.blocks_per_die; ++b) {
        const BlockInfo& block = dies_[d].blocks[b];
        if (block.is_free || block.is_active || block.inflight > 0) {
          continue;
        }
        if (pass == 0 &&
            block.last_program + kGcMinBlockAge > simulator_->Now()) {
          continue;
        }
        if (block.valid < best_valid) {
          best_valid = block.valid;
          victim = {d, b};
        }
      }
    }
  }
  return victim;
}

void Ftl::MaybeStartGc() {
  if (gc_in_progress_ || powered_off_) {
    return;
  }
  bool pressure = !stalled_.empty() || meta_flush_stalled_;
  for (const auto& die : dies_) {
    if (die.free_blocks.size() < kGcFreeBlockThreshold) {
      pressure = true;
    }
  }
  if (!pressure) {
    return;
  }
  auto victim = FindVictim();
  if (!victim.has_value()) {
    return;
  }
  gc_in_progress_ = true;
  ++gc_runs_;
  stats_.GetCounter("gc_runs").Increment();
  auto [die, block] = *victim;
  std::vector<uint32_t> pages;
  const std::vector<int64_t>& lpn_of_page = dies_[die].blocks[block].lpn_of_page;
  for (uint32_t p = 0; p < lpn_of_page.size(); ++p) {
    if (lpn_of_page[p] != -1) {
      pages.push_back(p);
    }
  }
  RelocateNext(die, block, std::move(pages), 0);
}

void Ftl::AbortGcWedged(const Status& why) {
  // No slot to relocate into and nothing erasable: the drive is wedged.
  // Everything parked on GC progress fails rather than hangs.
  stats_.GetCounter("gc_aborts").Increment();
  gc_in_progress_ = false;
  std::deque<StalledWrite> stalled = std::move(stalled_);
  stalled_.clear();
  for (auto& w : stalled) {
    stats_.GetCounter("write_failures").Increment();
    FailWriteSoon(w.op, why);
    FinishLpnOp(w.lpn);
  }
  if (meta_flush_stalled_) {
    meta_flush_stalled_ = false;
    std::vector<WriteCallback> waiters = std::move(meta_waiters_inflight_);
    meta_waiters_inflight_.clear();
    for (auto& waiter : meta_waiters_queued_) {
      waiters.push_back(std::move(waiter));
    }
    meta_waiters_queued_.clear();
    for (auto& waiter : waiters) {
      simulator_->Schedule(sim::Duration::Nanos(100),
                           [w = std::move(waiter), why]() mutable { w(why); });
    }
  }
}

void Ftl::RelocateNext(uint32_t die, uint32_t block, std::vector<uint32_t> pages, size_t index) {
  if (powered_off_) {
    return;
  }
  if (index >= pages.size()) {
    FinishGc(die, block);
    return;
  }
  uint32_t p = pages[index];
  int64_t entry = dies_[die].blocks[block].lpn_of_page[p];
  if (entry == -1) {
    // Invalidated (host write or trim) since the victim was chosen.
    RelocateNext(die, block, std::move(pages), index + 1);
    return;
  }
  Ppa source{die, block, p};
  if (entry == kMetaPage) {
    RelocateMetaPage(die, block, std::move(pages), index, source);
    return;
  }
  uint64_t lpn = static_cast<uint64_t>(entry);
  LASTCPU_CHECK(mapping_[lpn].has_value() && *mapping_[lpn] == source, "reverse map out of sync");
  if (write_gate_[lpn]) {
    // A host write/trim to this lpn is in flight or queued. Relocating now
    // would give the OLD data a NEWER media sequence number than the host
    // write gets — recovery would resurrect the stale value. Skip the page;
    // the host op invalidates it anyway, and FinishGc defers the erase.
    stats_.GetCounter("gc_skipped_inflight").Increment();
    RelocateNext(die, block, std::move(pages), index + 1);
    return;
  }
  // Carry the filesystem identity forward: the relocated copy must recover
  // exactly like the original would have.
  OobTag old_tag = nand_->OobOf(source);
  nand_->ReadPage(source, [this, die, block, pages = std::move(pages), index, lpn, source,
                           old_tag](Result<PageData> data) mutable {
    if (powered_off_) {
      return;
    }
    if (!data.ok()) {
      // Media error during relocation: the page is lost; drop the mapping so
      // readers see the failure rather than stale data.
      InvalidateCurrent(lpn);
      stats_.GetCounter("gc_relocation_failures").Increment();
      RelocateNext(die, block, std::move(pages), index + 1);
      return;
    }
    auto slot = ClaimSlot();
    if (!slot.ok()) {
      AbortGcWedged(slot.status());
      return;
    }
    Ppa target = *slot;
    BlockInfo& tblock = dies_[target.die].blocks[target.block];
    tblock.next_page = target.page + 1;
    ++tblock.inflight;
    tblock.last_program = simulator_->Now();
    ++nand_writes_;
    ++gc_relocated_pages_;
    stats_.GetCounter("gc_relocations").Increment();
    uint64_t seq = seq_++;
    OobTag oob{OobTag::Kind::kData, seq, lpn, old_tag.file_id, old_tag.file_page,
               old_tag.size_after};
    // The relocated copy shares the source page's buffer.
    nand_->ProgramPage(
        target, *std::move(data), oob,
        [this, die, block, pages = std::move(pages), index, lpn, source, target,
         seq](Status s) mutable {
          --dies_[target.die].blocks[target.block].inflight;
          // Only commit if the lpn still points at the source: a host write
          // or trim racing the relocation supersedes it (the relocated copy's
          // older payload is harmless on media — its tag loses on sequence).
          if (s.ok() && mapping_[lpn].has_value() && *mapping_[lpn] == source) {
            CommitMapping(lpn, target, seq);
          }
          RelocateNext(die, block, std::move(pages), index + 1);
        });
  });
}

void Ftl::RelocateMetaPage(uint32_t die, uint32_t block, std::vector<uint32_t> pages,
                           size_t index, Ppa source) {
  nand_->ReadPage(source, [this, die, block, pages = std::move(pages), index,
                           source](Result<PageData> data) mutable {
    if (powered_off_) {
      return;
    }
    BlockInfo& sblock = dies_[die].blocks[block];
    if (!data.ok()) {
      stats_.GetCounter("gc_relocation_failures").Increment();
      sblock.lpn_of_page[source.page] = -1;
      --sblock.valid;
      RelocateNext(die, block, std::move(pages), index + 1);
      return;
    }
    // Prune dead journal records before copying the page forward: a trim
    // tombstone is obsolete once its lpn has been re-written under a newer
    // sequence number. Filesystem records are kept verbatim — their
    // lifetime is the filesystem's business, not the FTL's.
    std::vector<MetaRecord> keep = DecodeMetaPage(data->bytes());
    std::erase_if(keep, [this](const MetaRecord& record) {
      return record.kind == MetaRecord::Kind::kTrim && record.lpn < logical_pages_ &&
             mapping_[record.lpn].has_value() && mapping_seq_[record.lpn] > record.seq;
    });
    if (keep.empty()) {
      // Nothing worth carrying: the journal page simply dies with the block.
      sblock.lpn_of_page[source.page] = -1;
      --sblock.valid;
      RelocateNext(die, block, std::move(pages), index + 1);
      return;
    }
    auto slot = ClaimSlot();
    if (!slot.ok()) {
      AbortGcWedged(slot.status());
      return;
    }
    Ppa target = *slot;
    BlockInfo& tblock = dies_[target.die].blocks[target.block];
    tblock.next_page = target.page + 1;
    ++tblock.inflight;
    tblock.last_program = simulator_->Now();
    ++nand_writes_;
    ++gc_relocated_pages_;
    stats_.GetCounter("gc_relocations").Increment();
    // Fresh page-level sequence; the records keep their original ones.
    OobTag oob{OobTag::Kind::kMeta, seq_++, 0, 0, 0, 0};
    nand_->ProgramPage(target, EncodeMetaPage(keep), oob,
                       [this, die, block, pages = std::move(pages), index, source,
                        target](Status s) mutable {
                         BlockInfo& tb = dies_[target.die].blocks[target.block];
                         --tb.inflight;
                         if (s.ok()) {
                           tb.lpn_of_page[target.page] = kMetaPage;
                           ++tb.valid;
                           BlockInfo& sb = dies_[die].blocks[block];
                           sb.lpn_of_page[source.page] = -1;
                           --sb.valid;
                         }
                         RelocateNext(die, block, std::move(pages), index + 1);
                       });
  });
}

void Ftl::FinishGc(uint32_t die, uint32_t block) {
  BlockInfo& info = dies_[die].blocks[block];
  if (info.valid > 0) {
    // Some pages were skipped (in-flight host writes) or failed to move.
    // Defer: no erase this round. The host ops that caused the skips will
    // invalidate their pages and their completions re-kick GC.
    stats_.GetCounter("gc_deferred").Increment();
    gc_in_progress_ = false;
    return;
  }
  nand_->EraseBlock(die, block, [this, die, block](Status s) {
    LASTCPU_CHECK(s.ok(), "erase failed during GC");
    BlockInfo& erased = dies_[die].blocks[block];
    LASTCPU_CHECK(erased.valid == 0 && erased.inflight == 0, "erasing block with live pages");
    std::fill(erased.lpn_of_page.begin(), erased.lpn_of_page.end(), -1);
    erased.next_page = 0;
    erased.is_free = true;
    dies_[die].free_blocks.push_back(block);
    gc_in_progress_ = false;
    PumpStalled();
    MaybeStartGc();  // other dies may still be low
  });
}

void Ftl::PumpStalled() {
  if (powered_off_) {
    return;
  }
  if (meta_flush_stalled_ && !meta_flush_in_flight_) {
    meta_flush_stalled_ = false;
    if (!meta_buffer_.empty()) {
      FlushMeta();
    }
  }
  size_t n = stalled_.size();
  for (size_t i = 0; i < n && !stalled_.empty(); ++i) {
    StalledWrite w = std::move(stalled_.front());
    stalled_.pop_front();
    StartWrite(w.lpn, std::move(w.data), w.tag, w.op);
  }
}

void Ftl::PowerCut() {
  if (powered_off_) {
    return;
  }
  powered_off_ = true;
  stats_.GetCounter("power_cuts").Increment();
  // Tear the media first: in-flight programs become torn pages and every
  // already-scheduled NAND completion is dropped (that silicon lost power).
  nand_->PowerCut();
  Status why = Unavailable("ssd power loss");
  std::map<uint64_t, ReadCallback> reads = pending_reads_.TakeAll();
  std::map<uint64_t, WriteCallback> writes = pending_writes_.TakeAll();
  for (auto& [op, cb] : reads) {
    cb(why);
  }
  for (auto& [op, cb] : writes) {
    cb(why);
  }
  std::vector<WriteCallback> waiters = std::move(meta_waiters_inflight_);
  meta_waiters_inflight_.clear();
  for (auto& waiter : meta_waiters_queued_) {
    waiters.push_back(std::move(waiter));
  }
  meta_waiters_queued_.clear();
  for (auto& waiter : waiters) {
    waiter(why);
  }
  write_gate_.assign(logical_pages_, false);
  gate_queues_.clear();
  stalled_.clear();
  meta_buffer_.clear();
  meta_buffer_bytes_ = 0;
  meta_flush_in_flight_ = false;
  meta_flush_stalled_ = false;
  gc_in_progress_ = false;
  CacheClear();
}

void Ftl::Recover() {
  LASTCPU_CHECK(powered_off_, "Recover on a powered FTL");
  const NandGeometry& geometry = nand_->geometry();
  ++recoveries_;
  stats_.GetCounter("recoveries").Increment();
  InitVolatile();
  recovered_meta_.clear();
  recovered_file_pages_.clear();

  // Full-media OOB scan. Charge the modeled cost to each die up front — the
  // drive is busy replaying its journal before it serves traffic.
  for (uint32_t d = 0; d < geometry.dies; ++d) {
    nand_->OccupyForScan(
        d, kRecoveryScanPerPage *
               (static_cast<uint64_t>(geometry.blocks_per_die) * geometry.pages_per_block));
  }

  struct Winner {
    Ppa ppa;
    uint64_t seq = 0;
    OobTag tag;
  };
  std::unordered_map<uint64_t, Winner> winners;
  std::vector<MetaRecord> records;
  uint64_t max_seq = 0;
  uint64_t torn = 0;

  for (uint32_t d = 0; d < geometry.dies; ++d) {
    DieState& die = dies_[d];
    die.free_blocks.clear();
    die.active_block.reset();
    for (uint32_t b = 0; b < geometry.blocks_per_die; ++b) {
      BlockInfo& block = die.blocks[b];
      bool clean = true;
      for (uint32_t p = 0; p < geometry.pages_per_block; ++p) {
        Ppa ppa{d, b, p};
        switch (nand_->StateOf(ppa)) {
          case NandArray::PageState::kErased:
            break;
          case NandArray::PageState::kTorn:
            // An interrupted program: the tail entry the journal replay must
            // discard. Unreadable until the block is erased.
            clean = false;
            ++torn;
            break;
          case NandArray::PageState::kWritten: {
            clean = false;
            const OobTag& tag = nand_->OobOf(ppa);
            max_seq = std::max(max_seq, tag.seq);
            if (tag.kind == OobTag::Kind::kData && tag.lpn < logical_pages_) {
              auto [it, inserted] = winners.emplace(tag.lpn, Winner{ppa, tag.seq, tag});
              if (!inserted && tag.seq > it->second.seq) {
                it->second = Winner{ppa, tag.seq, tag};
              }
            } else if (tag.kind == OobTag::Kind::kMeta) {
              // Journal pages stay live until GC prunes them.
              block.lpn_of_page[p] = kMetaPage;
              ++block.valid;
              for (MetaRecord& record : DecodeMetaPage(nand_->DataOf(ppa))) {
                max_seq = std::max(max_seq, record.seq);
                records.push_back(std::move(record));
              }
            }
            // kNone pages (raw NAND use outside the FTL) are garbage.
            break;
          }
        }
      }
      if (clean) {
        block.is_free = true;
        block.next_page = 0;
        die.free_blocks.push_back(b);
      } else {
        // Seal every block that holds anything — including partially
        // programmed ones. New writes go to freshly-opened blocks; sealed
        // stragglers are reclaimed by GC.
        block.is_free = false;
        block.is_active = false;
        block.next_page = geometry.pages_per_block;
      }
    }
  }

  // Apply trim tombstones: a tombstone newer than the lpn's best data tag
  // kills the mapping.
  std::sort(records.begin(), records.end(),
            [](const MetaRecord& a, const MetaRecord& b) { return a.seq < b.seq; });
  for (const MetaRecord& record : records) {
    if (record.kind != MetaRecord::Kind::kTrim) {
      continue;
    }
    auto it = winners.find(record.lpn);
    if (it != winners.end() && it->second.seq < record.seq) {
      winners.erase(it);
    }
  }

  // Install the surviving winners.
  uint64_t recovered_pages = 0;
  for (const auto& [lpn, winner] : winners) {
    mapping_[lpn] = winner.ppa;
    mapping_seq_[lpn] = winner.seq;
    BlockInfo& block = dies_[winner.ppa.die].blocks[winner.ppa.block];
    block.lpn_of_page[winner.ppa.page] = static_cast<int64_t>(lpn);
    ++block.valid;
    ++recovered_pages;
    if (winner.tag.file_id != 0) {
      recovered_file_pages_.push_back(RecoveredFilePage{winner.tag.file_id, winner.tag.file_page,
                                                        lpn, winner.seq, winner.tag.size_after});
    }
  }
  // Winners came out of an unordered map; give downstream consumers (and
  // byte-identical rerun assertions) a deterministic order.
  std::sort(recovered_file_pages_.begin(), recovered_file_pages_.end(),
            [](const RecoveredFilePage& a, const RecoveredFilePage& b) { return a.seq < b.seq; });
  recovered_meta_ = std::move(records);

  seq_ = max_seq + 1;
  powered_off_ = false;
  stats_.GetCounter("recovered_pages").Increment(recovered_pages);
  stats_.GetCounter("torn_pages_discarded").Increment(torn);
  stats_.GetCounter("recovered_meta_records").Increment(recovered_meta_.size());
  MaybeStartGc();
}

}  // namespace lastcpu::ssddev

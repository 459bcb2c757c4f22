#include "src/kvs/kvs_engine.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::kvs {

void HashIndex::Put(const std::string& key, Location location) {
  auto [it, inserted] = map_.insert_or_assign(key, location);
  (void)it;
  if (inserted) {
    memory_bytes_ += key.size() + sizeof(Location) + 16;  // entry overhead estimate
  }
}

bool HashIndex::Get(const std::string& key, Location* out) const {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

void HashIndex::Remove(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return;
  }
  memory_bytes_ -= key.size() + sizeof(Location) + 16;
  map_.erase(it);
}

KvsEngine::KvsEngine(dev::Device* host, Pasid pasid, KvsEngineConfig config)
    : host_(host),
      pasid_(pasid),
      config_(std::move(config)),
      file_(std::make_unique<ssddev::FileClient>(host, pasid, config.file_client)) {
  LASTCPU_CHECK(host != nullptr, "engine needs a host device");
  file_->SetSlotAvailableCallback([this] { PumpWaiting(); });
}

const std::string& KvsEngine::CommitMarkerKey() {
  static const std::string kKey = std::string(1, '\x01') + "__compaction_commit__";
  return kKey;
}

std::string KvsEngine::GenName(uint32_t generation) const {
  if (generation == 0) {
    return config_.log_file;
  }
  return config_.log_file + "." + std::to_string(generation);
}

std::optional<uint32_t> KvsEngine::GenOf(const std::string& name) const {
  if (name == config_.log_file) {
    return 0;
  }
  const std::string prefix = config_.log_file + ".";
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  uint32_t generation = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return std::nullopt;
    }
    generation = generation * 10 + static_cast<uint32_t>(name[i] - '0');
  }
  return generation;
}

void KvsEngine::RunOrQueue(Op op) {
  if (compaction_ == nullptr && file_->HasFreeSlot() && waiting_.empty()) {
    op();
    return;
  }
  ops_queued_.Increment();
  if (spare_ops_.empty()) {
    waiting_.push_back(std::move(op));
  } else {
    waiting_.splice(waiting_.end(), spare_ops_, spare_ops_.begin());
    waiting_.back() = std::move(op);
  }
}

void KvsEngine::PumpWaiting() {
  while (compaction_ == nullptr && !waiting_.empty() && file_->HasFreeSlot()) {
    Op op = std::move(waiting_.front());
    spare_ops_.splice(spare_ops_.begin(), waiting_, waiting_.begin());
    op();
  }
}

// --- bring-up / recovery -------------------------------------------------------

void KvsEngine::Start(StartCallback done) {
  LASTCPU_CHECK(done != nullptr, "start without callback");
  // The index is volatile device state; the log is the durable truth. Start
  // always rebuilds from the log so restart == crash recovery.
  index_ = HashIndex();
  log_tail_ = 0;
  live_bytes_ = 0;
  // Find a file-service provider, then choose the generation to adopt.
  host_->rpc().Discover(proto::ServiceType::kFile, config_.log_file,
                  config_.file_client.discover_window,
                  [this, done = std::move(done)](
                      std::vector<proto::ServiceDescriptor> services) mutable {
                    if (!services.empty()) {
                      StartWithProvider(services[0].provider, std::move(done));
                      return;
                    }
                    // The base file may be gone after a compaction; ask any
                    // file service.
                    host_->rpc().Discover(
                        proto::ServiceType::kFile, "", config_.file_client.discover_window,
                        [this, done = std::move(done)](
                            std::vector<proto::ServiceDescriptor> any) mutable {
                          if (any.empty()) {
                            done(NotFound("no file service on the bus"));
                            return;
                          }
                          StartWithProvider(any[0].provider, std::move(done));
                        });
                  });
}

void KvsEngine::StartWithProvider(DeviceId provider, StartCallback done) {
  ssddev::ListRemoteFiles(
      host_, provider, config_.auth_token,
      [this, provider, done = std::move(done)](Result<std::vector<std::string>> names) mutable {
        if (!names.ok()) {
          done(names.status());
          return;
        }
        std::vector<uint32_t> candidates;
        for (const auto& name : *names) {
          if (auto generation = GenOf(name)) {
            candidates.push_back(*generation);
          }
        }
        if (candidates.empty()) {
          done(NotFound("no log file for " + config_.log_file));
          return;
        }
        // Newest generation first; adopt the first committed one (or the
        // oldest as the uncompacted base case).
        std::sort(candidates.rbegin(), candidates.rend());
        TryCandidate(provider, std::move(candidates), 0, std::move(done));
      });
}

void KvsEngine::TryCandidate(DeviceId provider, std::vector<uint32_t> candidates, size_t index,
                             StartCallback done) {
  LASTCPU_CHECK(index < candidates.size(), "candidate walk out of range");
  uint32_t generation = candidates[index];
  std::string name = GenName(generation);
  index_ = HashIndex();
  log_tail_ = 0;
  commit_seen_ = false;
  // The session this replaces may have been reset (its SSD failed, or it
  // served debris) while still holding its memory: Close frees it.
  Retire(std::move(file_));
  file_ = NewClient();
  file_->SetSlotAvailableCallback([this] { PumpWaiting(); });
  file_->Open(name, config_.auth_token,
              [this, provider, candidates = std::move(candidates), index, generation, name,
               done = std::move(done)](Status opened) mutable {
                if (!opened.ok()) {
                  if (index + 1 < candidates.size()) {
                    // Races with our own debris cleanup are survivable. Defer
                    // off this FileClient's stack before replacing it.
                    host_->simulator()->Schedule(
                        sim::Duration::Nanos(100),
                        [this, provider, candidates = std::move(candidates), index,
                         done = std::move(done)]() mutable {
                          TryCandidate(provider, std::move(candidates), index + 1,
                                       std::move(done));
                        });
                    return;
                  }
                  done(opened);
                  return;
                }
                RecoverFrom(0, [this, provider, candidates = std::move(candidates), index,
                                generation, name, done = std::move(done)](Status s) mutable {
                  if (!s.ok()) {
                    done(s);
                    return;
                  }
                  bool is_last = index + 1 == candidates.size();
                  // A generation > 0 without a commit marker is half-copied
                  // compaction debris: skip (and clean it up).
                  if (generation != 0 && !commit_seen_ && !is_last) {
                    stats_.GetCounter("debris_generations_skipped").Increment();
                    ssddev::DeleteRemoteFile(host_, provider, name, config_.auth_token,
                                             [](Status) {});
                    // Defer off this FileClient's completion stack: the next
                    // TryCandidate destroys it.
                    host_->simulator()->Schedule(
                        sim::Duration::Nanos(100),
                        [this, provider, candidates = std::move(candidates), index,
                         done = std::move(done)]() mutable {
                          file_->Reset(Aborted("uncommitted generation"));
                          TryCandidate(provider, std::move(candidates), index + 1,
                                       std::move(done));
                        });
                    return;
                  }
                  // Adopt this generation; clean up every other candidate.
                  generation_ = generation;
                  active_file_ = name;
                  live_bytes_ = 0;
                  for (const auto& [key, location] : index_.entries()) {
                    live_bytes_ += location.length;
                  }
                  for (size_t i = 0; i < candidates.size(); ++i) {
                    if (i == index) {
                      continue;
                    }
                    ssddev::DeleteRemoteFile(host_, provider, GenName(candidates[i]),
                                             config_.auth_token, [](Status) {});
                  }
                  running_ = true;
                  stats_.GetCounter("recovery_complete").Increment();
                  done(OkStatus());
                });
              });
}

void KvsEngine::RecoverFrom(uint64_t offset, std::function<void(Status)> done) {
  // Read the log in response-slot-sized chunks and replay whole records.
  constexpr uint32_t kChunk = static_cast<uint32_t>(ssddev::kMaxReadBytes);
  file_->ReadAt(
      offset, kChunk,
      [this, offset, done = std::move(done)](Result<std::vector<uint8_t>> data) mutable {
        if (!data.ok()) {
          done(data.status());
          return;
        }
        if (data->empty()) {
          done(OkStatus());
          return;
        }
        uint64_t consumed = 0;
        std::span<const uint8_t> window(*data);
        while (true) {
          auto record = LogRecord::Decode(window.subspan(consumed));
          if (!record.ok()) {
            break;  // partial record at chunk edge; next read realigns
          }
          const auto& [rec, bytes] = *record;
          if (rec.key == CommitMarkerKey()) {
            commit_seen_ = true;
          } else if (rec.tombstone) {
            index_.Remove(rec.key);
          } else {
            index_.Put(rec.key,
                       HashIndex::Location{offset + consumed, static_cast<uint32_t>(bytes)});
          }
          consumed += bytes;
          stats_.GetCounter("recovered_records").Increment();
        }
        log_tail_ = offset + consumed;
        if (consumed == 0) {
          // Cannot make progress: corrupt or trailing garbage.
          done(OkStatus());
          return;
        }
        RecoverFrom(offset + consumed, std::move(done));
      });
}

void KvsEngine::Stop(Status reason) {
  running_ = false;
  // A compaction in progress ends here; the recovery scan at the next Start
  // deletes its uncommitted generation.
  if (compaction_ != nullptr) {
    stats_.GetCounter("compactions_aborted").Increment();
    EndCompaction()(reason);
  }
  // Fail queued work before dropping the session (their callbacks expect an
  // answer), then reset the session itself.
  auto waiting = std::move(waiting_);
  waiting_.clear();
  file_->Reset(std::move(reason));
  // Queued thunks re-issue against the dead session; the FileClient fails
  // them fast with FailedPrecondition, which is the right signal.
  for (auto& op : waiting) {
    op();
  }
}

bool KvsEngine::HandleDoorbell(DeviceId from, uint64_t value) {
  if (file_->HandleDoorbell(from, value)) {
    return true;
  }
  return compaction_ != nullptr && compaction_->file != nullptr &&
         compaction_->file->HandleDoorbell(from, value);
}

// --- operations -----------------------------------------------------------------

void KvsEngine::Get(const std::string& key, GetCallback done) {
  LASTCPU_CHECK(done != nullptr, "get without callback");
  if (!running_) {
    done(Unavailable("kvs engine is not running"));
    return;
  }
  gets_.Increment();
  // Queue behind a compaction swap so reads never straddle the generation
  // switch. The index lookup happens when the op actually runs. Keys are
  // captured as owned strings: a copy of the `const&` would be a const
  // string, whose move may throw, and no longer stay inline.
  auto op = [this, key = std::string(key), done = std::move(done)]() mutable {
    HashIndex::Location location;
    if (!index_.Get(key, &location)) {
      stats_.GetCounter("get_misses").Increment();
      done(NotFound("no such key"));
      return;
    }
    auto land = [this, done = std::move(done)](Result<std::vector<uint8_t>> data) {
      if (!data.ok()) {
        done(data.status());
      } else if (auto record = LogRecord::Decode(*data); !record.ok()) {
        done(DataLoss("corrupt log record"));
      } else {
        done(std::move(record->first.value));
      }
      OpSettled();
    };
    static_assert(ssddev::FileClient::ReadCallback::StoresInline<decltype(land)>(),
                  "get must stay inline");
    file_->ReadAt(location.offset, location.length, std::move(land));
  };
  static_assert(Op::StoresInline<decltype(op)>(), "get must stay inline");
  RunOrQueue(std::move(op));
}

void KvsEngine::Put(const std::string& key, std::vector<uint8_t> value, PutCallback done) {
  LASTCPU_CHECK(done != nullptr, "put without callback");
  if (!running_) {
    // The network path already answers kUnavailable when the engine is down
    // (or mid-recovery); without the same guard here a direct op would sit
    // in waiting_ forever — no session ever frees a slot to pump it.
    done(Unavailable("kvs engine is not running"));
    return;
  }
  puts_.Increment();
  LogRecord record;
  record.key = key;
  record.value = std::move(value);
  auto bytes = record.Encode();
  auto length = static_cast<uint32_t>(bytes.size());
  auto op = [this, key = std::string(key), length, bytes = std::move(bytes),
             done = std::move(done)]() mutable {
    auto land = [this, key = std::move(key), length, done = std::move(done)](Result<uint64_t> at) {
      if (!at.ok()) {
        done(at.status());
        OpSettled();
        return;
      }
      HashIndex::Location old;
      if (index_.Get(key, &old)) {
        live_bytes_ -= old.length;
      }
      live_bytes_ += length;
      log_tail_ = std::max(log_tail_, *at + length);
      index_.Put(key, HashIndex::Location{*at, length});
      done(OkStatus());
      OpSettled();
      MaybeCompact();
    };
    static_assert(ssddev::FileClient::AppendCallback::StoresInline<decltype(land)>(),
                  "put must stay inline");
    file_->Append(std::move(bytes), std::move(land));
  };
  static_assert(Op::StoresInline<decltype(op)>(), "put must stay inline");
  RunOrQueue(std::move(op));
}

void KvsEngine::Delete(const std::string& key, PutCallback done) {
  LASTCPU_CHECK(done != nullptr, "delete without callback");
  if (!running_) {
    done(Unavailable("kvs engine is not running"));
    return;
  }
  stats_.GetCounter("deletes").Increment();
  LogRecord record;
  record.key = key;
  record.tombstone = true;
  RunOrQueue([this, key = std::string(key), bytes = record.Encode(),
              done = std::move(done)]() mutable {
    HashIndex::Location location;
    if (!index_.Get(key, &location)) {
      done(NotFound("no such key"));
      return;
    }
    auto length = static_cast<uint32_t>(bytes.size());
    file_->Append(std::move(bytes), [this, key = std::move(key), length,
                                     done = std::move(done)](Result<uint64_t> at) {
      if (!at.ok()) {
        done(at.status());
        OpSettled();
        return;
      }
      HashIndex::Location old;
      if (index_.Get(key, &old)) {
        live_bytes_ -= old.length;
      }
      log_tail_ = std::max(log_tail_, *at + length);
      index_.Remove(key);
      done(OkStatus());
      OpSettled();
      MaybeCompact();
    });
  });
}

// --- compaction -----------------------------------------------------------------

void KvsEngine::MaybeCompact() {
  if (!running_ || compaction_ != nullptr || config_.compact_garbage_ratio <= 0.0) {
    return;
  }
  if (log_tail_ < config_.min_compact_bytes) {
    return;
  }
  double garbage =
      static_cast<double>(log_tail_ - live_bytes_) / static_cast<double>(log_tail_);
  if (garbage < config_.compact_garbage_ratio) {
    return;
  }
  CompactNow([](Status) {});
}

KvsEngine::Compaction* KvsEngine::Current(uint64_t id) const {
  return compaction_ != nullptr && compaction_->id == id ? compaction_.get() : nullptr;
}

void KvsEngine::CompactNow(StartCallback done) {
  LASTCPU_CHECK(done != nullptr, "compact without callback");
  if (!running_ || compaction_ != nullptr) {
    done(FailedPrecondition("engine not in a compactable state"));
    return;
  }
  // From here new ops queue, so only ops already in flight still move the
  // index; StartCopy waits for them.
  compaction_ = std::make_unique<Compaction>();
  compaction_->id = ++next_compaction_id_;
  compaction_->provider = file_->provider();
  compaction_->done = std::move(done);
  stats_.GetCounter("compactions").Increment();
  std::string target = GenName(generation_ + 1);

  ssddev::CreateRemoteFile(
      host_, compaction_->provider, target, config_.auth_token,
      [this, id = compaction_->id, target](Status created) {
        Compaction* job = Current(id);
        if (job == nullptr) {
          return;  // stopped; the next recovery scan deletes the file
        }
        if (!created.ok()) {
          AbortCompaction(created);
          return;
        }
        job->file = NewClient();
        job->file->Open(target, config_.auth_token,
                        [this, id, client = job->file.get()](Status opened) {
                          Compaction* current = Current(id);
                          if (current == nullptr) {
                            // Stopped while opening: EndCompaction left the
                            // client in closing_ for this answer.
                            CloseLater(client);
                            return;
                          }
                          current->phase = Compaction::Phase::kDraining;
                          if (!opened.ok()) {
                            AbortCompaction(opened);
                            return;
                          }
                          // Ops issued before the compaction began have long
                          // left their request DMA (the create and open round
                          // trips outlast it), so InFlight counts them all.
                          if (file_->InFlight() == 0) {
                            StartCopy();
                          }
                        });
      });
}

void KvsEngine::OpSettled() {
  if (compaction_ != nullptr && compaction_->phase == Compaction::Phase::kDraining &&
      file_->InFlight() == 0) {
    StartCopy();
  }
}

void KvsEngine::StartCopy() {
  // The old session has drained, so the index holds every acked write and
  // nothing moves it until the swap.
  Compaction& job = *compaction_;
  job.phase = Compaction::Phase::kCopying;
  job.live.assign(index_.entries().begin(), index_.entries().end());
  std::sort(job.live.begin(), job.live.end(), [](const auto& a, const auto& b) {
    return a.second.offset < b.second.offset;
  });
  CopyNext();
}

void KvsEngine::CopyNext() {
  Compaction& job = *compaction_;
  while (job.next < job.read_end) {
    const HashIndex::Location& location = job.live[job.next].second;
    if (job.pack.size() + location.length > ssddev::kMaxWriteBytes) {
      AppendPack();
      return;
    }
    if (job.pack.empty()) {
      job.pack.reserve(ssddev::kMaxWriteBytes);
    }
    auto from = job.read.begin() + static_cast<ptrdiff_t>(location.offset - job.read_start);
    job.pack.insert(job.pack.end(), from, from + location.length);
    ++job.next;
  }
  if (job.next < job.live.size()) {
    ReadRun();
  } else if (!job.pack.empty()) {
    AppendPack();
  } else {
    Seal();
  }
}

void KvsEngine::ReadRun() {
  // One read covers every following record that ends within kMaxReadBytes of
  // the first; a record is at most kMaxWriteBytes, so the run holds at least
  // one.
  Compaction& job = *compaction_;
  uint64_t start = job.live[job.next].second.offset;
  size_t end = job.next;
  uint64_t stop = start;
  while (end < job.live.size()) {
    const HashIndex::Location& location = job.live[end].second;
    if (location.offset + location.length - start > ssddev::kMaxReadBytes) {
      break;
    }
    stop = location.offset + location.length;
    ++end;
  }
  auto length = static_cast<uint32_t>(stop - start);
  file_->ReadAt(start, length,
                [this, id = job.id, start, end, length](Result<std::vector<uint8_t>> data) {
                  Compaction* current = Current(id);
                  if (current == nullptr) {
                    return;
                  }
                  if (!data.ok()) {
                    AbortCompaction(data.status());
                    return;
                  }
                  if (data->size() != length) {
                    AbortCompaction(DataLoss("short read of a live record"));
                    return;
                  }
                  current->read = *std::move(data);
                  current->read_start = start;
                  current->read_end = end;
                  CopyNext();
                });
}

void KvsEngine::AppendPack() {
  Compaction& job = *compaction_;
  job.file->Append(std::exchange(job.pack, {}), [this, id = job.id](Result<uint64_t> at) {
    Compaction* current = Current(id);
    if (current == nullptr) {
      return;
    }
    if (!at.ok()) {
      AbortCompaction(at.status());
      return;
    }
    uint64_t offset = *at;
    for (; current->packed < current->next; ++current->packed) {
      const auto& [key, location] = current->live[current->packed];
      current->index.Put(key, HashIndex::Location{offset, location.length});
      offset += location.length;
      stats_.GetCounter("compacted_records").Increment();
    }
    CopyNext();
  });
}

void KvsEngine::Seal() {
  LogRecord marker;
  marker.key = CommitMarkerKey();
  marker.tombstone = true;
  auto bytes = marker.Encode();
  uint64_t length = bytes.size();
  compaction_->file->Append(std::move(bytes),
                            [this, id = compaction_->id, length](Result<uint64_t> at) {
                              if (Current(id) == nullptr) {
                                return;
                              }
                              if (!at.ok()) {
                                AbortCompaction(at.status());
                                return;
                              }
                              FinishCompaction(*at + length);
                            });
}

void KvsEngine::FinishCompaction(uint64_t tail) {
  // Swap: the new generation becomes the store; the old file is deleted via
  // the control plane. The old session has been idle since the snapshot (ops
  // queued, and the copy's reads are done), so it closes cleanly. The index
  // holds the same records as at the snapshot, so live_bytes_ stands.
  std::unique_ptr<Compaction> job = std::move(compaction_);
  std::string old_name = active_file_;
  Retire(std::exchange(file_, std::move(job->file)));
  file_->SetSlotAvailableCallback([this] { PumpWaiting(); });
  index_ = std::move(job->index);
  log_tail_ = tail;
  generation_ += 1;
  active_file_ = GenName(generation_);
  stats_.GetCounter("compactions_completed").Increment();

  ssddev::DeleteRemoteFile(host_, job->provider, old_name, config_.auth_token,
                           [done = std::move(job->done)](Status deleted) {
                             // Best effort: leftover debris is cleaned at the
                             // next recovery.
                             (void)deleted;
                             done(OkStatus());
                           });
  PumpWaiting();
}

void KvsEngine::AbortCompaction(Status reason) {
  stats_.GetCounter("compactions_aborted").Increment();
  DeviceId provider = compaction_->provider;
  StartCallback done = EndCompaction();
  ssddev::DeleteRemoteFile(host_, provider, GenName(generation_ + 1), config_.auth_token,
                           [](Status) {});
  PumpWaiting();
  done(reason);
}

KvsEngine::StartCallback KvsEngine::EndCompaction() {
  std::unique_ptr<Compaction> job = std::move(compaction_);
  if (job->file != nullptr) {
    ssddev::FileClient* client = job->file.get();
    closing_.push_back(std::move(job->file));
    // A session still opening is closed when its Open answers.
    if (job->phase != Compaction::Phase::kOpening) {
      CloseLater(client);
    }
  }
  return std::move(job->done);
}

std::unique_ptr<ssddev::FileClient> KvsEngine::NewClient() {
  if (spare_clients_.empty()) {
    return std::make_unique<ssddev::FileClient>(host_, pasid_, config_.file_client);
  }
  std::unique_ptr<ssddev::FileClient> client = std::move(spare_clients_.front());
  spare_clients_.pop_front();
  return client;
}

void KvsEngine::Retire(std::unique_ptr<ssddev::FileClient> client) {
  closing_.push_back(std::move(client));
  CloseRetired(std::prev(closing_.end()));
}

void KvsEngine::CloseLater(ssddev::FileClient* client) {
  // The abort can run inside the client's own completion; defer off it, as
  // the debris path in TryCandidate does.
  host_->simulator()->Schedule(sim::Duration::Nanos(100), [this, client] {
    auto it = std::find_if(closing_.begin(), closing_.end(),
                           [client](const auto& c) { return c.get() == client; });
    LASTCPU_CHECK(it != closing_.end(), "closing a client the engine does not hold");
    CloseRetired(it);
  });
}

void KvsEngine::CloseRetired(std::list<std::unique_ptr<ssddev::FileClient>>::iterator it) {
  (*it)->SetSlotAvailableCallback(nullptr);
  // A session that never opened, or was reset, answers at once.
  (*it)->Close([this, it](Status) { spare_clients_.splice(spare_clients_.end(), closing_, it); });
}

// --- network protocol -------------------------------------------------------------

void KvsEngine::HandleRequest(std::vector<uint8_t> wire, Responder respond) {
  LASTCPU_CHECK(respond != nullptr, "request without responder");
  auto request = KvsRequest::Decode(wire);
  if (!request.ok()) {
    stats_.GetCounter("malformed_requests").Increment();
    KvsResponse response;
    response.status = StatusCode::kInvalidArgument;
    respond(response.Encode());
    return;
  }
  if (!running_) {
    KvsResponse response;
    response.status = StatusCode::kUnavailable;
    response.sequence = request->sequence;
    respond(response.Encode());
    return;
  }
  uint64_t sequence = request->sequence;
  switch (request->op) {
    case KvsOp::kGet:
      Get(request->key, [sequence, respond = std::move(respond)](
                            Result<std::vector<uint8_t>> value) {
        KvsResponse response;
        response.sequence = sequence;
        if (value.ok()) {
          response.value = *std::move(value);
        } else {
          response.status = value.status().code();
        }
        respond(response.Encode());
      });
      return;
    case KvsOp::kPut:
      Put(request->key, std::move(request->value),
          [sequence, respond = std::move(respond)](Status s) {
            KvsResponse response;
            response.sequence = sequence;
            response.status = s.code();
            respond(response.Encode());
          });
      return;
    case KvsOp::kDelete:
      Delete(request->key, [sequence, respond = std::move(respond)](Status s) {
        KvsResponse response;
        response.sequence = sequence;
        response.status = s.code();
        respond(response.Encode());
      });
      return;
  }
}

}  // namespace lastcpu::kvs

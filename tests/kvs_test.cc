// KVS application tests: wire protocol, index, workload generation, and the
// paper's Sec. 3 application end to end on a full machine — network clients
// hitting a smart NIC whose data lives on a smart SSD, with recovery after
// both engine restart and whole-device failure (Sec. 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "src/core/machine.h"
#include "src/kvs/kvs_app.h"
#include "src/kvs/kvs_engine.h"
#include "src/kvs/kvs_protocol.h"
#include "src/kvs/workload.h"
#include "tests/alloc_counter.h"
#include "tests/hex.h"

namespace lastcpu::kvs {
namespace {

TEST(KvsProtocolTest, RequestRoundTrip) {
  KvsRequest request;
  request.op = KvsOp::kPut;
  request.sequence = 42;
  request.key = "user1000007";
  request.value = {9, 8, 7};
  auto decoded = KvsRequest::Decode(request.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, KvsOp::kPut);
  EXPECT_EQ(decoded->sequence, 42u);
  EXPECT_EQ(decoded->key, "user1000007");
  EXPECT_EQ(decoded->value, (std::vector<uint8_t>{9, 8, 7}));
}

TEST(KvsProtocolTest, ResponseRoundTrip) {
  KvsResponse response;
  response.status = StatusCode::kNotFound;
  response.sequence = 7;
  auto decoded = KvsResponse::Decode(response.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, StatusCode::kNotFound);
  EXPECT_EQ(decoded->sequence, 7u);
}

TEST(KvsProtocolTest, MalformedRequestsRejected) {
  EXPECT_FALSE(KvsRequest::Decode(std::vector<uint8_t>{1, 2}).ok());
  KvsRequest request;
  request.key = "k";
  auto wire = request.Encode();
  wire[0] = 99;  // bad op
  EXPECT_FALSE(KvsRequest::Decode(wire).ok());
  wire = request.Encode();
  wire.pop_back();  // truncated body
  EXPECT_FALSE(KvsRequest::Decode(wire).ok());
}

// A length field near 2^32 must not wrap the decoders' bounds checks. Summed
// in 32 bits, 15 + 0 + 0xFFFFFFF1 is 0, so a 15-byte request claiming a
// 0xFFFFFFF1-byte value would pass the check and copy about 4 GiB from
// inside the datagram.
TEST(KvsProtocolTest, RequestValueLengthNear4GiBIsRejected) {
  KvsRequest request;
  request.op = KvsOp::kPut;
  request.sequence = 3;
  std::vector<uint8_t> wire = request.Encode();
  ASSERT_EQ(wire.size(), 15u);
  // value_len is the little-endian u32 at byte 11.
  wire[11] = 0xF1;
  wire[12] = wire[13] = wire[14] = 0xFF;
  auto decoded = KvsRequest::Decode(wire);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KvsProtocolTest, ResponseValueLengthNear4GiBIsRejected) {
  KvsResponse response;
  response.sequence = 3;
  std::vector<uint8_t> wire = response.Encode();
  ASSERT_EQ(wire.size(), 13u);
  // value_len is the u32 at byte 9; 13 + 0xFFFFFFF3 is 0 in 32 bits.
  wire[9] = 0xF3;
  wire[10] = wire[11] = wire[12] = 0xFF;
  auto decoded = KvsResponse::Decode(wire);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KvsProtocolTest, LogRecordRoundTripAndChaining) {
  LogRecord a{"alpha", {1, 2, 3}, false};
  LogRecord b{"beta", {}, true};
  auto wire = a.Encode();
  auto more = b.Encode();
  wire.insert(wire.end(), more.begin(), more.end());

  auto first = LogRecord::Decode(wire);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->first.key, "alpha");
  EXPECT_FALSE(first->first.tombstone);
  auto second = LogRecord::Decode(std::span<const uint8_t>(wire).subspan(first->second));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->first.key, "beta");
  EXPECT_TRUE(second->first.tombstone);
  EXPECT_EQ(first->second + second->second, wire.size());
}

TEST(KvsProtocolTest, LogRecordBadMagicIsDataLoss) {
  LogRecord a{"k", {1}, false};
  auto wire = a.Encode();
  wire[0] = 0;
  auto decoded = LogRecord::Decode(wire);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// Each encoder sizes its buffer from its header constant, so encoding
// allocates exactly the buffer it returns.
TEST(KvsProtocolTest, EncodeAllocatesOnlyItsBuffer) {
  const KvsRequest request{KvsOp::kPut, 42, "user1000007", std::vector<uint8_t>(1000, 7)};
  const KvsResponse response{StatusCode::kOk, 42, std::vector<uint8_t>(1000, 7)};
  const LogRecord record{"user1000007", std::vector<uint8_t>(1000, 7), false};
  uint64_t before = alloc_counter::Calls();
  std::vector<uint8_t> wire = request.Encode();
  EXPECT_EQ(alloc_counter::Calls() - before, 1u);
  EXPECT_EQ(wire.size(), 15u + 11 + 1000);
  before = alloc_counter::Calls();
  wire = response.Encode();
  EXPECT_EQ(alloc_counter::Calls() - before, 1u);
  EXPECT_EQ(wire.size(), 13u + 1000);
  before = alloc_counter::Calls();
  wire = record.Encode();
  EXPECT_EQ(alloc_counter::Calls() - before, 1u);
  EXPECT_EQ(wire.size(), 9u + 11 + 1000);
}

// --- format goldens -------------------------------------------------------------
//
// The exact bytes of each KVS format, both ways. Every field holds a distinct
// value, so a field at the wrong offset, of the wrong width or in the wrong
// byte order changes the bytes even when encoder and decoder agree.

TEST(KvsFormatGolden, Request) {
  const KvsRequest request{KvsOp::kPut, 0x0102030405060708, "key", {0xA1, 0xA2}};
  // op | sequence u64 | key_len u16 | value_len u32 | key | value
  constexpr std::string_view kHex = "02" "0807060504030201" "0300" "02000000" "6b6579" "a1a2";
  EXPECT_EQ(testutil::BytesToHex(request.Encode()), kHex);
  auto decoded = KvsRequest::Decode(testutil::HexToBytes(kHex));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, request.op);
  EXPECT_EQ(decoded->sequence, request.sequence);
  EXPECT_EQ(decoded->key, request.key);
  EXPECT_EQ(decoded->value, request.value);
}

TEST(KvsFormatGolden, Response) {
  const KvsResponse response{StatusCode::kNotFound, 0x1112131415161718, {0xB1, 0xB2, 0xB3}};
  // status | sequence u64 | value_len u32 | value
  constexpr std::string_view kHex = "02" "1817161514131211" "03000000" "b1b2b3";
  EXPECT_EQ(testutil::BytesToHex(response.Encode()), kHex);
  auto decoded = KvsResponse::Decode(testutil::HexToBytes(kHex));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status, response.status);
  EXPECT_EQ(decoded->sequence, response.sequence);
  EXPECT_EQ(decoded->value, response.value);
}

TEST(KvsFormatGolden, LogRecordWithValue) {
  const LogRecord record{"alpha", {0xC1, 0xC2, 0xC3, 0xC4}, false};
  // magic u16 | key_len u16 | value_len u32 | tombstone | key | value
  constexpr std::string_view kHex = "564b" "0500" "04000000" "00" "616c706861" "c1c2c3c4";
  EXPECT_EQ(testutil::BytesToHex(record.Encode()), kHex);
  auto decoded = LogRecord::Decode(testutil::HexToBytes(kHex));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->first.key, record.key);
  EXPECT_EQ(decoded->first.value, record.value);
  EXPECT_FALSE(decoded->first.tombstone);
  EXPECT_EQ(decoded->second, kHex.size() / 2);
}

TEST(KvsFormatGolden, LogRecordTombstone) {
  const LogRecord record{"gone", {}, true};
  constexpr std::string_view kHex = "564b" "0400" "00000000" "01" "676f6e65";
  EXPECT_EQ(testutil::BytesToHex(record.Encode()), kHex);
  auto decoded = LogRecord::Decode(testutil::HexToBytes(kHex));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->first.key, record.key);
  EXPECT_TRUE(decoded->first.value.empty());
  EXPECT_TRUE(decoded->first.tombstone);
  EXPECT_EQ(decoded->second, kHex.size() / 2);
}

TEST(HashIndexTest, PutGetRemove) {
  HashIndex index;
  index.Put("a", {100, 10});
  index.Put("b", {200, 20});
  HashIndex::Location loc;
  ASSERT_TRUE(index.Get("a", &loc));
  EXPECT_EQ(loc.offset, 100u);
  index.Put("a", {300, 30});  // update
  ASSERT_TRUE(index.Get("a", &loc));
  EXPECT_EQ(loc.offset, 300u);
  EXPECT_EQ(index.size(), 2u);
  index.Remove("a");
  EXPECT_FALSE(index.Get("a", &loc));
  EXPECT_GT(index.memory_bytes(), 0u);
}

TEST(WorkloadTest, MixMatchesConfiguredFraction) {
  WorkloadConfig config;
  config.get_fraction = 0.7;
  config.seed = 11;
  WorkloadGenerator generator(config);
  int gets = 0;
  for (int i = 0; i < 10000; ++i) {
    if (generator.Next().op == KvsOp::kGet) {
      ++gets;
    }
  }
  EXPECT_NEAR(gets / 10000.0, 0.7, 0.03);
}

TEST(WorkloadTest, ZipfSkewsKeys) {
  WorkloadConfig config;
  config.num_keys = 1000;
  config.zipf_theta = 0.99;
  WorkloadGenerator generator(config);
  std::map<std::string, int> hits;
  for (int i = 0; i < 20000; ++i) {
    ++hits[generator.Next().key];
  }
  // The 10 hottest keys hold a large share of traffic (uniform would be 1%).
  std::vector<int> counts;
  counts.reserve(hits.size());
  for (const auto& [key, count] : hits) {
    counts.push_back(count);
  }
  std::sort(counts.rbegin(), counts.rend());
  int head = 0;
  for (size_t i = 0; i < 10 && i < counts.size(); ++i) {
    head += counts[i];
  }
  EXPECT_GT(head, 20000 / 4);
}

TEST(WorkloadTest, DeterministicForSeed) {
  WorkloadConfig config;
  config.seed = 5;
  WorkloadGenerator a(config);
  WorkloadGenerator b(config);
  for (int i = 0; i < 100; ++i) {
    KvsRequest ra = a.Next();
    KvsRequest rb = b.Next();
    EXPECT_EQ(ra.key, rb.key);
    EXPECT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
  }
}

// --- end to end on a full machine ---------------------------------------------

class KvsMachineTest : public ::testing::Test {
 protected:
  KvsMachineTest() {
    machine_.AddMemoryController();
    ssd_ = &machine_.AddSmartSsd(NoAuth());
    nic_ = &machine_.AddSmartNic();
    ssd_->ProvisionFile("kv.log", {});
    app_pasid_ = machine_.NewApplication("kvs");
    auto app = std::make_unique<KvsApp>(nic_, app_pasid_);
    app_ = app.get();
    nic_->LoadApp(std::move(app));
    machine_.Boot();
  }

  static ssddev::SmartSsdConfig NoAuth() {
    ssddev::SmartSsdConfig config;
    config.host_auth_service = false;
    return config;
  }

  Status PutSync(const std::string& key, std::vector<uint8_t> value) {
    std::optional<Status> status;
    app_->engine().Put(key, std::move(value), [&](Status s) { status = s; });
    machine_.RunUntilIdle();
    LASTCPU_CHECK(status.has_value(), "put never completed");
    return *status;
  }

  Result<std::vector<uint8_t>> GetSync(const std::string& key) {
    std::optional<Result<std::vector<uint8_t>>> result;
    app_->engine().Get(key, [&](Result<std::vector<uint8_t>> r) { result = std::move(r); });
    machine_.RunUntilIdle();
    LASTCPU_CHECK(result.has_value(), "get never completed");
    return *result;
  }

  // The whole file, read straight from the SSD's file system.
  std::vector<uint8_t> FileBytes(const std::string& name) {
    auto info = ssd_->fs().Stat(name);
    LASTCPU_CHECK(info.ok(), "no such file");
    std::optional<Result<std::vector<uint8_t>>> read;
    ssd_->fs().Read(name, 0, info->size,
                    [&](Result<std::vector<uint8_t>> r) { read = std::move(r); });
    machine_.RunUntilIdle();
    LASTCPU_CHECK(read.has_value() && read->ok(), "file read failed");
    return **read;
  }

  core::Machine machine_;
  ssddev::SmartSsd* ssd_ = nullptr;
  nicdev::SmartNic* nic_ = nullptr;
  KvsApp* app_ = nullptr;
  Pasid app_pasid_;
};

TEST_F(KvsMachineTest, AppStartsOnBoot) {
  EXPECT_TRUE(nic_->app_ready());
  EXPECT_TRUE(app_->engine().running());
}

TEST_F(KvsMachineTest, PutGetDeleteDirect) {
  ASSERT_TRUE(PutSync("alpha", {1, 2, 3}).ok());
  auto got = GetSync("alpha");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<uint8_t>{1, 2, 3}));

  // Overwrite.
  ASSERT_TRUE(PutSync("alpha", {9}).ok());
  EXPECT_EQ(*GetSync("alpha"), (std::vector<uint8_t>{9}));

  // Delete.
  std::optional<Status> deleted;
  app_->engine().Delete("alpha", [&](Status s) { deleted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(deleted->ok());
  EXPECT_EQ(GetSync("alpha").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(GetSync("never-existed").status().code(), StatusCode::kNotFound);
}

TEST_F(KvsMachineTest, ServesNetworkClients) {
  // Preload some keys through the engine.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(PutSync(WorkloadGenerator::KeyFor(static_cast<uint64_t>(i)),
                        std::vector<uint8_t>(64, static_cast<uint8_t>(i)))
                    .ok());
  }
  WorkloadConfig workload;
  workload.num_keys = 20;
  workload.get_fraction = 0.8;
  workload.value_bytes = 64;
  LoadClient client(&machine_.simulator(), &machine_.network(), nic_->endpoint(), workload, 4);
  bool finished = false;
  client.Start(200, [&] { finished = true; });
  machine_.RunUntilIdle();
  EXPECT_TRUE(finished);
  EXPECT_EQ(client.completed(), 200u);
  EXPECT_EQ(client.errors(), 0u);
  EXPECT_GT(client.latency().count(), 0u);
  EXPECT_GT(client.latency().p50(), 0u);
  EXPECT_EQ(nic_->requests_handled(), 200u);
}

TEST_F(KvsMachineTest, DeepGetLoadIsNotBoundByTheNicLink) {
  // 64 outstanding GETs keep the SSD file service busy, and 2,000 of them
  // take about 5 ms. Were the NIC's link held for each response's 5 us
  // flight, they would need at least 2,000 x 5.03 us.
  constexpr uint64_t kKeys = 100;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(PutSync(WorkloadGenerator::KeyFor(i), std::vector<uint8_t>(256)).ok());
  }
  WorkloadConfig workload;
  workload.num_keys = kKeys;
  workload.get_fraction = 1.0;
  workload.value_bytes = 256;
  LoadClient client(&machine_.simulator(), &machine_.network(), nic_->endpoint(), workload, 64);
  sim::SimTime start = machine_.simulator().Now();
  std::optional<sim::SimTime> finished;
  client.Start(2000, [&] { finished = machine_.simulator().Now(); });
  machine_.RunUntilIdle();
  ASSERT_TRUE(finished.has_value());
  EXPECT_EQ(client.completed(), 2000u);
  EXPECT_EQ(client.errors(), 0u);
  EXPECT_LT(*finished - start, sim::Duration::Millis(6))
      << (*finished - start).nanos() << " ns";
}

TEST_F(KvsMachineTest, IndexRebuiltByRecoveryScan) {
  ASSERT_TRUE(PutSync("alpha", {1}).ok());
  ASSERT_TRUE(PutSync("beta", {2, 2}).ok());
  ASSERT_TRUE(PutSync("alpha", {3, 3, 3}).ok());  // newer version
  std::optional<Status> deleted;
  app_->engine().Delete("beta", [&](Status s) { deleted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(deleted->ok());

  // Simulate an engine restart: drop the session and the volatile index,
  // then bring the engine back up — Start() must rebuild from the log.
  app_->engine().Stop(Aborted("restart"));
  EXPECT_FALSE(app_->engine().running());
  std::optional<Status> restarted;
  app_->engine().Start([&](Status s) { restarted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(restarted.has_value());
  ASSERT_TRUE(restarted->ok()) << restarted->ToString();

  // Replay honored versions and tombstones.
  EXPECT_EQ(app_->engine().index().size(), 1u);
  auto alpha = GetSync("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, (std::vector<uint8_t>{3, 3, 3}));
  EXPECT_EQ(GetSync("beta").status().code(), StatusCode::kNotFound);
  EXPECT_GT(app_->engine().stats().GetCounter("recovered_records").value(), 0u);
}

TEST_F(KvsMachineTest, RecoveryAfterSsdFailure) {
  ASSERT_TRUE(PutSync("persistent", {7, 7}).ok());
  // The SSD dies; the bus notices; the NIC's app recovers by reopening.
  ssd_->InjectFailure();
  machine_.bus().ReportDeviceFailure(ssd_->id());
  machine_.RunUntilIdle();
  EXPECT_TRUE(app_->engine().running());
  EXPECT_GE(app_->recoveries(), 1u);
  // Data survived on flash and the rebuilt index finds it.
  auto got = GetSync("persistent");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, (std::vector<uint8_t>{7, 7}));
}

TEST_F(KvsMachineTest, ManualCompactionShrinksLogAndPreservesData) {
  // Build garbage: every key overwritten 5x, half then deleted.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(PutSync("key" + std::to_string(i),
                          std::vector<uint8_t>(100, static_cast<uint8_t>(round)))
                      .ok());
    }
  }
  for (int i = 0; i < 10; ++i) {
    std::optional<Status> deleted;
    app_->engine().Delete("key" + std::to_string(i), [&](Status s) { deleted = s; });
    machine_.RunUntilIdle();
    ASSERT_TRUE(deleted->ok());
  }
  uint64_t tail_before = app_->engine().log_tail_bytes();
  uint64_t live_before = app_->engine().live_bytes();
  ASSERT_GT(tail_before, live_before * 2);  // plenty of garbage

  std::optional<Status> compacted;
  app_->engine().CompactNow([&](Status s) { compacted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(compacted.has_value());
  ASSERT_TRUE(compacted->ok()) << compacted->ToString();
  EXPECT_EQ(app_->engine().generation(), 1u);
  // The new log holds only live records (+ the commit marker).
  EXPECT_LT(app_->engine().log_tail_bytes(), live_before + 100);
  // The old generation is gone from the SSD; the new one exists.
  EXPECT_FALSE(ssd_->fs().Exists("kv.log"));
  EXPECT_TRUE(ssd_->fs().Exists("kv.log.1"));

  // Data intact: deleted keys stay dead, surviving keys hold round-4 values.
  EXPECT_EQ(GetSync("key3").status().code(), StatusCode::kNotFound);
  auto survivor = GetSync("key15");
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(*survivor, std::vector<uint8_t>(100, 4));
}

TEST_F(KvsMachineTest, OperationsIssuedDuringCompactionAreServed) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutSync("key" + std::to_string(i), {static_cast<uint8_t>(i)}).ok());
  }
  std::optional<Status> compacted;
  app_->engine().CompactNow([&](Status s) { compacted = s; });
  // Issue reads and a write while the copy is in flight: they must queue and
  // then complete against the new generation.
  std::optional<std::vector<uint8_t>> got;
  std::optional<Status> put;
  app_->engine().Get("key5", [&](Result<std::vector<uint8_t>> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    got = *r;
  });
  app_->engine().Put("key5", {0x55}, [&](Status s) { put = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(compacted.has_value() && compacted->ok());
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(put.has_value() && put->ok());
  EXPECT_EQ(*GetSync("key5"), (std::vector<uint8_t>{0x55}));
}

// A PUT in flight when the compaction starts is acked while it runs. The
// snapshot must hold it, or the swap brings back the older value.
TEST_F(KvsMachineTest, PutAckedDuringCompactionSurvivesSwap) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutSync("key" + std::to_string(i), {static_cast<uint8_t>(i)}).ok());
  }
  std::optional<Status> put;
  bool acked_while_compacting = false;
  app_->engine().Put("key5", {0x55}, [&](Status s) {
    put = s;
    acked_while_compacting = app_->engine().compacting();
  });
  std::optional<Status> compacted;
  app_->engine().CompactNow([&](Status s) { compacted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(put.has_value() && put->ok());
  ASSERT_TRUE(compacted.has_value() && compacted->ok()) << compacted->ToString();
  EXPECT_TRUE(acked_while_compacting);
  EXPECT_EQ(app_->engine().generation(), 1u);
  auto got = GetSync("key5");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, (std::vector<uint8_t>{0x55}));
}

// The same for a DELETE: acked during the compaction, the key stays deleted.
TEST_F(KvsMachineTest, DeleteAckedDuringCompactionStaysDeleted) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutSync("key" + std::to_string(i), {static_cast<uint8_t>(i)}).ok());
  }
  std::optional<Status> deleted;
  bool acked_while_compacting = false;
  app_->engine().Delete("key5", [&](Status s) {
    deleted = s;
    acked_while_compacting = app_->engine().compacting();
  });
  std::optional<Status> compacted;
  app_->engine().CompactNow([&](Status s) { compacted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(deleted.has_value() && deleted->ok());
  ASSERT_TRUE(compacted.has_value() && compacted->ok()) << compacted->ToString();
  EXPECT_TRUE(acked_while_compacting);
  EXPECT_EQ(GetSync("key5").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(app_->engine().index().size(), 9u);
}

// The compacted generation is the old log's live records, concatenated in
// old-offset order, then the commit marker. The copy reads runs of the old
// log and packs whole records into appends: 64 live records of 1036 bytes
// with 8 dead ones between them take 5 reads (each under kMaxReadBytes,
// 16368 B), 22 appends of up to 3 records (kMaxWriteBytes is 4080 B) and one
// marker append. A read and an append per record made it 129.
TEST_F(KvsMachineTest, CompactionCopiesLiveRecordsInLogOrder) {
  auto key = [](int i) { return "k" + std::string(i < 10 ? "0" : "") + std::to_string(i); };
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(PutSync(key(i), std::vector<uint8_t>(1024, static_cast<uint8_t>(i))).ok());
  }
  // Overwrite every key in a scrambled order, so log order is neither key
  // order nor hash order, with a dead record after every eighth.
  for (int j = 0; j < 64; ++j) {
    int i = (j * 37) % 64;
    ASSERT_TRUE(PutSync(key(i), std::vector<uint8_t>(1024, static_cast<uint8_t>(i + 64))).ok());
    if (j % 8 == 7) {
      ASSERT_TRUE(PutSync("k__", std::vector<uint8_t>(1024, 0xEE)).ok());
    }
  }
  std::optional<Status> deleted;
  app_->engine().Delete("k__", [&](Status s) { deleted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(deleted.has_value() && deleted->ok());
  ASSERT_EQ(app_->engine().index().size(), 64u);

  std::vector<std::pair<uint64_t, uint32_t>> live;
  for (const auto& [k, location] : app_->engine().index().entries()) {
    live.emplace_back(location.offset, location.length);
  }
  std::sort(live.begin(), live.end());
  std::vector<uint8_t> old_log = FileBytes("kv.log");
  std::vector<uint8_t> expected;
  for (const auto& [offset, length] : live) {
    expected.insert(expected.end(), old_log.begin() + static_cast<ptrdiff_t>(offset),
                    old_log.begin() + static_cast<ptrdiff_t>(offset + length));
  }
  LogRecord marker{std::string(1, '\x01') + "__compaction_commit__", {}, true};
  std::vector<uint8_t> marker_bytes = marker.Encode();
  expected.insert(expected.end(), marker_bytes.begin(), marker_bytes.end());

  sim::Counter& requests = nic_->stats().GetCounter("file_client_requests");
  uint64_t requests_before = requests.value();
  std::optional<Status> compacted;
  app_->engine().CompactNow([&](Status s) { compacted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(compacted.has_value() && compacted->ok()) << compacted->ToString();
  EXPECT_EQ(requests.value() - requests_before, 28u);
  EXPECT_EQ(FileBytes("kv.log.1"), expected);
  EXPECT_EQ(app_->engine().log_tail_bytes(), expected.size());
  for (int i = 0; i < 64; ++i) {
    auto got = GetSync(key(i));
    ASSERT_TRUE(got.ok()) << key(i);
    EXPECT_EQ(*got, std::vector<uint8_t>(1024, static_cast<uint8_t>(i + 64))) << key(i);
  }
}

TEST_F(KvsMachineTest, AutomaticCompactionTriggersOnGarbageRatio) {
  // Rebuild the app with compaction armed.
  kvs::KvsAppConfig config;
  config.engine.compact_garbage_ratio = 0.5;
  config.engine.min_compact_bytes = 4 << 10;
  auto app = std::make_unique<KvsApp>(nic_, machine_.NewApplication("kvs2"), config);
  KvsApp* auto_app = app.get();
  nic_->LoadApp(std::move(app));
  machine_.RunUntilIdle();
  ASSERT_TRUE(auto_app->engine().running());

  // Hammer one key: almost everything becomes garbage.
  for (int i = 0; i < 200; ++i) {
    std::optional<Status> status;
    auto_app->engine().Put("hot", std::vector<uint8_t>(200, static_cast<uint8_t>(i)),
                           [&](Status s) { status = s; });
    machine_.RunUntilIdle();
    ASSERT_TRUE(status->ok());
  }
  EXPECT_GE(auto_app->engine().stats().GetCounter("compactions_completed").value(), 1u);
  EXPECT_GE(auto_app->engine().generation(), 1u);
  std::optional<std::vector<uint8_t>> hot;
  auto_app->engine().Get("hot", [&](Result<std::vector<uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    hot = *r;
  });
  machine_.RunUntilIdle();
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ((*hot)[0], 199);
}

TEST_F(KvsMachineTest, RestartAdoptsCompactedGeneration) {
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(PutSync("key" + std::to_string(i), {static_cast<uint8_t>(i)}).ok());
  }
  std::optional<Status> compacted;
  app_->engine().CompactNow([&](Status s) { compacted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(compacted->ok());
  ASSERT_EQ(app_->engine().generation(), 1u);

  // Full engine restart: recovery must find and adopt kv.log.1.
  app_->engine().Stop(Aborted("restart"));
  std::optional<Status> restarted;
  app_->engine().Start([&](Status s) { restarted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(restarted.has_value());
  ASSERT_TRUE(restarted->ok()) << restarted->ToString();
  EXPECT_EQ(app_->engine().generation(), 1u);
  EXPECT_EQ(app_->engine().index().size(), 15u);
  auto got = GetSync("key7");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<uint8_t>{7}));
}

TEST_F(KvsMachineTest, RecoverySkipsUncommittedGenerationDebris) {
  ASSERT_TRUE(PutSync("real", {1, 2, 3}).ok());
  // Fake a crashed compaction: a half-copied generation without the commit
  // marker, containing a stale record.
  kvs::LogRecord stale{"real", {9, 9, 9}, false};
  ssd_->ProvisionFile("kv.log.1", stale.Encode());
  machine_.RunUntilIdle();

  app_->engine().Stop(Aborted("restart"));
  std::optional<Status> restarted;
  app_->engine().Start([&](Status s) { restarted = s; });
  machine_.RunUntilIdle();
  ASSERT_TRUE(restarted.has_value() && restarted->ok());
  // The committed base generation won; the debris was discarded and deleted.
  EXPECT_EQ(app_->engine().generation(), 0u);
  auto got = GetSync("real");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_GE(app_->engine().stats().GetCounter("debris_generations_skipped").value(), 1u);
  EXPECT_FALSE(ssd_->fs().Exists("kv.log.1"));
}

TEST_F(KvsMachineTest, TeardownReclaimsApplicationMemory) {
  ASSERT_TRUE(PutSync("x", {1}).ok());
  ASSERT_GT(nic_->iommu().mapped_pages(app_pasid_), 0u);
  machine_.TeardownApplication(app_pasid_);
  machine_.RunUntilIdle();
  EXPECT_EQ(nic_->iommu().mapped_pages(app_pasid_), 0u);
  EXPECT_EQ(ssd_->iommu().mapped_pages(app_pasid_), 0u);
}

// A compaction that runs the drive out of space fails on an append of its
// own session, so the abort runs inside that session's completion. The
// engine must come through it serving the old generation.
TEST(KvsCompactionTest, FailedCompactionAppendLeavesEngineServing) {
  core::Machine machine;
  memdev::MemoryController& controller = machine.AddMemoryController();
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  ssd_config.nand.dies = 2;
  ssd_config.nand.blocks_per_die = 8;
  ssd_config.nand.pages_per_block = 8;
  // Half the NAND is spare, so the filesystem fills while the FTL still has
  // free blocks for the clean-up.
  ssd_config.ftl.over_provisioning = 0.5;
  ssddev::SmartSsd& ssd = machine.AddSmartSsd(ssd_config);
  nicdev::SmartNic& nic = machine.AddSmartNic();
  ssd.ProvisionFile("kv.log", {});
  auto app = std::make_unique<KvsApp>(&nic, machine.NewApplication("kvs"));
  KvsEngine& engine = app->engine();
  nic.LoadApp(std::move(app));
  machine.Boot();
  ASSERT_TRUE(engine.running());

  auto put = [&](const std::string& key, std::vector<uint8_t> value) {
    std::optional<Status> status;
    engine.Put(key, std::move(value), [&](Status s) { status = s; });
    machine.RunUntilIdle();
    return status.value_or(Internal("put never completed"));
  };
  // Distinct keys keep every record live. Stop once the free space can no
  // longer hold a copy of the log.
  for (int i = 0; ssd.fs().free_pages() * ssddev::kNandPageBytes > engine.log_tail_bytes();
       ++i) {
    ASSERT_TRUE(put("key" + std::to_string(i), std::vector<uint8_t>(1024, static_cast<uint8_t>(i)))
                    .ok());
  }

  uint64_t allocations_before = controller.allocation_count();
  std::optional<Status> compacted;
  engine.CompactNow([&](Status s) { compacted = s; });
  machine.RunUntilIdle();
  ASSERT_TRUE(compacted.has_value());
  EXPECT_EQ(compacted->code(), StatusCode::kResourceExhausted) << compacted->ToString();
  EXPECT_EQ(engine.stats().GetCounter("compactions_aborted").value(), 1u);
  EXPECT_FALSE(engine.compacting());
  EXPECT_EQ(engine.generation(), 0u);
  EXPECT_FALSE(ssd.fs().Exists("kv.log.1"));
  // The aborted compaction's session is closed, not leaked.
  EXPECT_EQ(controller.allocation_count(), allocations_before);

  std::optional<Result<std::vector<uint8_t>>> got;
  engine.Get("key1", [&](Result<std::vector<uint8_t>> r) { got = std::move(r); });
  machine.RunUntilIdle();
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(**got, std::vector<uint8_t>(1024, 1));
  EXPECT_TRUE(put("key1", {1, 2, 3}).ok());
}

// Sustained overwrites with compaction armed: every compaction closes the
// session it supersedes, so the memory controller's live allocations stay
// flat and no PUT fails. With the superseded sessions leaked, the controller
// ran out of memory for new sessions after about 19 k PUTs.
TEST(KvsCompactionTest, SustainedOverwritesKeepAllocationsFlat) {
  core::Machine machine;
  memdev::MemoryController& controller = machine.AddMemoryController();
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  ssddev::SmartSsd& ssd = machine.AddSmartSsd(ssd_config);
  nicdev::SmartNic& nic = machine.AddSmartNic();
  ssd.ProvisionFile("kv.log", {});
  KvsAppConfig config;
  config.engine.compact_garbage_ratio = 0.5;
  config.engine.min_compact_bytes = 128 << 10;
  auto app = std::make_unique<KvsApp>(&nic, machine.NewApplication("kvs"), config);
  KvsEngine& engine = app->engine();
  nic.LoadApp(std::move(app));
  machine.Boot();
  ASSERT_TRUE(engine.running());

  constexpr int kKeys = 32;
  constexpr int kRounds = 1563;  // 50,016 PUTs
  sim::Counter& completed = engine.stats().GetCounter("compactions_completed");
  std::optional<uint64_t> allocations;
  uint64_t failed = 0;
  // One PUT per key per round, all in flight together, so compactions start
  // with PUTs still on the old session.
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      std::vector<uint8_t> value(1024, static_cast<uint8_t>(round));
      engine.Put("key" + std::to_string(k), std::move(value), [&failed](Status s) {
        failed += s.ok() ? 0 : 1;
      });
    }
    machine.RunUntilIdle();
    ASSERT_EQ(failed, 0u) << "round " << round;
    if (!allocations.has_value() && completed.value() > 0) {
      allocations = controller.allocation_count();
    } else if (allocations.has_value()) {
      ASSERT_EQ(controller.allocation_count(), *allocations) << "round " << round;
    }
  }
  EXPECT_GT(completed.value(), 10u);
  EXPECT_EQ(engine.stats().GetCounter("compactions_aborted").value(), 0u);
  for (int k = 0; k < kKeys; ++k) {
    std::optional<Result<std::vector<uint8_t>>> got;
    engine.Get("key" + std::to_string(k),
               [&](Result<std::vector<uint8_t>> r) { got = std::move(r); });
    machine.RunUntilIdle();
    ASSERT_TRUE(got.has_value() && got->ok());
    EXPECT_EQ(**got, std::vector<uint8_t>(1024, static_cast<uint8_t>(kRounds - 1)));
  }
}

}  // namespace
}  // namespace lastcpu::kvs

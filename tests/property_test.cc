// Property-based tests: random operation sequences checked against simple
// reference models. Each suite runs under several seeds (TEST_P).
//
//   * FlashFs vs a byte-vector shadow file system
//   * Virtqueue vs a set-model of outstanding chains
//   * The full KVS machine vs a std::map shadow store
//   * The KVS under SSD power cuts vs its newest acked values
//   * IOMMU map/unmap/translate vs a flat shadow mapping
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/core/machine.h"
#include "src/kvs/kvs_app.h"
#include "src/sim/rng.h"
#include "src/ssddev/flash_fs.h"
#include "src/virtio/virtqueue.h"
#include "tests/test_util.h"

namespace lastcpu {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

// --- FlashFs vs shadow ----------------------------------------------------------

using FlashFsProperty = SeededTest;

TEST_P(FlashFsProperty, MatchesShadowModel) {
  sim::Simulator simulator;
  ssddev::NandGeometry geometry;
  geometry.dies = 4;
  geometry.blocks_per_die = 32;
  geometry.pages_per_block = 16;
  ssddev::NandArray nand(&simulator, geometry);
  ssddev::Ftl ftl(&simulator, &nand);
  ssddev::FlashFs fs(&ftl);
  sim::Rng rng(GetParam());

  std::map<std::string, std::vector<uint8_t>> shadow;
  auto file_name = [&](uint64_t i) { return "f" + std::to_string(i); };

  for (int step = 0; step < 300; ++step) {
    uint64_t which = rng.NextBelow(4);
    std::string name = file_name(rng.NextBelow(5));
    switch (rng.NextBelow(5)) {
      case 0: {  // create
        Status created = fs.Create(name);
        EXPECT_EQ(created.ok(), !shadow.contains(name));
        if (created.ok()) {
          shadow[name] = {};
        }
        break;
      }
      case 1: {  // delete
        Status deleted = fs.Delete(name);
        EXPECT_EQ(deleted.ok(), shadow.contains(name));
        shadow.erase(name);
        break;
      }
      case 2: {  // write at random offset
        uint64_t offset = rng.NextBelow(12000);
        std::vector<uint8_t> data(rng.NextInRange(1, 6000));
        rng.Fill(data);
        std::optional<Status> status;
        fs.Write(name, offset, data, [&](Status s) { status = s; });
        simulator.Run();
        ASSERT_TRUE(status.has_value());
        if (shadow.contains(name)) {
          ASSERT_TRUE(status->ok()) << status->ToString();
          auto& bytes = shadow[name];
          if (bytes.size() < offset + data.size()) {
            bytes.resize(offset + data.size(), 0);
          }
          std::copy(data.begin(), data.end(), bytes.begin() + static_cast<ptrdiff_t>(offset));
        } else {
          EXPECT_FALSE(status->ok());
        }
        break;
      }
      case 3: {  // append
        std::vector<uint8_t> data(rng.NextInRange(1, 3000));
        rng.Fill(data);
        std::optional<Result<uint64_t>> at;
        fs.Append(name, data, [&](Result<uint64_t> r) { at = r; });
        simulator.Run();
        ASSERT_TRUE(at.has_value());
        if (shadow.contains(name)) {
          ASSERT_TRUE(at->ok());
          EXPECT_EQ(**at, shadow[name].size());
          auto& bytes = shadow[name];
          bytes.insert(bytes.end(), data.begin(), data.end());
        } else {
          EXPECT_FALSE(at->ok());
        }
        break;
      }
      case 4: {  // read a random slice and compare
        uint64_t offset = rng.NextBelow(14000);
        uint64_t length = rng.NextInRange(1, 8000);
        std::optional<Result<std::vector<uint8_t>>> read;
        fs.Read(name, offset, length, [&](Result<std::vector<uint8_t>> r) {
          read = std::move(r);
        });
        simulator.Run();
        ASSERT_TRUE(read.has_value());
        if (!shadow.contains(name)) {
          EXPECT_FALSE(read->ok());
          break;
        }
        ASSERT_TRUE(read->ok()) << read->status().ToString();
        const auto& bytes = shadow[name];
        uint64_t end = std::min<uint64_t>(offset + length, bytes.size());
        uint64_t expected_len = offset >= end ? 0 : end - offset;
        ASSERT_EQ((*read)->size(), expected_len) << "file " << name << " step " << step;
        for (uint64_t i = 0; i < expected_len; ++i) {
          ASSERT_EQ((**read)[i], bytes[offset + i]) << "offset " << offset + i;
        }
        break;
      }
    }
    (void)which;
    // Sizes stay consistent throughout.
    for (const auto& [shadow_name, bytes] : shadow) {
      auto info = fs.Stat(shadow_name);
      ASSERT_TRUE(info.ok());
      ASSERT_EQ(info->size, bytes.size()) << shadow_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlashFsProperty, ::testing::Values(1, 7, 42, 1234));

// --- FTL power cuts vs acked-prefix model ----------------------------------------
//
// Random writes, synced trims, and power cuts landing at arbitrary points
// inside the NAND program window. The model records exactly the *acked*
// state: a write enters it only when its completion fires with OK, a trim
// only when its SyncMeta acks. After every cut + recovery, the drive must
// equal the model — acked data readable byte-for-byte, everything else
// (torn tails, un-acked writes, synced-away trims) cleanly absent.

using FtlPowerCutProperty = SeededTest;

TEST_P(FtlPowerCutProperty, RecoveredStateEqualsAckedPrefix) {
  sim::Simulator simulator;
  ssddev::NandGeometry geometry;
  geometry.dies = 2;
  geometry.blocks_per_die = 8;
  geometry.pages_per_block = 8;
  ssddev::NandArray nand(&simulator, geometry);
  ssddev::Ftl ftl(&simulator, &nand);
  sim::Rng rng(GetParam());

  const uint64_t working_set = ftl.logical_pages() * 9 / 10;
  const uint32_t page_bytes = ssddev::kNandPageBytes;
  auto page_of = [&](uint8_t fill) { return std::vector<uint8_t>(page_bytes, fill); };

  std::map<uint64_t, uint8_t> model;  // lpn -> last acked fill
  uint64_t cuts = 0;

  // Issues one write whose ack (and only its ack) updates the model.
  auto issue_write = [&] {
    uint64_t lpn = rng.NextBelow(working_set);
    auto fill = static_cast<uint8_t>(rng.NextBelow(256));
    ftl.Write(lpn, page_of(fill), [&model, lpn, fill](Status s) {
      if (s.ok()) {
        model[lpn] = fill;
      }
    });
  };

  auto verify_against_model = [&] {
    for (uint64_t lpn = 0; lpn < working_set; ++lpn) {
      auto it = model.find(lpn);
      if (it == model.end()) {
        ASSERT_FALSE(ftl.IsMapped(lpn)) << "un-acked lpn " << lpn << " survived";
        continue;
      }
      std::vector<uint8_t> read;
      ftl.Read(lpn, [&](Result<std::span<const uint8_t>> r) {
        ASSERT_TRUE(r.ok()) << "lpn " << lpn << ": " << r.status().ToString();
        read.assign(r->begin(), r->end());
      });
      simulator.Run();
      ASSERT_EQ(read, page_of(it->second)) << "lpn " << lpn;
    }
  };

  for (int step = 0; step < 600; ++step) {
    switch (rng.NextBelow(10)) {
      case 7: {  // trim + sync: durable only once SyncMeta acks
        uint64_t lpn = rng.NextBelow(working_set);
        ftl.Trim(lpn);
        std::optional<Status> synced;
        ftl.SyncMeta([&](Status s) { synced = s; });
        simulator.Run();
        ASSERT_TRUE(synced.has_value());
        if (synced->ok()) {
          model.erase(lpn);
        }
        break;
      }
      case 8: {  // spot-check a random lpn mid-traffic
        uint64_t lpn = rng.NextBelow(working_set);
        std::optional<Status> status;
        ftl.Read(lpn, [&](Result<std::span<const uint8_t>> r) { status = r.status(); });
        simulator.Run();
        ASSERT_TRUE(status.has_value());
        EXPECT_EQ(status->ok(), model.contains(lpn)) << "lpn " << lpn;
        break;
      }
      case 9: {  // power cut mid-flight, then full recovery check
        uint64_t burst = rng.NextInRange(1, 3);
        for (uint64_t i = 0; i < burst; ++i) {
          issue_write();
        }
        // Land inside the program window (programs take 400us), so some of
        // the burst is torn mid-page and some may have completed.
        simulator.Schedule(sim::Duration::Nanos(rng.NextBelow(600'000)),
                           [&ftl] { ftl.PowerCut(); });
        simulator.Run();
        ++cuts;
        ftl.Recover();
        simulator.Run();
        verify_against_model();
        break;
      }
      default: {  // burst of concurrent writes, run to idle
        uint64_t burst = rng.NextInRange(1, 4);
        for (uint64_t i = 0; i < burst; ++i) {
          issue_write();
        }
        simulator.Run();
        break;
      }
    }
  }
  EXPECT_GT(cuts, 10u);
  verify_against_model();
  // Wear-leveling keeps the erase wear spread bounded under sustained
  // random traffic: no block runs unboundedly hotter than the coldest.
  uint32_t spread = nand.MaxEraseCount() - nand.MinEraseCount();
  EXPECT_LE(spread, std::max<uint32_t>(8, nand.MaxEraseCount() / 2))
      << "min " << nand.MinEraseCount() << " max " << nand.MaxEraseCount();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlPowerCutProperty,
                         ::testing::Values(2, 11, 47, 1999));

// --- Virtqueue vs outstanding-set model -----------------------------------------

using VirtqueueProperty = SeededTest;

TEST_P(VirtqueueProperty, CompletionsMatchSubmissions) {
  sim::Simulator simulator;
  mem::PhysicalMemory memory(8 << 20);
  fabric::Fabric fabric(&simulator, &memory);
  iommu::Iommu client_iommu(DeviceId(1));
  iommu::Iommu server_iommu(DeviceId(2));
  fabric.AttachDevice(DeviceId(1), &client_iommu);
  fabric.AttachDevice(DeviceId(2), &server_iommu);
  auto key = iommu::ProgrammingKey::CreateForTesting();
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(client_iommu.Map(key, Pasid(1), i, i, Access::kReadWrite).ok());
    ASSERT_TRUE(server_iommu.Map(key, Pasid(1), i, i, Access::kReadWrite).ok());
  }
  constexpr uint16_t kDepth = 32;
  virtio::VirtqueueDriver driver(&fabric, DeviceId(1), Pasid(1), VirtAddr(0), kDepth);
  virtio::VirtqueueDevice device(&fabric, DeviceId(2), Pasid(1), VirtAddr(0), kDepth);
  ASSERT_TRUE(driver.Initialize().ok());
  VirtAddr data_va(uint64_t{8} << kPageShift);

  sim::Rng rng(GetParam());
  std::set<uint16_t> submitted;       // heads the driver owns in flight
  std::map<uint16_t, uint32_t> done;  // device-completed, not yet polled
  uint64_t total_completed = 0;

  for (int step = 0; step < 2000; ++step) {
    switch (rng.NextBelow(3)) {
      case 0: {  // submit a 1- or 2-buffer chain
        std::vector<virtio::BufferDesc> chain{{data_va, 64, false}};
        if (rng.NextBool(0.5)) {
          chain.push_back({data_va + 64, 64, true});
        }
        auto head = driver.Submit(chain);
        if (driver.FreeDescriptors() == 0 && !head.ok()) {
          break;  // legitimately full
        }
        if (head.ok()) {
          ASSERT_TRUE(submitted.insert(*head).second) << "head reused while in flight";
        }
        break;
      }
      case 1: {  // device pops + completes one
        auto chain = device.PopAvail();
        ASSERT_TRUE(chain.ok());
        if (!chain->has_value()) {
          break;
        }
        uint16_t head = (*chain)->head;
        ASSERT_TRUE(submitted.contains(head)) << "device saw a chain never submitted";
        uint32_t written = static_cast<uint32_t>(rng.NextBelow(128));
        ASSERT_TRUE(device.PushUsed(head, written).ok());
        done[head] = written;
        break;
      }
      case 2: {  // driver polls one completion
        auto used = driver.PollUsed();
        ASSERT_TRUE(used.ok());
        if (!used->has_value()) {
          EXPECT_TRUE(done.empty());
          break;
        }
        uint16_t head = (*used)->head;
        auto it = done.find(head);
        ASSERT_NE(it, done.end()) << "completion for a chain the device never finished";
        EXPECT_EQ((*used)->written, it->second);
        done.erase(it);
        submitted.erase(head);
        ++total_completed;
        break;
      }
    }
  }
  // Drain: everything submitted eventually completes exactly once.
  for (;;) {
    auto chain = device.PopAvail();
    ASSERT_TRUE(chain.ok());
    if (!chain->has_value()) {
      break;
    }
    ASSERT_TRUE(device.PushUsed((*chain)->head, 1).ok());
    done[(*chain)->head] = 1;
  }
  for (;;) {
    auto used = driver.PollUsed();
    ASSERT_TRUE(used.ok());
    if (!used->has_value()) {
      break;
    }
    submitted.erase((*used)->head);
    done.erase((*used)->head);
    ++total_completed;
  }
  EXPECT_TRUE(submitted.empty());
  EXPECT_TRUE(done.empty());
  EXPECT_GT(total_completed, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VirtqueueProperty, ::testing::Values(3, 99, 2024));

// --- full-machine KVS vs std::map shadow -----------------------------------------

using KvsProperty = SeededTest;

TEST_P(KvsProperty, MatchesShadowStore) {
  core::Machine machine;
  machine.AddMemoryController();
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  auto& ssd = machine.AddSmartSsd(ssd_config);
  auto& nic = machine.AddSmartNic();
  ssd.ProvisionFile("kv.log", {});
  Pasid pasid = machine.NewApplication("kvs");
  auto app_owner = std::make_unique<kvs::KvsApp>(&nic, pasid);
  kvs::KvsApp* app = app_owner.get();
  nic.LoadApp(std::move(app_owner));
  machine.Boot();
  ASSERT_TRUE(app->engine().running());

  sim::Rng rng(GetParam());
  std::map<std::string, std::vector<uint8_t>> shadow;
  auto key_name = [](uint64_t i) { return "k" + std::to_string(i); };

  for (int step = 0; step < 250; ++step) {
    std::string key = key_name(rng.NextBelow(30));
    switch (rng.NextBelow(3)) {
      case 0: {  // put
        std::vector<uint8_t> value(rng.NextInRange(1, 512));
        rng.Fill(value);
        std::optional<Status> status;
        app->engine().Put(key, value, [&](Status s) { status = s; });
        machine.RunUntilIdle();
        ASSERT_TRUE(status.has_value() && status->ok());
        shadow[key] = value;
        break;
      }
      case 1: {  // delete
        std::optional<Status> status;
        app->engine().Delete(key, [&](Status s) { status = s; });
        machine.RunUntilIdle();
        ASSERT_TRUE(status.has_value());
        EXPECT_EQ(status->ok(), shadow.contains(key)) << key;
        shadow.erase(key);
        break;
      }
      case 2: {  // get
        std::optional<Result<std::vector<uint8_t>>> value;
        app->engine().Get(key, [&](Result<std::vector<uint8_t>> r) { value = std::move(r); });
        machine.RunUntilIdle();
        ASSERT_TRUE(value.has_value());
        if (shadow.contains(key)) {
          ASSERT_TRUE(value->ok()) << value->status().ToString();
          EXPECT_EQ(**value, shadow[key]);
        } else {
          EXPECT_EQ(value->status().code(), StatusCode::kNotFound);
        }
        break;
      }
    }
  }
  EXPECT_EQ(app->engine().index().size(), shadow.size());

  // Crash-restart the engine: the rebuilt index must still match the shadow.
  app->engine().Stop(Aborted("property restart"));
  std::optional<Status> restarted;
  app->engine().Start([&](Status s) { restarted = s; });
  machine.RunUntilIdle();
  ASSERT_TRUE(restarted.has_value() && restarted->ok());
  EXPECT_EQ(app->engine().index().size(), shadow.size());
  for (const auto& [key, expected] : shadow) {
    std::optional<Result<std::vector<uint8_t>>> value;
    app->engine().Get(key, [&](Result<std::vector<uint8_t>> r) { value = std::move(r); });
    machine.RunUntilIdle();
    ASSERT_TRUE(value.has_value() && value->ok()) << key;
    ASSERT_EQ(**value, expected) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvsProperty, ::testing::Values(5, 77));

// --- KVS power cuts vs acked-value shadow ------------------------------------------
//
// A PUT/DELETE stream with log compaction armed, and the SSD's power cut at
// seeded instants, some of them inside a compaction. The shadow records each
// key's newest acked value. After the SSD recovers and the engine restarts,
// every key must hold that value, or the effect of an op still unacked at
// the cut (which may or may not have reached the log).

using KvsPowerCutProperty = SeededTest;

TEST_P(KvsPowerCutProperty, RestartReadsNewestAckedValues) {
  core::Machine machine;
  auto& memctrl = machine.AddMemoryController();
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  auto& ssd = machine.AddSmartSsd(ssd_config);
  auto& nic = machine.AddSmartNic();
  ssd.ProvisionFile("kv.log", {});
  kvs::KvsAppConfig config;
  config.engine.compact_garbage_ratio = 0.5;
  config.engine.min_compact_bytes = 16 << 10;
  auto app_owner = std::make_unique<kvs::KvsApp>(&nic, machine.NewApplication("kvs"), config);
  kvs::KvsApp* app = app_owner.get();
  kvs::KvsEngine& engine = app->engine();
  nic.LoadApp(std::move(app_owner));
  machine.Boot();
  ASSERT_TRUE(engine.running());

  using Value = std::optional<std::vector<uint8_t>>;  // nullopt: no such key
  constexpr uint64_t kKeys = 12;
  auto key_name = [](uint64_t i) { return "k" + std::to_string(i); };
  sim::Rng rng(GetParam());
  std::map<std::string, Value> acked;
  for (uint64_t i = 0; i < kKeys; ++i) {
    acked[key_name(i)] = std::nullopt;
  }
  uint64_t cuts = 0;
  uint64_t cuts_in_compaction = 0;

  // Reads every key; each must hold a value `allowed` names for it, which
  // then becomes its acked value.
  auto verify = [&](const std::map<std::string, std::vector<Value>>& allowed) {
    for (auto& [key, value] : acked) {
      std::optional<Result<std::vector<uint8_t>>> got;
      engine.Get(key, [&](Result<std::vector<uint8_t>> r) { got = std::move(r); });
      machine.RunUntilIdle();
      ASSERT_TRUE(got.has_value()) << key;
      Value observed;
      if (got->ok()) {
        observed = **got;
      } else {
        ASSERT_EQ(got->status().code(), StatusCode::kNotFound) << key << " after cut " << cuts;
      }
      auto options = allowed.find(key);
      bool ok = observed == value;
      if (options != allowed.end()) {
        ok = ok || std::find(options->second.begin(), options->second.end(), observed) !=
                       options->second.end();
      }
      ASSERT_TRUE(ok) << key << " lost its newest acked value after cut " << cuts;
      value = observed;
    }
  };

  for (int round = 0; round < 150; ++round) {
    // At most one op per key per round, so two ops on a key never race.
    std::vector<uint64_t> keys(kKeys);
    for (uint64_t i = 0; i < kKeys; ++i) {
      keys[i] = i;
    }
    bool cut = rng.NextBelow(4) == 0;
    if (cut && rng.NextBool(0.5)) {
      // Aim half the cuts at a compaction, with the burst queued behind it
      // (a no-op when one is already running).
      engine.CompactNow([](Status) {});
    }
    uint64_t burst = rng.NextInRange(1, 8);
    std::map<std::string, Value> effect;
    std::map<std::string, std::optional<Status>> answer;
    for (uint64_t n = 0; n < burst; ++n) {
      uint64_t pick = n + rng.NextBelow(kKeys - n);
      std::swap(keys[n], keys[pick]);
      std::string key = key_name(keys[n]);
      auto& slot = answer[key];
      if (rng.NextBelow(5) == 0) {
        effect[key] = std::nullopt;
        engine.Delete(key, [&slot](Status s) { slot = s; });
      } else {
        std::vector<uint8_t> value(rng.NextInRange(64, 1024));
        rng.Fill(value);
        effect[key] = value;
        engine.Put(key, std::move(value), [&slot](Status s) { slot = s; });
      }
    }
    if (cut) {
      // Programs take 400 us and a compaction of this log a few ms.
      machine.simulator().Schedule(sim::Duration::Nanos(rng.NextBelow(4'000'000)), [&] {
        cuts_in_compaction += engine.compacting() ? 1 : 0;
        ssd.InjectPowerLoss();
        machine.bus().ReportDeviceFailure(ssd.id());
      });
    }
    machine.RunUntilIdle();

    std::map<std::string, std::vector<Value>> allowed;
    for (const auto& [key, status] : answer) {
      ASSERT_TRUE(status.has_value()) << key << " never answered in round " << round;
      // A DELETE of an absent key answers NotFound and changes nothing.
      if (status->ok() || status->code() == StatusCode::kNotFound) {
        acked[key] = effect[key];
      } else {
        ASSERT_TRUE(cut) << key << ": " << status->ToString() << " in round " << round;
        allowed[key].push_back(effect[key]);
      }
    }
    if (cut) {
      ++cuts;
      ASSERT_TRUE(engine.running()) << "engine did not restart after cut " << cuts;
      // The serving session's memory, and a compaction's: every session the
      // cut reset has freed its own.
      ASSERT_LE(memctrl.allocation_count(), 2u) << "after cut " << cuts;
      ASSERT_NO_FATAL_FAILURE(verify(allowed));
    }
  }
  ASSERT_NO_FATAL_FAILURE(verify({}));
  EXPECT_LE(memctrl.allocation_count(), 2u);
  EXPECT_GT(cuts, 10u);
  EXPECT_GT(cuts_in_compaction, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvsPowerCutProperty, ::testing::Values(3, 17, 256, 9001));

// --- IOMMU vs flat shadow mapping -------------------------------------------------

using IommuProperty = SeededTest;

TEST_P(IommuProperty, MatchesShadowMapping) {
  iommu::Iommu unit(DeviceId(1), iommu::TlbConfig{16, 4});
  auto key = iommu::ProgrammingKey::CreateForTesting();
  sim::Rng rng(GetParam());
  std::unordered_map<uint64_t, std::pair<uint64_t, Access>> shadow;  // vpage -> (pframe, access)

  for (int step = 0; step < 5000; ++step) {
    uint64_t vpage = rng.NextBelow(512);
    switch (rng.NextBelow(3)) {
      case 0: {  // map
        uint64_t pframe = rng.NextBelow(1 << 20);
        Access access = rng.NextBool(0.5) ? Access::kReadWrite : Access::kRead;
        Status mapped = unit.Map(key, Pasid(1), vpage, pframe, access);
        EXPECT_EQ(mapped.ok(), !shadow.contains(vpage));
        if (mapped.ok()) {
          shadow[vpage] = {pframe, access};
        }
        break;
      }
      case 1: {  // unmap
        Status unmapped = unit.Unmap(key, Pasid(1), vpage);
        EXPECT_EQ(unmapped.ok(), shadow.contains(vpage));
        shadow.erase(vpage);
        break;
      }
      case 2: {  // translate (read, then write)
        auto read = unit.Translate(Pasid(1), VirtAddr(vpage << kPageShift), Access::kRead);
        auto it = shadow.find(vpage);
        if (it == shadow.end()) {
          EXPECT_FALSE(read.ok());
          break;
        }
        ASSERT_TRUE(read.ok());
        EXPECT_EQ(read->paddr.frame(), it->second.first);
        auto write = unit.Translate(Pasid(1), VirtAddr(vpage << kPageShift), Access::kWrite);
        EXPECT_EQ(write.ok(), AccessCovers(it->second.second, Access::kWrite));
        break;
      }
    }
    ASSERT_EQ(unit.mapped_pages(Pasid(1)), shadow.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IommuProperty, ::testing::Values(13, 21, 100));

}  // namespace
}  // namespace lastcpu

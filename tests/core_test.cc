// Machine-level tests: assembly and boot, application lifecycle, the
// heartbeat watchdog, multi-application isolation on shared devices, and the
// aggregated stats report.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "src/core/control_plane.h"
#include "src/core/machine.h"
#include "src/kvs/kvs_app.h"
#include "src/sim/json.h"
#include "tests/test_util.h"

namespace lastcpu::core {
namespace {

using testutil::TestDevice;

ssddev::SmartSsdConfig NoAuthSsd() {
  ssddev::SmartSsdConfig config;
  config.host_auth_service = false;
  return config;
}

TEST(MachineTest, BootBringsEveryDeviceAlive) {
  Machine machine;
  machine.AddMemoryController();
  machine.AddSmartSsd(NoAuthSsd());
  machine.AddSmartNic();
  EXPECT_EQ(machine.devices().size(), 3u);
  machine.Boot();
  for (const auto& device : machine.devices()) {
    EXPECT_EQ(device->state(), dev::Device::State::kAlive) << device->name();
    EXPECT_TRUE(machine.bus().IsAlive(device->id()));
  }
  EXPECT_TRUE(machine.bus().memory_controller().valid());
}

TEST(MachineTest, DeviceIdsAreUnique) {
  Machine machine;
  auto& a = machine.AddMemoryController();
  auto& b = machine.AddSmartSsd(NoAuthSsd());
  auto& c = machine.AddSmartNic();
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(b.id(), c.id());
}

TEST(MachineTest, ApplicationsGetDistinctPasids) {
  Machine machine;
  Pasid a = machine.NewApplication("app-a");
  Pasid b = machine.NewApplication("app-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(machine.applications().size(), 2u);
  EXPECT_EQ(machine.applications()[0].second, "app-a");
}

TEST(MachineTest, TraceCapturesBootWhenEnabled) {
  MachineConfig config;
  config.enable_trace = true;
  Machine machine(config);
  machine.AddMemoryController();
  machine.Boot();
  EXPECT_TRUE(machine.trace().ContainsSequence({"self-test", "alive"}));
}

TEST(MachineTest, TraceFormsConnectedCausalChains) {
  MachineConfig config;
  config.enable_trace = true;
  Machine machine(config);
  auto& memctrl = machine.AddMemoryController();
  TestDevice requester(machine.NextDeviceId(), "req", machine.Context());
  requester.PowerOn();
  machine.Boot();

  Pasid app = machine.NewApplication("traced");
  BusControlClient client(&requester, memctrl.id());
  auto vaddr = client.AllocSync(app, 4 * kPageSize);
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(client.FreeSync(app, *vaddr, 4 * kPageSize).ok());

  std::map<sim::SpanId, sim::SpanId> parent_of;
  std::set<sim::FlowId> sends;
  std::set<sim::FlowId> receives;
  for (const auto& r : machine.trace().records()) {
    if (r.kind == sim::TraceKind::kSpanBegin) {
      parent_of[r.span] = r.parent;
    } else if (r.kind == sim::TraceKind::kFlowSend) {
      sends.insert(r.flow);
    } else if (r.kind == sim::TraceKind::kFlowReceive) {
      receives.insert(r.flow);
    }
  }

  // Every non-root span's parent is itself a recorded span.
  EXPECT_GT(parent_of.size(), 4u);
  for (const auto& [span, parent] : parent_of) {
    if (parent != 0) {
      EXPECT_TRUE(parent_of.contains(parent)) << "span " << span << " dangling parent " << parent;
    }
  }
  // Every received flow was sent; the Fig-2 ops crossed the bus, so flows
  // exist at all.
  EXPECT_FALSE(receives.empty());
  for (sim::FlowId flow : receives) {
    EXPECT_TRUE(sends.contains(flow)) << "flow " << flow << " received but never sent";
  }

  // The alloc handshake nests at least requester-span -> memctrl handling
  // span -> bus MapDirective span.
  size_t max_depth = 0;
  for (const auto& [span, parent] : parent_of) {
    size_t depth = 1;
    sim::SpanId cursor = parent;
    while (cursor != 0 && depth < 32) {
      ++depth;
      auto it = parent_of.find(cursor);
      cursor = it == parent_of.end() ? 0 : it->second;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_GE(max_depth, 3u);
}

TEST(MachineTest, MetricsJsonIsParseable) {
  Machine machine;
  machine.AddMemoryController();
  machine.AddSmartSsd(NoAuthSsd());
  machine.Boot();
  std::ostringstream os;
  machine.MetricsJson(os);
  auto parsed = sim::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const sim::JsonValue* bus = parsed->Find("bus");
  ASSERT_NE(bus, nullptr);
  EXPECT_NE(parsed->Find("fabric"), nullptr);
  const sim::JsonValue* devices = parsed->Find("devices");
  ASSERT_NE(devices, nullptr);
  EXPECT_NE(devices->Find("memctrl"), nullptr);
  // Boot traffic (alive announcements) went over the bus, so the counter
  // section is non-trivial.
  const sim::JsonValue* bus_counters = bus->Find("counters");
  ASSERT_NE(bus_counters, nullptr);
  const sim::JsonValue* sent = bus_counters->Find("messages_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_GT(sent->number(), 0.0);
  // Supervisor counters are surfaced as their own section; no crash plan was
  // configured, so there is no "crashes" section and nothing was restarted.
  const sim::JsonValue* supervisor = parsed->Find("supervisor");
  ASSERT_NE(supervisor, nullptr);
  const sim::JsonValue* quarantines = supervisor->Find("quarantines");
  ASSERT_NE(quarantines, nullptr);
  EXPECT_EQ(quarantines->number(), 0.0);
  EXPECT_NE(supervisor->Find("restarts"), nullptr);
  EXPECT_NE(supervisor->Find("recoveries"), nullptr);
  EXPECT_EQ(parsed->Find("crashes"), nullptr);
}

TEST(MachineTest, MetricsJsonReportsCrashInjection) {
  MachineConfig config;
  sim::CrashSpec spec;
  spec.device = 2;  // the SSD, second device added
  spec.at = sim::Duration::Micros(200);
  config.crash_plan.crashes = {spec};
  Machine machine(config);
  machine.AddMemoryController();
  machine.AddSmartSsd(NoAuthSsd());
  machine.Boot();
  machine.RunFor(sim::Duration::Millis(1));
  machine.RunUntilIdle();
  std::ostringstream os;
  machine.MetricsJson(os);
  auto parsed = sim::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const sim::JsonValue* crashes = parsed->Find("crashes");
  ASSERT_NE(crashes, nullptr);
  const sim::JsonValue* injected = crashes->Find("injected");
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->number(), 1.0);
  // The SSD answered the reset pulse, so the supervisor recovered it.
  const sim::JsonValue* supervisor = parsed->Find("supervisor");
  ASSERT_NE(supervisor, nullptr);
  const sim::JsonValue* recoveries = supervisor->Find("recoveries");
  ASSERT_NE(recoveries, nullptr);
  EXPECT_EQ(recoveries->number(), 1.0);
}

TEST(MachineTest, MetricsJsonReportsStorageHealth) {
  // A power cut lands on the 40th NAND program while host writes stream in;
  // after the supervisor restarts the drive, the storage section must report
  // the write-amplification, GC, wear, and recovery counters round-trippable
  // through the JSON parser.
  MachineConfig config;
  sim::CrashSpec spec;
  spec.device = 2;  // the SSD, second device added
  spec.on_kth_program = 40;
  spec.power_cut = true;
  config.crash_plan.crashes = {spec};
  Machine machine(config);
  machine.AddMemoryController();
  auto& ssd = machine.AddSmartSsd(NoAuthSsd());
  ssd.ProvisionFile("t.log", {});
  machine.Boot();
  std::vector<uint8_t> page(4096, 0x5A);
  for (int i = 0; i < 60; ++i) {
    // Overwrites tolerate the mid-stream cut (Unavailable / NotFound while
    // the drive replays its journal are expected).
    ssd.fs().Write("t.log", static_cast<uint64_t>(i % 8) * page.size(), page, [](Status) {});
    machine.RunFor(sim::Duration::Millis(1));
    machine.RunUntilIdle();
  }
  machine.RunFor(sim::Duration::Millis(50));
  machine.RunUntilIdle();

  std::ostringstream os;
  machine.MetricsJson(os);
  auto parsed = sim::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const sim::JsonValue* storage = parsed->Find("storage");
  ASSERT_NE(storage, nullptr);
  ASSERT_TRUE(storage->is_array());
  ASSERT_EQ(storage->array().size(), 1u);
  const sim::JsonValue& drive = storage->array()[0];
  EXPECT_EQ(drive.Find("device")->number(), 2.0);
  EXPECT_GT(drive.Find("host_writes")->number(), 0.0);
  EXPECT_GE(drive.Find("nand_writes")->number(), drive.Find("host_writes")->number());
  EXPECT_GE(drive.Find("write_amplification")->number(), 1.0);
  ASSERT_NE(drive.Find("gc_runs"), nullptr);
  ASSERT_NE(drive.Find("gc_relocated_pages"), nullptr);
  ASSERT_NE(drive.Find("write_stalls"), nullptr);
  EXPECT_GE(drive.Find("erase_count_max")->number(), drive.Find("erase_count_min")->number());
  // The power cut happened and the drive replayed its journal.
  EXPECT_EQ(drive.Find("recoveries")->number(), 1.0);
  EXPECT_GT(drive.Find("recovered_pages")->number(), 0.0);
  ASSERT_NE(drive.Find("torn_pages_discarded"), nullptr);
  EXPECT_EQ(parsed->Find("crashes")->Find("injected")->number(), 1.0);
}

TEST(MachineTest, MetricsJsonOmitsStorageOnDisklessMachine) {
  Machine machine;
  machine.AddMemoryController();
  machine.Boot();
  std::ostringstream os;
  machine.MetricsJson(os);
  auto parsed = sim::ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->Find("storage"), nullptr);
}

TEST(MachineTest, TeardownApplicationViaAdminPath) {
  Machine machine;
  auto& memctrl = machine.AddMemoryController();
  TestDevice requester(machine.NextDeviceId(), "req", machine.Context());
  requester.PowerOn();
  machine.Boot();
  Pasid app = machine.NewApplication("doomed");
  bool allocated = false;
  requester.rpc().Call<proto::MemAllocResponse>(
      memctrl.id(), proto::MemAllocRequest{app, 8 * kPageSize, VirtAddr(0), Access::kReadWrite},
      [&](Result<proto::MemAllocResponse> result) { allocated = result.ok(); });
  machine.RunUntilIdle();
  ASSERT_TRUE(allocated);
  ASSERT_GT(memctrl.AllocatedBytes(app), 0u);

  machine.TeardownApplication(app);
  machine.RunUntilIdle();
  EXPECT_EQ(memctrl.AllocatedBytes(app), 0u);
  EXPECT_EQ(requester.iommu().mapped_pages(app), 0u);
}

// --- heartbeat watchdog --------------------------------------------------------

TEST(WatchdogTest, SilentDeathIsDetectedAndSurvivorsNotified) {
  MachineConfig config;
  config.bus.heartbeat_timeout = sim::Duration::Millis(1);
  Machine machine(config);
  machine.AddMemoryController(); // no heartbeats configured on this one

  dev::DeviceConfig beating;
  beating.heartbeat_period = sim::Duration::Micros(200);
  TestDevice victim(machine.NextDeviceId(), "victim", machine.Context(), beating);
  TestDevice watcher(machine.NextDeviceId(), "watcher", machine.Context(), beating);
  victim.PowerOn();
  watcher.PowerOn();
  machine.Boot();
  ASSERT_TRUE(machine.bus().IsAlive(victim.id()));

  // Run a while: heartbeats keep everyone alive.
  machine.RunFor(sim::Duration::Millis(5));
  EXPECT_TRUE(machine.bus().IsAlive(victim.id()));
  EXPECT_GT(victim.stats().GetCounter("heartbeats_sent").value(), 10u);

  // The victim dies silently — nobody calls ReportDeviceFailure.
  victim.InjectFailure();
  machine.RunFor(sim::Duration::Millis(3));
  // The watchdog noticed, told the survivors, and pulsed reset (which brings
  // the device back through self-test).
  EXPECT_GE(machine.bus().stats().GetCounter("watchdog_failures").value(), 1u);
  ASSERT_FALSE(watcher.failed_peers.empty());
  EXPECT_EQ(watcher.failed_peers[0], victim.id());
  EXPECT_EQ(victim.state(), dev::Device::State::kAlive);  // reset revived it
}

TEST(WatchdogTest, HealthyDevicesAreNeverKilled) {
  MachineConfig config;
  config.bus.heartbeat_timeout = sim::Duration::Millis(1);
  Machine machine(config);
  dev::DeviceConfig beating;
  beating.heartbeat_period = sim::Duration::Micros(100);
  TestDevice steady(machine.NextDeviceId(), "steady", machine.Context(), beating);
  steady.PowerOn();
  machine.Boot();
  machine.RunFor(sim::Duration::Millis(20));
  EXPECT_TRUE(machine.bus().IsAlive(steady.id()));
  EXPECT_EQ(machine.bus().stats().GetCounter("watchdog_failures").value(), 0u);
  EXPECT_EQ(steady.failed_peers.size(), 0u);
}

// --- multi-application isolation on shared devices ------------------------------

TEST(MultiAppTest, TwoKvsAppsShareTheSsdInIsolation) {
  Machine machine;
  machine.AddMemoryController();
  auto& ssd = machine.AddSmartSsd(NoAuthSsd());
  auto& nic_a = machine.AddSmartNic();
  auto& nic_b = machine.AddSmartNic();
  ssd.ProvisionFile("a.log", {});
  ssd.ProvisionFile("b.log", {});

  Pasid pasid_a = machine.NewApplication("tenant-a");
  Pasid pasid_b = machine.NewApplication("tenant-b");
  kvs::KvsAppConfig config_a;
  config_a.engine.log_file = "a.log";
  kvs::KvsAppConfig config_b;
  config_b.engine.log_file = "b.log";
  auto app_a = std::make_unique<kvs::KvsApp>(&nic_a, pasid_a, config_a);
  auto app_b = std::make_unique<kvs::KvsApp>(&nic_b, pasid_b, config_b);
  kvs::KvsApp* a = app_a.get();
  kvs::KvsApp* b = app_b.get();
  nic_a.LoadApp(std::move(app_a));
  nic_b.LoadApp(std::move(app_b));
  machine.Boot();
  ASSERT_TRUE(a->engine().running());
  ASSERT_TRUE(b->engine().running());

  // Same key, different tenants, different values.
  a->engine().Put("shared-key", {0xA}, [](Status s) { ASSERT_TRUE(s.ok()); });
  b->engine().Put("shared-key", {0xB, 0xB}, [](Status s) { ASSERT_TRUE(s.ok()); });
  machine.RunUntilIdle();

  std::optional<std::vector<uint8_t>> from_a;
  std::optional<std::vector<uint8_t>> from_b;
  a->engine().Get("shared-key", [&](Result<std::vector<uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    from_a = *r;
  });
  b->engine().Get("shared-key", [&](Result<std::vector<uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    from_b = *r;
  });
  machine.RunUntilIdle();
  EXPECT_EQ(*from_a, (std::vector<uint8_t>{0xA}));
  EXPECT_EQ(*from_b, (std::vector<uint8_t>{0xB, 0xB}));

  // Address-space isolation: NIC A has no mappings in tenant B's PASID and
  // cannot touch B's session memory.
  EXPECT_EQ(nic_a.iommu().mapped_pages(pasid_b), 0u);
  bool faulted = false;
  machine.fabric().DmaRead(nic_a.id(), pasid_b, b->engine().file().session_base(), 16,
                           [&](Result<std::vector<uint8_t>> r) { faulted = !r.ok(); });
  machine.RunUntilIdle();
  EXPECT_TRUE(faulted);

  // Tearing down tenant A leaves tenant B fully functional.
  machine.TeardownApplication(pasid_a);
  machine.RunUntilIdle();
  bool b_alive = false;
  b->engine().Get("shared-key", [&](Result<std::vector<uint8_t>> r) { b_alive = r.ok(); });
  machine.RunUntilIdle();
  EXPECT_TRUE(b_alive);
  EXPECT_EQ(nic_a.iommu().mapped_pages(pasid_a), 0u);
}

// --- multiple providers of the same service type ---------------------------------

TEST(MultiProviderTest, DiscoveryRoutesToTheFileOwner) {
  // Two smart SSDs, each owning a different file. The broadcast discovery
  // must route each client session to the device that actually owns the
  // resource (Fig. 2 step 1 semantics: the query names the file).
  Machine machine;
  machine.AddMemoryController();
  ssddev::SmartSsdConfig config;
  config.host_auth_service = false;
  auto& ssd_a = machine.AddSmartSsd(config);
  auto& ssd_b = machine.AddSmartSsd(config);
  ssd_a.ProvisionFile("alpha.dat", {0xA});
  ssd_b.ProvisionFile("beta.dat", {0xB, 0xB});
  TestDevice client(machine.NextDeviceId(), "client", machine.Context());
  client.PowerOn();
  machine.Boot();

  ssddev::FileClient session_a(&client, Pasid(1));
  ssddev::FileClient session_b(&client, Pasid(1));
  client.doorbell_handler = [&](DeviceId from, uint64_t value) {
    if (!session_a.HandleDoorbell(from, value)) {
      session_b.HandleDoorbell(from, value);
    }
  };

  std::optional<Status> opened_a;
  std::optional<Status> opened_b;
  session_a.Open("alpha.dat", 0, [&](Status s) { opened_a = s; });
  session_b.Open("beta.dat", 0, [&](Status s) { opened_b = s; });
  machine.RunUntilIdle();
  ASSERT_TRUE(opened_a.has_value() && opened_a->ok()) << opened_a->ToString();
  ASSERT_TRUE(opened_b.has_value() && opened_b->ok()) << opened_b->ToString();
  EXPECT_EQ(session_a.provider(), ssd_a.id());
  EXPECT_EQ(session_b.provider(), ssd_b.id());

  // Reads hit the right media.
  std::optional<std::vector<uint8_t>> from_a;
  std::optional<std::vector<uint8_t>> from_b;
  session_a.ReadAt(0, 16, [&](Result<std::vector<uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    from_a = *r;
  });
  session_b.ReadAt(0, 16, [&](Result<std::vector<uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    from_b = *r;
  });
  machine.RunUntilIdle();
  EXPECT_EQ(*from_a, (std::vector<uint8_t>{0xA}));
  EXPECT_EQ(*from_b, (std::vector<uint8_t>{0xB, 0xB}));

  // A file nobody owns stays undiscoverable.
  ssddev::FileClient session_c(&client, Pasid(1));
  std::optional<Status> missing;
  session_c.Open("gamma.dat", 0, [&](Status s) { missing = s; });
  machine.RunUntilIdle();
  EXPECT_EQ(missing->code(), StatusCode::kNotFound);
}

TEST(MultiProviderTest, FailureOfOneProviderLeavesTheOtherServing) {
  Machine machine;
  machine.AddMemoryController();
  ssddev::SmartSsdConfig config;
  config.host_auth_service = false;
  auto& ssd_a = machine.AddSmartSsd(config);
  auto& ssd_b = machine.AddSmartSsd(config);
  ssd_a.ProvisionFile("a.log", {});
  ssd_b.ProvisionFile("b.log", {});
  auto& nic = machine.AddSmartNic();
  Pasid pasid = machine.NewApplication("kvs");
  kvs::KvsAppConfig app_config;
  app_config.engine.log_file = "b.log";
  auto app = std::make_unique<kvs::KvsApp>(&nic, pasid, app_config);
  kvs::KvsApp* kvs_app = app.get();
  nic.LoadApp(std::move(app));
  machine.Boot();
  ASSERT_TRUE(kvs_app->engine().running());
  ASSERT_EQ(kvs_app->engine().file().provider(), ssd_b.id());

  // SSD A (which the app does not use) dies: the app must keep serving.
  ssd_a.InjectFailure();
  machine.bus().ReportDeviceFailure(ssd_a.id());
  machine.RunUntilIdle();
  EXPECT_TRUE(kvs_app->engine().running());
  EXPECT_EQ(kvs_app->recoveries(), 0u);  // no recovery was needed
  std::optional<Status> put;
  kvs_app->engine().Put("still-works", {1}, [&](Status s) { put = s; });
  machine.RunUntilIdle();
  ASSERT_TRUE(put.has_value());
  EXPECT_TRUE(put->ok());
}

// --- Batched control plane: AllocBatch/FreeBatch and the grant magazine ---

struct MagazineRig {
  MagazineRig() : requester(machine.NextDeviceId(), "req", machine.Context()) {
    memctrl = &machine.AddMemoryController();
    requester.PowerOn();
    machine.Boot();
    app = machine.NewApplication("mag-app");
    inner = std::make_unique<BusControlClient>(&requester, memctrl->id());
  }

  MagazineClient MakeMagazine() { return MagazineClient(inner.get(), &requester, memctrl->id()); }

  uint64_t BusMessages() {
    return machine.bus().stats().GetCounter("messages_delivered").value();
  }

  Machine machine;
  memdev::MemoryController* memctrl = nullptr;
  TestDevice requester;
  Pasid app;
  std::unique_ptr<BusControlClient> inner;
};

TEST(ControlBatchTest, AllocBatchLeasesDistinctRegions) {
  MagazineRig rig;
  auto leased = rig.inner->AllocBatchSync(rig.app, 4 * kPageSize, 8);
  ASSERT_TRUE(leased.ok()) << leased.status().ToString();
  ASSERT_EQ(leased->size(), 8u);
  std::set<VirtAddr> distinct(leased->begin(), leased->end());
  EXPECT_EQ(distinct.size(), 8u);
  EXPECT_EQ(rig.memctrl->allocation_count(), 8u);
  EXPECT_EQ(rig.memctrl->AllocationsOwnedBy(rig.requester.id()), 8u);

  auto freed = rig.inner->FreeBatchSync(rig.app, *leased, 4 * kPageSize);
  ASSERT_TRUE(freed.ok()) << freed.status().ToString();
  EXPECT_EQ(rig.memctrl->allocation_count(), 0u);
}

TEST(ControlBatchTest, BatchCostsOneRoundTripNotN) {
  MagazineRig rig;
  uint64_t before = rig.BusMessages();
  ASSERT_TRUE(rig.inner->AllocBatchSync(rig.app, 4 * kPageSize, 16).ok());
  uint64_t batch_msgs = rig.BusMessages() - before;

  before = rig.BusMessages();
  std::vector<VirtAddr> singles;
  for (int i = 0; i < 16; ++i) {
    auto vaddr = rig.inner->AllocSync(rig.app, 4 * kPageSize);
    ASSERT_TRUE(vaddr.ok());
    singles.push_back(*vaddr);
  }
  uint64_t single_msgs = rig.BusMessages() - before;
  // One request/directive/confirm/response chain versus sixteen.
  EXPECT_LT(batch_msgs * 4, single_msgs);
}

TEST(ControlBatchTest, EmptyBatchesAreRejected) {
  MagazineRig rig;
  auto leased = rig.inner->AllocBatchSync(rig.app, 4 * kPageSize, 0);
  EXPECT_FALSE(leased.ok());
  EXPECT_EQ(leased.status().code(), StatusCode::kInvalidArgument);
  auto freed = rig.inner->FreeBatchSync(rig.app, {}, 4 * kPageSize);
  EXPECT_FALSE(freed.ok());
  EXPECT_EQ(freed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ControlBatchTest, FreeBatchRejectsForeignRegions) {
  MagazineRig rig;
  TestDevice other(rig.machine.NextDeviceId(), "other", rig.machine.Context());
  other.PowerOn();
  rig.machine.RunUntilIdle();
  auto leased = rig.inner->AllocBatchSync(rig.app, 4 * kPageSize, 2);
  ASSERT_TRUE(leased.ok());

  BusControlClient thief(&other, rig.memctrl->id());
  auto freed = thief.FreeBatchSync(rig.app, *leased, 4 * kPageSize);
  EXPECT_FALSE(freed.ok());
  EXPECT_EQ(freed.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(rig.memctrl->allocation_count(), 2u);  // nothing was torn down
}

TEST(MagazineTest, FirstMissRefillsThenHitsLocally) {
  MagazineRig rig;
  MagazineClient magazine = rig.MakeMagazine();

  auto first = magazine.AllocSync(rig.app, 4 * kPageSize);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(magazine.misses(), 1u);
  EXPECT_EQ(magazine.refills(), 1u);
  EXPECT_EQ(magazine.cached_regions(), 31u);  // batch of 32 minus the waiter

  // 23 hits leave 8 cached: down to the low watermark, not below it, so no
  // background refill starts and the hit path runs alone.
  uint64_t before = rig.BusMessages();
  sim::SimTime start = rig.machine.simulator().Now();
  for (int i = 0; i < 23; ++i) {
    ASSERT_TRUE(magazine.AllocSync(rig.app, 4 * kPageSize).ok());
  }
  EXPECT_EQ(magazine.hits(), 23u);
  EXPECT_EQ(magazine.refills(), 1u);
  EXPECT_EQ(magazine.cached_regions(), 8u);
  EXPECT_EQ(rig.BusMessages(), before);  // local hits: zero bus traffic
  EXPECT_EQ(rig.machine.simulator().Now() - start, sim::Duration::Nanos(23 * 40));
}

TEST(MagazineTest, FreeRecyclesTheRegionStillMapped) {
  MagazineRig rig;
  MagazineClient magazine = rig.MakeMagazine();

  auto vaddr = magazine.AllocSync(rig.app, 4 * kPageSize);
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(magazine.FreeSync(rig.app, *vaddr, 4 * kPageSize).ok());
  uint64_t before = rig.BusMessages();
  auto again = magazine.AllocSync(rig.app, 4 * kPageSize);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *vaddr);               // the exact region came back
  EXPECT_EQ(rig.BusMessages(), before);    // without touching the bus
}

TEST(MagazineTest, DrainsBackToCapacityAboveHighWatermark) {
  MagazineRig rig;
  MagazineClient magazine = rig.MakeMagazine();

  // Lease regions out-of-band, then free them all through the magazine: the
  // 65th pushes the stock past the high watermark of 64, and one FreeBatch
  // drain trims it back to the capacity of 32.
  auto leased = rig.inner->AllocBatchSync(rig.app, 4 * kPageSize, 65);
  ASSERT_TRUE(leased.ok());
  for (VirtAddr vaddr : *leased) {
    ASSERT_TRUE(magazine.FreeSync(rig.app, vaddr, 4 * kPageSize).ok());
  }
  rig.machine.RunUntilIdle();  // let the in-flight FreeBatch drain settle
  EXPECT_EQ(magazine.drains(), 1u);
  EXPECT_EQ(magazine.drain_failures(), 0u);
  EXPECT_EQ(magazine.cached_regions(), 32u);
  EXPECT_EQ(rig.memctrl->allocation_count(), magazine.cached_regions());
}

TEST(MagazineTest, FlushSettlesTheWholeLease) {
  MagazineRig rig;
  MagazineClient magazine = rig.MakeMagazine();
  ASSERT_TRUE(magazine.AllocSync(rig.app, 4 * kPageSize).ok());
  ASSERT_TRUE(magazine.AllocSync(rig.app, 2 * kPageSize).ok());  // second size class
  EXPECT_GT(magazine.cached_regions(), 0u);
  EXPECT_GT(rig.memctrl->allocation_count(), 0u);

  // Flush returns the stock; the two regions still held by the caller keep
  // their leases until freed.
  ASSERT_TRUE(magazine.FlushSync().ok());
  EXPECT_EQ(magazine.cached_regions(), 0u);
  EXPECT_EQ(rig.memctrl->allocation_count(), 2u);
}

}  // namespace
}  // namespace lastcpu::core

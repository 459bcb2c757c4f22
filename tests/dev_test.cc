// Device framework tests: lifecycle, announcement, discovery, open/close
// multiplexing, isolation between instances, timeouts, reset semantics,
// loader service, and failure hooks.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/dev/loader_service.h"
#include "tests/test_util.h"

namespace lastcpu::dev {
namespace {

using testutil::EchoService;
using testutil::Harness;
using testutil::TestDevice;

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest()
      : nic_(DeviceId(1), "nic", harness_.Context()),
        ssd_(DeviceId(2), "ssd", harness_.Context()) {
    ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "echo"));
  }

  void PowerOnAll() {
    nic_.PowerOn();
    ssd_.PowerOn();
    harness_.simulator.Run();
  }

  Harness harness_;
  TestDevice nic_;
  TestDevice ssd_;
};

TEST_F(DeviceTest, PowerOnRunsSelfTestThenAnnounces) {
  EXPECT_EQ(nic_.state(), Device::State::kPoweredOff);
  nic_.PowerOn();
  EXPECT_EQ(nic_.state(), Device::State::kSelfTest);
  EXPECT_FALSE(harness_.bus.IsAlive(DeviceId(1)));
  harness_.simulator.Run();
  EXPECT_EQ(nic_.state(), Device::State::kAlive);
  EXPECT_TRUE(harness_.bus.IsAlive(DeviceId(1)));
  EXPECT_EQ(nic_.alive_calls, 1);
}

TEST_F(DeviceTest, SelfTestTakesConfiguredTime) {
  DeviceConfig config;
  config.self_test_duration = sim::Duration::Millis(3);
  TestDevice slow(DeviceId(9), "slow", harness_.Context(), config);
  slow.PowerOn();
  harness_.simulator.RunFor(sim::Duration::Millis(1));
  EXPECT_EQ(slow.state(), Device::State::kSelfTest);
  harness_.simulator.RunFor(sim::Duration::Millis(3));
  EXPECT_EQ(slow.state(), Device::State::kAlive);
}

TEST_F(DeviceTest, DiscoveryFindsMatchingService) {
  PowerOnAll();
  std::optional<std::vector<proto::ServiceDescriptor>> found;
  nic_.rpc().Discover(proto::ServiceType::kCompute, "", sim::Duration::Micros(50),
                      [&](std::vector<proto::ServiceDescriptor> services) { found = services; });
  harness_.simulator.Run();
  ASSERT_TRUE(found.has_value());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0].name, "echo");
  EXPECT_EQ((*found)[0].provider, DeviceId(2));
}

TEST_F(DeviceTest, DiscoveryOfMissingServiceReturnsEmpty) {
  PowerOnAll();
  std::optional<std::vector<proto::ServiceDescriptor>> found;
  nic_.rpc().Discover(proto::ServiceType::kFile, "nonexistent.log", sim::Duration::Micros(50),
                      [&](std::vector<proto::ServiceDescriptor> services) { found = services; });
  harness_.simulator.Run();
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->empty());
}

TEST_F(DeviceTest, OpenCreatesIsolatedInstances) {
  PowerOnAll();
  std::optional<InstanceId> first;
  std::optional<InstanceId> second;
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [&](Result<proto::OpenResponse> opened) {
                                         ASSERT_TRUE(opened.ok());
                                         first = opened->instance;
                                       });
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "b", 0, Pasid(2)},
                                       [&](Result<proto::OpenResponse> opened) {
                                         ASSERT_TRUE(opened.ok());
                                         second = opened->instance;
                                       });
  harness_.simulator.Run();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_NE(*first, *second);  // separate contexts per open
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 2u);
}

TEST_F(DeviceTest, OpenUnknownServiceFails) {
  PowerOnAll();
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"nope", "", 0, Pasid(1)},
      [&](Result<proto::OpenResponse> opened) {
        ASSERT_FALSE(opened.ok());
        code = opened.status().code();
      });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kNotFound);
}

TEST_F(DeviceTest, ServiceEnforcesMaxInstances) {
  ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "limited", 1));
  PowerOnAll();
  int ok = 0;
  int exhausted = 0;
  for (int i = 0; i < 3; ++i) {
    nic_.rpc().Call<proto::OpenResponse>(
        DeviceId(2), proto::OpenRequest{"limited", "", 0, Pasid(1)},
        [&](Result<proto::OpenResponse> opened) {
          if (opened.ok()) {
            ++ok;
          } else if (opened.status().code() == StatusCode::kResourceExhausted) {
            ++exhausted;
          }
        });
  }
  harness_.simulator.Run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(exhausted, 2);
}

TEST_F(DeviceTest, ServiceEnforcesAuthToken) {
  ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "secure", 0, 0xFEED));
  PowerOnAll();
  std::optional<StatusCode> denied;
  std::optional<InstanceId> opened;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"secure", "", 0xBAD, Pasid(1)},
      [&](Result<proto::OpenResponse> result) { denied = result.status().code(); });
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"secure", "", 0xFEED, Pasid(1)},
      [&](Result<proto::OpenResponse> result) {
        ASSERT_TRUE(result.ok());
        opened = result->instance;
      });
  harness_.simulator.Run();
  EXPECT_EQ(denied, StatusCode::kPermissionDenied);
  EXPECT_TRUE(opened.has_value());
}

TEST_F(DeviceTest, CloseReleasesInstance) {
  PowerOnAll();
  std::optional<InstanceId> instance;
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [&](Result<proto::OpenResponse> opened) {
                                         ASSERT_TRUE(opened.ok());
                                         instance = opened->instance;
                                       });
  harness_.simulator.Run();
  ASSERT_TRUE(instance.has_value());
  bool closed = false;
  nic_.rpc().Call<void>(DeviceId(2), proto::CloseRequest{*instance},
                        [&](Result<void> result) { closed = result.ok(); });
  harness_.simulator.Run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 0u);
  // Double close fails.
  std::optional<StatusCode> code;
  nic_.rpc().Call<void>(DeviceId(2), proto::CloseRequest{*instance},
                        [&](Result<void> result) { code = result.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kNotFound);
}

// Two services on one device draw instance ids from one counter, so a
// CloseRequest reaches the service that opened the instance it names.
TEST_F(DeviceTest, CloseReachesTheServiceThatOpenedIt) {
  ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "echo2"));
  PowerOnAll();
  std::vector<InstanceId> instances;
  for (const char* service : {"echo", "echo2"}) {
    nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{service, "", 0, Pasid(1)},
                                         [&](Result<proto::OpenResponse> opened) {
                                           ASSERT_TRUE(opened.ok());
                                           instances.push_back(opened->instance);
                                         });
    harness_.simulator.Run();
  }
  ASSERT_EQ(instances.size(), 2u);
  EXPECT_NE(instances[0], instances[1]);
  bool closed = false;
  nic_.rpc().Call<void>(DeviceId(2), proto::CloseRequest{instances[0]},
                        [&](Result<void> result) { closed = result.ok(); });
  harness_.simulator.Run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 0u);
  EXPECT_EQ(ssd_.FindServiceByName("echo2")->instance_count(), 1u);
}

TEST_F(DeviceTest, RequestToDeadDeviceTimesOutOrBounces) {
  nic_.PowerOn();
  harness_.simulator.Run();
  // SSD never powered on: the bus bounces with UNAVAILABLE.
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"echo", "", 0, Pasid(1)},
      [&](Result<proto::OpenResponse> opened) { code = opened.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kUnavailable);
}

TEST_F(DeviceTest, RequestTimesOutWhenPeerFailsMidFlight) {
  PowerOnAll();
  // The SSD fails silently (no bus notification): the NIC's timeout fires.
  ssd_.InjectFailure();
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), proto::OpenRequest{"echo", "", 0, Pasid(1)},
      [&](Result<proto::OpenResponse> opened) { code = opened.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kTimedOut);
  EXPECT_EQ(nic_.stats().GetCounter("request_timeouts").value(), 1u);
}

TEST_F(DeviceTest, ResetDropsInstancesAndReannounces) {
  PowerOnAll();
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [](Result<proto::OpenResponse>) {});
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);

  harness_.bus.ReportDeviceFailure(DeviceId(2));
  ssd_.InjectFailure();
  harness_.simulator.Run();
  // The bus pulsed reset; the device self-tested and came back clean.
  EXPECT_EQ(ssd_.state(), Device::State::kAlive);
  EXPECT_TRUE(harness_.bus.IsAlive(DeviceId(2)));
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 0u);
}

TEST_F(DeviceTest, PeerFailureTearsDownClientInstances) {
  PowerOnAll();
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(1)},
                                       [](Result<proto::OpenResponse>) {});
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);
  // The NIC dies; the bus tells the SSD, which drops the NIC's instances.
  nic_.InjectFailure();
  harness_.bus.ReportDeviceFailure(DeviceId(1));
  harness_.simulator.Run();
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 0u);
  EXPECT_EQ(ssd_.failed_peers.size(), 1u);
  EXPECT_EQ(ssd_.failed_peers[0], DeviceId(1));
}

TEST_F(DeviceTest, TeardownAppReachesServicesAndHook) {
  PowerOnAll();
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "a", 0, Pasid(5)},
                                       [](Result<proto::OpenResponse>) {});
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), proto::OpenRequest{"echo", "b", 0, Pasid(6)},
                                       [](Result<proto::OpenResponse>) {});
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 2u);
  nic_.SendOneWay(kBusDevice, proto::TeardownApp{Pasid(5)});
  harness_.simulator.Run();
  // Only PASID 5's instance died.
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);
  ASSERT_EQ(ssd_.teardowns.size(), 1u);
  EXPECT_EQ(ssd_.teardowns[0], Pasid(5));
}

TEST_F(DeviceTest, LoaderServiceStoresImagesWithAuth) {
  auto loader = std::make_unique<LoaderService>(
      DeviceId(2), [](uint64_t token) { return token == 0xFEED; });
  LoaderService* loader_ptr = loader.get();
  ssd_.AddService(std::move(loader));
  PowerOnAll();

  std::optional<StatusCode> denied;
  nic_.rpc().Call<proto::LoadImageResponse>(
      DeviceId(2), proto::LoadImage{"kvs", {1, 2, 3}, 0xBAD},
      [&](Result<proto::LoadImageResponse> loaded) { denied = loaded.status().code(); });
  bool loaded = false;
  nic_.rpc().Call<proto::LoadImageResponse>(
      DeviceId(2), proto::LoadImage{"kvs", {1, 2, 3}, 0xFEED},
      [&](Result<proto::LoadImageResponse> result) { loaded = result.ok(); });
  harness_.simulator.Run();
  EXPECT_EQ(denied, StatusCode::kPermissionDenied);
  EXPECT_TRUE(loaded);
  ASSERT_TRUE(loader_ptr->HasImage("kvs"));
  EXPECT_EQ(loader_ptr->FindImage("kvs")->size(), 3u);
  EXPECT_FALSE(loader_ptr->HasImage("other"));
}

TEST_F(DeviceTest, DoorbellReachesAliveDeviceOnly) {
  PowerOnAll();
  harness_.fabric.RingDoorbell(DeviceId(1), DeviceId(2), 42);
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.doorbells.size(), 1u);
  EXPECT_EQ(ssd_.doorbells[0].second, 42u);
  ssd_.InjectFailure();
  harness_.fabric.RingDoorbell(DeviceId(1), DeviceId(2), 43);
  harness_.simulator.Run();
  EXPECT_EQ(ssd_.doorbells.size(), 1u);  // dead silicon ignores doorbells
}

TEST_F(DeviceTest, UnhandledRequestGetsUnimplementedError) {
  PowerOnAll();
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::MemAllocResponse>(
      DeviceId(2), proto::MemAllocRequest{Pasid(1), 4096, VirtAddr(0), Access::kReadWrite},
      [&](Result<proto::MemAllocResponse> result) { code = result.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace lastcpu::dev

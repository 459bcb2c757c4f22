// Quickstart: assemble a CPU-less machine, boot it, and walk the paper's
// Figure-2 memory handshake by hand — discover the memory controller,
// allocate shared memory (the bus programs your IOMMU), grant it to another
// device, and exchange data through the fabric. No CPU anywhere.
//
// The same operations then run as syscalls into the centralized-kernel
// baseline, sharing one trace log, so the exported Chrome trace shows both
// control planes side by side.
//
//   $ quickstart                       # human-readable walkthrough
//   $ quickstart --trace-out fig2.json # also export (and validate) the trace
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/baseline/central_kernel.h"
#include "src/core/control_plane.h"
#include "src/core/machine.h"
#include "src/sim/json.h"
#include "src/sim/trace_export.h"

namespace {

using namespace lastcpu;  // NOLINT: example brevity

// A minimal self-managing device: no services, just an application that uses
// other devices' resources.
class ScratchDevice : public dev::Device {
 public:
  ScratchDevice(DeviceId id, const dev::DeviceContext& context, std::string name)
      : dev::Device(id, std::move(name), context) {}
};

// Validates the exported Chrome trace: parseable JSON, every non-root span's
// parent exists, every flow send has a matching finish, and both control
// planes (bus-routed spans and kernel spans) contributed spans.
bool ValidateChromeTrace(const std::string& json) {
  auto parsed = sim::ParseJson(json);
  if (!parsed.ok()) {
    std::fprintf(stderr, "trace is not valid JSON: %s\n", parsed.status().message().c_str());
    return false;
  }
  const sim::JsonValue* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "trace has no traceEvents array\n");
    return false;
  }

  std::map<double, std::string> process_names;  // pid -> component
  for (const sim::JsonValue& event : events->array()) {
    if (event.Find("ph")->str() == "M") {
      process_names[event.Find("pid")->number()] = event.Find("args")->Find("name")->str();
    }
  }

  std::map<double, double> parent_of;  // span id -> parent id
  std::map<std::string, int> spans_per_component;
  std::map<double, int> flow_sends;
  std::map<double, int> flow_finishes;
  for (const sim::JsonValue& event : events->array()) {
    const std::string& ph = event.Find("ph")->str();
    if (ph == "X") {
      const sim::JsonValue* args = event.Find("args");
      parent_of[args->Find("span")->number()] = args->Find("parent")->number();
      ++spans_per_component[process_names[event.Find("pid")->number()]];
    } else if (ph == "s") {
      ++flow_sends[event.Find("id")->number()];
    } else if (ph == "f") {
      ++flow_finishes[event.Find("id")->number()];
    }
  }

  bool ok = true;
  for (const auto& [span, parent] : parent_of) {
    if (parent != 0.0 && !parent_of.contains(parent)) {
      std::fprintf(stderr, "span %.0f has dangling parent %.0f\n", span, parent);
      ok = false;
    }
  }
  for (const auto& [id, count] : flow_sends) {
    if (!flow_finishes.contains(id)) {
      std::fprintf(stderr, "flow %.0f was sent but never received\n", id);
      ok = false;
    }
  }
  if (parent_of.empty()) {
    std::fprintf(stderr, "trace contains no spans\n");
    ok = false;
  }
  if (spans_per_component["kernel"] == 0) {
    std::fprintf(stderr, "no spans from the centralized-kernel control plane\n");
    ok = false;
  }
  if (spans_per_component["memctrl"] + spans_per_component["bus"] == 0) {
    std::fprintf(stderr, "no spans from the decentralized bus control plane\n");
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --trace-out requires a path\n");
        return 2;
      }
      trace_out = argv[++i];
    }
  }

  core::MachineConfig config;
  config.enable_trace = true;
  core::Machine machine(config);

  // Figure 1: devices + memory controller on a management bus; no CPU.
  auto& memctrl = machine.AddMemoryController();
  auto& producer = machine.Emplace<ScratchDevice>("producer");
  auto& consumer = machine.Emplace<ScratchDevice>("consumer");

  machine.Boot();
  std::printf("booted: %zu devices alive, memory controller is device %u\n",
              machine.devices().size(), machine.bus().memory_controller().value());

  // Every application is identified by its virtual address space (a PASID).
  Pasid app = machine.NewApplication("quickstart");

  // Step 1-2: discover who offers physical memory.
  producer.rpc().Discover(proto::ServiceType::kMemory, "", sim::Duration::Micros(20),
                    [&](std::vector<proto::ServiceDescriptor> services) {
                      std::printf("discovered %zu memory service(s); provider=device %u\n",
                                  services.size(), services[0].provider.value());
                    });
  machine.RunUntilIdle();

  // Step 5-6: the producer asks for 64 KiB; the memory controller allocates
  // and the *bus* programs the producer's IOMMU.
  VirtAddr shared{};
  producer.rpc().Call<proto::MemAllocResponse>(
      memctrl.id(), proto::MemAllocRequest{app, 64 << 10, VirtAddr(0), Access::kReadWrite},
      [&](lastcpu::Result<proto::MemAllocResponse> response) {
        shared = response->vaddr;
        std::printf("allocated %llu bytes at vaddr 0x%llx\n",
                    static_cast<unsigned long long>(response->bytes),
                    static_cast<unsigned long long>(response->vaddr.raw));
      });
  machine.RunUntilIdle();

  // Step 7: grant the region to the consumer (authorized by the memory
  // controller, programmed by the bus).
  producer.rpc().Call<void>(
      kBusDevice, proto::GrantRequest{app, shared, 64 << 10, consumer.id(), Access::kRead},
      [&](lastcpu::Result<void> granted) {
        std::printf("grant %s\n", granted.ok() ? "confirmed" : "failed");
      });
  machine.RunUntilIdle();

  // Data plane: the producer DMAs a message in; the consumer reads it out
  // through its own IOMMU mapping of the same physical pages.
  std::vector<uint8_t> hello{'h', 'e', 'l', 'l', 'o', ',', ' ', 'n', 'o', ' ', 'c', 'p', 'u'};
  machine.fabric().DmaWrite(producer.id(), app, shared, hello, [](lastcpu::Status s) {
    std::printf("producer DMA write: %s\n", s.ToString().c_str());
  });
  machine.RunUntilIdle();
  machine.fabric().DmaRead(consumer.id(), app, shared, hello.size(),
                           [](lastcpu::Result<std::vector<uint8_t>> r) {
                             std::string text(r->begin(), r->end());
                             std::printf("consumer DMA read:  \"%s\"\n", text.c_str());
                           });
  machine.RunUntilIdle();

  // The consumer only got read access: a write faults in its IOMMU and the
  // fault is delivered to the consumer itself (Sec. 4 error handling).
  machine.fabric().DmaWrite(consumer.id(), app, shared, hello, [](lastcpu::Status s) {
    std::printf("consumer DMA write (expected to fault): %s\n", s.ToString().c_str());
  });
  machine.RunUntilIdle();

  // Task life-cycle: tear the application down over the bus.
  machine.TeardownApplication(app);
  machine.RunUntilIdle();
  std::printf("after teardown, producer has %llu mapped pages\n",
              static_cast<unsigned long long>(producer.iommu().mapped_pages(app)));

  // --- hot loops: lease in bulk, don't repeat the handshake -----------------
  // The walkthrough above pays the full Figure-2 round trip per operation,
  // which is right for a one-shot handshake but wrong for a loop. The grant
  // magazine (core::MagazineClient) leases a batch of regions in ONE
  // AllocBatch round trip and serves the loop from device-local stock, so a
  // hot loop costs near-zero bus messages per op.
  Pasid looped = machine.NewApplication("quickstart-hotloop");
  core::BusControlClient bus_client(&producer, memctrl.id());
  core::MagazineClient magazine(&bus_client, &producer, memctrl.id());
  uint64_t bus_before = machine.bus().stats().GetCounter("messages_delivered").value();
  for (int i = 0; i < 32; ++i) {
    auto lease = magazine.AllocSync(looped, 16 << 10);
    if (!lease.ok() || !magazine.FreeSync(looped, *lease, 16 << 10).ok()) {
      std::fprintf(stderr, "hot loop failed\n");
      return 1;
    }
  }
  uint64_t bus_msgs = machine.bus().stats().GetCounter("messages_delivered").value() - bus_before;
  std::printf("hot loop: 32 alloc/free pairs cost %llu bus messages (hits=%llu misses=%llu)\n",
              static_cast<unsigned long long>(bus_msgs),
              static_cast<unsigned long long>(magazine.hits()),
              static_cast<unsigned long long>(magazine.misses()));
  // Settle the lease: cached regions go back to the controller in one batch.
  if (!magazine.FlushSync().ok()) {
    std::fprintf(stderr, "magazine flush failed\n");
    return 1;
  }
  machine.TeardownApplication(looped);
  machine.RunUntilIdle();

  // --- the same handshake, centralized: syscalls into one kernel ------------
  // Shares the machine's simulator and trace log, so the export shows both
  // control planes side by side. The sync wrappers drive the clock.
  mem::PhysicalMemory kernel_memory(64 << 20);
  baseline::CentralKernel kernel(&machine.simulator(), &kernel_memory, {}, &machine.trace());
  iommu::Iommu producer_iommu(producer.id());
  iommu::Iommu consumer_iommu(consumer.id());
  kernel.RegisterDevice(producer.id(), &producer_iommu);
  kernel.RegisterDevice(consumer.id(), &consumer_iommu);
  core::KernelControlClient kernel_client(&kernel, producer.id());

  Pasid kernel_app = machine.NewApplication("quickstart-baseline");
  auto kaddr = kernel_client.AllocSync(kernel_app, 64 << 10);
  std::printf("kernel baseline: alloc %s\n", kaddr.ok() ? "ok" : kaddr.status().ToString().c_str());
  if (!kaddr.ok()) {
    return 1;
  }
  auto kgrant =
      kernel_client.GrantSync(kernel_app, *kaddr, 64 << 10, consumer.id(), Access::kRead);
  std::printf("kernel baseline: grant %s\n", kgrant.ok() ? "ok" : "failed");
  auto kfree = kernel_client.FreeSync(kernel_app, *kaddr, 64 << 10);
  std::printf("kernel baseline: free %s\n", kfree.ok() ? "ok" : "failed");

  if (!trace_out.empty()) {
    std::ostringstream trace_json;
    machine.WriteChromeTrace(trace_json);
    if (!ValidateChromeTrace(trace_json.str())) {
      std::fprintf(stderr, "exported trace failed validation\n");
      return 1;
    }
    std::ofstream out(trace_out);
    out << trace_json.str();
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("\nwrote validated Chrome trace to %s (open in chrome://tracing)\n",
                trace_out.c_str());

    std::ostringstream metrics;
    machine.MetricsJson(metrics);
    if (!sim::ParseJson(metrics.str()).ok()) {
      std::fprintf(stderr, "metrics snapshot is not valid JSON\n");
      return 1;
    }
    return 0;
  }

  std::printf("\n--- control-plane trace (what the hardware did) ---\n");
  machine.trace().Dump(std::cout);
  return 0;
}

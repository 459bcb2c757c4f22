#include "tests/fingerprint.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

namespace lastcpu::testutil {
namespace {

struct Entry {
  const char* name;
  uint64_t hash;
};

// Generated with GCC 12.2 (Debian 12.2.0-14) at -O2 -g. ChaosSoak entries
// are "ChaosSoak/<schedule>" and "ChaosSoak/<schedule>/batched"; RackChaos
// entries name the test; KernelFingerprint entries name the core count;
// Example entries hash that example's stdout.
constexpr Entry kTable[] = {
    {"ChaosSoak/ssd-transient", 0x02a834bdc55a5489ull},
    {"ChaosSoak/ssd-crash-loop-then-recover", 0x0adec4e51205590eull},
    {"ChaosSoak/ssd-never-returns", 0x40cd57a70c157ba7ull},
    {"ChaosSoak/ssd-dies-in-boot-self-test", 0xae2837125b50146aull},
    {"ChaosSoak/ssd-dies-mid-session-setup", 0x771ce9a462efa11cull},
    {"ChaosSoak/ssd-dies-early-never-returns", 0xdbd5af9675fb4c4bull},
    {"ChaosSoak/ssd-dies-again-during-kvs-recovery", 0x4969e3a80e031773ull},
    {"ChaosSoak/nic-transient", 0xe41cf5dfbfbeb648ull},
    {"ChaosSoak/memctrl-transient", 0xf86cbb1e9184156bull},
    {"ChaosSoak/ssd-crash-loops-into-quarantine", 0xb777b5f352f28476ull},
    {"ChaosSoak/ssd-power-cut-transient", 0x06814e10d1390209ull},
    {"ChaosSoak/ssd-power-cut-mid-gc", 0x0c2d8da41103d270ull},
    {"ChaosSoak/ssd-power-cut-double", 0x63740e51228976ebull},
    {"ChaosSoak/magazine-holder-never-returns", 0x8966e173992330d2ull},
    {"ChaosSoak/ssd-transient/batched", 0xe4c54bb23fef0888ull},
    {"ChaosSoak/ssd-crash-loop-then-recover/batched", 0x966ceffe3900d8a4ull},
    {"ChaosSoak/ssd-never-returns/batched", 0x16d39dd9abb853e9ull},
    {"ChaosSoak/ssd-dies-in-boot-self-test/batched", 0x79ee0aec5a8d29b9ull},
    {"ChaosSoak/ssd-dies-mid-session-setup/batched", 0x6e08ea4f342229ddull},
    {"ChaosSoak/ssd-dies-early-never-returns/batched", 0xdbd5af9675fb4c4bull},
    {"ChaosSoak/ssd-dies-again-during-kvs-recovery/batched", 0x37e097ffb798e641ull},
    {"ChaosSoak/nic-transient/batched", 0x7ee667aeea543d83ull},
    {"ChaosSoak/memctrl-transient/batched", 0xbc0999ed641242ecull},
    {"ChaosSoak/ssd-crash-loops-into-quarantine/batched", 0xc0602353d920dd70ull},
    {"ChaosSoak/ssd-power-cut-transient/batched", 0x3340c36d2f6e61bdull},
    {"ChaosSoak/ssd-power-cut-mid-gc/batched", 0x60d21cc891cd2558ull},
    {"ChaosSoak/ssd-power-cut-double/batched", 0x7e4d0153070677bfull},
    {"ChaosSoak/magazine-holder-never-returns/batched", 0x80e511a4098ec309ull},
    {"RackChaos.ShardKillQuarantinesReclaimsAndRerunsByteIdentical", 0x8be62fb14d1a8a73ull},
    {"RackChaos.ShardRestartMidBurstRerunsByteIdentical", 0x8c4c77de474134faull},
    {"RackChaos.PartitionThenHealReconcilesByteIdentical", 0x631ad04fc3c139f1ull},
    {"RackChaos.RouterKillWithInFlightTrafficRerunsByteIdentical", 0x466f1f3aa054840bull},
    {"KernelFingerprint/1core", 0x71aeaba5f43041b7ull},
    {"KernelFingerprint/4cores", 0x4624d616145ad037ull},
    {"Example/quickstart", 0x0e39b6f698bbc12full},
    {"Example/pipeline", 0xc401e93e6c6d02e1ull},
    {"Example/failure_drill", 0x638df0b118c43aa6ull},
};

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

}  // namespace

void ExpectFingerprint(std::string_view name, uint64_t hash) {
  std::string line = "    {\"" + std::string(name) + "\", " + Hex(hash) + "ull},";
  for (const Entry& entry : kTable) {
    if (name == entry.name) {
      EXPECT_EQ(entry.hash, hash) << "fingerprint " << name << ": table " << Hex(entry.hash)
                                  << ", this run " << Hex(hash) << "\n  table line:\n"
                                  << line;
      return;
    }
  }
  ADD_FAILURE() << "fingerprint " << name << " is missing from tests/fingerprint.cc; this run "
                << Hex(hash) << "\n  table line:\n"
                << line;
}

}  // namespace lastcpu::testutil

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
    {"ChaosSoak/ssd-transient", 0x7e2771cf35526f15ull},
    {"ChaosSoak/ssd-crash-loop-then-recover", 0x1ab34e5a6cc72160ull},
    {"ChaosSoak/ssd-never-returns", 0x40cd57a70c157ba7ull},
    {"ChaosSoak/ssd-dies-in-boot-self-test", 0xe92fa5ad0c68dbbeull},
    {"ChaosSoak/ssd-dies-mid-session-setup", 0xacd0cd296e6ab6b1ull},
    {"ChaosSoak/ssd-dies-early-never-returns", 0xdbd5af9675fb4c4bull},
    {"ChaosSoak/ssd-dies-again-during-kvs-recovery", 0x7874d87c25eab2cfull},
    {"ChaosSoak/nic-transient", 0x89331b084b2db626ull},
    {"ChaosSoak/memctrl-transient", 0x42de62cff050b320ull},
    {"ChaosSoak/ssd-crash-loops-into-quarantine", 0xb777b5f352f28476ull},
    {"ChaosSoak/ssd-power-cut-transient", 0x06814e10d1390209ull},
    {"ChaosSoak/ssd-power-cut-mid-gc", 0xa7af9005744ef3d6ull},
    {"ChaosSoak/ssd-power-cut-double", 0x63740e51228976ebull},
    {"ChaosSoak/magazine-holder-never-returns", 0x9370856ef47241efull},
    {"ChaosSoak/ssd-transient/batched", 0x79fdc176ad0fb039ull},
    {"ChaosSoak/ssd-crash-loop-then-recover/batched", 0x4414c9548f1b4e50ull},
    {"ChaosSoak/ssd-never-returns/batched", 0x16d39dd9abb853e9ull},
    {"ChaosSoak/ssd-dies-in-boot-self-test/batched", 0x0574f977b2f6f698ull},
    {"ChaosSoak/ssd-dies-mid-session-setup/batched", 0x23d499ba5fa7e018ull},
    {"ChaosSoak/ssd-dies-early-never-returns/batched", 0xdbd5af9675fb4c4bull},
    {"ChaosSoak/ssd-dies-again-during-kvs-recovery/batched", 0x6e8620b2ea2314b1ull},
    {"ChaosSoak/nic-transient/batched", 0x8ea6a3b276208079ull},
    {"ChaosSoak/memctrl-transient/batched", 0xc0a18e3ebfadb40dull},
    {"ChaosSoak/ssd-crash-loops-into-quarantine/batched", 0xc0602353d920dd70ull},
    {"ChaosSoak/ssd-power-cut-transient/batched", 0x3340c36d2f6e61bdull},
    {"ChaosSoak/ssd-power-cut-mid-gc/batched", 0x842d319f73800591ull},
    {"ChaosSoak/ssd-power-cut-double/batched", 0x7e4d0153070677bfull},
    {"ChaosSoak/magazine-holder-never-returns/batched", 0x577bc0a07355f0fcull},
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

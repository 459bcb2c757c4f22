// Byte-identity gate for the examples: each example's stdout must hash to its
// committed "Example/<name>" entry in tests/fingerprint.cc.
//
// kvstore is not fingerprinted: its Zipf key draws call libm, which the
// table's hashed runs must not depend on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "tests/fingerprint.h"

namespace lastcpu::testutil {
namespace {

class ExampleFingerprint : public ::testing::TestWithParam<const char*> {};

TEST_P(ExampleFingerprint, StdoutMatchesTable) {
  std::string command = "'" + std::string(LASTCPU_EXAMPLES_DIR) + "/" + GetParam() + "'";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << command;
  Fnv1a hash;
  char buffer[4096];
  size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    hash.Add(std::string_view(buffer, read));
  }
  EXPECT_EQ(pclose(pipe), 0) << command << " did not exit 0";
  ExpectFingerprint(std::string("Example/") + GetParam(), hash.value());
}

INSTANTIATE_TEST_SUITE_P(Examples, ExampleFingerprint,
                         ::testing::Values("quickstart", "pipeline", "failure_drill"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

}  // namespace
}  // namespace lastcpu::testutil

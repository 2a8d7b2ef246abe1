// End-to-end checks of phillyctl's command-line contract, run against the
// built binary: usage errors exit 2 before anything runs or is written,
// malformed values exit 1, --help prints the generated usage and exits 0,
// and a value is recorded as given.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PHILLYCTL_PATH
#error "PHILLYCTL_PATH must name the phillyctl binary"
#endif

namespace {

namespace fs = std::filesystem;

class PhillyctlCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) / (std::string("phillyctl_cli_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  // Runs phillyctl with `args` inside the test's directory; returns the exit
  // code and keeps stdout in stdout_.
  int Run(const std::string& args) {
    const std::string command = "cd '" + dir_.string() + "' && '" PHILLYCTL_PATH "' " +
                                args + " > stdout.txt 2> stderr.txt";
    const int status = std::system(command.c_str());
    stdout_ = Read("stdout.txt");
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string Read(const std::string& name) const {
    std::ifstream in(dir_ / name);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  bool Exists(const std::string& name) const { return fs::exists(dir_ / name); }

  fs::path dir_;
  std::string stdout_;
};

TEST_F(PhillyctlCliTest, UnknownFlagIsAUsageError) {
  EXPECT_EQ(Run("simulate --days 1 --bogus-flag --out out/strict"), 2);
  EXPECT_FALSE(Exists("out/strict"));
}

TEST_F(PhillyctlCliTest, MisspelledKnobIsAUsageError) {
  EXPECT_EQ(Run("simulate --days 1 --ckpt-polcy stagger --out out/strict"), 2);
  EXPECT_FALSE(Exists("out/strict"));
}

TEST_F(PhillyctlCliTest, RepeatedFlagIsAUsageError) {
  EXPECT_EQ(Run("simulate --days 1 --days 2 --out out/strict"), 2);
  EXPECT_FALSE(Exists("out/strict"));
}

TEST_F(PhillyctlCliTest, FlagWithoutValueIsAUsageError) {
  EXPECT_EQ(Run("simulate --days 1 --out"), 2);
  EXPECT_FALSE(Exists("out/trace"));
}

TEST_F(PhillyctlCliTest, StrayPositionalArgumentIsAUsageError) {
  EXPECT_EQ(Run("simulate --days 1 stray --out out/strict"), 2);
  EXPECT_FALSE(Exists("out/strict"));
}

TEST_F(PhillyctlCliTest, AnalyzeRejectsAFlagItsModeDoesNotRead) {
  EXPECT_EQ(Run("analyze --telemetry t.ndjson --from-events e.ndjson"), 2);
}

TEST_F(PhillyctlCliTest, MalformedDaysIsAValueError) {
  EXPECT_EQ(Run("report --days abc"), 1);
}

TEST_F(PhillyctlCliTest, HelpPrintsTheFlagTableAndRunsNothing) {
  EXPECT_EQ(Run("simulate --help"), 0);
  EXPECT_NE(stdout_.find("--ckpt-policy"), std::string::npos) << stdout_;
  EXPECT_FALSE(Exists("out/trace"));
}

TEST_F(PhillyctlCliTest, SeedBeyond32BitsIsRecordedInTheManifest) {
  ASSERT_EQ(Run("simulate --days 1 --seed 4294967338 --out out/seed"), 0);
  EXPECT_NE(Read("out/seed/manifest.json").find("\"seed\": 4294967338,"),
            std::string::npos);
}

}  // namespace

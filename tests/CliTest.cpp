//===- tests/CliTest.cpp - perfplay command-line parsing -------------------===//
//
// Runs the perfplay binary.  A flag no command consumes is a usage
// error that names the flag (exit 2), and every flag the README and
// the CI smoke steps use still parses.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#ifndef PERFPLAY_CLI
#error "PERFPLAY_CLI must name the perfplay binary"
#endif

namespace {

struct CliRun {
  int Code = -1;
  /// stdout and stderr, interleaved.
  std::string Output;
};

CliRun runCli(const std::vector<std::string> &Args) {
  CliRun Run;
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return Run;
  pid_t Pid = fork();
  if (Pid == 0) {
    dup2(Pipe[1], STDOUT_FILENO);
    dup2(Pipe[1], STDERR_FILENO);
    close(Pipe[0]);
    close(Pipe[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(PERFPLAY_CLI));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    execv(PERFPLAY_CLI, Argv.data());
    _exit(127);
  }
  close(Pipe[1]);
  char Buf[4096];
  for (ssize_t N; (N = read(Pipe[0], Buf, sizeof(Buf))) > 0;)
    Run.Output.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  int Status = 0;
  if (Pid > 0 && waitpid(Pid, &Status, 0) == Pid && WIFEXITED(Status))
    Run.Code = WEXITSTATUS(Status);
  return Run;
}

/// Every scratch path handed out, removed after the suite.
std::set<std::string> &tempPaths() {
  static std::set<std::string> Paths;
  return Paths;
}

/// A scratch path private to this test process.
std::string temp(const std::string &Name) {
  std::string Path = testing::TempDir() + "perfplay_cli_" +
                     std::to_string(getpid()) + "_" + Name;
  tempPaths().insert(Path);
  return Path;
}

/// A small mysql trace in text, binary and v3 form.
class CliTest : public testing::Test {
protected:
  static void SetUpTestSuite() {
    ASSERT_EQ(runCli({"generate", "mysql", "--threads=4", "--out", Text})
                  .Code,
              0);
    ASSERT_EQ(runCli({"generate", "mysql", "--threads=4", "--binary",
                      "--out", Binary})
                  .Code,
              0);
    ASSERT_EQ(runCli({"generate", "mysql", "--threads=4", "--format=v3",
                      "--out", V3})
                  .Code,
              0);
  }

  static void TearDownTestSuite() {
    for (const std::string &Path : tempPaths())
      std::remove(Path.c_str());
  }

  static inline const std::string Text = temp("mysql.trace");
  static inline const std::string Binary = temp("mysql.btrace");
  static inline const std::string V3 = temp("mysql.v3trace");
};

void expectUsageError(const std::vector<std::string> &Args,
                      const std::string &Flag, const std::string &Says) {
  CliRun Run = runCli(Args);
  std::string Cmd = Args.front();
  EXPECT_EQ(Run.Code, 2) << Cmd << " " << Flag << ": " << Run.Output;
  EXPECT_NE(Run.Output.find("'" + Flag + "'"), std::string::npos)
      << Cmd << ": " << Run.Output;
  EXPECT_NE(Run.Output.find(Says), std::string::npos)
      << Cmd << ": " << Run.Output;
}

} // namespace

TEST_F(CliTest, MisspelledFlagIsUsageError) {
  // --race used to exit 0 without running the race check.
  expectUsageError({"analyze", Text, "--race"}, "--race", "unknown");
  expectUsageError({"analyze", Text, "--races", "--no-mmap"}, "--no-mmap",
                   "unknown");
}

TEST_F(CliTest, EveryCommandRejectsUnknownFlags) {
  const std::vector<std::vector<std::string>> Commands = {
      {"list-apps"},
      {"generate", "mysql", "--out", temp("unused.trace")},
      {"analyze", Text},
      {"analyze", Text, Binary},
      {"replay", Text},
      {"stats", Text},
      {"convert", Text, "--out", temp("unused.v3trace")},
      {"casestudy", "bug1"},
      {"serve", "--socket", temp("unused.sock")},
      {"client", "--socket", temp("unused.sock"), "stats"},
  };
  for (std::vector<std::string> Args : Commands) {
    Args.push_back("--bogus");
    expectUsageError(Args, "--bogus", "unknown");
  }
}

TEST_F(CliTest, OptionWithoutValueIsUsageError) {
  expectUsageError({"analyze", Text, "--pairs"}, "--pairs",
                   "expects a value");
  expectUsageError({"replay", Text, "--seed"}, "--seed", "expects a value");
}

TEST_F(CliTest, DocumentedFlagsParse) {
  // The invocations of the README and the CI smoke steps, in order;
  // each must run to completion.
  const std::vector<std::vector<std::string>> Ok = {
      {"list-apps"},
      {"generate", "pbzip2", "--threads", "2", "--scale", "0.5", "--seed",
       "3", "--format", "binary", "--out", temp("pbzip2.btrace")},
      {"analyze", Text, "--progress"},
      {"analyze", Text, "--races"},
      {"analyze", Text, "--set-repr=bitset"},
      {"analyze", Text, "--pairs=all"},
      {"analyze", Text, "--pairs", "adjacent", "--timeline", "--csv"},
      {"analyze", Text, "--detect-threads", "2", "--no-dedup"},
      {"analyze", Text, Binary, "--threads", "2", "--races"},
      {"analyze", V3, "--window-events", "256"},
      {"generate", "mysql", "--threads=4", "--binary", "--out",
       temp("inplace.btrace")},
      {"convert", temp("inplace.btrace")},
      {"analyze", temp("inplace.btrace"), "--window-events=1024"},
      {"replay", Text, "--scheme=elsc", "--replays", "3", "--seed", "2"},
      {"replay", Text, "--scheme", "htm", "--htm-capacity", "8",
       "--htm-retries", "2", "--abort-penalty", "100"},
      {"replay", Text, "--scheme", "sle", "--abort-rate", "0.1"},
      {"convert", V3, "--out", temp("mysql2.v3trace")},
      {"stats", V3, "--verbose"},
      {"casestudy", "bug1", "--threads", "2", "--scale", "0.2"},
  };
  for (const std::vector<std::string> &Args : Ok) {
    CliRun Run = runCli(Args);
    std::string Line;
    for (const std::string &A : Args)
      Line += A + " ";
    EXPECT_EQ(Run.Code, 0) << Line << ": " << Run.Output;
  }

  // No daemon listens here, so these fail after parsing: exit 1, not
  // the usage error's 2.
  const std::string Missing = temp("no/such/dir.sock");
  const std::vector<std::vector<std::string>> Unreachable = {
      {"serve", "--socket", Missing, "--workers", "1", "--cache-budget",
       "1000", "--max-queue", "4", "--idle-timeout", "10"},
      {"client", "--socket", Missing, "analyze", Text, "--pairs=all",
       "--no-cache"},
      {"client", "--socket", Missing, "stats"},
      {"client", "--socket", Missing, "shutdown"},
  };
  for (const std::vector<std::string> &Args : Unreachable) {
    CliRun Run = runCli(Args);
    EXPECT_EQ(Run.Code, 1) << Args.front() << ": " << Run.Output;
    EXPECT_EQ(Run.Output.find("unknown"), std::string::npos) << Run.Output;
  }
}

// Meta-tests for the static lint layer (scripts/check_invariants.py):
// the live tree must be clean, a seeded-violation tree must fail with
// every rule reported, and the documented annotation escapes must work.
// MCAM_SOURCE_DIR is injected by CMake; python3 is a build prerequisite.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  const std::string full = command + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string checker_path() {
  return std::string(MCAM_SOURCE_DIR) + "/scripts/check_invariants.py";
}

CommandResult run_checker(const fs::path& root) {
  return run_command("python3 '" + checker_path() + "' --root '" + root.string() + "'");
}

void write_file(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// Scratch tree, removed on destruction.
struct TempTree {
  fs::path root;
  explicit TempTree(const char* name)
      : root(fs::temp_directory_path() / name) {
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~TempTree() { fs::remove_all(root); }
};

TEST(LintInvariants, LiveTreeIsClean) {
  const CommandResult result = run_checker(fs::path(MCAM_SOURCE_DIR));
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(LintInvariants, SeededViolationsFailWithEveryRuleReported) {
  TempTree tree("mcam_lint_seeded");
  write_file(tree.root / "src" / "bad.cpp",
             "#include <mutex>\n"
             "#include <atomic>\n"
             "struct S {\n"
             "  std::mutex undocumented_mutex;\n"
             "  int* leak() { return new int(7); }\n"
             "  void relax(std::atomic<int>& a) {\n"
             "    a.store(1, std::memory_order_relaxed);\n"
             "  }\n"
             "  void fan_out() { std::thread worker([] {}); worker.join(); }\n"
             "  void fan_out_joined() { std::jthread worker([] {}); }\n"
             "  int later() { return std::async([] { return 1; }).get(); }\n"
             "};\n");
  write_file(tree.root / "src" / "serve" / "snapshot.hpp",
             "constexpr std::uint32_t kSnapshotVersion = 3;\n"
             "constexpr std::uint32_t kMinSnapshotVersion = 4;\n");
  write_file(tree.root / "README.md", "No version documented here.\n");
  write_file(tree.root / ".tsan-suppressions", "race:libfoo.so\n");

  const CommandResult result = run_checker(tree.root);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("[mutex-lock-order]"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("[naked-new]"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("[relaxed-order]"), std::string::npos) << result.output;
  for (const char* spawn : {"src/bad.cpp:9: [thread-spawn]", "src/bad.cpp:10: [thread-spawn]",
                            "src/bad.cpp:11: [thread-spawn]"}) {
    EXPECT_NE(result.output.find(spawn), std::string::npos) << result.output;
  }
  EXPECT_NE(result.output.find("[snapshot-version]"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("[tsan-suppression]"), std::string::npos) << result.output;
  // Both snapshot-version failure modes: min > current, and README silent.
  EXPECT_NE(result.output.find("kMinSnapshotVersion"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("format version 3"), std::string::npos) << result.output;
}

TEST(LintInvariants, AnnotationEscapesAndDocsPass) {
  TempTree tree("mcam_lint_clean");
  write_file(tree.root / "src" / "good.cpp",
             "#include <mutex>\n"
             "#include <atomic>\n"
             "#include <new>\n"  // Preprocessor lines are exempt from naked-new.
             "struct S {\n"
             "  // lock-order: leaf (no lock acquired while held).\n"
             "  std::mutex documented_mutex;\n"
             "  int* leak() { return new int(7); }  // invariant-ok: naked-new (test singleton)\n"
             "  void relax(std::atomic<int>& a) {\n"
             "    a.store(1, std::memory_order_relaxed);  // invariant-ok: relaxed-order (test)\n"
             "  }\n"
             "  void spawn() {\n"
             "    std::thread t([] {});  // invariant-ok: thread-spawn (test)\n"
             "    t.join();\n"
             "  }\n"
             "  unsigned cores() { return std::thread::hardware_concurrency(); }\n"
             "  void rest() { std::this_thread::yield(); }\n"
             "};\n");
  // src/obs/ may use relaxed without annotation.
  write_file(tree.root / "src" / "obs" / "hot.cpp",
             "#include <atomic>\n"
             "void f(std::atomic<int>& a) { a.store(1, std::memory_order_relaxed); }\n");
  // The three homes of parallel work, and code outside src/, may start
  // threads without annotation.
  for (const fs::path& home :
       {fs::path("src") / "serve" / "runtime.hpp", fs::path("src") / "search" / "batch.cpp",
        fs::path("src") / "obs" / "health" / "health.cpp", fs::path("tests") / "t.cpp"}) {
    write_file(tree.root / home, "void g() { std::thread t([] {}); t.join(); }\n");
  }
  write_file(tree.root / "src" / "serve" / "snapshot.hpp",
             "constexpr std::uint32_t kSnapshotVersion = 4;\n"
             "constexpr std::uint32_t kMinSnapshotVersion = 2;\n");
  write_file(tree.root / "README.md", "Snapshots use format version 4.\n");
  write_file(tree.root / ".tsan-suppressions",
             "# libfoo lazy init races itself; upstream issue #1234\n"
             "race:libfoo.so\n");

  const CommandResult result = run_checker(tree.root);
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(LintInvariants, SuppressionFileIsEffectivelyEmpty) {
  // The green-by-construction contract: .tsan-suppressions carries no
  // active entries. Deliberate, visible friction - adding the first one
  // means updating this test alongside its justification comment.
  std::ifstream in(std::string(MCAM_SOURCE_DIR) + "/.tsan-suppressions");
  ASSERT_TRUE(in.good());
  std::string line;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    EXPECT_EQ(line[start], '#') << "active suppression: " << line;
  }
}

}  // namespace

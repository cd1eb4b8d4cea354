// Replays the checked-in fuzz corpus (fuzz/corpus/) through the shared
// fuzz-harness bodies under plain asserts, so every tier-1 ctest run
// re-verifies each seed and every regression input from past fuzz findings.
//
// A harness failure aborts the process (the harness uses ROS-style hard
// asserts), which gtest reports as a crashed test — exactly the signal a
// regressed parser bug should produce.
#include "fuzz/harness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <vector>

#include "src/olfs/audit.h"

namespace ros::fuzz {
namespace {

namespace fs = std::filesystem;

#ifndef ROS_CORPUS_DIR
#error "ROS_CORPUS_DIR must be defined by the build"
#endif

std::vector<fs::path> CorpusFiles(const char* subdir) {
  const fs::path dir = fs::path(ROS_CORPUS_DIR) / subdir;
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::uint8_t> ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void ReplayAll(const char* subdir,
               const std::function<void(const std::uint8_t*, std::size_t)>&
                   harness) {
  const std::vector<fs::path> files = CorpusFiles(subdir);
  // An empty directory would silently skip the whole check — e.g. after a
  // bad checkout or a corpus move. Treat it as a test failure.
  ASSERT_FALSE(files.empty())
      << "no corpus files under " << ROS_CORPUS_DIR << "/" << subdir;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::vector<std::uint8_t> data = ReadFileBytes(file);
    harness(data.data(), data.size());
  }
}

TEST(CorpusReplay, Json) { ReplayAll("json", FuzzJson); }

TEST(CorpusReplay, IndexFile) { ReplayAll("index", FuzzIndexFile); }

TEST(CorpusReplay, UdfImage) { ReplayAll("udf", FuzzUdfImage); }

TEST(CorpusReplay, MvLog) { ReplayAll("mvlog", FuzzMvLog); }

TEST(CorpusReplay, AuditManifest) {
  ReplayAll("audit", FuzzAuditManifest);
}

TEST(CorpusReplay, Routes) { ReplayAll("routes", FuzzRouteShard); }

// The audit corpus holds a valid seed set of each manifest version, so the
// replay above walks both leaf hashes and both version values.
TEST(CorpusReplay, AuditManifestSeedsCoverEveryVersion) {
  std::set<std::uint32_t> versions;
  for (const fs::path& file : CorpusFiles("audit")) {
    const std::vector<std::uint8_t> data = ReadFileBytes(file);
    auto parsed = olfs::ParseAuditManifest(data);
    if (parsed.ok()) {
      versions.insert(parsed->version);
    }
  }
  EXPECT_EQ(versions, (std::set<std::uint32_t>{olfs::kAuditV1,
                                               olfs::kAuditV2}));
}

}  // namespace
}  // namespace ros::fuzz

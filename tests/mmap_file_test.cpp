// Unit tests for util::MmapFile: the mapped bytes equal the file bytes,
// backing() names what backs the mapping, and moves keep the address.
#include "util/mmap_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace tass::util {
namespace {

std::string write_temp(const std::string& name,
                       const std::vector<char>& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

std::vector<char> patterned(std::size_t n) {
  std::vector<char> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<char>((i * 131) ^ (i >> 8));
  }
  return bytes;
}

void expect_matches(const MmapFile& map, const std::vector<char>& bytes) {
  ASSERT_EQ(map.size(), bytes.size());
  EXPECT_EQ(std::memcmp(map.bytes().data(), bytes.data(), bytes.size()), 0);
}

TEST(MmapFile, DefaultOpenIsBasePageBacked) {
  const auto bytes = patterned(12345);
  const std::string path = write_temp("mmap_base.bin", bytes);
  const MmapFile map = MmapFile::open(path);
  expect_matches(map, bytes);
  EXPECT_EQ(map.backing(), PageBacking::kBase);
  EXPECT_EQ(map.path(), path);
  std::remove(path.c_str());
}

TEST(MmapFile, EmptyFileMapsToEmptySpan) {
  const std::string path = write_temp("mmap_empty.bin", {});
  const MmapFile map = MmapFile::open(path);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.backing(), PageBacking::kNone);
  std::remove(path.c_str());
}

TEST(MmapFile, MissingFileThrows) {
  const std::string path = ::testing::TempDir() + "mmap_does_not_exist.bin";
  EXPECT_THROW(MmapFile::open(path), Error);
}

TEST(MmapFile, MoveTransfersMappingWithoutRemap) {
  const auto bytes = patterned(9000);
  const std::string path = write_temp("mmap_move.bin", bytes);
  MmapFile map = MmapFile::open(path);
  const std::byte* base = map.bytes().data();
  MmapFile moved = std::move(map);
  EXPECT_EQ(moved.bytes().data(), base);  // address-stability contract
  expect_matches(moved, bytes);
  EXPECT_TRUE(map.empty());  // NOLINT(bugprone-use-after-move)
  std::remove(path.c_str());
}

TEST(MmapFile, PageBackingNames) {
  EXPECT_EQ(page_backing_name(PageBacking::kNone), "none");
  EXPECT_EQ(page_backing_name(PageBacking::kBase), "base");
}

}  // namespace
}  // namespace tass::util

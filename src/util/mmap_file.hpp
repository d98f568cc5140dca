// Read-only memory mappings (RAII).
//
// The state-image loader (state/image.hpp) maps a file instead of
// reading it so that N worker processes attached to the same image share
// one page-cache copy of the derived scan state: the kernel backs every
// mapping with the same physical pages, so process count does not
// multiply resident memory, and a cold start touches only the pages the
// validation pass actually reads. MAP_SHARED + PROT_READ also means a
// stray write is a segfault in the offending process, never silent
// corruption of a sibling's view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace tass::util {

/// What physically backs a mapping. kNone: empty file, no mapping.
/// kBase: plain base-page file mapping.
enum class PageBacking : std::uint8_t {
  kNone,
  kBase,
};

/// Stable lowercase token for logs and bench JSON ("none", "base").
std::string_view page_backing_name(PageBacking backing) noexcept;

/// A read-only, whole-file memory mapping. Move-only; unmaps on
/// destruction. The mapping address is stable for the object's lifetime
/// (moves transfer ownership without remapping), so spans handed out by
/// bytes() stay valid until the owning MmapFile is destroyed.
class MmapFile {
 public:
  /// Maps `path` read-only. Throws tass::Error if the file cannot be
  /// opened, stat'ed, or mapped. An empty file yields an empty bytes()
  /// span and no mapping.
  static MmapFile open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// The mapped file contents. Page-aligned base (when non-empty).
  std::span<const std::byte> bytes() const noexcept {
    return {static_cast<const std::byte*>(data_), size_};
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::string& path() const noexcept { return path_; }

  /// What backs this mapping: kBase, or kNone for an empty file.
  PageBacking backing() const noexcept { return backing_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  PageBacking backing_ = PageBacking::kNone;
  std::string path_;
};

}  // namespace tass::util

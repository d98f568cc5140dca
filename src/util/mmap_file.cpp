#include "util/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace tass::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw Error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::string_view page_backing_name(PageBacking backing) noexcept {
  switch (backing) {
    case PageBacking::kNone:
      return "none";
    case PageBacking::kBase:
      return "base";
  }
  return "unknown";
}

MmapFile MmapFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot open", path);

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("cannot stat", path);
  }

  MmapFile file;
  file.path_ = path;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > 0) {
    // MAP_SHARED so every process mapping this image shares one set of
    // physical pages; PROT_READ makes the view tamper-evident.
    // MAP_POPULATE pre-faults the page tables in one kernel pass — the
    // state-image loader reads every page immediately (checksum), and
    // thousands of individual soft faults would dominate its budget.
    int flags = MAP_SHARED;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;
#endif
    void* data = ::mmap(nullptr, file.size_, PROT_READ, flags, fd, 0);
    if (data == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail("cannot mmap", path);
    }
    file.data_ = data;
    file.backing_ = PageBacking::kBase;
  }
  ::close(fd);  // the mapping keeps its own reference to the file
  return file;
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      backing_(std::exchange(other.backing_, PageBacking::kNone)),
      path_(std::move(other.path_)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    backing_ = std::exchange(other.backing_, PageBacking::kNone);
    path_ = std::move(other.path_);
  }
  return *this;
}

}  // namespace tass::util

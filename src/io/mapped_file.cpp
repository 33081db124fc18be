#include "io/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "fault/fault.hpp"

namespace manymap {

namespace {

std::string errno_text() {
  const int err = errno;
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) + ")";
}

}  // namespace

MappedFile::~MappedFile() { close(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      opened_empty_(std::exchange(other.opened_empty_, false)),
      last_error_(std::move(other.last_error_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    close();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    opened_empty_ = std::exchange(other.opened_empty_, false);
    last_error_ = std::move(other.last_error_);
  }
  return *this;
}

bool MappedFile::open(const std::string& path) {
  close();
  last_error_.clear();
  if (MM_INJECT_FAIL("io.mmap.open")) {
    last_error_ = "cannot open '" + path + "': injected fault at io.mmap.open";
    return false;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    last_error_ = "cannot open '" + path + "': " + errno_text();
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    last_error_ = "cannot stat '" + path + "': " + errno_text();
    ::close(fd);
    return false;
  }
  if (st.st_size < 0) {
    last_error_ = "cannot stat '" + path + "': negative size";
    ::close(fd);
    return false;
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    // Zero-byte mappings are invalid (mmap would fail with EINVAL), so an
    // empty regular file — or a size-0 special file like /dev/null — is
    // represented as an open file with an empty span and no mapping.
    ::close(fd);
    data_ = nullptr;
    opened_empty_ = true;
    return true;
  }
  void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) {
    last_error_ = "cannot mmap '" + path + "': " + errno_text();
    size_ = 0;
    return false;
  }
  data_ = p;
  return true;
}

void MappedFile::close() {
  if (data_ != nullptr) ::munmap(data_, size_);
  data_ = nullptr;
  size_ = 0;
  opened_empty_ = false;
}

std::string read_file(const std::string& path) {
  MM_INJECT("io.file.read");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw InputFileError(path, "cannot open '" + path + "': " + errno_text());
  // One read into a string sized from the file, then drain anything past
  // that size (a pipe reports 0 bytes, a file may still be growing).
  std::string out;
  struct stat st {};
  if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0)
    out.resize(static_cast<std::size_t>(st.st_size));
  out.resize(std::fread(out.data(), 1, out.size(), f));
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  MM_REQUIRE(!failed, "cannot read file");
  return out;
}

void write_file(const std::string& path, std::string_view contents) {
  MM_INJECT("io.file.write");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  MM_REQUIRE(f != nullptr, "cannot open file for writing");
  const std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  MM_REQUIRE(n == contents.size(), "short write");
  std::fclose(f);
}

}  // namespace manymap

// RAII memory-mapped file (paper §4.4.2): maps the file into the address
// space so loading becomes pointer casts over consecutive reads, instead
// of many small fragmented fread calls.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "base/common.hpp"

namespace manymap {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Map `path` read-only. Returns false (and stays empty) on failure;
  /// the reason (with errno text) is retained in last_error(). An empty
  /// file (or /dev/null) opens successfully with size() == 0 and a null
  /// data pointer — mmap of zero bytes is invalid, so no mapping is made.
  bool open(const std::string& path);
  void close();

  /// Why the last open() failed ("" after a successful open). The string
  /// includes the path and the errno description of the failing syscall.
  const std::string& last_error() const { return last_error_; }

  bool is_open() const { return data_ != nullptr || opened_empty_; }
  std::size_t size() const { return size_; }
  const u8* data() const { return static_cast<const u8*>(data_); }
  std::span<const u8> bytes() const { return {data(), size_}; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool opened_empty_ = false;  ///< open() succeeded on a zero-byte file
  std::string last_error_;
};

/// An input file that cannot be used: one that does not open, or a
/// reference with no sequences. what() names the path and the reason.
class InputFileError : public std::runtime_error {
 public:
  InputFileError(std::string path, const std::string& message)
      : std::runtime_error(message), path_(std::move(path)) {}
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Read a whole file into a string via buffered stdio (the classic path
/// the mmap loader is benchmarked against): one read sized from fstat,
/// then whatever a pipe or growing file still yields. Throws
/// InputFileError if the file does not open; MM_REQUIREs that it reads
/// without error, so an I/O error is never a silent truncation.
std::string read_file(const std::string& path);

/// Write a buffer to a file; MM_REQUIREs success.
void write_file(const std::string& path, std::string_view contents);

}  // namespace manymap

/// \file
/// \brief Block-structured spill files: the disk half of every
/// bounded-memory structure in the pipeline.
///
/// A SpillLog<T> is an append-only sequence of *blocks* of
/// trivially-copyable records, backed by one unlinked-on-destruction temp
/// file. It is the machinery PR 3 introduced for the candidate PairStream,
/// generalized so the partitioned crowd boundary can reuse it for other
/// record types (indexed pairs, vote records) without duplicating the I/O
/// and lifetime handling:
///
///   * blocks append sequentially through one buffered write handle;
///   * any number of cursors may read concurrently via positioned reads
///     (pread) on one shared descriptor — two fds total per log, no matter
///     how many blocks or cursors exist;
///   * the file is created with mkstemp and removed on destruction,
///     including when an exception unwinds through the owner.
#ifndef CROWDER_CORE_SPILL_H_
#define CROWDER_CORE_SPILL_H_

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/result.h"

namespace crowder {
/// \brief The workflow layer: pipeline substrate, partitioned crowd
/// boundary, hybrid workflow, budget planning, and entity resolution.
namespace core {

/// \brief Implementation details of SpillLog; not part of the public API.
namespace spill_internal {

/// \brief Formats the current errno under a short operation label.
inline std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace spill_internal

/// \brief Append-only block file of trivially-copyable records, created
/// lazily under the system temp directory and removed (and closed) on
/// destruction — including when an exception unwinds through the owner.
///
/// One SpillLog costs at most two file descriptors: the buffered write
/// handle and a shared read descriptor opened on the first cursor. Blocks
/// are the unit of append and of read-back; record order within and across
/// blocks is exactly append order.
template <typename T>
class SpillLog {
  static_assert(std::is_trivially_copyable<T>::value,
                "SpillLog writes records as raw bytes");

 public:
  /// \brief Creates an empty spill log under $TMPDIR (default /tmp).
  static Result<SpillLog> Create() {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string templ =
        std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/crowder-spill-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const int fd = ::mkstemp(buf.data());
    if (fd < 0) return Status::IOError(spill_internal::ErrnoMessage("mkstemp"));
    std::FILE* file = ::fdopen(fd, "wb");
    if (file == nullptr) {
      const Status status = Status::IOError(spill_internal::ErrnoMessage("fdopen"));
      ::close(fd);
      ::unlink(buf.data());
      return status;
    }
    SpillLog out;
    out.path_.assign(buf.data());
    out.file_ = file;
    return out;
  }

  /// \brief Move-constructs, leaving `other` closed and empty.
  SpillLog(SpillLog&& other) noexcept
      : path_(std::move(other.path_)),
        file_(other.file_),
        read_fd_(other.read_fd_),
        blocks_(std::move(other.blocks_)),
        bytes_written_(other.bytes_written_) {
    other.file_ = nullptr;
    other.read_fd_ = -1;
    other.path_.clear();
  }

  /// \brief Move-assigns, closing (and unlinking) any current file first.
  SpillLog& operator=(SpillLog&& other) noexcept {
    if (this != &other) {
      Close();
      path_ = std::move(other.path_);
      file_ = other.file_;
      read_fd_ = other.read_fd_;
      blocks_ = std::move(other.blocks_);
      bytes_written_ = other.bytes_written_;
      other.file_ = nullptr;
      other.read_fd_ = -1;
      other.path_.clear();
    }
    return *this;
  }

  SpillLog(const SpillLog&) = delete;             ///< not copyable
  SpillLog& operator=(const SpillLog&) = delete;  ///< not copyable
  /// \brief Closes both descriptors and unlinks the temp file.
  ~SpillLog() { Close(); }

  /// \brief Appends one block (raw record array + in-memory offset record).
  Status AppendBlock(const std::vector<T>& block) {
    CROWDER_CHECK(file_ != nullptr) << "AppendBlock on closed SpillLog";
    BlockExtent extent;
    extent.offset_bytes = bytes_written_;
    extent.num_records = block.size();
    if (!block.empty() &&
        std::fwrite(block.data(), sizeof(T), block.size(), file_) != block.size()) {
      return Status::IOError(spill_internal::ErrnoMessage("spill write"));
    }
    bytes_written_ += block.size() * sizeof(T);
    blocks_.push_back(extent);
    return Status::OK();
  }

  /// \brief Blocks appended so far.
  size_t num_blocks() const { return blocks_.size(); }
  /// \brief Total payload bytes appended so far.
  uint64_t bytes_written() const { return bytes_written_; }
  /// \brief On-disk location; exposed so tests can assert cleanup.
  const std::string& path() const { return path_; }

  /// \brief Sequential cursor over one block. Any number of cursors may be
  /// live simultaneously over different (or the same) blocks — a k-way merge
  /// holds one per block. Cursors share the log's single read descriptor via
  /// positioned reads (pread). A cursor must not outlive its SpillLog.
  class BlockCursor {
   public:
    BlockCursor(BlockCursor&&) noexcept = default;             ///< movable
    BlockCursor& operator=(BlockCursor&&) noexcept = default;  ///< movable
    BlockCursor(const BlockCursor&) = delete;                  ///< not copyable
    BlockCursor& operator=(const BlockCursor&) = delete;       ///< not copyable

    /// \brief Reads up to `max_records` records into `out`; returns how many
    /// were read (0 at end of block) or a Status on I/O failure.
    Result<size_t> Read(T* out, size_t max_records) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(max_records, remaining_));
      if (want == 0) return static_cast<size_t>(0);
      // Positioned read: no shared seek state, so interleaved cursors never
      // disturb each other on the one descriptor.
      size_t done = 0;
      char* dst = reinterpret_cast<char*>(out);
      while (done < want * sizeof(T)) {
        const ssize_t got = ::pread(fd_, dst + done, want * sizeof(T) - done,
                                    static_cast<off_t>(offset_bytes_ + done));
        if (got < 0) return Status::IOError(spill_internal::ErrnoMessage("spill read"));
        if (got == 0) return Status::IOError("spill read: short read");
        done += static_cast<size_t>(got);
      }
      offset_bytes_ += done;
      remaining_ -= want;
      return want;
    }

   private:
    friend class SpillLog;
    BlockCursor(int fd, uint64_t offset_bytes, uint64_t remaining)
        : fd_(fd), offset_bytes_(offset_bytes), remaining_(remaining) {}
    int fd_ = -1;                ///< owned by the SpillLog
    uint64_t offset_bytes_ = 0;  ///< next read position
    uint64_t remaining_ = 0;     ///< records left in this block
  };

  /// \brief Opens a cursor over block `index`.
  Result<BlockCursor> OpenBlock(size_t index) const {
    CROWDER_CHECK_LT(index, blocks_.size());
    // The write handle is buffered; make the bytes visible to the read side.
    if (file_ != nullptr && std::fflush(file_) != 0) {
      return Status::IOError(spill_internal::ErrnoMessage("spill flush"));
    }
    if (read_fd_ < 0) {
      read_fd_ = ::open(path_.c_str(), O_RDONLY);
      if (read_fd_ < 0) return Status::IOError(spill_internal::ErrnoMessage("spill open"));
    }
    return BlockCursor(read_fd_, blocks_[index].offset_bytes, blocks_[index].num_records);
  }

  /// \brief Reads the whole of block `index` into `*out`, replacing its
  /// contents (convenience for consumers that replay blocks in append
  /// order; reusing `out` across blocks keeps its capacity).
  Status ReadBlock(size_t index, std::vector<T>* out) const {
    CROWDER_ASSIGN_OR_RETURN(BlockCursor cursor, OpenBlock(index));
    out->resize(static_cast<size_t>(blocks_[index].num_records));
    if (!out->empty()) {
      CROWDER_ASSIGN_OR_RETURN(const size_t got, cursor.Read(out->data(), out->size()));
      if (got != out->size()) return Status::IOError("spill read: truncated block");
    }
    return Status::OK();
  }

 private:
  SpillLog() = default;

  struct BlockExtent {
    uint64_t offset_bytes = 0;
    uint64_t num_records = 0;
  };

  void Close() {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    if (read_fd_ >= 0) {
      ::close(read_fd_);
      read_fd_ = -1;
    }
    if (!path_.empty()) {
      ::unlink(path_.c_str());
      path_.clear();
    }
  }

  std::string path_;
  std::FILE* file_ = nullptr;  ///< write handle
  mutable int read_fd_ = -1;   ///< shared by all cursors; opened on first read
  std::vector<BlockExtent> blocks_;
  uint64_t bytes_written_ = 0;
};

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_SPILL_H_

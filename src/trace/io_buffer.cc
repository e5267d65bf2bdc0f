#include "src/trace/io_buffer.h"

#include <cassert>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define BSDTRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace bsdtrace {

// -- BufferedWriter -----------------------------------------------------------

BufferedWriter::BufferedWriter(const std::string& path) : path_(path) {
  // The block is allocated even when the open fails: writes are still
  // accepted (and dropped at Flush) so callers can defer the error check to
  // Close(), like the ostream interface this replaces.
  buf_ = std::make_unique<uint8_t[]>(kBlockSize);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::Error("cannot open for writing: " + path);
    return;
  }
  // stdio's own buffer would just double-copy ours.
  std::setvbuf(file_, nullptr, _IONBF, 0);
}

BufferedWriter::~BufferedWriter() { Close(); }

void BufferedWriter::Fail(const std::string& message) {
  if (status_.ok()) {
    status_ = Status::Error(message);
  }
  pos_ = 0;  // drop buffered bytes; all further writes are no-ops
}

void BufferedWriter::Flush() {
  if (file_ == nullptr || !status_.ok()) {
    pos_ = 0;
    return;
  }
  if (pos_ > 0) {
    if (std::fwrite(buf_.get(), 1, pos_, file_) != pos_) {
      Fail("write failed: " + path_);
      return;
    }
    flushed_ += pos_;
    pos_ = 0;
  }
}

void BufferedWriter::Write(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    if (pos_ == kBlockSize) {
      Flush();
      if (!status_.ok()) {
        return;
      }
    }
    const size_t chunk = n < kBlockSize - pos_ ? n : kBlockSize - pos_;
    std::memcpy(buf_.get() + pos_, p, chunk);
    pos_ += chunk;
    p += chunk;
    n -= chunk;
  }
}

uint8_t* BufferedWriter::Reserve(size_t n) {
  assert(n <= kBlockSize);
  if (kBlockSize - pos_ < n) {
    Flush();
  }
  return buf_.get() + pos_;
}

Status BufferedWriter::Close() {
  if (file_ != nullptr) {
    Flush();
    if (std::fclose(file_) != 0 && status_.ok()) {
      status_ = Status::Error("close failed: " + path_);
    }
    file_ = nullptr;
  }
  return status_;
}

// -- BufferedReader -----------------------------------------------------------

BufferedReader::BufferedReader(const std::string& path, bool prefer_mmap) {
#if BSDTRACE_HAVE_MMAP
  if (prefer_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st;
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
        if (st.st_size == 0) {
          ::close(fd);
          static constexpr uint8_t kEmpty[1] = {0};
          data_ = kEmpty;  // empty window; mmap of 0 bytes is invalid
          return;
        }
        void* base = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                            MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (base != MAP_FAILED) {
          ::madvise(base, static_cast<size_t>(st.st_size), MADV_SEQUENTIAL);
          map_base_ = base;
          map_size_ = static_cast<size_t>(st.st_size);
          data_ = static_cast<const uint8_t*>(base);
          end_ = map_size_;
          return;
        }
      } else {
        ::close(fd);
      }
    }
    // Fall through to stdio (missing file reports its error there).
  }
#else
  (void)prefer_mmap;
#endif
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    status_ = Status::Error("cannot open for reading: " + path);
    return;
  }
  std::setvbuf(file_, nullptr, _IONBF, 0);
  buf_ = std::make_unique<uint8_t[]>(kBlockSize);
  data_ = buf_.get();
}

BufferedReader::~BufferedReader() {
#if BSDTRACE_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_size_);
  }
#endif
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void BufferedReader::Fail(const std::string& message) {
  if (status_.ok()) {
    status_ = Status::Error(message);
  }
}

bool BufferedReader::Refill() {
  if (file_ == nullptr || !status_.ok()) {
    return false;  // mmap windows never refill; errors stop reading
  }
  // Preserve the unconsumed tail (Contiguous may need it joined with the
  // next block).
  const size_t tail = end_ - pos_;
  if (tail > 0 && pos_ > 0) {
    std::memmove(buf_.get(), buf_.get() + pos_, tail);
  }
  pos_ = 0;
  end_ = tail;
  while (end_ < kBlockSize) {
    const size_t got = std::fread(buf_.get() + end_, 1, kBlockSize - end_, file_);
    if (got == 0) {
      if (std::ferror(file_)) {
        Fail("read failed");
        return false;
      }
      break;  // end of file
    }
    end_ += got;
  }
  return end_ > pos_;
}

int BufferedReader::GetByteSlow() {
  if (!Refill()) {
    return -1;
  }
  return data_[pos_++];
}

bool BufferedReader::Read(void* out, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(out);
  while (n > 0) {
    if (pos_ == end_ && !Refill()) {
      return false;
    }
    const size_t chunk = n < end_ - pos_ ? n : end_ - pos_;
    std::memcpy(p, data_ + pos_, chunk);
    pos_ += chunk;
    p += chunk;
    n -= chunk;
  }
  return true;
}

Status BufferedReader::SkipTo(uint64_t offset) {
  if (!status_.ok()) {
    return status_;
  }
  if (map_base_ != nullptr) {
    if (offset > map_size_) {
      Fail("seek past end of file");
      return status_;
    }
    pos_ = static_cast<size_t>(offset);
    end_ = map_size_;
    return Status::Ok();
  }
  if (file_ == nullptr) {
    // Zero-length-file window (or a failed open, already non-ok above).
    if (offset > 0) {
      Fail("seek past end of file");
    }
    return status_;
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    Fail("seek failed");
    return status_;
  }
  pos_ = 0;
  end_ = 0;
  return Status::Ok();
}

const uint8_t* BufferedReader::ContiguousSlow([[maybe_unused]] size_t n, size_t* available) {
  assert(n <= kBlockSize);
  Refill();
  *available = end_ - pos_;
  return data_ + pos_;
}

}  // namespace bsdtrace

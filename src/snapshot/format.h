#pragma once

// On-disk snapshot format primitives (DESIGN.md §15): the byte-level
// writer/reader, the FNV-1a section checksum, the versioned header and
// section-table layout, and the read-only mmap wrapper snapshot loading is
// built on. The higher-level state serialization lives in snapshot.h.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "util/status.h"

namespace aggchecker {
namespace snapshot {

/// Eight-byte magic at offset 0. The trailing '1' is cosmetic; real format
/// evolution bumps kFormatVersion (readers reject newer versions and the
/// caller falls back to a full rebuild).
inline constexpr char kMagic[8] = {'A', 'G', 'G', 'S', 'N', 'A', 'P', '1'};

/// Bump on any incompatible layout change. Readers accept exactly this
/// version: snapshots are a cache of rebuildable state, so forward/backward
/// migration is never worth the risk of a subtly misread byte.
/// History: 2 added the per-table data version to the kDatabase section so
/// a loaded database resumes its ingestion version counters (DESIGN.md §16)
/// instead of resetting them — a reset would silently revalidate cache
/// entries stamped against the pre-snapshot versions. 3 appended a
/// per-column statistics blob (DESIGN.md §17) after each column's
/// dictionary; v2 files are rejected and rebuilt cleanly, never misparsed.
/// 4 dropped that blob again: the reader could validate only its counts,
/// yet verdicts depended on its numeric bounds, so a bad record changed
/// verdicts without an error. Loaded columns derive their counts from the
/// persisted dictionary; v3 files are rejected and rebuilt cleanly.
inline constexpr uint32_t kFormatVersion = 4;

/// Section kinds. A file carries each at most once; kDatabase is mandatory.
enum class SectionKind : uint32_t {
  kDatabase = 1,
  kCatalog = 2,
  kInterner = 3,
};

/// Fixed-size header: magic, version, section count, and a checksum over
/// the section table itself (each section's payload carries its own).
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint64_t table_checksum;
};
static_assert(sizeof(FileHeader) == 24, "header layout is on-disk ABI");

/// One section-table entry. Offsets are absolute file offsets, 8-aligned.
struct SectionEntry {
  uint32_t kind;
  uint32_t reserved;  ///< zero; keeps the entry 8-aligned and future-proof
  uint64_t offset;
  uint64_t size;
  uint64_t checksum;  ///< Fnv1a64 over the payload bytes
};
static_assert(sizeof(SectionEntry) == 32, "section entry is on-disk ABI");

/// FNV-1a 64-bit over a byte range — the same cheap, dependency-free hash
/// the interner uses for id lists. Not cryptographic; it guards against
/// truncation and bit rot, not adversaries.
inline uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief Append-only little-endian byte buffer backing the writer.
///
/// All integers are written via memcpy in host byte order; the snapshot is
/// a same-machine cache (worker processes mapping one image), not a wire
/// format, so no byte swapping is done anywhere.
class ByteWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I32(int32_t v) { Raw(&v, 4); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  /// Pads with zero bytes until the buffer size is 8-aligned. Typed arrays
  /// are always preceded by Align8 so the mmap'd reader can hand out
  /// correctly aligned `int64_t*`/`double*` without copying.
  void Align8() {
    while (buf_.size() % 8 != 0) buf_.push_back('\0');
  }

  size_t size() const { return buf_.size(); }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// \brief Bounds-checked cursor over a byte range (one mapped section).
///
/// Reads never throw and never run past the end: the first out-of-bounds
/// read latches the failure flag and every subsequent read returns zeroes /
/// null pointers. Callers do one `ok()` check per decoded object instead of
/// one per field.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, size_t base_offset = 0)
      : data_(data), size_(size), base_offset_(base_offset) {}

  bool ok() const { return !failed_; }

  uint8_t U8() { return ReadScalar<uint8_t>(); }
  uint32_t U32() { return ReadScalar<uint32_t>(); }
  uint64_t U64() { return ReadScalar<uint64_t>(); }
  int32_t I32() { return ReadScalar<int32_t>(); }
  int64_t I64() { return ReadScalar<int64_t>(); }
  double F64() { return ReadScalar<double>(); }

  std::string Str() {
    uint32_t len = U32();
    const uint8_t* p = Bytes(len);
    return p == nullptr ? std::string() : std::string(
        reinterpret_cast<const char*>(p), len);
  }

  /// Skips padding so the cursor's absolute file offset is 8-aligned
  /// (mirrors ByteWriter::Align8; `base_offset_` is the section's absolute
  /// offset, itself 8-aligned, so relative alignment equals absolute).
  void Align8() {
    while ((base_offset_ + pos_) % 8 != 0) (void)U8();
  }

  /// A zero-copy view of `count` elements of T straight out of the mapped
  /// image. Requires a preceding Align8 on both sides. Null on overrun.
  template <typename T>
  const T* Array(size_t count) {
    const uint8_t* p = Bytes(count * sizeof(T));
    return reinterpret_cast<const T*>(p);
  }

  /// Raw byte view; null (and failed) on overrun.
  const uint8_t* Bytes(size_t count) {
    if (failed_ || count > size_ - pos_) {
      failed_ = true;
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += count;
    return p;
  }

  size_t remaining() const { return failed_ ? 0 : size_ - pos_; }

 private:
  template <typename T>
  T ReadScalar() {
    const uint8_t* p = Bytes(sizeof(T));
    if (p == nullptr) return T{};
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t base_offset_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// \brief A read-only memory-mapped file.
///
/// The mapping is PROT_READ/MAP_SHARED, so N worker processes loading the
/// same snapshot share one page-cache-resident copy of the column arrays —
/// the whole point of the snapshot path. Falls back to a heap read when
/// mmap is unavailable (empty file, exotic filesystem). Loaded columns keep
/// a shared_ptr to this object alive for as long as they alias its bytes.
class MappedFile {
 public:
  /// Opens and maps `path`. The `snapshot.load.map` fault point fires here,
  /// modeling a failed mmap / short read: chaos runs verify that a load
  /// failure degrades to a full rebuild instead of crashing.
  static Result<std::shared_ptr<MappedFile>> Map(const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile() = default;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mmapped_ = false;      ///< true: munmap on destroy; false: heap copy
  std::string heap_buffer_;   ///< fallback storage when not mmapped
};

}  // namespace snapshot
}  // namespace aggchecker

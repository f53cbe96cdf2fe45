#include "pmem/pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

#include "pmem/fault_injector.h"
#include "pmem/psan.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/fault.h"

// Persist-order sanitizer marking for the pool's own durable stores
// (allocator metadata, redo segments, header fields). Compiled away
// entirely without POSEIDON_PSAN.
#ifdef POSEIDON_PSAN
#define POOL_PSAN_MARK(psan, addr, len)                               \
  do {                                                                \
    ::poseidon::pmem::PersistSanitizer* psan__ = (psan);              \
    if (psan__ != nullptr)                                            \
      psan__->OnStore((addr), (len), POSEIDON_PSAN_SITE);             \
  } while (0)
#define POOL_PSAN_PUBLISH(psan, slot, slot_len, target, target_len)   \
  do {                                                                \
    ::poseidon::pmem::PersistSanitizer* psan__ = (psan);              \
    if (psan__ != nullptr)                                            \
      psan__->OnPublish((slot), (slot_len), (target), (target_len),   \
                        POSEIDON_PSAN_SITE);                          \
  } while (0)
#else
#define POOL_PSAN_MARK(psan, addr, len) ((void)0)
#define POOL_PSAN_PUBLISH(psan, slot, slot_len, target, target_len) ((void)0)
#endif

namespace poseidon::pmem {

namespace {

constexpr uint64_t kMagic = 0x504f534549444f4eull;  // "POSEIDON"
constexpr uint64_t kVersion = 4;  // v4: per-line CRC32C sidecar region
constexpr uint64_t kHeaderReserved = 4096;
constexpr uint64_t kDefaultRedoSize = 8ull << 20;
constexpr uint64_t kMaxSizeClassBytes = 64ull << 10;
constexpr uint32_t kMaxRedoSegments = 64;
constexpr uint64_t kSegmentHeaderBytes = kRedoSegmentHeaderBytes;

uint64_t AlignUp(uint64_t x, uint64_t align) {
  return (x + align - 1) & ~(align - 1);
}

/// Sidecar region size for a pool of `capacity` bytes: one 4-byte CRC32C
/// slot per 64 B line of the whole pool, block-aligned. Slots below the
/// data area are simply never used — indexing by absolute line number keeps
/// the hot-path slot lookup a single shift+add.
uint64_t SidecarBytes(uint64_t capacity) {
  return AlignUp(capacity / kCacheLineSize * 4, kPmemBlockSize);
}

using poseidon::util::EnvInt;

/// Checksum of a redo segment: the commit_ts + num_entries words plus the
/// entry bytes [kSegmentHeaderBytes, end_pos). The state word and the crc
/// slot itself are excluded (state flips idle<->committed after the crc is
/// written).
uint64_t SegmentCrc(const char* seg, uint64_t end_pos) {
  uint32_t crc = util::Crc32c(seg + 8, 16);
  if (end_pos > kSegmentHeaderBytes) {
    crc = util::Crc32c(seg + kSegmentHeaderBytes, end_pos - kSegmentHeaderBytes,
                       crc);
  }
  return crc;
}

}  // namespace

void AtomicStoreCopy(void* dst, const void* src, uint64_t len) {
  auto d = reinterpret_cast<uintptr_t>(dst);
  auto s = reinterpret_cast<uintptr_t>(src);
  if (((d | s | len) & 7) != 0) {
    std::memcpy(dst, src, len);
    return;
  }
  auto* dw = reinterpret_cast<uint64_t*>(dst);
  auto* sw = reinterpret_cast<const uint64_t*>(src);
  for (uint64_t i = 0; i < len / 8; ++i) {
    uint64_t v;
    std::memcpy(&v, &sw[i], sizeof(v));
    std::atomic_ref<uint64_t>(dw[i]).store(v, std::memory_order_release);
  }
}

void AtomicLoadCopy(void* dst, const void* src, uint64_t len) {
  auto d = reinterpret_cast<uintptr_t>(dst);
  auto s = reinterpret_cast<uintptr_t>(src);
  if (((d | s | len) & 7) != 0) {
    std::memcpy(dst, src, len);
    return;
  }
  auto* dw = reinterpret_cast<uint64_t*>(dst);
  auto* sw = reinterpret_cast<const uint64_t*>(src);
  for (uint64_t i = 0; i < len / 8; ++i) {
    uint64_t v =
        std::atomic_ref<const uint64_t>(sw[i]).load(std::memory_order_acquire);
    std::memcpy(&dw[i], &v, sizeof(v));
  }
}

struct Pool::Header {
  uint64_t magic;
  uint64_t version;
  uint64_t capacity;
  uint64_t pool_id;
  uint64_t clean_shutdown;
  uint64_t root;
  uint64_t bump;  // next never-allocated byte
  uint64_t redo_area;
  uint64_t redo_size;
  uint64_t redo_segments;
  uint64_t sidecar_area;  // v4: per-line CRC32C region (redo end .. data)
  uint64_t sidecar_size;
  uint64_t free_lists[kNumSizeClasses];
  /// CRC32C of the immutable configuration fields (magic, version,
  /// capacity, pool_id, redo_area, redo_size, redo_segments, sidecar_area,
  /// sidecar_size). Written once at InitHeader; Open refuses a header whose
  /// configuration no longer hashes — a bit flip in, say, redo_segments
  /// would otherwise silently change the segment geometry recovery walks.
  /// Mutable fields (root, bump, free lists, clean_shutdown) are protected
  /// by the redo protocol instead.
  uint64_t config_crc;
  /// 1 while a session maintains the CRC sidecar (unseal-on-flush +
  /// reseal-at-boundary). A session running with checksums off mutates
  /// sealed lines without unsealing them, so a later checksum-enabled
  /// reopen must treat every seal as stale and reseed the sidecar.
  uint64_t checksums_live;
};

namespace {
/// Folds the immutable header fields: magic..pool_id (bytes [0,32)) and
/// redo_area..sidecar_size (bytes [56,96)).
uint64_t HeaderConfigCrc(const void* header_base) {
  const char* h = static_cast<const char*>(header_base);
  uint32_t crc = util::Crc32c(h, 32);
  crc = util::Crc32c(h + 56, 40, crc);
  return crc;
}
}  // namespace

// --- Lifecycle --------------------------------------------------------------

void Pool::Configure(const PoolOptions& options) {
  if (options.has_latency_override) {
    latency_ = options.latency_override;
  } else {
    latency_ = mode_ == PoolMode::kPmem ? LatencyModel::EmulatedPmem()
                                        : LatencyModel::Dram();
  }
  uint64_t soft = util::EnvU64("POSEIDON_POOL_SOFT_WATERMARK_PCT", 0);
  soft_watermark_pct_.store(static_cast<uint32_t>(soft > 100 ? 100 : soft),
                            std::memory_order_relaxed);
}

Result<std::unique_ptr<Pool>> Pool::Create(const std::string& path,
                                           const PoolOptions& opts_in) {
  PoolOptions options = opts_in;
  // Scrubbing implies the crash shadow: the sidecar CRCs cover the
  // *durable* image, and without a shadow the live mapping is that image —
  // volatile in-record fields (MVTO lock words, rts bumps) would then
  // drift under sealed lines and read as media corruption.
  if (EnvInt("POSEIDON_SCRUB", 0) != 0 ||
      EnvInt("POSEIDON_CHECKSUMS", 0) != 0) {
    options.crash_shadow = true;
  }
  if (options.capacity < kHeaderReserved + kDefaultRedoSize +
                             SidecarBytes(options.capacity) + (1 << 20)) {
    return Status::InvalidArgument("pool capacity too small");
  }
  auto pool = std::unique_ptr<Pool>(new Pool());
  pool->mode_ = options.mode;
  pool->capacity_ = options.capacity;
  POSEIDON_RETURN_IF_ERROR(pool->MapRegion(path, /*create=*/true));
  pool->Configure(options);
#ifdef POSEIDON_PSAN
  if (EnvInt("POSEIDON_PSAN", 1) != 0) {
    pool->psan_ =
        std::make_unique<PersistSanitizer>(pool->base_, pool->capacity_);
  }
#endif
  pool->InitHeader(options);
  if (options.crash_shadow) {
    pool->shadow_ = std::make_unique<char[]>(pool->capacity_);
    std::memcpy(pool->shadow_.get(), pool->base_, pool->capacity_);
    pool->fault_injector_ = std::make_unique<FaultInjector>();
    uint64_t crash_point = util::EnvU64("POSEIDON_CRASH_POINT", 0);
    if (crash_point != 0) pool->fault_injector_->ArmCrashPoint(crash_point);
    pool->fault_injector_->ArmMediaFaultsFromEnv();
  }
  pool->ConfigureChecksums(options);
  pool->header()->checksums_live = pool->checksums_ ? 1 : 0;
  POOL_PSAN_MARK(pool->psan_.get(), &pool->header()->checksums_live,
                 sizeof(uint64_t));
  pool->Persist(&pool->header()->checksums_live, sizeof(uint64_t));
  pool->redo_log_ = std::make_unique<RedoLog>(
      pool.get(), pool->header()->redo_area, pool->header()->redo_size,
      static_cast<uint32_t>(pool->header()->redo_segments));
  return pool;
}

Result<std::unique_ptr<Pool>> Pool::Open(const std::string& path,
                                         const PoolOptions& opts_in) {
  PoolOptions options = opts_in;
  // Same promotion as Create: checksums are only sound over a shadowed
  // durable image, so the scrubbing knobs imply the crash shadow.
  if (EnvInt("POSEIDON_SCRUB", 0) != 0 ||
      EnvInt("POSEIDON_CHECKSUMS", 0) != 0) {
    options.crash_shadow = true;
  }
  if (options.mode != PoolMode::kPmem) {
    return Status::InvalidArgument("only pmem pools can be reopened");
  }
  auto pool = std::unique_ptr<Pool>(new Pool());
  pool->mode_ = PoolMode::kPmem;
  POSEIDON_RETURN_IF_ERROR(pool->MapRegion(path, /*create=*/false));
  POSEIDON_RETURN_IF_ERROR(pool->ValidateHeader());
  pool->capacity_ = pool->header()->capacity;
  pool->recovered_from_crash_ = pool->header()->clean_shutdown == 0;
  pool->Configure(options);
#ifdef POSEIDON_PSAN
  if (EnvInt("POSEIDON_PSAN", 1) != 0) {
    pool->psan_ =
        std::make_unique<PersistSanitizer>(pool->base_, pool->capacity_);
  }
#endif
  if (options.crash_shadow) {
    pool->shadow_ = std::make_unique<char[]>(pool->capacity_);
    std::memcpy(pool->shadow_.get(), pool->base_, pool->capacity_);
    pool->fault_injector_ = std::make_unique<FaultInjector>();
    uint64_t crash_point = util::EnvU64("POSEIDON_CRASH_POINT", 0);
    if (crash_point != 0) pool->fault_injector_->ArmCrashPoint(crash_point);
    pool->fault_injector_->ArmMediaFaultsFromEnv();
  }
  pool->ConfigureChecksums(options);
  // The header's segment count is authoritative: it fixed the segment
  // geometry at creation, and trusting a different env/options value here
  // would make recovery walk segment boundaries that don't match the
  // on-media log. Diagnose the mismatch, then ignore the request.
  uint32_t segments = static_cast<uint32_t>(std::clamp<uint64_t>(
      pool->header()->redo_segments, 1, kMaxRedoSegments));
  uint32_t requested =
      options.redo_segments != 0
          ? options.redo_segments
          : static_cast<uint32_t>(std::clamp(
                EnvInt("POSEIDON_REDO_SEGMENTS", static_cast<int>(segments)),
                1, static_cast<int>(kMaxRedoSegments)));
  if (requested != segments) {
    std::string warning =
        "redo segment-count mismatch: pool header says " +
        std::to_string(segments) + ", reopen requested " +
        std::to_string(requested) + "; header value wins";
    if (EnvInt("POSEIDON_VERBOSE", 0) != 0) {
      std::fprintf(stderr, "poseidon: %s\n", warning.c_str());
    }
    pool->recovery_report_.warnings.push_back(std::move(warning));
  }
  pool->redo_log_ = std::make_unique<RedoLog>(
      pool.get(), pool->header()->redo_area, pool->header()->redo_size,
      segments);
  size_t pre_recovery_warnings = pool->recovery_report_.warnings.size();
  pool->redo_log_->Recover(&pool->recovery_report_);
  // Replayed entries unsealed their lines; recovery end is a commit
  // boundary, so their checksums are valid again now.
  pool->SealPending();
  // A previous session that ran with checksums off mutated sealed lines
  // without unsealing them, so every seal on media is suspect: rebuild
  // the whole sidecar from the recovered image before trusting it.
  if (pool->checksums_ && pool->header()->checksums_live == 0) {
    pool->ReseedSidecar();
  }
  if (pool->header()->checksums_live != (pool->checksums_ ? 1u : 0u)) {
    pool->header()->checksums_live = pool->checksums_ ? 1 : 0;
    POOL_PSAN_MARK(pool->psan_.get(), &pool->header()->checksums_live,
                   sizeof(uint64_t));
    pool->Persist(&pool->header()->checksums_live, sizeof(uint64_t));
  }
  // Degraded-recovery diagnostics live in recovery_report(); stderr echo is
  // opt-in so test and benchmark runs stay quiet by default.
  if (EnvInt("POSEIDON_VERBOSE", 0) != 0) {
    for (size_t i = pre_recovery_warnings;
         i < pool->recovery_report_.warnings.size(); ++i) {
      std::fprintf(stderr, "poseidon: %s\n",
                   pool->recovery_report_.warnings[i].c_str());
    }
  }
  pool->header()->clean_shutdown = 0;
  POOL_PSAN_MARK(pool->psan_.get(), &pool->header()->clean_shutdown,
                 sizeof(uint64_t));
  pool->Persist(&pool->header()->clean_shutdown, sizeof(uint64_t));
  return pool;
}

Result<std::unique_ptr<Pool>> Pool::CreateVolatile(uint64_t capacity) {
  PoolOptions options;
  options.mode = PoolMode::kDram;
  options.capacity = capacity;
  return Create("", options);
}

Pool::~Pool() {
  if (base_ == nullptr) return;
  if (checksums_) SealPending();
  if (mode_ == PoolMode::kPmem && fd_ >= 0) {
    header()->clean_shutdown = 1;
    POOL_PSAN_MARK(psan_.get(), &header()->clean_shutdown, sizeof(uint64_t));
    Persist(&header()->clean_shutdown, sizeof(uint64_t));
    ::msync(base_, capacity_, MS_SYNC);
  }
#ifdef POSEIDON_PSAN
  // Pool-close boundary: anything still dirty now would never reach media.
  if (psan_ != nullptr) psan_->OnClose();
#endif
  ::munmap(base_, capacity_);
  if (fd_ >= 0) ::close(fd_);
}

Status Pool::MapRegion(const std::string& path, bool create) {
  void* mem = nullptr;
  if (mode_ == PoolMode::kDram) {
    mem = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      return Status::IoError("mmap(anonymous) failed: " +
                             std::string(strerror(errno)));
    }
    base_ = static_cast<char*>(mem);
    return Status::Ok();
  }
  int flags = O_RDWR;
  if (create) flags |= O_CREAT | O_EXCL;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::IoError("open(" + path +
                           ") failed: " + std::string(strerror(errno)));
  }
  if (create) {
    if (::ftruncate(fd_, static_cast<off_t>(capacity_)) != 0) {
      return Status::IoError("ftruncate failed: " +
                             std::string(strerror(errno)));
    }
  } else {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IoError("fstat failed: " + std::string(strerror(errno)));
    }
    capacity_ = static_cast<uint64_t>(st.st_size);
    if (capacity_ == 0) {
      return Status::Corruption("pool file " + path +
                                " is empty (zero length)");
    }
    if (capacity_ < kHeaderReserved) {
      return Status::Corruption(
          "pool file " + path + " is truncated: " + std::to_string(capacity_) +
          " bytes, smaller than the " + std::to_string(kHeaderReserved) +
          "-byte header page");
    }
  }
  mem = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (mem == MAP_FAILED) {
    return Status::IoError("mmap(file) failed: " +
                           std::string(strerror(errno)));
  }
  base_ = static_cast<char*>(mem);
  return Status::Ok();
}

void Pool::InitHeader(const PoolOptions& options) {
  static_assert(sizeof(Header) <= kHeaderReserved,
                "header must fit reserved page");
  static_assert(offsetof(Header, pool_id) == 24 &&
                    offsetof(Header, redo_area) == 56 &&
                    offsetof(Header, sidecar_area) == 80 &&
                    offsetof(Header, free_lists) == 96,
                "HeaderConfigCrc hashes bytes [0,32) and [56,96)");
  uint32_t segments = options.redo_segments != 0
                          ? options.redo_segments
                          : static_cast<uint32_t>(std::clamp(
                                EnvInt("POSEIDON_REDO_SEGMENTS", 8), 1,
                                static_cast<int>(kMaxRedoSegments)));
  segments = std::clamp<uint32_t>(segments, 1, kMaxRedoSegments);

  auto* h = header();
  std::memset(h, 0, sizeof(Header));
  h->magic = kMagic;
  h->version = kVersion;
  h->capacity = options.capacity;
  std::random_device rd;
  h->pool_id = (static_cast<uint64_t>(rd()) << 32) | rd();
  h->clean_shutdown = 0;
  h->root = kNullOffset;
  h->redo_area = kHeaderReserved;
  h->redo_size = kDefaultRedoSize;
  h->redo_segments = segments;
  h->sidecar_area = kHeaderReserved + kDefaultRedoSize;
  h->sidecar_size = SidecarBytes(options.capacity);
  h->config_crc = HeaderConfigCrc(h);
  h->bump = AlignUp(h->sidecar_area + h->sidecar_size, kPmemBlockSize);
  // Ensure every redo segment starts idle.
  uint64_t seg_size = (h->redo_size / segments) & ~(kCacheLineSize - 1);
  for (uint32_t i = 0; i < segments; ++i) {
    char* seg = base_ + h->redo_area + static_cast<uint64_t>(i) * seg_size;
    std::memset(seg, 0, kSegmentHeaderBytes);
    POOL_PSAN_MARK(psan_.get(), seg, kSegmentHeaderBytes);
    Persist(seg, kSegmentHeaderBytes);
  }
  POOL_PSAN_MARK(psan_.get(), h, sizeof(Header));
  Persist(h, sizeof(Header));
}

Status Pool::ValidateHeader() const {
  // capacity_ still holds the mapped file size here; Open() adopts the
  // header capacity only after validation passes.
  const auto* h = header();
  if (h->magic != kMagic) {
    return Status::Corruption("bad pool magic (not a poseidon pool file?)");
  }
  if (h->version != kVersion) {
    return Status::Corruption("unsupported pool version " +
                              std::to_string(h->version) + " (engine speaks " +
                              std::to_string(kVersion) + ")");
  }
  if (h->capacity != capacity_) {
    return Status::Corruption(
        "pool header capacity " + std::to_string(h->capacity) +
        " does not match file size " + std::to_string(capacity_) +
        " (truncated or resized pool file)");
  }
  if (h->config_crc != HeaderConfigCrc(h)) {
    return Status::Corruption(
        "pool header configuration checksum mismatch (bit flip or torn "
        "header write)");
  }
  if (h->redo_area < sizeof(Header) || h->redo_size == 0 ||
      h->redo_area + h->redo_size > h->capacity ||
      h->redo_area + h->redo_size < h->redo_area) {
    return Status::Corruption("pool header redo-log area out of bounds");
  }
  if (h->redo_segments < 1 || h->redo_segments > kMaxRedoSegments) {
    return Status::Corruption("pool header redo segment count " +
                              std::to_string(h->redo_segments) +
                              " outside [1, " +
                              std::to_string(kMaxRedoSegments) + "]");
  }
  if (h->sidecar_area < h->redo_area + h->redo_size ||
      h->sidecar_area + h->sidecar_size > h->capacity ||
      h->sidecar_area + h->sidecar_size < h->sidecar_area) {
    return Status::Corruption("pool header checksum sidecar out of bounds");
  }
  if (h->bump > h->capacity || h->root >= h->capacity) {
    return Status::Corruption("pool header allocator state out of bounds");
  }
  return Status::Ok();
}

// --- Allocator --------------------------------------------------------------

int Pool::SizeClassFor(uint64_t size) {
  uint64_t c = kCacheLineSize;
  for (int i = 0; i < kNumSizeClasses; ++i, c <<= 1) {
    if (size <= c) return i;
  }
  return -1;  // large allocation
}

uint64_t Pool::SizeClassBytes(int size_class) {
  return kCacheLineSize << size_class;
}

Result<Offset> Pool::Allocate(uint64_t size, uint64_t align) {
  if (size == 0) return Status::InvalidArgument("zero-size allocation");
  if (align < 8 || (align & (align - 1)) != 0) {
    return Status::InvalidArgument("alignment must be a power of two >= 8");
  }
  // Named fault site: the space-exhaustion sweep arms POSEIDON_FAULT_PMEM_ALLOC
  // to fail the Nth allocation, exercising the transactional unwind path at
  // every allocation call site without needing a genuinely full pool.
  if (util::FaultRegistry::Instance().ShouldFail("pmem.alloc")) {
    stats_.alloc_failures.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "pool exhausted (injected pmem.alloc fault): requested " +
        std::to_string(size) + " bytes align " + std::to_string(align));
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  auto* h = header();
  stats_.alloc_calls.fetch_add(1, std::memory_order_relaxed);

  int size_class = SizeClassFor(size);
  if (size_class >= 0 && align <= kCacheLineSize) {
    // Pop from the size-class free list when possible (DG5: reuse blocks).
    Offset head = h->free_lists[size_class];
    if (head != kNullOffset) {
      Offset next;
      std::memcpy(&next, base_ + head, sizeof(next));
      h->free_lists[size_class] = next;
      POOL_PSAN_MARK(psan_.get(), &h->free_lists[size_class], sizeof(Offset));
      Flush(&h->free_lists[size_class], sizeof(Offset));
      stats_.alloc_from_free_list.fetch_add(1, std::memory_order_relaxed);
      return head;
    }
    size = SizeClassBytes(size_class);
    align = kCacheLineSize;
  }

  Offset off = AlignUp(h->bump, align);
  if (off + size > capacity_) {
    stats_.alloc_failures.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "pool exhausted: requested " + std::to_string(size) +
        " bytes align " + std::to_string(align) + ", " +
        std::to_string(capacity_ - h->bump) + " of " +
        std::to_string(capacity_) + " bytes free");
  }
  h->bump = off + size;
  POOL_PSAN_MARK(psan_.get(), &h->bump, sizeof(uint64_t));
  Flush(&h->bump, sizeof(uint64_t));
  return off;
}

Result<Offset> Pool::AllocateZeroed(uint64_t size, uint64_t align) {
  POSEIDON_ASSIGN_OR_RETURN(Offset off, Allocate(size, align));
  std::memset(base_ + off, 0, size);
  POOL_PSAN_MARK(psan_.get(), base_ + off, size);
  Flush(base_ + off, size);
  return off;
}

void Pool::Free(Offset off, uint64_t size) {
  assert(off != kNullOffset && off < capacity_);
  std::lock_guard<std::mutex> lock(alloc_mu_);
  stats_.free_calls.fetch_add(1, std::memory_order_relaxed);
  int size_class = SizeClassFor(size);
  if (size_class < 0) {
    // Large blocks are not tracked; higher layers arena-manage them.
    return;
  }
  auto* h = header();
  Offset old_head = h->free_lists[size_class];
  std::memcpy(base_ + off, &old_head, sizeof(Offset));
  POOL_PSAN_MARK(psan_.get(), base_ + off, sizeof(Offset));
  Flush(base_ + off, sizeof(Offset));
  h->free_lists[size_class] = off;
  // Publishing the block as the new head: its next-link must be durable
  // first or a crash replays a free list pointing at garbage.
  POOL_PSAN_PUBLISH(psan_.get(), &h->free_lists[size_class], sizeof(Offset),
                    off, sizeof(Offset));
  Flush(&h->free_lists[size_class], sizeof(Offset));
}

// --- Persistence primitives ---------------------------------------------

void Pool::CopyToShadow(uint64_t begin, uint64_t end) {
  if (shadow_frozen_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(shadow_mu_);
  auto base_addr = reinterpret_cast<uint64_t>(base_);
  AtomicLoadCopy(shadow_.get() + (begin - base_addr),
                 reinterpret_cast<const void*>(begin), end - begin);
}

void Pool::FlushAccounted(const void* addr, uint64_t len,
                          uint64_t unique_lines) {
  if (len == 0) return;
  // Seals and data flushes over the checksummed area are mutually
  // exclusive: seal_mu_ is held from the unseal below through the shadow
  // copy at the bottom, and SealLine computes+publishes its CRC under the
  // same mutex. Any interleaving of a commit-boundary seal with an
  // in-flight write to the same line would otherwise be able to publish a
  // checksum computed before this call's data lands — invisible
  // in-process (the line stays pending and reseals on touch), but a crash
  // wipes the pending set and recovery would then quarantine a perfectly
  // good committed line. The recursive FlushAccounted for the sidecar
  // slots stays below data_begin_ and skips this lock.
  std::unique_lock<std::mutex> seal_lock;
  if (checksums_) {
    auto a = reinterpret_cast<uint64_t>(addr);
    auto base_addr = reinterpret_cast<uint64_t>(base_);
    uint64_t begin = (a / kCacheLineSize) * kCacheLineSize;
    uint64_t end = ((a + len - 1) / kCacheLineSize + 1) * kCacheLineSize;
    if (begin < base_addr) begin = base_addr;
    if (end > base_addr + capacity_) end = base_addr + capacity_;
    if (begin < end && end - base_addr > data_begin_) {
      seal_lock = std::unique_lock<std::mutex>(seal_mu_);
      // Unseal covered lines BEFORE their data reaches the durable image:
      // a crash between the sidecar flush and the data flush then reads as
      // "unsealed" (unverified), never as a false checksum mismatch.
      UnsealForFlush(begin - base_addr, end - base_addr);
    }
  }
  // Crash-point scheduling: every flush is a numbered injection point, and
  // an armed point freezes the shadow BEFORE this flush copies into it —
  // the simulated power loss hits just as the clwb was about to retire.
  if (fault_injector_ != nullptr) fault_injector_->OnPersistPoint(this);
  stats_.flushed_lines.fetch_add(unique_lines, std::memory_order_relaxed);
  if (mode_ == PoolMode::kPmem && unique_lines > 0) {
    latency_.OnFlush(unique_lines);
  }
  if (shadow_ != nullptr) {
    // Crash simulation: flushed bytes become durable. Whole cache lines are
    // flushed, matching clwb semantics.
    auto a = reinterpret_cast<uint64_t>(addr);
    uint64_t begin = (a / kCacheLineSize) * kCacheLineSize;
    uint64_t end = ((a + len - 1) / kCacheLineSize + 1) * kCacheLineSize;
    auto base_addr = reinterpret_cast<uint64_t>(base_);
    if (begin < base_addr) begin = base_addr;
    if (end > base_addr + capacity_) end = base_addr + capacity_;
    if (begin < end) CopyToShadow(begin, end);
  }
}

void Pool::Flush(const void* addr, uint64_t len) {
  if (len == 0) return;
  auto a = reinterpret_cast<uint64_t>(addr);
  uint64_t first = a / kCacheLineSize;
  uint64_t last = (a + len - 1) / kCacheLineSize;
#ifdef POSEIDON_PSAN
  if (psan_ != nullptr) {
    uint64_t redundant = 0;
    for (uint64_t line = first; line <= last; ++line) {
      if (psan_->OnFlushLine(line, /*deduped=*/false)) ++redundant;
    }
    if (redundant > 0) {
      stats_.psan_redundant_lines.fetch_add(redundant,
                                            std::memory_order_relaxed);
    }
  }
#endif
  FlushAccounted(addr, len, last - first + 1);
}

void Pool::Drain() {
  if (fault_injector_ != nullptr) fault_injector_->OnPersistPoint(this);
  stats_.drains.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == PoolMode::kPmem) latency_.OnDrain();
#ifdef POSEIDON_PSAN
  if (psan_ != nullptr) psan_->OnDrain();
#endif
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

bool FlushBatch::Seen(uint64_t line) {
  // Bounded backward scan: dedup targets the short-range repeats a commit
  // produces (record body + unlock word, marker line across phases); a
  // sliding window keeps huge bulk-load commits O(1) per line.
  size_t begin = lines_.size() > 64 ? lines_.size() - 64 : 0;
  for (size_t i = lines_.size(); i > begin; --i) {
    if (lines_[i - 1] == line) return true;
  }
  lines_.push_back(line);
  return false;
}

void FlushBatch::Flush(const void* addr, uint64_t len) {
  if (len == 0) return;
  auto a = reinterpret_cast<uint64_t>(addr);
  uint64_t first = a / kCacheLineSize;
  uint64_t last = (a + len - 1) / kCacheLineSize;
  uint64_t unique = 0;
#ifdef POSEIDON_PSAN
  uint64_t redundant = 0;
#endif
  for (uint64_t line = first; line <= last; ++line) {
    bool dup = Seen(line);
    if (!dup) ++unique;
#ifdef POSEIDON_PSAN
    // Deduped lines still transition dirty -> flushing (the crash shadow
    // copies the whole range) but are exempt from the redundancy count.
    if (pool_->psan_ != nullptr && pool_->psan_->OnFlushLine(line, dup)) {
      ++redundant;
    }
#endif
  }
#ifdef POSEIDON_PSAN
  if (redundant > 0) {
    pool_->stats_.psan_redundant_lines.fetch_add(redundant,
                                                 std::memory_order_relaxed);
  }
#endif
  pool_->FlushAccounted(addr, len, unique);
  uint64_t total = last - first + 1;
  if (unique < total) {
    pool_->stats_.deduped_lines.fetch_add(total - unique,
                                          std::memory_order_relaxed);
  }
}

// --- Root ------------------------------------------------------------------

Offset Pool::root() const { return header()->root; }

void Pool::set_root(Offset off) {
  header()->root = off;
  // The root makes an object graph reachable: its first line must already
  // be durable (or at least flushed) when this pointer's flush retires.
  POOL_PSAN_PUBLISH(psan_.get(), &header()->root, sizeof(Offset), off,
                    kCacheLineSize);
  Persist(&header()->root, sizeof(Offset));
}

// --- Crash simulation -----------------------------------------------------

void Pool::SimulateCrash() {
  assert(shadow_ != nullptr &&
         "SimulateCrash requires PoolOptions::crash_shadow");
  // Media decay armed via POSEIDON_FAULT_MEDIA lands in the durable image
  // now, so the crash surfaces it exactly like a real power loss would.
  if (fault_injector_ != nullptr) fault_injector_->ApplyPendingMediaFaults(this);
  {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    std::memcpy(base_, shadow_.get(), capacity_);
    recovered_from_crash_ = true;
#ifdef POSEIDON_PSAN
    // The memory image was reverted: pre-crash tracking no longer describes
    // it. Violation counters survive — they were real before the crash.
    if (psan_ != nullptr) psan_->Reset();
#endif
    // The durable image and the live image coincide again: resume recording.
    shadow_frozen_.store(false, std::memory_order_release);
  }
  // Scrub state describes the pre-crash image: drop the pending-seal set
  // (those lines read as unsealed now, which is the truth) and the
  // quarantine (re-detection after the crash is what keeps crash-point
  // sweeps deterministic), and tell the scrubber to restart its pass.
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    pending_seal_.clear();
  }
  ClearQuarantine();
  scrub_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void Pool::FreezeShadow() {
  assert(shadow_ != nullptr && "FreezeShadow requires PoolOptions::crash_shadow");
  // Acquire the shadow lock so no in-flight flush straddles the freeze.
  std::lock_guard<std::mutex> lock(shadow_mu_);
  shadow_frozen_.store(true, std::memory_order_release);
}

// --- Integrity: CRC sidecar, scrubbing, quarantine --------------------------

void Pool::ConfigureChecksums(const PoolOptions& options) {
  const auto* h = header();
  data_begin_ = AlignUp(h->sidecar_area + h->sidecar_size, kPmemBlockSize);
  bool want = options.crash_shadow || EnvInt("POSEIDON_SCRUB", 0) != 0;
  checksums_ = EnvInt("POSEIDON_CHECKSUMS", want ? 1 : 0) != 0;
  if (h->sidecar_size == 0) checksums_ = false;
  // Soundness guard: the sidecar CRCs cover the durable image. Without a
  // crash shadow the live mapping *is* that image, and volatile in-record
  // fields (MVTO lock words, rts bumps) are stored without flushes — they
  // would drift under sealed lines and scrub as false media corruption.
  if (shadow_ == nullptr) checksums_ = false;
}

void Pool::ReseedSidecar() {
  auto* h = header();
  std::memset(base_ + h->sidecar_area, 0, h->sidecar_size);
  if (shadow_ != nullptr) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    std::memset(shadow_.get() + h->sidecar_area, 0, h->sidecar_size);
  }
  uint64_t first = data_begin_ / kCacheLineSize;
  uint64_t last = AlignUp(h->bump, kCacheLineSize) / kCacheLineSize;
  for (uint64_t line = first; line < last; ++line) SealLine(line);
}

uint32_t* Pool::SidecarSlot(uint64_t line) const {
  return reinterpret_cast<uint32_t*>(base_ + header()->sidecar_area +
                                     line * 4);
}

uint32_t Pool::DurableSlotValue(uint64_t line) const {
  uint64_t slot_off = header()->sidecar_area + line * 4;
  if (shadow_ != nullptr) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    uint32_t v;
    std::memcpy(&v, shadow_.get() + slot_off, sizeof(v));
    return v;
  }
  return std::atomic_ref<const uint32_t>(
             *reinterpret_cast<const uint32_t*>(base_ + slot_off))
      .load(std::memory_order_acquire);
}

void Pool::ReadDurableLine(uint64_t line, void* buf64) const {
  uint64_t off = line * kCacheLineSize;
  if (shadow_ != nullptr) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    AtomicLoadCopy(buf64, shadow_.get() + off, kCacheLineSize);
    return;
  }
  AtomicLoadCopy(buf64, base_ + off, kCacheLineSize);
}

uint32_t Pool::ComputeDurableLineCrc(uint64_t line) const {
  alignas(kCacheLineSize) char buf[kCacheLineSize];
  ReadDurableLine(line, buf);
  uint32_t crc = util::Crc32c(buf, kCacheLineSize);
  // 0 is the "unsealed" sentinel; bias real checksums away from it.
  return crc == 0 ? 1u : crc;
}

Pool::LineVerify Pool::VerifyLine(uint64_t line) const {
  if (!checksums_ || line < data_begin_ / kCacheLineSize ||
      line >= capacity_ / kCacheLineSize) {
    return LineVerify::kNotCovered;
  }
  uint32_t stored = DurableSlotValue(line);
  if (stored == 0) return LineVerify::kUnsealed;
  return ComputeDurableLineCrc(line) == stored ? LineVerify::kClean
                                               : LineVerify::kMismatch;
}

void Pool::UnsealForFlush(uint64_t begin, uint64_t end) {
  // begin/end are pool-relative, line-aligned and pool-clamped.
  uint64_t first = std::max(begin / kCacheLineSize,
                            data_begin_ / kCacheLineSize);
  uint64_t last_excl = end / kCacheLineSize;
  if (first >= last_excl) return;
  // Caller (FlushAccounted) holds seal_mu_, making the whole
  // unseal-then-copy sequence atomic against SealLine.
  for (uint64_t line = first; line < last_excl; ++line) {
    pending_seal_.insert(line);
  }
  uint64_t flush_lo = 0, flush_hi = 0;
  for (uint64_t line = first; line < last_excl; ++line) {
    uint32_t* slot = SidecarSlot(line);
    if (std::atomic_ref<uint32_t>(*slot).load(std::memory_order_relaxed) ==
        0) {
      continue;  // already unsealed since the last seal
    }
    std::atomic_ref<uint32_t>(*slot).store(0, std::memory_order_release);
    POOL_PSAN_MARK(psan_.get(), slot, sizeof(uint32_t));
    auto s = reinterpret_cast<uint64_t>(slot);
    if (flush_hi == 0) flush_lo = s;
    flush_hi = s + sizeof(uint32_t);
  }
  // One flush over the touched slot range — consecutive data lines share
  // sidecar lines 16:1, so this is almost always a single line. It must
  // reach the durable image BEFORE the caller's data flush does (the whole
  // point of the unseal-first protocol). The recursive FlushAccounted skips
  // this branch: sidecar slots live below data_begin_.
  if (flush_hi != 0) {
    Flush(reinterpret_cast<void*>(flush_lo), flush_hi - flush_lo);
  }
}

void Pool::SealLine(uint64_t line) {
  if (!checksums_ || line < data_begin_ / kCacheLineSize ||
      line >= capacity_ / kCacheLineSize) {
    return;
  }
  // Mutual exclusion with in-flight data flushes (see FlushAccounted): the
  // CRC is computed and published with no concurrent write able to land in
  // the durable image between the two, so a published seal always matches
  // the durable content at publication time.
  std::lock_guard<std::mutex> lock(seal_mu_);
  uint32_t crc = ComputeDurableLineCrc(line);
  uint32_t* slot = SidecarSlot(line);
  std::atomic_ref<uint32_t>(*slot).store(crc, std::memory_order_release);
  POOL_PSAN_MARK(psan_.get(), slot, sizeof(uint32_t));
  Flush(slot, sizeof(uint32_t));
}

void Pool::SealPending() {
  if (!checksums_) return;
  std::unordered_set<uint64_t> pending;
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    pending.swap(pending_seal_);
  }
  for (uint64_t line : pending) SealLine(line);
}

void Pool::SetCorruptionHandler(CorruptionHandler handler) {
  std::lock_guard<std::recursive_mutex> lock(repair_mu_);
  corruption_handler_ = std::move(handler);
}

Pool::RepairOutcome Pool::HandleCorruptLine(uint64_t line) {
  std::lock_guard<std::recursive_mutex> repair_lock(repair_mu_);
  // A line awaiting its commit-boundary seal can race a concurrent seal
  // into a stale checksum; that is an in-flight line, not corruption —
  // reseal it from the durable image.
  bool was_pending;
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    was_pending = pending_seal_.erase(line) != 0;
  }
  if (was_pending) {
    SealLine(line);
    scrub_stats_.resealed.fetch_add(1, std::memory_order_relaxed);
    return RepairOutcome::kAdopted;
  }
  if (VerifyLine(line) != LineVerify::kMismatch) {
    return RepairOutcome::kAdopted;
  }
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    if (quarantined_set_.count(line) != 0) {
      return RepairOutcome::kUnrepairable;  // already reported
    }
  }
  scrub_stats_.mismatches.fetch_add(1, std::memory_order_relaxed);
  RepairOutcome out = RepairOutcome::kUnrepairable;
  if (corruption_handler_) {
    out = corruption_handler_(line * kCacheLineSize);
  }
  switch (out) {
    case RepairOutcome::kRepaired:
      // The handler rewrote and persisted the content (RepairStore seals on
      // its own; seal again here in case it used staged redo writes).
      {
        std::lock_guard<std::mutex> lock(seal_mu_);
        pending_seal_.erase(line);
      }
      SealLine(line);
      scrub_stats_.repaired.fetch_add(1, std::memory_order_relaxed);
      break;
    case RepairOutcome::kAdopted:
      // Free slot / structure rebuilt elsewhere: current durable bytes are
      // acceptable, bless them.
      {
        std::lock_guard<std::mutex> lock(seal_mu_);
        pending_seal_.erase(line);
      }
      SealLine(line);
      scrub_stats_.adopted.fetch_add(1, std::memory_order_relaxed);
      break;
    case RepairOutcome::kUnrepairable:
      // Content lost. Keep the mismatched checksum (it is the truth) and
      // quarantine: reads touching this line degrade to Status::Corruption,
      // the verify paths skip it from now on.
      QuarantineLine(line);
      scrub_stats_.quarantined.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return out;
}

uint64_t Pool::VerifyAndRepairRange(Offset off, uint64_t len) {
  if (!checksums_ || len == 0) return 0;
  uint64_t first = std::max(off / kCacheLineSize,
                            data_begin_ / kCacheLineSize);
  uint64_t last = (off + len - 1) / kCacheLineSize;
  uint64_t end_line = capacity_ / kCacheLineSize;
  if (last >= end_line) last = end_line - 1;
  uint64_t mismatches = 0;
  for (uint64_t line = first; line <= last; ++line) {
    if (quarantine_count_.load(std::memory_order_relaxed) != 0) {
      std::lock_guard<std::mutex> lock(quarantine_mu_);
      if (quarantined_set_.count(line) != 0) continue;
    }
    LineVerify v = VerifyLine(line);
    if (v == LineVerify::kClean) {
      scrub_stats_.lines_verified.fetch_add(1, std::memory_order_relaxed);
    } else if (v == LineVerify::kMismatch) {
      ++mismatches;
      HandleCorruptLine(line);
    }
  }
  return mismatches;
}

void Pool::RepairStore(Offset dst, const void* src, uint64_t len) {
  assert(dst + len <= capacity_);
  char* p = base_ + dst;
  AtomicStoreCopy(p, src, len);
  POOL_PSAN_MARK(psan_.get(), p, len);
  Persist(p, len);
  if (!checksums_) return;
  uint64_t first = dst / kCacheLineSize;
  uint64_t last = (dst + len - 1) / kCacheLineSize;
  for (uint64_t line = first; line <= last; ++line) {
    if (line < data_begin_ / kCacheLineSize) continue;
    {
      std::lock_guard<std::mutex> lock(seal_mu_);
      pending_seal_.erase(line);
    }
    SealLine(line);
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    if (quarantined_set_.erase(line) != 0) {
      quarantine_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void Pool::QuarantineLine(uint64_t line) {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  if (quarantined_set_.insert(line).second) {
    quarantine_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Pool::IsQuarantinedRangeSlow(const void* addr, uint64_t len) const {
  auto a = reinterpret_cast<uint64_t>(addr);
  auto base_addr = reinterpret_cast<uint64_t>(base_);
  if (a < base_addr || a >= base_addr + capacity_) return false;
  uint64_t off = a - base_addr;
  uint64_t first = off / kCacheLineSize;
  uint64_t last = (off + (len == 0 ? 1 : len) - 1) / kCacheLineSize;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  for (uint64_t line = first; line <= last; ++line) {
    if (quarantined_set_.count(line) != 0) return true;
  }
  return false;
}

void Pool::ClearQuarantine() {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_set_.clear();
  quarantine_count_.store(0, std::memory_order_relaxed);
}

void Pool::CorruptDurable(Offset off, const void* bytes, uint64_t len) {
  assert(off + len <= capacity_);
  if (shadow_ != nullptr) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    std::memcpy(shadow_.get() + off, bytes, len);
    return;
  }
  AtomicStoreCopy(base_ + off, bytes, len);
}

void Pool::FlipDurableBit(Offset off, uint32_t bit) {
  assert(off < capacity_);
  char mask = static_cast<char>(1u << (bit & 7));
  if (shadow_ != nullptr) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    shadow_[off] ^= mask;
    return;
  }
  auto* p = reinterpret_cast<uint8_t*>(base_ + off);
  std::atomic_ref<uint8_t> ref(*p);
  ref.store(ref.load(std::memory_order_relaxed) ^ static_cast<uint8_t>(mask),
            std::memory_order_relaxed);
}

void Pool::CollectSealedLines(std::vector<uint64_t>* out) const {
  if (!checksums_) return;
  uint64_t begin_line = data_begin_ / kCacheLineSize;
  uint64_t end_line = header()->bump / kCacheLineSize;
  uint64_t sidecar = header()->sidecar_area;
  if (shadow_ != nullptr) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    for (uint64_t line = begin_line; line < end_line; ++line) {
      uint32_t v;
      std::memcpy(&v, shadow_.get() + sidecar + line * 4, sizeof(v));
      if (v != 0) out->push_back(line);
    }
    return;
  }
  for (uint64_t line = begin_line; line < end_line; ++line) {
    if (std::atomic_ref<const uint32_t>(
            *reinterpret_cast<const uint32_t*>(base_ + sidecar + line * 4))
            .load(std::memory_order_relaxed) != 0) {
      out->push_back(line);
    }
  }
}

// --- Introspection ----------------------------------------------------------

uint64_t Pool::bytes_used() const { return header()->bump; }
uint64_t Pool::pool_id() const { return header()->pool_id; }

void Pool::ResetStats() {
  stats_.alloc_calls.store(0, std::memory_order_relaxed);
  stats_.alloc_from_free_list.store(0, std::memory_order_relaxed);
  stats_.free_calls.store(0, std::memory_order_relaxed);
  stats_.flushed_lines.store(0, std::memory_order_relaxed);
  stats_.deduped_lines.store(0, std::memory_order_relaxed);
  stats_.drains.store(0, std::memory_order_relaxed);
  stats_.psan_redundant_lines.store(0, std::memory_order_relaxed);
}

// --- RedoLog ---------------------------------------------------------------

RedoLog::RedoLog(Pool* pool, Offset area, uint64_t area_size,
                 uint32_t num_segments)
    : pool_(pool),
      area_(area),
      area_size_(area_size),
      num_segments_(num_segments == 0 ? 1 : num_segments),
      segment_size_((area_size / (num_segments == 0 ? 1 : num_segments)) &
                    ~(kCacheLineSize - 1)) {}

uint32_t RedoLog::AcquireSegment(uint32_t hint) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    for (uint32_t i = 0; i < num_segments_; ++i) {
      uint32_t idx = (hint + i) % num_segments_;
      if ((busy_ & (1ull << idx)) == 0) {
        busy_ |= 1ull << idx;
        return idx;
      }
    }
    cv_.wait(lock);
  }
}

void RedoLog::ReleaseSegment(uint32_t idx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    busy_ &= ~(1ull << idx);
  }
  cv_.notify_one();
}

namespace {
/// Walks a marked segment's entry list without applying anything. Returns
/// Ok and sets *end_pos to one past the last entry byte when every entry
/// lies inside the segment and targets a range inside the pool; returns the
/// reason otherwise. Validation runs BEFORE the checksum so a garbage
/// num_entries cannot send the CRC (or the replay) out of bounds.
Status WalkSegmentEntries(const char* seg, uint64_t segment_size,
                          uint64_t pool_capacity, uint64_t num_entries,
                          uint64_t* end_pos) {
  if (num_entries > (segment_size - kSegmentHeaderBytes) / 16) {
    return Status::Corruption("entry count " + std::to_string(num_entries) +
                              " cannot fit the segment");
  }
  uint64_t pos = kSegmentHeaderBytes;
  for (uint64_t i = 0; i < num_entries; ++i) {
    if (pos + 16 > segment_size) {
      return Status::Corruption("entry " + std::to_string(i) +
                                " header past segment end");
    }
    uint64_t target, len;
    std::memcpy(&target, seg + pos, sizeof(target));
    std::memcpy(&len, seg + pos + 8, sizeof(len));
    pos += 16;
    uint64_t padded = (len + 7) & ~7ull;
    if (padded < len || pos + padded > segment_size || pos + padded < pos) {
      return Status::Corruption("entry " + std::to_string(i) +
                                " data past segment end");
    }
    if (target + len > pool_capacity || target + len < target) {
      return Status::Corruption("entry " + std::to_string(i) +
                                " targets bytes outside the pool");
    }
    pos += padded;
  }
  *end_pos = pos;
  return Status::Ok();
}
}  // namespace

bool RedoLog::Recover(RecoveryReport* report) {
  // Collect the segments whose commit marker is durable, then replay them in
  // commit-timestamp order: conflicting writes are serialized by record
  // locks, so timestamp order equals commit order and the replay reproduces
  // the pre-crash apply sequence.
  //
  // A marked segment is replayed only if it validates: entry bounds first,
  // then the CRC32C over commit_ts + num_entries + entry bytes. Anything
  // else — a torn entry flush, a bit flip, a garbage count — discards
  // exactly that segment with a Corruption diagnostic in the report. The
  // other segments still replay; the open still succeeds.
  RecoveryReport local;
  if (report == nullptr) report = &local;
  struct Pending {
    uint64_t commit_ts;
    uint32_t segment;
    uint64_t end_pos;
  };
  std::vector<Pending> pending;
  std::vector<uint32_t> discard;  // corrupt or garbage: reset to idle
  for (uint32_t i = 0; i < num_segments_; ++i) {
    ++report->segments_scanned;
    char* seg = pool_->base_ + segment_offset(i);
    uint64_t state;
    std::memcpy(&state, seg, sizeof(state));
    if (state == 0) continue;
    if (state != 1) {
      // Arbitrary garbage (e.g. first use): reset to idle.
      ++report->segments_reset_garbage;
      report->warnings.push_back("redo segment " + std::to_string(i) +
                                 ": garbage state word, reset to idle");
      discard.push_back(i);
      continue;
    }
    uint64_t ts, num_entries, stored_crc;
    std::memcpy(&ts, seg + 8, sizeof(ts));
    std::memcpy(&num_entries, seg + 16, sizeof(num_entries));
    std::memcpy(&stored_crc, seg + 24, sizeof(stored_crc));
    uint64_t end_pos = 0;
    Status valid = WalkSegmentEntries(seg, segment_size_, pool_->capacity_,
                                      num_entries, &end_pos);
    if (valid.ok() && SegmentCrc(seg, end_pos) != stored_crc) {
      valid = Status::Corruption("checksum mismatch (torn or corrupt entry "
                                 "bytes under a durable commit marker)");
    }
    if (!valid.ok()) {
      ++report->segments_discarded_corrupt;
      std::string warning = "redo segment " + std::to_string(i) +
                            " discarded, not replayed: " +
                            std::string(valid.message());
      if (report->status.ok()) report->status = Status::Corruption(warning);
      report->warnings.push_back(std::move(warning));
      discard.push_back(i);
      continue;
    }
    pending.push_back(Pending{ts, i, end_pos});
  }
  // Reset discarded segments to idle so the damage is contained: the next
  // open sees a clean log instead of re-diagnosing (or worse, a later torn
  // write upgrading garbage to a "valid" segment).
  for (uint32_t i : discard) {
    char* seg = pool_->base_ + segment_offset(i);
    uint64_t zero = 0;
    std::memcpy(seg, &zero, sizeof(zero));
    POOL_PSAN_MARK(pool_->psan_.get(), seg, sizeof(zero));
    pool_->Persist(seg, sizeof(zero));
  }
  if (pending.empty()) return false;
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return a.commit_ts < b.commit_ts;
            });
  for (const Pending& p : pending) {
    char* seg = pool_->base_ + segment_offset(p.segment);
    uint64_t num_entries;
    std::memcpy(&num_entries, seg + 16, sizeof(num_entries));
    uint64_t pos = kSegmentHeaderBytes;
    for (uint64_t i = 0; i < num_entries; ++i) {
      uint64_t target, len;
      std::memcpy(&target, seg + pos, sizeof(target));
      std::memcpy(&len, seg + pos + 8, sizeof(len));
      pos += 16;
      std::memcpy(pool_->base_ + target, seg + pos, len);
      POOL_PSAN_MARK(pool_->psan_.get(), pool_->base_ + target, len);
      pool_->Flush(pool_->base_ + target, len);
      pos += (len + 7) & ~7ull;
      ++report->entries_applied;
    }
    ++report->segments_replayed;
  }
  pool_->Drain();
  for (const Pending& p : pending) {
    char* seg = pool_->base_ + segment_offset(p.segment);
    uint64_t zero = 0;
    std::memcpy(seg, &zero, sizeof(zero));
    POOL_PSAN_MARK(pool_->psan_.get(), seg, sizeof(zero));
    pool_->Flush(seg, sizeof(zero));
  }
  pool_->Drain();
  return true;
}

// --- RedoTx -----------------------------------------------------------------

namespace {
/// Per-thread preferred segment slot: steady-state committers keep reusing
/// the same segment, so the acquisition scan is a single bit test.
uint32_t ThreadSegmentHint() {
  static std::atomic<uint32_t> counter{0};
  thread_local uint32_t hint = counter.fetch_add(1, std::memory_order_relaxed);
  return hint;
}
}  // namespace

RedoTx::RedoTx(RedoLog* log) : log_(log) {
  segment_ = log_->AcquireSegment(ThreadSegmentHint() % log_->num_segments());
  seg_ = log_->pool_->base_ + log_->segment_offset(segment_);
}

RedoTx::~RedoTx() { log_->ReleaseSegment(segment_); }

void RedoTx::Stage(Offset target, const void* data, uint64_t len) {
  assert(!committed_);
  uint64_t padded = (len + 7) & ~7ull;
  // Append directly into the exclusively-owned segment. The entry bytes are
  // plain stores — nothing here is durable (or flushed) until Commit's
  // phase 1.
  if (overflow_ || pos_ + 16 + padded > log_->segment_size_) {
    overflow_ = true;
    return;
  }
  std::memcpy(seg_ + pos_, &target, sizeof(target));
  std::memcpy(seg_ + pos_ + 8, &len, sizeof(len));
  std::memcpy(seg_ + pos_ + 16, data, len);
  POOL_PSAN_MARK(log_->pool_->psan_.get(), seg_ + pos_, 16 + padded);
  pos_ += 16 + padded;
  ++num_entries_;
}

Status RedoTx::Commit(uint64_t commit_ts, const DrainFn& drain) {
  assert(!committed_);
  committed_ = true;
  Status status = CommitPipelined(commit_ts, drain);
#ifdef POSEIDON_PSAN
  // Commit boundary: every line this thread dirtied must have been flushed
  // by now (phase 4 leaves lines FLUSHING, which is fine — DIRTY is not).
  if (status.ok() && log_->pool_->psan_ != nullptr) {
    log_->pool_->psan_->OnCommitBoundary();
  }
#endif
  return status;
}

Status RedoTx::CommitPipelined(uint64_t commit_ts, const DrainFn& drain) {
  Pool* pool = log_->pool_;
  if (overflow_) {
    return Status::ResourceExhausted("redo log area too small for commit");
  }
  auto do_drain = [&] {
    if (drain) {
      drain();
    } else {
      pool->Drain();
    }
  };
  FlushBatch batch(pool);
  auto* state = reinterpret_cast<uint64_t*>(seg_);

  // Phase 1: commit record (timestamp + count) and entries, one coalesced
  // flush, one drain. The flush range starts inside the segment's first
  // cache line, so the line holding the still-idle marker is durable too —
  // a reused segment can never pair a stale marker with fresh entries.
  std::memcpy(seg_ + 8, &commit_ts, sizeof(commit_ts));
  std::memcpy(seg_ + 16, &num_entries_, sizeof(num_entries_));
  uint64_t crc = SegmentCrc(seg_, pos_);
  std::memcpy(seg_ + 24, &crc, sizeof(crc));
  POOL_PSAN_MARK(pool->psan_.get(), seg_ + 8, 24);
  batch.Flush(seg_ + 8, pos_ - 8);
  do_drain();

  // Phase 2: 8-byte atomic commit marker (C4: the only failure-atomic store
  // size). Once durable, the transaction is logically committed. The
  // marker's line was already flushed in phase 1, so coalescing makes this
  // flush latency-free; the drain is what publishes it.
  std::atomic_ref<uint64_t>(*state).store(1, std::memory_order_release);
  // The marker publishes the entry bytes: they must not be dirty when its
  // line's flush retires (phase 1 made them FLUSHING/DURABLE already).
  POOL_PSAN_PUBLISH(pool->psan_.get(), seg_, sizeof(uint64_t),
                    log_->segment_offset(segment_) + 8, pos_ - 8);
  batch.Flush(seg_, sizeof(uint64_t));
  do_drain();

  // Phase 3: apply to home locations with 8-byte atomic word stores (readers
  // run seqlock-style validated copies concurrently) and coalesced flushes —
  // a record staged as body + unlock word shares lines between the two
  // entries and is flushed once.
  uint64_t pos = kSegmentHeaderBytes;
  for (uint64_t i = 0; i < num_entries_; ++i) {
    uint64_t target, len;
    std::memcpy(&target, seg_ + pos, sizeof(target));
    std::memcpy(&len, seg_ + pos + 8, sizeof(len));
    pos += 16;
    AtomicStoreCopy(pool->base_ + target, seg_ + pos, len);
    POOL_PSAN_MARK(pool->psan_.get(), pool->base_ + target, len);
    batch.Flush(pool->base_ + target, len);
    pos += (len + 7) & ~7ull;
  }
  do_drain();

  // Phase 4: clear the marker — flushed but NOT drained. Replay is
  // idempotent, so a crash that loses the clear just re-applies this commit;
  // the next commit in this segment drains the line in its phase 1 before
  // writing a new marker.
  std::atomic_ref<uint64_t>(*state).store(0, std::memory_order_release);
  POOL_PSAN_MARK(pool->psan_.get(), seg_, sizeof(uint64_t));
  batch.Flush(seg_, sizeof(uint64_t));

  // Commit boundary: every covered line this commit flushed is durable
  // again — recompute and store its sidecar checksum. Piggybacks on the
  // FlushBatch dedup set's work (the pending set holds exactly the unique
  // lines), so checksum upkeep costs no extra pool walks.
  pool->SealPending();
  return Status::Ok();
}

}  // namespace poseidon::pmem

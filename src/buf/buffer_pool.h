// BufferPool: page-based buffer manager for the SSTable read path
// (DESIGN.md §14). Replaces the flat mutex-per-shard LRU block cache.
//
// Structure:
//   - a partitioned hash page table (power-of-two buckets, one seqlock
//     version + mutex per partition) maps (owner, file_number, offset) to
//     a frame holding a decoded block;
//   - hot hits take no lock: the prober walks the bucket chain reading
//     atomic identity fields, pins the frame with a single CAS, re-checks
//     the identity, and only falls back to the partition mutex when the
//     partition version moved under it or the pin CAS keeps losing;
//   - eviction is batched second-chance CLOCK: a sweeping hand scans
//     frames in chunks, decrementing per-frame chance counters and
//     reclaiming unpinned frames that are out of chances — no global LRU
//     list, no per-touch list surgery;
//   - admission is biased by block kind: filter and index pages enter
//     with (and are refreshed to) more chances than data pages, and the
//     Table additionally keeps its index/filter pages pinned for its
//     lifetime, so point-lookup metadata survives data-block churn.
//
// Frames are allocated in immutable chunks addressed by a stable 32-bit
// index, so lock-free probers never race a table reallocation. A frame's
// identity fields are atomics because probers read them unpinned; the
// payload (value/charge/deleter) is only read after a pin (acquire CAS)
// or under the partition mutex, both of which synchronize with the
// release-store that published the frame.
//
// Pages owned by files that die in compaction are purged via EvictFile();
// frames still pinned at that point are doomed (unlinked, invisible to
// lookups) and freed by the last unpin. A whole client (one TableCache
// incarnation) unregisters on teardown, purging every frame it owns, so
// file numbers reused by a reopened engine can never alias stale pages.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace sealdb::buf {

class BufferPool;

// Which kind of SSTable block a page holds; drives admission bias and the
// {kind=} metric label.
enum class BlockKind : uint8_t { kData = 0, kIndex = 1, kFilter = 2 };

// A registered consumer of the pool: one per TableCache incarnation.
// Carries the pool pointer, the owner id that namespaces this client's
// file numbers (per-shard VersionSets number files independently), and an
// opaque handle to its pre-resolved metric series. Copyable; an empty
// client means "no pool" and callers bypass the pool entirely.
struct BufferClient {
  BufferPool* pool = nullptr;
  uint64_t owner = 0;
  void* stats = nullptr;
  explicit operator bool() const { return pool != nullptr; }
};

class BufferPool {
 public:
  struct Config {
    size_t capacity_bytes = 8 << 20;
    // Rounded up to a power of two. Each partition has its own mutex and
    // seqlock version; 16 is plenty below ~32 threads.
    size_t partitions = 16;
    // Null => a private registry (tests); shared stacks pass theirs so
    // sealdb_buf_* series land next to the engine metrics.
    std::shared_ptr<obs::MetricsRegistry> metrics_registry;
  };

  // A pin on a resident page. Movable, not copyable; unpins on
  // destruction. value() stays valid while the pin is held even if the
  // page is evicted or its file is dropped concurrently.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    PageRef(PageRef&& o) noexcept { *this = std::move(o); }
    PageRef& operator=(PageRef&& o) noexcept;
    ~PageRef() { Reset(); }

    void* value() const { return value_; }
    explicit operator bool() const { return pool_ != nullptr; }
    void Reset();
    // Hand the pin off to C-style cleanup (Iterator::RegisterCleanup):
    // returns a token for UnpinToken() and disarms this ref.
    void* ReleaseToken();

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, uint32_t frame, void* value)
        : pool_(pool), frame_(frame), value_(value) {}
    BufferPool* pool_ = nullptr;
    uint32_t frame_ = 0;
    void* value_ = nullptr;
  };

  explicit BufferPool(const Config& config);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Register a consumer; shard_label stamps the {shard=} label on its
  // metric series (same label => same series, accumulating across
  // reopens). UnregisterClient purges every frame the owner still has in
  // the pool.
  BufferClient RegisterClient(const std::string& shard_label);
  void UnregisterClient(const BufferClient& client);

  // Pin the page if resident. Returns false on miss.
  bool Lookup(const BufferClient& client, uint64_t file_number,
              uint64_t offset, BlockKind kind, PageRef* out);

  // Insert `value` (ownership passes to the pool; freed with `deleter`)
  // and return it pinned. If another thread inserted the same page first,
  // the resident copy wins: `value` is deleted and the resident page
  // returned. May transiently push usage past capacity when everything
  // else is pinned; the sweep reclaims once pins drop.
  void Insert(const BufferClient& client, uint64_t file_number,
              uint64_t offset, BlockKind kind, void* value, size_t charge,
              void (*deleter)(void*), PageRef* out);

  // Drop every page of (client.owner, file_number): dead SSTable after
  // compaction. Pinned pages are doomed and freed by the last unpin.
  //
  // `ban` additionally bans the file for this client: a later Insert of
  // (owner, file_number) gets its page back born doomed — pinned and
  // usable through the returned ref, freed by the last unpin, but never
  // linked into the page table. This closes the quarantine re-admission
  // race: a reader that fetched the block before the file was quarantined
  // (or that loses the duplicate-insert race after the purge) cannot put
  // pages of a quarantined file back into the pool. Compaction-dead files
  // don't ban (their numbers are never read again), so the set stays
  // small.
  void EvictFile(const BufferClient& client, uint64_t file_number,
                 bool ban = false);
  // Lift a ban (quarantine cleared after a successful repair/rewrite).
  void UnbanFile(const BufferClient& client, uint64_t file_number);

  // Unpin via a token from PageRef::ReleaseToken(). `pool` is a
  // BufferPool*; signature matches Iterator::RegisterCleanup.
  static void UnpinToken(void* pool, void* token);

  size_t capacity_bytes() const { return capacity_; }
  size_t usage_bytes() const {
    return usage_.load(std::memory_order_relaxed);
  }
  // Pool-wide totals (all clients); the per-client series carry labels.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  // Hits that completed on the no-lock fast path.
  uint64_t optimistic_hits() const {
    return optimistic_hits_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  std::shared_ptr<obs::MetricsRegistry> metrics_registry() const {
    return registry_;
  }

 private:
  struct Frame;
  struct Client;
  struct alignas(64) Partition {
    std::mutex mu;
    // Seqlock: odd while a chain in this partition is being unlinked.
    std::atomic<uint64_t> version{0};
  };

  static constexpr uint32_t kInvalidFrame = 0xFFFFFFFFu;
  static constexpr uint32_t kMappedBit = 1u << 31;
  static constexpr uint32_t kDoomedBit = 1u << 30;
  static constexpr uint32_t kPinMask = kDoomedBit - 1;
  static constexpr int kFrameChunkBits = 10;  // 1024 frames per chunk
  static constexpr size_t kFrameChunkSize = size_t{1} << kFrameChunkBits;
  static constexpr size_t kMaxFrameChunks = 4096;
  static constexpr int kMaxOptimisticSteps = 32;
  static constexpr int kMaxPinAttempts = 4;
  static constexpr uint32_t kSweepChunk = 32;

  Frame* FrameAt(uint32_t idx) const;
  uint32_t AllocFrame();
  void FreeFrameSlot(uint32_t idx);
  size_t BucketFor(uint64_t owner, uint64_t file_number,
                   uint64_t offset) const;
  Partition& PartitionFor(size_t bucket) {
    return partitions_[bucket & partition_mask_];
  }
  bool TryPin(Frame* f, int attempts);
  void Unpin(uint32_t idx);
  // Whether idx is in bucket b's chain; partition mutex held.
  bool LinkedLocked(size_t b, uint32_t idx) const;
  // Remove idx from bucket b's chain; partition mutex held, version odd.
  void UnlinkLocked(size_t b, uint32_t idx);
  void EnsureRoom(size_t charge);
  // Claim one unpinned, out-of-chances frame; returns true if reclaimed.
  bool TryReclaim(uint32_t idx);
  bool LookupLocked(const BufferClient& client, uint64_t file_number,
                    uint64_t offset, BlockKind kind, size_t h, PageRef* out);
  void PurgeMatching(uint64_t owner, uint64_t file_number, bool match_file);
  void CountHit(const BufferClient& client, BlockKind kind, bool optimistic);
  void CountMiss(const BufferClient& client, BlockKind kind);
  void CountEviction(uint64_t owner, BlockKind kind, bool file_drop);
  void RefreshChances(Frame* f, BlockKind kind);

  const size_t capacity_;
  size_t bucket_mask_ = 0;
  size_t partition_mask_ = 0;
  std::unique_ptr<std::atomic<uint32_t>[]> buckets_;
  std::unique_ptr<Partition[]> partitions_;

  // Frame storage: chunks are allocated under free_mu_ and never freed or
  // moved, so FrameAt() is safe without any lock.
  std::array<std::atomic<Frame*>, kMaxFrameChunks> chunks_{};
  std::atomic<uint32_t> frame_count_{0};
  std::mutex free_mu_;
  std::vector<uint32_t> free_frames_;

  std::atomic<size_t> usage_{0};
  std::atomic<uint64_t> clock_hand_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> optimistic_hits_{0};
  std::atomic<uint64_t> evictions_{0};

  std::mutex clients_mu_;
  uint64_t next_owner_ = 1;
  std::vector<std::unique_ptr<Client>> clients_;  // by owner - 1

  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Gauge* g_usage_ = nullptr;
  obs::Gauge* g_capacity_ = nullptr;
  obs::Gauge* g_frames_ = nullptr;
  obs::Gauge* g_hit_ratio_ = nullptr;
  size_t collect_hook_id_ = 0;
};

}  // namespace sealdb::buf

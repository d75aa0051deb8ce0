// Engine configuration. One Options struct drives all three systems the
// paper evaluates (LevelDB, SMRDB, SEALDB); src/baselines/presets.h provides
// the paper's configurations.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace sealdb::obs {
class MetricsRegistry;
}

namespace sealdb::buf {
class BufferPool;
}

namespace sealdb {

class Comparator;
class FilterPolicy;
class Snapshot;

// How compaction inputs/outputs are grouped and placed on the device.
enum class CompactionUnit {
  // Classic LevelDB: each SSTable is an independent file placed by the
  // filesystem allocator.
  kSSTable,
  // SEALDB: the overlapped SSTables of a compaction form a *set* stored in
  // one contiguous extent; compaction reads/writes whole sets.
  kSet,
};

struct Options {
  // -------- ordering and correctness --------
  const Comparator* comparator;  // default: BytewiseComparator()

  bool create_if_missing = true;
  bool error_if_exists = false;
  bool paranoid_checks = false;

  // -------- memory / file sizing (paper Sec. IV defaults, scalable) -------
  size_t write_buffer_size = 4 * 1024 * 1024;  // memtable budget
  size_t max_file_size = 4 * 1024 * 1024;      // SSTable target size (4 MB)
  size_t block_size = 4 * 1024;
  int block_restart_interval = 16;
  int max_open_files = 1000;

  // Rotate to a fresh (snapshot-seeded) MANIFEST once the current one
  // exceeds this size, bounding metadata growth.
  uint64_t max_manifest_file_size = 1 << 20;

  // If non-null, use this filter policy (e.g. bloom) for table reads.
  const FilterPolicy* filter_policy = nullptr;
  // If non-null, all SSTable block reads go through this page-based buffer
  // manager (src/buf/, DESIGN.md §14). Not owned; shared stacks pass one
  // pool so every shard column caches into the same frames.
  buf::BufferPool* buffer_pool = nullptr;
  // When buffer_pool is null and this is nonzero, the DB creates (and owns)
  // a private BufferPool of that many bytes; zero disables block caching
  // entirely.
  size_t buffer_pool_bytes = 8 * 1024 * 1024;

  // -------- LSM shape --------
  int num_levels = 7;
  // Amplification factor: |L_{i+1}| / |L_i| (paper: 10).
  double level_size_multiplier = 10.0;
  // Size budget of L1 in bytes; L_i = base * multiplier^(i-1).
  uint64_t max_bytes_for_level_base = 10ull * 4 * 1024 * 1024;
  int level0_compaction_trigger = 4;
  int level0_slowdown_writes_trigger = 8;
  int level0_stop_writes_trigger = 12;

  // SMRDB mode: key ranges inside level 1 may overlap (two-level LSM where
  // L1 behaves like L0 for lookups; compactions L0->L1 merge with every
  // overlapping run). Enabled by the smrdb preset together with
  // num_levels = 2 and 40 MB SSTables.
  bool allow_overlap_last_level = false;

  // SEALDB set-aware compaction (paper Sec. III-A). With kSet, a level
  // compaction prefers the victim whose set has the most invalidated
  // members (Sec. III-C "Delete": implicit fragment reclamation).
  CompactionUnit compaction_unit = CompactionUnit::kSSTable;

  // Run compactions inline on the writing thread (deterministic; used by
  // tests and benches) instead of a background thread.
  bool inline_compactions = true;

  // Number of worker threads executing background compactions when
  // inline_compactions is false. Compactions whose key ranges and levels do
  // not overlap (disjoint sets at a level, paper Sec. III-A) run
  // concurrently; conflicting picks are serialized by a reservation map.
  int max_background_compactions = 1;

  // Bytes held by components outside the engine but inside the same
  // process budget (e.g. the network server's per-connection read/write
  // buffers). Folded into "sealdb.approximate-memory-usage" so a serving
  // front-end reports total memory pressure through one property. Shared
  // so the owner can keep updating it after Open() copies the Options.
  std::shared_ptr<std::atomic<uint64_t>> external_memory_bytes;

  // Metrics registry the engine publishes its sealdb_engine_* counters
  // into. Shared with the drive/allocator/server by the preset stacks so
  // one exposition covers the whole process; when null the DB creates a
  // private registry (counters still drive sealdb.stats).
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;

  // -------- sharding --------
  // Value of the `shard` label this engine instance stamps on its
  // sealdb_engine_* metric series. Empty (default) emits unlabeled series,
  // preserving the unsharded exposition; ShardedDb sets "0".."N-1".
  std::string metrics_shard_label;

  // Stream compaction inputs through a double-buffered readahead reader
  // (large chunked extent reads, one chunk ahead of the merge) instead of
  // per-block table reads. Off reproduces the seed's read pattern for A/B
  // benches.
  bool compaction_readahead = true;

  Options();
};

struct ReadOptions {
  bool verify_checksums = false;
  bool fill_cache = true;
  // Nonzero requests a dedicated streaming reader that fetches the file in
  // chunks of this size, one chunk ahead of the reader (set-granularity
  // compaction input scans).
  uint64_t readahead_bytes = 0;
  // If non-null, read as of the supplied snapshot.
  const Snapshot* snapshot = nullptr;
};

struct WriteOptions {
  // If true, the WAL write is flushed to the device before acking.
  bool sync = false;
};

}  // namespace sealdb

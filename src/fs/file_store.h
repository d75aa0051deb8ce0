// FileStore: the name -> physical-block-address indirection the paper adds
// so the KV store runs directly on the (emulated) SMR drive without a file
// system (Sec. III-D).
//
// Files are stored as chains of extents placed by a pluggable
// ExtentAllocator. File metadata (name, extents, logical size, set-region
// membership) is persisted in a journal living in the drive's conventional
// region: two alternating checkpoint slots plus an append log, so the store
// recovers after a crash from drive contents alone.
//
// Set support: a *region* is one contiguous allocation holding the output
// SSTables of one compaction (a set). Files carved from a region share its
// extent; the region's space returns to the allocator only when the last
// file in it is removed — the paper's set-granular space reclamation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "fs/extent.h"
#include "fs/extent_allocator.h"
#include "fs/free_map.h"
#include "obs/metrics.h"
#include "smr/drive.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb::fs {

// On-media metadata journal record framing (checkpoint slots and the
// append log share it): magic, seq, payload length, masked payload crc.
// Public so the offline consistency checker (fs/doctor.h) can parse the
// journal independently of the FileStore implementation.
inline constexpr uint32_t kJournalMagic = 0x4a524e4c;  // "JRNL"
inline constexpr uint32_t kCkptMagic = 0x434b5054;     // "CKPT"
inline constexpr size_t kRecordHeader = 4 + 8 + 4 + 4;

// Journal record payload tags (first payload byte).
enum JournalRecordTag : uint8_t {
  kCreateFile = 1,
  kUpdateFile = 2,
  kRemoveFileTag = 3,
  kRenameTag = 4,
  kCreateRegion = 5,
  kSealRegionTag = 6,
};

class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  // Read up to n bytes; *result may point into scratch.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
};

class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  // Push complete blocks to the drive; a partial trailing block stays
  // buffered (and is not durable) until more data arrives or Close().
  virtual Status Flush() = 0;
  // Flush + persist the file's metadata so flushed bytes survive a crash.
  virtual Status Sync() = 0;
  // Flush everything (padding the final partial block) and persist.
  virtual Status Close() = 0;
};

// Result of a media scrub: which live files overlap unreadable blocks.
struct ScrubReport {
  uint64_t files_scanned = 0;
  uint64_t bytes_scanned = 0;
  uint64_t bad_blocks = 0;                 // unreadable blocks found
  std::vector<std::string> damaged_files;  // sorted by name
};

// Cursor for the incremental online scrub (ScrubStep): resumes at the
// first live file whose name is >= `file`, at logical byte `offset`. A
// default-constructed cursor starts a fresh pass.
struct ScrubCursor {
  std::string file;
  uint64_t offset = 0;
};

// What one bounded scrub step saw.
struct ScrubStepResult {
  uint64_t bytes_scanned = 0;
  uint64_t bad_blocks = 0;       // blocks newly quarantined by this step
  uint64_t repaired_blocks = 0;  // quarantined blocks that read clean again
  std::vector<std::string> damaged_files;  // files with read errors this step
  bool wrapped = false;  // the namespace end was reached; cursor reset
};

class FileStore {
 public:
  // The store writes its metadata journal into the drive's conventional
  // region; `allocator` places file data in the shingled space.
  // `conv_base`/`conv_len` restrict the metadata area to a sub-range of the
  // conventional region (a shard's slice); conv_len == 0 means the whole
  // region, which is the unsharded seed layout.
  FileStore(smr::Drive* drive, ExtentAllocator* allocator,
            uint64_t conv_base = 0, uint64_t conv_len = 0);
  ~FileStore();

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  // Initialize an empty store (destroys existing metadata).
  Status Format();

  // Rebuild the name map and allocator state from the on-drive journal.
  Status Recover();

  // ---- Env-like file API ----
  // `appendable` marks long-lived append-mode files (WAL, manifest): on
  // shingled media their allocations carry a trailing guard because their
  // tail tracks are written after later allocations land behind them.
  Status NewWritableFile(const std::string& name, uint64_t size_hint,
                         std::unique_ptr<WritableFile>* result,
                         bool appendable = false);
  Status NewRandomAccessFile(const std::string& name,
                             std::unique_ptr<RandomAccessFile>* result);
  // Streaming reader for front-to-back scans (set-granularity compaction
  // inputs): fetches `window`-byte chunks, and fetches the next chunk right
  // after the one a read first touches, so a scan issues one large device
  // read per chunk in file order. A read error on the chunk fetched ahead
  // is returned when that chunk is read, not before.
  Status NewReadaheadFile(const std::string& name, uint64_t window,
                          std::unique_ptr<RandomAccessFile>* result);
  Status NewSequentialFile(const std::string& name,
                           std::unique_ptr<SequentialFile>* result);
  Status RemoveFile(const std::string& name);
  Status RenameFile(const std::string& src, const std::string& target);
  bool FileExists(const std::string& name);
  Status GetFileSize(const std::string& name, uint64_t* size);
  std::vector<std::string> GetChildren();

  // ---- set-region API (SEALDB compactions) ----
  // Allocate one contiguous region of `size` bytes; returns its id.
  // `guarded` reserves a trailing guard (needed when other writers may
  // append behind the region while it is still being filled, i.e. with
  // background compactions).
  Status AllocateRegion(uint64_t size, uint64_t* region_id,
                        bool guarded = false);
  // Create a file whose data is carved sequentially from the region.
  Status NewWritableFileInRegion(uint64_t region_id, const std::string& name,
                                 std::unique_ptr<WritableFile>* result);
  // Declare the region complete: return the unused tail to the allocator.
  Status SealRegion(uint64_t region_id);
  // Physical extent currently covered by the region.
  Status GetRegionExtent(uint64_t region_id, Extent* extent);

  // ---- observability ----
  // Publish this store's counters into `registry` as sealdb_fs_* series;
  // a non-empty `shard_label` stamps {shard=<label>} on each (the sharded
  // stack's per-column stores share one registry).
  void SetMetrics(const std::shared_ptr<obs::MetricsRegistry>& registry,
                  const std::string& shard_label);
  // Bad extent releases (double free / out-of-range) the allocator or the
  // conventional free map caught and refused. Also exported as
  // sealdb_fs_free_errors_total when SetMetrics was called.
  uint64_t free_errors() const;

  // ---- health / fault handling ----
  // Walk every live file's extents verifying readability. Damaged files are
  // reported (and their unreadable blocks quarantined); the walk itself
  // always completes, so the Status is non-OK only for internal errors.
  // Holds the store mutex for the whole walk — offline use only.
  Status Scrub(ScrubReport* report);

  // Online variant: verify up to `max_bytes` of live file data starting at
  // *cursor, then release the mutex; foreground I/O interleaves between
  // steps. The step ends early (wrapped = true, cursor reset) when the end
  // of the namespace is reached, so one full pass = steps until wrapped.
  // Blocks that fail their bounded retries are quarantined exactly like
  // the foreground read path; a quarantined block that reads clean again
  // (probe after a rewrite) counts as repaired.
  Status ScrubStep(ScrubCursor* cursor, uint64_t max_bytes,
                   ScrubStepResult* out);

  // Blocks (byte offsets) whose reads kept failing after bounded retries.
  // Reads overlapping a quarantined block fail fast with a single probe;
  // a successful probe or rewrite lifts the quarantine.
  std::vector<uint64_t> QuarantinedBlocks() const;

  // ---- introspection ----
  Status GetFileExtents(const std::string& name, std::vector<Extent>* out);
  smr::Drive* drive() { return drive_; }
  ExtentAllocator* allocator() { return allocator_; }

  // Count of live files; metadata journal writes performed.
  uint64_t journal_records_written() const { return journal_records_; }

  // Which checkpoint slot holds the newest state (testing/inspection).
  int active_checkpoint_slot() const { return active_slot_; }

  // One locked read of [offset, offset+n) from a live file (the readahead
  // reader's chunk fetch; offset/n must be device-block aligned within the
  // block-rounded file size).
  Status ReadFileRange(const std::string& name, uint64_t offset, uint64_t n,
                       char* scratch);

 private:
  friend class StoreWritableFile;
  friend class StoreRandomAccessFile;
  friend class StoreSequentialFile;
  friend class StoreReadaheadFile;

  struct FileMeta {
    std::vector<Extent> extents;
    uint64_t size = 0;          // logical bytes
    uint64_t region_id = 0;     // 0 = standalone
    bool appendable = false;    // in-memory only, not persisted
  };

  struct RegionMeta {
    Extent extent;
    uint64_t cursor = 0;        // bytes carved for files so far
    uint64_t live_files = 0;
    bool sealed = false;
  };

  using RecordTag = JournalRecordTag;

  // Data-path helpers (mutex held by caller).
  // Drive read with bounded retry: transient errors are retried, and a
  // range that keeps failing is probed block-by-block so the precise bad
  // blocks land in the quarantine list (salvaging the readable ones).
  Status DriveRead(uint64_t offset, uint64_t n, char* scratch);
  // Drive write; success lifts any quarantine covering the range.
  Status DriveWrite(uint64_t offset, const Slice& data);
  Status ReadExtents(const FileMeta& meta, uint64_t offset, size_t n,
                     char* scratch);
  // Quarantined blocks overlapping [offset, offset+n) (mutex held).
  uint64_t CountBadBlocks(uint64_t offset, uint64_t n) const;
  Status WriteAt(FileMeta* meta, uint64_t file_offset, const Slice& data,
                 uint64_t size_hint);
  Status GrowFile(const std::string& name, FileMeta* meta, uint64_t min_bytes,
                  uint64_t size_hint);
  // Release over-allocated space beyond the file's logical size.
  void ShrinkToFit(FileMeta* meta);
  void DropFileData(const FileMeta& meta);

  // Journal helpers (mutex held by caller).
  Status JournalAppend(const std::string& payload);
  Status WriteCheckpoint();
  std::string EncodeState() const;
  Status DecodeState(Slice input);
  static void EncodeFileMeta(std::string* dst, const std::string& name,
                             const FileMeta& meta);
  static bool DecodeFileMeta(Slice* in, std::string* name, FileMeta* meta);
  Status PersistFileMeta(RecordTag tag, const std::string& name,
                         const FileMeta& meta);
  Status ApplyRecord(Slice payload);

  // Free an extent back to whichever pool owns it.
  void FreeExtent(const Extent& e);
  // allocator_->Free with the refused-release accounting (mutex held).
  void FreeAllocatorExtent(const Extent& e);
  void CountFreeError(const Status& s);

  // Geometry of the metadata area. The conventional region is split in
  // half: the journal (checkpoint slots + log) in the front, a pool for
  // appendable files (WAL, manifest) in the back — like the conventional
  // zones real zoned deployments reserve for logs and metadata.
  uint64_t SlotBytes() const;
  uint64_t SlotOffset(int slot) const;
  uint64_t LogBegin() const;
  uint64_t LogEnd() const;
  uint64_t ConvFilesBegin() const;
  uint64_t ConvFilesEnd() const;

  mutable std::mutex mu_;
  smr::Drive* drive_;
  ExtentAllocator* allocator_;
  // Conventional-region slice this store's metadata lives in.
  uint64_t conv_base_ = 0;
  uint64_t conv_len_ = 0;

  std::map<std::string, FileMeta> files_;
  std::map<uint64_t, RegionMeta> regions_;
  std::set<uint64_t> bad_blocks_;  // quarantined block byte offsets
  FreeMap conv_files_free_;  // appendable-file pool in the conventional region
  uint64_t next_region_id_ = 1;

  // Observability (null until SetMetrics).
  obs::Counter* c_free_errors_ = nullptr;
  uint64_t free_errors_ = 0;

  // Journal state.
  uint64_t journal_seq_ = 0;
  int active_slot_ = 0;
  uint64_t log_head_ = 0;
  uint64_t journal_records_ = 0;
  bool recovered_ = false;
};

}  // namespace sealdb::fs

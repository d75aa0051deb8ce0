// DBImpl: the LSM engine. One implementation serves all three systems; the
// differences live in Options (level shape, overlap mode, set-aware
// compaction) and in the storage stack underneath the FileStore.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "buf/buffer_pool.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/engine_metrics.h"
#include "lsm/log_writer.h"
#include "lsm/snapshot.h"
#include "lsm/version_set.h"
#include "util/options.h"

// Annotation macro kept as documentation of the locking discipline
// inherited from LevelDB; expands to nothing.
#define EXCLUSIVE_LOCKS_REQUIRED(...)

namespace sealdb {

namespace core {
class SetManager;
}

class MemTable;
class TableCache;
class Version;
class VersionEdit;
class VersionSet;

class DBImpl : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname,
         fs::FileStore* store);

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  ~DBImpl() override;

  // Implementations of the DB interface
  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  void CompactLevelRange(int level, const Slice* begin,
                         const Slice* end) override;
  void WaitForIdle() override;
  int WriteStallLevel() override {
    return stall_level_.load(std::memory_order_relaxed);
  }

  void QuarantineFile(uint64_t file_number) override;

  std::vector<LiveFileMeta> GetLiveFilesMetadata() override;
  void SetRecordCompactionEvents(bool enable) override;
  std::vector<CompactionEvent> TakeCompactionEvents() override;

  // Extra methods (for testing and benches)

  // Compact any files in the named level that overlap [*begin,*end]
  void TEST_CompactRange(int level, const Slice* begin, const Slice* end);

  // Force current memtable contents to be compacted.
  Status TEST_CompactMemTable();

  // Return an internal iterator over the current state of the database.
  // The keys of this iterator are internal keys (see dbformat.h).
  // The returned iterator should be deleted when no longer needed.
  Iterator* TEST_NewInternalIterator();

  // Return the maximum overlapping data (in bytes) at next level for any
  // file at a level >= 1.
  int64_t TEST_MaxNextLevelOverlappingBytes();

  // Until two compactions have run at once, or `budget` has passed, a
  // compaction that starts with no other in flight, from `min_level` or
  // deeper and from a level over its size target (so the picker has more
  // of that level to offer), wakes the idle workers and waits up to
  // 250 ms for a second one to start. Makes the executor's overlap
  // observable without depending on how threads are scheduled.
  void TEST_HoldCompactionUntilParallel(int min_level,
                                        std::chrono::milliseconds budget);

 private:
  friend class DB;
  struct CompactionState;
  struct Writer;

  Iterator* NewInternalIterator(const ReadOptions&,
                                SequenceNumber* latest_snapshot,
                                uint32_t* seed);

  Status NewDB();

  // Recover the descriptor from persistent storage.  May do a significant
  // amount of work to recover recently logged updates.  Any changes to
  // be made to the descriptor are added to *edit.
  Status Recover(VersionEdit* edit, bool* save_manifest)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  void MaybeIgnoreError(Status* s) const;

  // Delete any unneeded files and stale in-memory entries.
  void RemoveObsoleteFiles() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Compact the in-memory write buffer to disk.  Switches to a new
  // log-file/memtable and writes a new descriptor iff successful.
  // Errors are recorded in bg_error_.
  void CompactMemTable() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status RecoverLogFile(uint64_t log_number, bool last_log,
                        bool* save_manifest, VersionEdit* edit,
                        SequenceNumber* max_sequence)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit, Version* base)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status MakeRoomForWrite(bool force /* compact even if there is room? */)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  WriteBatch* BuildBatchGroup(Writer** last_writer)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  void RecordBackgroundError(const Status& s);

  // Recompute stall_level_ from the L0 file count and memtable backlog.
  // Called wherever either changes (writes, flush installs, compaction
  // installs) so WriteStallLevel() tracks the engine without taking
  // mutex_ on the read side.
  void UpdateStallLevel() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  void MaybeScheduleCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void BackgroundThreadMain();
  void BackgroundCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Run one picked compaction (trivial move or full merge) and clean up.
  // Takes ownership of c.
  void ExecuteCompaction(Compaction* c) EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void CleanupCompaction(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status DoCompactionWork(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // TEST_HoldCompactionUntilParallel's gate, called as a compaction starts.
  void HoldForParallelCompaction(int level) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status OpenCompactionOutputFile(CompactionState* compact);
  Status FinishCompactionOutputFile(CompactionState* compact, Iterator* input);
  Status InstallCompactionResults(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Drain pending background work while holding mutex_.
  void RunInlineCompactions() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  const Comparator* user_comparator() const {
    return internal_comparator_.user_comparator();
  }

  // Constant after construction
  const InternalKeyComparator internal_comparator_;
  const InternalFilterPolicy internal_filter_policy_;
  // Default buffer pool owned by this DB (options_.buffer_pool points here
  // when the caller supplied none and the effective pool size > 0).
  // Declared before options_/table_cache_/versions_ so it outlives every
  // Table that holds pinned pages.
  std::unique_ptr<buf::BufferPool> owned_buffer_pool_;
  const Options options_;  // options_.comparator == &internal_comparator_
  const std::string dbname_;
  fs::FileStore* const store_;

  // table_cache_ provides its own synchronization
  std::unique_ptr<TableCache> table_cache_;

  // State below is protected by mutex_
  std::mutex mutex_;
  std::atomic<bool> shutting_down_;
  std::condition_variable_any background_work_finished_signal_;
  MemTable* mem_;
  MemTable* imm_;                 // Memtable being compacted
  std::atomic<bool> has_imm_;     // So bg thread can detect non-null imm_
  std::unique_ptr<fs::WritableFile> logfile_;
  uint64_t logfile_number_;
  std::unique_ptr<log::Writer> log_;
  uint32_t seed_;  // For sampling.

  // Queue of writers.
  std::deque<Writer*> writers_;
  WriteBatch* tmp_batch_;

  SnapshotList snapshots_;

  // Set of table files to protect from deletion because they are
  // part of ongoing compactions.
  std::set<uint64_t> pending_outputs_;

  // Background executor (used when !options_.inline_compactions): a pool
  // of options_.max_background_compactions workers shares one wakeup cv.
  // Workers run flushes (one at a time) and compactions; compactions whose
  // level spans and key-range hulls are disjoint run concurrently, with
  // reservations_ serializing conflicting picks.
  std::vector<std::thread> bg_threads_;
  std::condition_variable_any background_wakeup_;
  int bg_active_ = 0;              // workers currently executing a work unit
  int compactions_in_flight_ = 0;  // concurrent DoCompactionWork calls
  bool imm_flush_in_flight_ = false;
  bool pick_exhausted_ = false;    // last pick found nothing runnable
  bool removing_obsolete_files_ = false;
  bool in_inline_compaction_ = false;
  CompactionReservations reservations_;
  // TEST_HoldCompactionUntilParallel state; -1 = disarmed.
  int hold_min_level_ = -1;
  std::chrono::steady_clock::time_point hold_until_;

  std::unique_ptr<VersionSet> versions_;

  // Have we encountered a background error in paranoid mode?
  Status bg_error_;

  // Published copy of the write-stall state (see DB::WriteStallLevel);
  // written under mutex_ by UpdateStallLevel, read lock-free by anyone.
  std::atomic<int> stall_level_{0};

  // SEALDB set bookkeeping (null unless compaction_unit == kSet).
  std::unique_ptr<core::SetManager> set_manager_;

  // Engine counters (sealdb_engine_* metrics; sealdb.stats renders them).
  EngineMetrics em_;
  // Event recording, protected by mutex_.
  bool record_events_ = false;
  std::vector<CompactionEvent> events_;
};

}  // namespace sealdb

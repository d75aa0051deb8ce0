#include "lsm/db_impl.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/set_manager.h"
#include "fs/file_store.h"
#include "lsm/db_iter.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/memtable.h"
#include "lsm/merger.h"
#include "lsm/table_builder.h"
#include "lsm/table_cache.h"
#include "lsm/write_batch.h"
#include "util/cache.h"
#include "util/logging.h"

namespace sealdb {

const int kNumNonTableCacheFiles = 10;

// Wall-clock micros for the per-stage compaction accounting (device time is
// tracked separately by the simulated drive's latency model).
static uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

static uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// DoCompactionWork times the read/merge/write steps of every this-many-th
// input key only (DESIGN.md §7).
constexpr uint64_t kStageSampleStride = 32;

// Information kept for every waiting writer
struct DBImpl::Writer {
  explicit Writer(std::mutex* mu)
      : batch(nullptr), sync(false), done(false) {
    (void)mu;
  }

  Status status;
  WriteBatch* batch;
  bool sync;
  bool done;
  std::condition_variable_any cv;
};

struct DBImpl::CompactionState {
  // Files produced by compaction
  struct Output {
    uint64_t number;
    uint64_t file_size;
    InternalKey smallest, largest;
  };

  Output* current_output() { return &outputs[outputs.size() - 1]; }

  explicit CompactionState(Compaction* c)
      : compaction(c),
        smallest_snapshot(0),
        outfile(nullptr),
        builder(nullptr),
        total_bytes(0),
        region_id(0) {}

  Compaction* const compaction;

  // Sequence numbers < smallest_snapshot are not significant since we
  // will never have to service a snapshot below smallest_snapshot.
  // Therefore if we have seen a sequence number S <= smallest_snapshot,
  // we can drop all entries for the same key with sequence numbers < S.
  SequenceNumber smallest_snapshot;

  std::vector<Output> outputs;

  std::unique_ptr<fs::WritableFile> outfile;
  TableBuilder* builder;

  uint64_t total_bytes;

  // Wall time spent in Open/FinishCompactionOutputFile.
  uint64_t output_nanos = 0;

  // SEALDB: FileStore region holding the whole output set (0 = none).
  uint64_t region_id;
};

// Fix user-supplied options to be reasonable
template <class T, class V>
static void ClipToRange(T* ptr, V minvalue, V maxvalue) {
  if (static_cast<V>(*ptr) > maxvalue) *ptr = maxvalue;
  if (static_cast<V>(*ptr) < minvalue) *ptr = minvalue;
}
static Options SanitizeOptions(const std::string& dbname,
                               const InternalKeyComparator* icmp,
                               const InternalFilterPolicy* ipolicy,
                               const Options& src,
                               std::unique_ptr<buf::BufferPool>* owned_pool) {
  (void)dbname;
  Options result = src;
  result.comparator = icmp;
  result.filter_policy = (src.filter_policy != nullptr) ? ipolicy : nullptr;
  ClipToRange(&result.max_open_files, 64 + kNumNonTableCacheFiles, 50000);
  ClipToRange(&result.write_buffer_size, 16 << 10, 1 << 30);
  ClipToRange(&result.max_file_size, 16 << 10, 1 << 30);
  ClipToRange(&result.block_size, 1 << 10, 4 << 20);
  ClipToRange(&result.max_background_compactions, 1, 8);
  if (result.num_levels < 2) result.num_levels = 2;
  if (result.num_levels > 16) result.num_levels = 16;
  if (result.buffer_pool == nullptr && result.buffer_pool_bytes > 0) {
    buf::BufferPool::Config pool_config;
    pool_config.capacity_bytes = result.buffer_pool_bytes;
    pool_config.metrics_registry = result.metrics_registry;
    *owned_pool = std::make_unique<buf::BufferPool>(pool_config);
    result.buffer_pool = owned_pool->get();
  }
  return result;
}

static int TableCacheSize(const Options& sanitized_options) {
  // Reserve a few files for other uses and give the rest to TableCache.
  return sanitized_options.max_open_files - kNumNonTableCacheFiles;
}

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname,
               fs::FileStore* store)
    : internal_comparator_(raw_options.comparator),
      internal_filter_policy_(raw_options.filter_policy),
      options_(SanitizeOptions(dbname, &internal_comparator_,
                               &internal_filter_policy_, raw_options,
                               &owned_buffer_pool_)),
      dbname_(dbname),
      store_(store),
      table_cache_(std::make_unique<TableCache>(dbname_, options_, store_,
                                                TableCacheSize(options_))),
      shutting_down_(false),
      mem_(nullptr),
      imm_(nullptr),
      has_imm_(false),
      logfile_(nullptr),
      logfile_number_(0),
      log_(nullptr),
      seed_(0),
      tmp_batch_(new WriteBatch),
      reservations_(internal_comparator_.user_comparator()),
      versions_(std::make_unique<VersionSet>(dbname_, &options_, store_,
                                             table_cache_.get(),
                                             &internal_comparator_)),
      em_(options_.metrics_registry, options_.metrics_shard_label) {
  if (options_.compaction_unit == CompactionUnit::kSet) {
    set_manager_ = std::make_unique<core::SetManager>();
    versions_->SetSetInfoProvider(set_manager_.get());
  }
}

DBImpl::~DBImpl() {
  // Wake every worker; in-flight compactions notice shutting_down_ at their
  // next key and abort, then the join below drains the pool.
  mutex_.lock();
  shutting_down_.store(true, std::memory_order_release);
  background_wakeup_.notify_all();
  background_work_finished_signal_.notify_all();
  mutex_.unlock();
  for (std::thread& t : bg_threads_) {
    t.join();
  }

  delete tmp_batch_;
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
  log_.reset();
  logfile_.reset();
}

Status DBImpl::NewDB() {
  VersionEdit new_db;
  new_db.SetComparatorName(user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);

  const std::string manifest = DescriptorFileName(dbname_, 1);
  std::unique_ptr<fs::WritableFile> file;
  Status s = store_->NewWritableFile(manifest, 1 << 20, &file,
                                     /*appendable=*/true);
  if (!s.ok()) {
    return s;
  }
  {
    log::Writer log(file.get());
    std::string record;
    new_db.EncodeTo(&record);
    s = log.AddRecord(record);
    if (s.ok()) {
      s = log.PadToBlockBoundary();
    }
    if (s.ok()) {
      s = file->Close();
    }
  }
  file.reset();
  if (s.ok()) {
    // Make "CURRENT" file that points to the new manifest file.
    std::string tmp = TempFileName(dbname_, 1);
    std::unique_ptr<fs::WritableFile> f;
    s = store_->NewWritableFile(tmp, 4096, &f);
    if (s.ok()) {
      std::string contents = manifest.substr(dbname_.size() + 1) + "\n";
      s = f->Append(contents);
      if (s.ok()) s = f->Close();
      f.reset();
      if (s.ok()) {
        s = store_->RenameFile(tmp, CurrentFileName(dbname_));
      }
    }
  } else {
    store_->RemoveFile(manifest);
  }
  return s;
}

void DBImpl::MaybeIgnoreError(Status* s) const {
  if (s->ok() || options_.paranoid_checks) {
    // No change needed
  } else {
    *s = Status::OK();
  }
}

void DBImpl::RemoveObsoleteFiles() {
  if (!bg_error_.ok()) {
    // After a background error, we don't know whether a new version may
    // or may not have been committed, so we cannot safely garbage collect.
    return;
  }
  if (removing_obsolete_files_) {
    // Another worker is mid-deletion (it drops mutex_ while unlinking);
    // whatever this call would have collected is caught by the next one.
    return;
  }
  removing_obsolete_files_ = true;

  // Make a set of all of the live files
  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames = store_->GetChildren();
  uint64_t number;
  FileType type;
  std::vector<std::string> files_to_delete;
  std::vector<uint64_t> tables_to_delete;
  const std::string prefix = dbname_ + "/";
  for (std::string& filename : filenames) {
    if (filename.compare(0, prefix.size(), prefix) != 0) continue;
    if (ParseFileName(filename, &number, &type)) {
      bool keep = true;
      switch (type) {
        case kLogFile:
          keep = ((number >= versions_->LogNumber()) ||
                  (number == versions_->PrevLogNumber()));
          break;
        case kDescriptorFile:
          // Keep my manifest file, and any newer incarnations'
          // (in case there is a race that allows other incarnations)
          keep = (number >= versions_->ManifestFileNumber());
          break;
        case kTableFile:
          keep = (live.find(number) != live.end());
          break;
        case kTempFile:
          // Any temp files that are currently being written to must
          // be recorded in pending_outputs_, which is inserted into "live"
          keep = (live.find(number) != live.end());
          break;
        case kCurrentFile:
        case kDBLockFile:
          keep = true;
          break;
      }

      if (!keep) {
        files_to_delete.push_back(std::move(filename));
        if (type == kTableFile) {
          tables_to_delete.push_back(number);
        }
      }
    }
  }

  // While deleting all files unblock other threads. All files being deleted
  // have unique names which will not collide with newly created files and
  // are therefore safe to delete while allowing other threads to proceed.
  // Dead table numbers are in no live version and never reused, so their
  // cached tables and pool pages can be dropped unlocked too.
  mutex_.unlock();
  for (uint64_t number_deleted : tables_to_delete) {
    table_cache_->Evict(number_deleted);
  }
  for (const std::string& filename : files_to_delete) {
    store_->RemoveFile(filename);
  }
  mutex_.lock();
  if (set_manager_ != nullptr) {
    for (uint64_t number_deleted : tables_to_delete) {
      set_manager_->OnFileDeleted(number_deleted);
    }
  }
  removing_obsolete_files_ = false;
}

void DBImpl::QuarantineFile(uint64_t file_number) {
  // Scrub found the table's media damaged. Unlike the dead-file Evict
  // above, the file is still live in the version set, so its pages are
  // banned from re-admission: a reader that fetched a block just before
  // the quarantine must not re-populate the shared pool with it.
  table_cache_->Evict(file_number, /*ban=*/true);
}

Status DBImpl::Recover(VersionEdit* edit, bool* save_manifest) {
  // The FileStore itself has already been recovered by the caller.
  if (!store_->FileExists(CurrentFileName(dbname_))) {
    if (options_.create_if_missing) {
      Status s = NewDB();
      if (!s.ok()) {
        return s;
      }
    } else {
      return Status::InvalidArgument(
          dbname_, "does not exist (create_if_missing is false)");
    }
  } else {
    if (options_.error_if_exists) {
      return Status::InvalidArgument(dbname_,
                                     "exists (error_if_exists is true)");
    }
  }

  Status s = versions_->Recover(save_manifest);
  if (!s.ok()) {
    return s;
  }
  SequenceNumber max_sequence(0);

  // Recover from all newer log files than the ones named in the
  // descriptor (new log files may have been added by the previous
  // incarnation without registering them in the descriptor).
  const uint64_t min_log = versions_->LogNumber();
  const uint64_t prev_log = versions_->PrevLogNumber();
  std::vector<std::string> filenames = store_->GetChildren();
  std::set<uint64_t> expected;
  versions_->AddLiveFiles(&expected);
  uint64_t number;
  FileType type;
  std::vector<uint64_t> logs;
  const std::string prefix = dbname_ + "/";
  for (size_t i = 0; i < filenames.size(); i++) {
    if (filenames[i].compare(0, prefix.size(), prefix) != 0) continue;
    if (ParseFileName(filenames[i], &number, &type)) {
      expected.erase(number);
      if (type == kLogFile && ((number >= min_log) || (number == prev_log)))
        logs.push_back(number);
    }
  }
  if (!expected.empty()) {
    char buf[50];
    std::snprintf(buf, sizeof(buf), "%d missing table files",
                  static_cast<int>(expected.size()));
    return Status::Corruption(buf);
  }

  // Recover in the order in which the logs were generated
  std::sort(logs.begin(), logs.end());
  for (size_t i = 0; i < logs.size(); i++) {
    s = RecoverLogFile(logs[i], (i == logs.size() - 1), save_manifest, edit,
                       &max_sequence);
    if (!s.ok()) {
      return s;
    }

    // The previous incarnation may not have written any MANIFEST
    // records after allocating this log number.  So we manually
    // update the file number allocation counter in VersionSet.
    versions_->MarkFileNumberUsed(logs[i]);
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }

  // Rebuild the set manager from the recovered version.
  if (set_manager_ != nullptr) {
    Version* v = versions_->current();
    for (int level = 0; level < versions_->NumLevels(); level++) {
      for (const FileMetaData* f : v->files(level)) {
        set_manager_->RecoverSet(f->set_id, f->number, f->file_size);
      }
    }
  }

  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, bool last_log,
                              bool* save_manifest, VersionEdit* edit,
                              SequenceNumber* max_sequence) {
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t bytes, const Status& s) override {
      (void)bytes;
      if (this->status != nullptr && this->status->ok()) *this->status = s;
    }
  };

  // Open the log file
  std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<fs::SequentialFile> file;
  Status status = store_->NewSequentialFile(fname, &file);
  if (!status.ok()) {
    MaybeIgnoreError(&status);
    return status;
  }

  // Create the log reader.
  LogReporter reporter;
  reporter.status = (options_.paranoid_checks ? &status : nullptr);
  // We intentionally make log::Reader do checksumming even if
  // paranoid_checks==false so that corruptions cause entire commits
  // to be skipped instead of propagating bad information (like overly
  // large sequence numbers).
  log::Reader reader(file.get(), &reporter, true /*checksum*/);
  std::string scratch;
  Slice record;
  WriteBatch batch;
  int compactions = 0;
  MemTable* mem = nullptr;
  while (reader.ReadRecord(&record, &scratch) && status.ok()) {
    if (record.size() < 12) {
      reporter.Corruption(record.size(),
                          Status::Corruption("log record too small"));
      continue;
    }
    WriteBatchInternal::SetContents(&batch, record);

    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_);
      mem->Ref();
    }
    status = WriteBatchInternal::InsertInto(&batch, mem);
    MaybeIgnoreError(&status);
    if (!status.ok()) {
      break;
    }
    const SequenceNumber last_seq = WriteBatchInternal::Sequence(&batch) +
                                    WriteBatchInternal::Count(&batch) - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      compactions++;
      *save_manifest = true;
      status = WriteLevel0Table(mem, edit, nullptr);
      mem->Unref();
      mem = nullptr;
      if (!status.ok()) {
        // Reflect errors immediately so that conditions like full
        // file-systems cause the DB::Open() to fail.
        break;
      }
    }
  }

  file.reset();

  // See if we should keep reusing the last log file.
  if (status.ok() && last_log && compactions == 0 && mem != nullptr) {
    // Keep it simple: always write a fresh log on reopen; flush the
    // recovered memtable below.
  }

  if (mem != nullptr) {
    // mem did not get reused; compact it.
    if (status.ok()) {
      *save_manifest = true;
      status = WriteLevel0Table(mem, edit, nullptr);
    }
    mem->Unref();
  }

  return status;
}

// Build a table file from the contents of *iter (used by memtable
// flushes). The generated file will be named according to meta->number.
// On success, the rest of *meta is filled with metadata about the table.
// If no data is present in *iter, meta->file_size is set to zero, and no
// table file is produced.
static Status BuildTable(const std::string& dbname, fs::FileStore* store,
                         const Options& options, TableCache* table_cache,
                         Iterator* iter, FileMetaData* meta) {
  Status s;
  meta->file_size = 0;
  iter->SeekToFirst();

  std::string fname = TableFileName(dbname, meta->number);
  if (iter->Valid()) {
    std::unique_ptr<fs::WritableFile> file;
    s = store->NewWritableFile(fname, options.max_file_size,
                               &file);
    if (!s.ok()) {
      return s;
    }

    TableBuilder* builder = new TableBuilder(options, file.get());
    meta->smallest.DecodeFrom(iter->key());
    Slice key;
    for (; iter->Valid(); iter->Next()) {
      key = iter->key();
      builder->Add(key, iter->value());
    }
    if (!key.empty()) {
      meta->largest.DecodeFrom(key);
    }

    // Finish and check for builder errors
    s = builder->Finish();
    if (s.ok()) {
      meta->file_size = builder->FileSize();
      assert(meta->file_size > 0);
    }
    delete builder;

    // Finish and check for file errors
    if (s.ok()) {
      s = file->Close();
    }
    file.reset();

    if (s.ok()) {
      // Verify that the table is usable
      Iterator* it = table_cache->NewIterator(ReadOptions(), meta->number,
                                              meta->file_size);
      s = it->status();
      delete it;
    }
  }

  // Check for input iterator errors
  if (!iter->status().ok()) {
    s = iter->status();
  }

  if (s.ok() && meta->file_size > 0) {
    // Keep it
  } else {
    store->RemoveFile(fname);
  }
  return s;
}

Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                                Version* base) {
  const uint64_t start_device_us = 0;
  (void)start_device_us;
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  pending_outputs_.insert(meta.number);
  Iterator* iter = mem->NewIterator();

  Status s;
  {
    mutex_.unlock();
    s = BuildTable(dbname_, store_, options_, table_cache_.get(), iter, &meta);
    mutex_.lock();
  }

  delete iter;
  pending_outputs_.erase(meta.number);

  // Note that if file_size is zero, the file has been deleted and
  // should not be added to the manifest.
  int level = 0;
  if (s.ok() && meta.file_size > 0) {
    const Slice min_user_key = meta.smallest.user_key();
    const Slice max_user_key = meta.largest.user_key();
    if (base != nullptr) {
      level = base->PickLevelForMemTableOutput(min_user_key, max_user_key);
      // A concurrent compaction may install outputs inside this key range at
      // a sorted level (its future outputs are invisible to the placement
      // check above). Demote past any reserved span; L0 tolerates overlap.
      while (level > 0 &&
             reservations_.RangeReserved(level, min_user_key, max_user_key)) {
        level--;
      }
    }
    edit->AddFile(level, meta.number, meta.file_size, meta.smallest,
                  meta.largest, /*set_id=*/0);
  }

  em_.flushes->Inc();
  em_.flush_bytes->Add(meta.file_size);
  return s;
}

void DBImpl::CompactMemTable() {
  assert(imm_ != nullptr);

  // Save the contents of the memtable as a new Table
  VersionEdit edit;
  Version* base = versions_->current();
  base->Ref();
  Status s = WriteLevel0Table(imm_, &edit, base);
  base->Unref();

  if (s.ok() && shutting_down_.load(std::memory_order_acquire)) {
    s = Status::IOError("Deleting DB during memtable compaction");
  }

  // Replace immutable memtable with the generated Table
  if (s.ok()) {
    edit.SetPrevLogNumber(0);
    edit.SetLogNumber(logfile_number_);  // Earlier logs no longer needed
    s = versions_->LogAndApply(&edit);
  }

  if (s.ok()) {
    // Commit to the new state
    imm_->Unref();
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    pick_exhausted_ = false;  // the new L0 file may enable a compaction
    UpdateStallLevel();
    RemoveObsoleteFiles();
  } else {
    RecordBackgroundError(s);
  }
}

void DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  int max_level_with_files = 1;
  {
    mutex_.lock();
    Version* base = versions_->current();
    for (int level = 1; level < versions_->NumLevels(); level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
    mutex_.unlock();
  }
  // Could skip the flush when the memtable does not overlap the range;
  // correctness does not require it.
  TEST_CompactMemTable();
  for (int level = 0; level < max_level_with_files; level++) {
    TEST_CompactRange(level, begin, end);
  }
}

void DBImpl::CompactLevelRange(int level, const Slice* begin,
                               const Slice* end) {
  if (level < 0 || level >= options_.num_levels - 1) return;
  TEST_CompactRange(level, begin, end);
}

void DBImpl::TEST_CompactRange(int level, const Slice* begin,
                               const Slice* end) {
  assert(level >= 0);
  assert(level + 1 < versions_->NumLevels() ||
         options_.allow_overlap_last_level);

  InternalKey begin_storage, end_storage;
  InternalKey* begin_key = nullptr;
  InternalKey* end_key = nullptr;
  if (begin != nullptr) {
    begin_storage = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    begin_key = &begin_storage;
  }
  if (end != nullptr) {
    end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
    end_key = &end_storage;
  }

  mutex_.lock();
  while (bg_error_.ok() && !shutting_down_.load(std::memory_order_acquire)) {
    Compaction* c = versions_->CompactRange(level, begin_key, end_key);
    if (c == nullptr) break;
    // Serialize against background workers: if a running compaction
    // overlaps this range, drop the pick, wait for it to finish, and
    // re-pick against the updated version.
    const uint64_t ticket = reservations_.TryReserve(c);
    if (ticket == 0) {
      c->ReleaseInputs();
      delete c;
      background_work_finished_signal_.wait(mutex_);
      continue;
    }
    CompactionState* compact = new CompactionState(c);
    compact->smallest_snapshot = snapshots_.empty()
                                     ? versions_->LastSequence()
                                     : snapshots_.oldest()->sequence_number();
    Status s = DoCompactionWork(compact);
    if (!s.ok()) {
      RecordBackgroundError(s);
    }
    CleanupCompaction(compact);
    c->ReleaseInputs();
    delete c;
    reservations_.Release(ticket);
    pick_exhausted_ = false;
    background_work_finished_signal_.notify_all();
    background_wakeup_.notify_all();
    RemoveObsoleteFiles();
    break;
  }
  mutex_.unlock();
}

Status DBImpl::TEST_CompactMemTable() {
  // nullptr batch means just wait for earlier writes to be done
  Status s = Write(WriteOptions(), nullptr);
  if (s.ok()) {
    // Wait until the compaction completes
    mutex_.lock();
    if (imm_ != nullptr) {
      if (options_.inline_compactions) {
        CompactMemTable();
      } else {
        while (imm_ != nullptr && bg_error_.ok()) {
          MaybeScheduleCompaction();
          background_work_finished_signal_.wait(mutex_);
        }
      }
    }
    if (imm_ != nullptr) {
      s = bg_error_;
    }
    mutex_.unlock();
  }
  return s;
}

// Enter read-only degraded mode: the first persistent I/O error (failed WAL
// append/sync, flush, compaction, or manifest write) is latched and every
// subsequent write or compaction fails fast with it. Reads keep being served
// from whatever state is already durable/in memory; re-opening the DB after
// the underlying fault is repaired restores write availability.
void DBImpl::RecordBackgroundError(const Status& s) {
  if (bg_error_.ok()) {
    bg_error_ = s;
    background_work_finished_signal_.notify_all();
  }
}

void DBImpl::RunInlineCompactions() {
  if (in_inline_compaction_) return;  // Re-entrancy guard
  in_inline_compaction_ = true;
  while (bg_error_.ok() && !shutting_down_.load(std::memory_order_acquire)) {
    if (imm_ != nullptr) {
      CompactMemTable();
    } else if (versions_->NeedsCompaction()) {
      BackgroundCompaction();
    } else {
      break;
    }
  }
  in_inline_compaction_ = false;
}

void DBImpl::MaybeScheduleCompaction() {
  if (options_.inline_compactions) {
    RunInlineCompactions();
    return;
  }
  if (shutting_down_.load(std::memory_order_acquire)) return;
  if (!bg_error_.ok()) return;
  if (imm_ == nullptr && !versions_->NeedsCompaction()) return;
  pick_exhausted_ = false;  // state changed; picks are worth retrying
  if (bg_threads_.empty()) {
    const int n = options_.max_background_compactions;
    bg_threads_.reserve(n);
    for (int i = 0; i < n; i++) {
      bg_threads_.emplace_back(&DBImpl::BackgroundThreadMain, this);
    }
  }
  background_wakeup_.notify_all();
}

// Worker loop shared by the executor pool. Flushes take priority and run
// one at a time; compaction picks are guarded by the reservation map, so
// workers holding disjoint reservations merge concurrently.
void DBImpl::BackgroundThreadMain() {
  mutex_.lock();
  int reserve_failures = 0;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    if (!bg_error_.ok()) {
      background_wakeup_.wait(mutex_);
      continue;
    }
    if (imm_ != nullptr && !imm_flush_in_flight_) {
      imm_flush_in_flight_ = true;
      bg_active_++;
      CompactMemTable();
      bg_active_--;
      imm_flush_in_flight_ = false;
      reserve_failures = 0;
      background_work_finished_signal_.notify_all();
      background_wakeup_.notify_all();
      continue;
    }
    if (!pick_exhausted_ && versions_->NeedsCompaction()) {
      const uint64_t pick_start = NowMicros();
      Compaction* c = versions_->PickCompaction(&reservations_);
      const uint64_t ticket =
          (c != nullptr) ? reservations_.TryReserve(c) : 0;
      em_.pick_micros->AddMicros(NowMicros() - pick_start);
      if (c == nullptr) {
        // Every candidate conflicts with a running compaction (or the
        // trigger was stale). Cleared when state changes.
        pick_exhausted_ = true;
        background_work_finished_signal_.notify_all();
        continue;
      }
      if (ticket == 0) {
        // The expansion (overlap/grandparent growth) pulled in a conflict
        // the victim-level skip could not see. The compact_pointer_ already
        // rotated past this victim, so an immediate retry lands elsewhere;
        // after a few failures wait for a running compaction to finish.
        c->ReleaseInputs();
        delete c;
        if (++reserve_failures >= 8) {
          reserve_failures = 0;
          background_wakeup_.wait(mutex_);
        }
        continue;
      }
      reserve_failures = 0;
      bg_active_++;
      ExecuteCompaction(c);
      reservations_.Release(ticket);
      bg_active_--;
      pick_exhausted_ = false;
      background_work_finished_signal_.notify_all();
      background_wakeup_.notify_all();
      continue;
    }
    background_wakeup_.wait(mutex_);
  }
  mutex_.unlock();
}

// Inline-mode work unit (also exercised by RunInlineCompactions); the
// threaded executor drives ExecuteCompaction from BackgroundThreadMain.
void DBImpl::BackgroundCompaction() {
  if (imm_ != nullptr) {
    CompactMemTable();
    return;
  }

  const uint64_t pick_start = NowMicros();
  Compaction* c = versions_->PickCompaction();
  em_.pick_micros->AddMicros(NowMicros() - pick_start);
  if (c != nullptr) {
    ExecuteCompaction(c);
  }
}

void DBImpl::ExecuteCompaction(Compaction* c) {
  Status status;
  if (c->IsTrivialMove()) {
    // Move file to next level
    assert(c->num_input_files(0) == 1);
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->output_level(), f->number, f->file_size, f->smallest,
                       f->largest, f->set_id);
    status = versions_->LogAndApply(c->edit());
    if (!status.ok()) {
      RecordBackgroundError(status);
    }
    UpdateStallLevel();
    em_.compactions_at(c->output_level())->Inc();
    if (record_events_) {
      CompactionEvent ev;
      ev.level = c->level();
      ev.output_level = c->output_level();
      ev.num_inputs_base = 1;
      ev.num_outputs = 1;
      ev.input_bytes = f->file_size;
      ev.output_bytes = f->file_size;
      ev.trivial_move = true;
      events_.push_back(std::move(ev));
    }
  } else {
    CompactionState* compact = new CompactionState(c);
    compact->smallest_snapshot = snapshots_.empty()
                                     ? versions_->LastSequence()
                                     : snapshots_.oldest()->sequence_number();
    status = DoCompactionWork(compact);
    if (!status.ok()) {
      RecordBackgroundError(status);
    }
    CleanupCompaction(compact);
    c->ReleaseInputs();
    RemoveObsoleteFiles();
  }
  delete c;

  if (status.ok()) {
    // Done
  } else if (shutting_down_.load(std::memory_order_acquire)) {
    // Ignore compaction errors found during shutting down
  }
}

void DBImpl::CleanupCompaction(CompactionState* compact) {
  if (compact->builder != nullptr) {
    // May happen if we get a shutdown call in the middle of compaction
    compact->builder->Abandon();
    delete compact->builder;
  } else {
    assert(compact->outfile == nullptr);
  }
  compact->outfile.reset();
  for (size_t i = 0; i < compact->outputs.size(); i++) {
    const CompactionState::Output& out = compact->outputs[i];
    pending_outputs_.erase(out.number);
  }
  delete compact;
}

Status DBImpl::OpenCompactionOutputFile(CompactionState* compact) {
  assert(compact != nullptr);
  assert(compact->builder == nullptr);
  const uint64_t start = NowNanos();
  uint64_t file_number;
  {
    mutex_.lock();
    file_number = versions_->NewFileNumber();
    pending_outputs_.insert(file_number);
    CompactionState::Output out;
    out.number = file_number;
    out.smallest.Clear();
    out.largest.Clear();
    compact->outputs.push_back(out);
    mutex_.unlock();
  }

  // Make the output file
  std::string fname = TableFileName(dbname_, file_number);
  Status s;
  if (compact->region_id != 0) {
    // SEALDB: carve the table from the compaction's set region so the
    // whole set lands contiguously.
    s = store_->NewWritableFileInRegion(compact->region_id, fname,
                                        &compact->outfile);
  } else {
    s = store_->NewWritableFile(
        fname, compact->compaction->MaxOutputFileSize(),
        &compact->outfile);
  }
  if (s.ok()) {
    // Write the outputs through to the pool: their blocks replace the
    // inputs' pages, which die with the inputs.
    compact->builder =
        new TableBuilder(options_, compact->outfile.get(),
                         table_cache_->buffer_client(), file_number);
  }
  compact->output_nanos += NowNanos() - start;
  return s;
}

Status DBImpl::FinishCompactionOutputFile(CompactionState* compact,
                                          Iterator* input) {
  assert(compact != nullptr);
  assert(compact->outfile != nullptr);
  assert(compact->builder != nullptr);
  const uint64_t start = NowNanos();

  const uint64_t output_number = compact->current_output()->number;
  assert(output_number != 0);

  // Check for iterator errors
  Status s = input->status();
  const uint64_t current_entries = compact->builder->NumEntries();
  if (s.ok()) {
    s = compact->builder->Finish();
  } else {
    compact->builder->Abandon();
  }
  const uint64_t current_bytes = compact->builder->FileSize();
  compact->current_output()->file_size = current_bytes;
  compact->total_bytes += current_bytes;
  delete compact->builder;
  compact->builder = nullptr;

  // Finish and check for file errors
  if (s.ok()) {
    s = compact->outfile->Close();
  }
  compact->outfile.reset();

  if (s.ok() && current_entries > 0) {
    // Verify that the table is usable
    Iterator* iter = table_cache_->NewIterator(ReadOptions(), output_number,
                                               current_bytes);
    s = iter->status();
    delete iter;
  }
  compact->output_nanos += NowNanos() - start;
  return s;
}

Status DBImpl::InstallCompactionResults(CompactionState* compact) {
  // Add compaction outputs
  compact->compaction->AddInputDeletions(compact->compaction->edit());
  const int level = compact->compaction->level();
  const int out_level = compact->compaction->output_level();
  (void)level;
  for (size_t i = 0; i < compact->outputs.size(); i++) {
    const CompactionState::Output& out = compact->outputs[i];
    compact->compaction->edit()->AddFile(out_level, out.number, out.file_size,
                                         out.smallest, out.largest,
                                         compact->region_id);
  }
  Status s = versions_->LogAndApply(compact->compaction->edit());
  if (s.ok()) UpdateStallLevel();
  if (s.ok() && set_manager_ != nullptr && compact->region_id != 0) {
    std::vector<uint64_t> files;
    files.reserve(compact->outputs.size());
    for (const auto& out : compact->outputs) files.push_back(out.number);
    set_manager_->RegisterSet(compact->region_id, files, compact->total_bytes,
                              out_level);
  }
  return s;
}

Status DBImpl::DoCompactionWork(CompactionState* compact) {
  // The drive's busy counter is an atomic; no FileStore lock needed.
  const obs::TimeCounter* device_busy = store_->drive()->metrics().busy;
  const double device_before = device_busy->Seconds();

  assert(versions_->NumLevelFiles(compact->compaction->level()) > 0);
  assert(compact->builder == nullptr);
  assert(compact->outfile == nullptr);

  compactions_in_flight_++;
  em_.max_parallel->SetMax(compactions_in_flight_);
  if (hold_min_level_ >= 0) {
    HoldForParallelCompaction(compact->compaction->level());
  }

  if (snapshots_.empty()) {
    compact->smallest_snapshot = versions_->LastSequence();
  } else {
    compact->smallest_snapshot = snapshots_.oldest()->sequence_number();
  }

  const uint64_t input_bytes = compact->compaction->TotalInputBytes();

  // SEALDB: reserve one contiguous region for the whole output set before
  // writing (dynamic band management, Eq. 1 applied inside the allocator).
  if (options_.compaction_unit == CompactionUnit::kSet) {
    // Outputs roughly equal inputs; the slack covers per-table format
    // overhead and is returned to the free list by SealRegion.
    const uint64_t region_size =
        input_bytes + input_bytes / 16 + 2 * options_.max_file_size;
    mutex_.unlock();
    // With background compactions, flushes may append behind the region
    // while it is still being filled; reserve a trailing guard then.
    Status rs = store_->AllocateRegion(region_size, &compact->region_id,
                                       !options_.inline_compactions);
    mutex_.lock();
    if (!rs.ok()) {
      // Fall back to per-file placement rather than failing the compaction.
      compact->region_id = 0;
    }
  }

  // Deletion markers can only be dropped when no older version of the key
  // can exist outside the compaction. With an overlapping last level
  // (SMRDB mode), runs not participating in this compaction may still hold
  // older versions, so markers must be kept unless the compaction covers
  // the entire level.
  bool allow_delete_drop = true;
  if (options_.allow_overlap_last_level &&
      compact->compaction->output_level() == options_.num_levels - 1) {
    const int out_level = compact->compaction->output_level();
    const int which = compact->compaction->level() == out_level ? 0 : 1;
    const size_t in_level_inputs = compact->compaction->num_input_files(which);
    allow_delete_drop =
        in_level_inputs == versions_->current()->files(out_level).size();
  }

  Iterator* input = versions_->MakeInputIterator(compact->compaction);

  // Release mutex while we're actually doing the compaction work
  mutex_.unlock();

  // Stage split: the loop's total and every output file open/finish are
  // timed exactly; only every kStageSampleStride-th key times its read,
  // merge and write steps, and the loop's remaining time is divided
  // between the stages in the sampled proportions.
  const uint64_t loop_start = NowNanos();
  input->SeekToFirst();
  const uint64_t seek_nanos = NowNanos() - loop_start;
  uint64_t flush_nanos = 0;  // memtable flushes run from this loop
  uint64_t sampled_read = 0, sampled_merge = 0, sampled_write = 0;
  uint64_t keys = 0;
  // A sampled step excludes output file open/finish: those are timed
  // exactly and charged to write.
  uint64_t step_start = 0, step_output = 0;
  auto end_step = [&](uint64_t* sampled_total) {
    const uint64_t now = NowNanos();
    const uint64_t output = compact->output_nanos - step_output;
    const uint64_t elapsed = now - step_start;
    *sampled_total += elapsed > output ? elapsed - output : 0;
    step_start = now;
    step_output = compact->output_nanos;
  };
  Status status;
  ParsedInternalKey ikey;
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  while (input->Valid() && !shutting_down_.load(std::memory_order_acquire)) {
    // Prioritize immutable compaction work
    if (has_imm_.load(std::memory_order_relaxed) &&
        !options_.inline_compactions) {
      const uint64_t flush_start = NowNanos();
      mutex_.lock();
      if (imm_ != nullptr && !imm_flush_in_flight_) {
        imm_flush_in_flight_ = true;
        CompactMemTable();
        imm_flush_in_flight_ = false;
        // Wake up MakeRoomForWrite() if necessary.
        background_work_finished_signal_.notify_all();
        background_wakeup_.notify_all();
      }
      mutex_.unlock();
      flush_nanos += NowNanos() - flush_start;
    }

    const bool sampled = keys++ % kStageSampleStride == 0;
    if (sampled) {
      step_start = NowNanos();
      step_output = compact->output_nanos;
    }
    Slice key = input->key();
    if (compact->compaction->ShouldStopBefore(key) &&
        compact->builder != nullptr) {
      status = FinishCompactionOutputFile(compact, input);
      if (!status.ok()) {
        break;
      }
    }

    // Handle key/value, add to state, etc.
    bool drop = false;
    if (!ParseInternalKey(key, &ikey)) {
      // Do not hide error keys
      current_user_key.clear();
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key ||
          user_comparator()->Compare(ikey.user_key, Slice(current_user_key)) !=
              0) {
        // First occurrence of this user key
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }

      if (last_sequence_for_key <= compact->smallest_snapshot) {
        // Hidden by an newer entry for same user key
        drop = true;  // (A)
      } else if (ikey.type == kTypeDeletion && allow_delete_drop &&
                 ikey.sequence <= compact->smallest_snapshot &&
                 compact->compaction->IsBaseLevelForKey(ikey.user_key)) {
        // For this user key:
        // (1) there is no data in higher levels
        // (2) data in lower levels will have larger sequence numbers
        // (3) data in layers that are being compacted here and have
        //     smaller sequence numbers will be dropped in the next
        //     few iterations of this loop (by rule (A) above).
        // Therefore this deletion marker is obsolete and can be dropped.
        drop = true;
      }

      last_sequence_for_key = ikey.sequence;
    }
    if (sampled) end_step(&sampled_merge);

    if (!drop) {
      // Open output file if necessary
      if (compact->builder == nullptr) {
        status = OpenCompactionOutputFile(compact);
        if (!status.ok()) {
          break;
        }
      }
      if (compact->builder->NumEntries() == 0) {
        compact->current_output()->smallest.DecodeFrom(key);
      }
      compact->current_output()->largest.DecodeFrom(key);
      compact->builder->Add(key, input->value());

      // Close output file if it is big enough
      if (compact->builder->FileSize() >=
          compact->compaction->MaxOutputFileSize()) {
        status = FinishCompactionOutputFile(compact, input);
        if (!status.ok()) {
          break;
        }
      }
    }

    if (sampled) end_step(&sampled_write);
    input->Next();
    if (sampled) end_step(&sampled_read);
  }

  if (status.ok() && shutting_down_.load(std::memory_order_acquire)) {
    status = Status::IOError("Deleting DB during compaction");
  }
  if (status.ok() && compact->builder != nullptr) {
    status = FinishCompactionOutputFile(compact, input);
  }
  if (status.ok()) {
    status = input->status();
  }
  delete input;
  input = nullptr;

  const uint64_t loop_nanos = NowNanos() - loop_start - flush_nanos;
  const uint64_t per_key_nanos =
      loop_nanos > seek_nanos + compact->output_nanos
          ? loop_nanos - seek_nanos - compact->output_nanos
          : 0;
  const uint64_t sampled_total = sampled_read + sampled_merge + sampled_write;
  const double scale =
      sampled_total > 0 ? static_cast<double>(per_key_nanos) / sampled_total
                        : 0.0;
  const uint64_t read_nanos =
      seek_nanos + static_cast<uint64_t>(sampled_read * scale);
  const uint64_t merge_nanos = static_cast<uint64_t>(sampled_merge * scale);
  const uint64_t write_nanos =
      loop_nanos > read_nanos + merge_nanos
          ? loop_nanos - read_nanos - merge_nanos
          : 0;

  if (status.ok() && compact->region_id != 0) {
    // Return the unused tail of the set region to the free-space list.
    status = store_->SealRegion(compact->region_id);
  }

  mutex_.lock();

  const double device_seconds = device_busy->Seconds() - device_before;
  const int out_level = compact->compaction->output_level();
  em_.compactions_at(out_level)->Inc();
  em_.compaction_read_bytes->Add(input_bytes);
  em_.compaction_write_bytes->Add(compact->total_bytes);
  em_.compaction_device->AddSeconds(device_seconds);
  em_.read_micros->AddNanos(read_nanos);
  em_.merge_micros->AddNanos(merge_nanos);
  em_.write_micros->AddNanos(write_nanos);
  em_.compaction_micros_at(out_level)->AddNanos(read_nanos + merge_nanos +
                                                write_nanos);

  if (status.ok()) {
    const uint64_t install_start = NowMicros();
    status = InstallCompactionResults(compact);
    em_.install_micros->AddMicros(NowMicros() - install_start);
  }
  if (!status.ok()) {
    RecordBackgroundError(status);
  }
  compactions_in_flight_--;

  if (record_events_) {
    CompactionEvent ev;
    ev.level = compact->compaction->level();
    ev.output_level = compact->compaction->output_level();
    ev.num_inputs_base = compact->compaction->num_input_files(0);
    ev.num_inputs_parent = compact->compaction->num_input_files(1);
    ev.num_outputs = static_cast<int>(compact->outputs.size());
    ev.input_bytes = input_bytes;
    ev.output_bytes = compact->total_bytes;
    ev.device_seconds = device_seconds;
    ev.set_id = compact->region_id;
    for (const auto& out : compact->outputs) {
      std::vector<fs::Extent> extents;
      if (store_
              ->GetFileExtents(TableFileName(dbname_, out.number), &extents)
              .ok()) {
        for (const fs::Extent& e : extents) {
          ev.output_placement.emplace_back(e.offset, e.length);
        }
      }
    }
    events_.push_back(std::move(ev));
  }

  return status;
}

namespace {

struct IterState {
  std::mutex* const mu;
  Version* const version;
  MemTable* const mem;
  MemTable* const imm;

  IterState(std::mutex* mutex, MemTable* mem, MemTable* imm, Version* version)
      : mu(mutex), version(version), mem(mem), imm(imm) {}
};

void CleanupIteratorState(void* arg1, void* arg2) {
  (void)arg2;
  IterState* state = reinterpret_cast<IterState*>(arg1);
  state->mu->lock();
  state->mem->Unref();
  if (state->imm != nullptr) state->imm->Unref();
  state->version->Unref();
  state->mu->unlock();
  delete state;
}

}  // anonymous namespace

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* latest_snapshot,
                                      uint32_t* seed) {
  mutex_.lock();
  *latest_snapshot = versions_->LastSequence();

  // Collect together all needed child iterators
  std::vector<Iterator*> list;
  list.push_back(mem_->NewIterator());
  mem_->Ref();
  if (imm_ != nullptr) {
    list.push_back(imm_->NewIterator());
    imm_->Ref();
  }
  versions_->current()->AddIterators(options, &list);
  Iterator* internal_iter =
      NewMergingIterator(&internal_comparator_, &list[0], list.size());
  versions_->current()->Ref();

  IterState* cleanup =
      new IterState(&mutex_, mem_, imm_, versions_->current());
  internal_iter->RegisterCleanup(CleanupIteratorState, cleanup, nullptr);

  *seed = ++seed_;
  mutex_.unlock();
  return internal_iter;
}

void DBImpl::TEST_HoldCompactionUntilParallel(
    int min_level, std::chrono::milliseconds budget) {
  std::lock_guard<std::mutex> l(mutex_);
  hold_min_level_ = min_level;
  hold_until_ = std::chrono::steady_clock::now() + budget;
}

void DBImpl::HoldForParallelCompaction(int level) {
  if (compactions_in_flight_ >= 2 ||
      std::chrono::steady_clock::now() >= hold_until_) {
    hold_min_level_ = -1;
    background_work_finished_signal_.notify_all();  // release a held one
    return;
  }
  if (level < hold_min_level_ ||
      versions_->NumLevelBytes(level) <= versions_->MaxBytesForLevel(level)) {
    return;
  }
  pick_exhausted_ = false;
  background_wakeup_.notify_all();
  const auto until = std::min(
      hold_until_,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250));
  background_work_finished_signal_.wait_until(mutex_, until, [this] {
    return compactions_in_flight_ >= 2 ||
           shutting_down_.load(std::memory_order_acquire);
  });
}

Iterator* DBImpl::TEST_NewInternalIterator() {
  SequenceNumber ignored;
  uint32_t ignored_seed;
  return NewInternalIterator(ReadOptions(), &ignored, &ignored_seed);
}

int64_t DBImpl::TEST_MaxNextLevelOverlappingBytes() {
  mutex_.lock();
  int64_t result = 0;
  Version* v = versions_->current();
  for (int level = 1; level < versions_->NumLevels() - 1; level++) {
    for (const FileMetaData* f : v->files(level)) {
      std::vector<FileMetaData*> overlaps;
      v->GetOverlappingInputs(level + 1, &f->smallest, &f->largest, &overlaps);
      int64_t sum = 0;
      for (const FileMetaData* o : overlaps) sum += o->file_size;
      if (sum > result) result = sum;
    }
  }
  mutex_.unlock();
  return result;
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  Status s;
  mutex_.lock();
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot =
        static_cast<const SnapshotImpl*>(options.snapshot)->sequence_number();
  } else {
    snapshot = versions_->LastSequence();
  }

  MemTable* mem = mem_;
  MemTable* imm = imm_;
  Version* current = versions_->current();
  mem->Ref();
  if (imm != nullptr) imm->Ref();
  current->Ref();

  bool have_stat_update = false;
  Version::GetStats stats;

  // Unlock while reading from files and memtables
  {
    mutex_.unlock();
    // First look in the memtable, then in the immutable memtable (if any).
    LookupKey lkey(key, snapshot);
    if (mem->Get(lkey, value, &s)) {
      // Done
    } else if (imm != nullptr && imm->Get(lkey, value, &s)) {
      // Done
    } else {
      s = current->Get(options, lkey, value, &stats);
      have_stat_update = true;
    }
    mutex_.lock();
  }

  if (have_stat_update && current->UpdateStats(stats)) {
    MaybeScheduleCompaction();
  }
  mem->Unref();
  if (imm != nullptr) imm->Unref();
  current->Unref();
  mutex_.unlock();
  return s;
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber latest_snapshot;
  uint32_t seed;
  Iterator* iter = NewInternalIterator(options, &latest_snapshot, &seed);
  return NewDBIterator(this, user_comparator(), iter,
                       (options.snapshot != nullptr
                            ? static_cast<const SnapshotImpl*>(options.snapshot)
                                  ->sequence_number()
                            : latest_snapshot),
                       seed);
}

const Snapshot* DBImpl::GetSnapshot() {
  mutex_.lock();
  const Snapshot* s = snapshots_.New(versions_->LastSequence());
  mutex_.unlock();
  return s;
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  mutex_.lock();
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
  mutex_.unlock();
}

// Convenience methods
Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& val) {
  WriteBatch batch;
  batch.Put(key, val);
  return Write(o, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  Writer w(&mutex_);
  w.batch = updates;
  w.sync = options.sync;
  w.done = false;

  mutex_.lock();
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(mutex_);
  }
  if (w.done) {
    mutex_.unlock();
    return w.status;
  }

  // May temporarily unlock and wait.
  Status status = MakeRoomForWrite(updates == nullptr);
  uint64_t last_sequence = versions_->LastSequence();
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {  // nullptr batch is for compactions
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    WriteBatchInternal::SetSequence(write_batch, last_sequence + 1);
    last_sequence += WriteBatchInternal::Count(write_batch);

    // Add to log and apply to memtable.  We can release the lock
    // during this phase since &w is currently responsible for logging
    // and protects against concurrent loggers and concurrent writes
    // into mem_.
    {
      mutex_.unlock();
      const Slice contents = WriteBatchInternal::Contents(write_batch);
      status = log_->AddRecord(contents);
      bool wal_error = !status.ok();
      if (status.ok() && options.sync) {
        // Pad to a full device block so the sync makes everything durable
        // without ever rewriting a block in place (SMR requirement).
        status = log_->PadToBlockBoundary();
        if (status.ok()) {
          status = logfile_->Sync();
        }
        if (!status.ok()) {
          wal_error = true;
        }
      }
      if (status.ok()) {
        status = WriteBatchInternal::InsertInto(write_batch, mem_);
      }
      mutex_.lock();
      em_.wal_bytes->Add(contents.size());
      // Count only the user payload (keys + values) toward user bytes.
      em_.user_bytes->Add(contents.size() - 12);
      if (wal_error) {
        // The state of the log file is indeterminate: the log record we
        // just added (or a chunk of an earlier buffered one) may or may
        // not show up when the DB is re-opened. So we force the DB into
        // read-only mode, where all future writes fail.
        RecordBackgroundError(status);
      }
    }
    if (write_batch == tmp_batch_) tmp_batch_->Clear();

    versions_->SetLastSequence(last_sequence);
  }

  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }

  // Notify new head of write queue
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }

  mutex_.unlock();

  return status;
}

// REQUIRES: Writer list must be non-empty
// REQUIRES: First writer must have a non-null batch
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the
  // original write is small, limit the growth so we do not slow
  // down the small write too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *last_writer = first;
  std::deque<Writer*>::iterator iter = writers_.begin();
  ++iter;  // Advance past "first"
  for (; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a non-sync write.
      break;
    }

    if (w->batch != nullptr) {
      size += WriteBatchInternal::ByteSize(w->batch);
      if (size > max_size) {
        // Do not make batch too big
        break;
      }

      // Append to *result
      if (result == first->batch) {
        // Switch to temporary batch instead of disturbing caller's batch
        result = tmp_batch_;
        assert(WriteBatchInternal::Count(result) == 0);
        WriteBatchInternal::Append(result, first->batch);
      }
      WriteBatchInternal::Append(result, w->batch);
    }
    *last_writer = w;
  }
  return result;
}

// REQUIRES: mutex_ is held
// REQUIRES: this thread is currently at the front of the writer queue
Status DBImpl::MakeRoomForWrite(bool force) {
  assert(!writers_.empty());
  bool allow_delay = !force;
  Status s;
  while (true) {
    UpdateStallLevel();
    if (!bg_error_.ok()) {
      // Yield previous error
      s = bg_error_;
      break;
    } else if (allow_delay &&
               versions_->NumLevelFiles(0) >=
                   options_.level0_slowdown_writes_trigger) {
      // We are getting close to hitting a hard limit on the number of
      // L0 files.  Rather than delaying a single write by several
      // seconds when we hit the hard limit, start compacting.
      allow_delay = false;  // Do not delay a single write more than once
      em_.stall_slowdowns->Inc();
      if (options_.inline_compactions) {
        MaybeScheduleCompaction();
      }
      // (No wall-clock sleep: device time is simulated.)
    } else if (!force && (mem_->ApproximateMemoryUsage() <=
                          options_.write_buffer_size)) {
      // There is room in current memtable
      break;
    } else if (imm_ != nullptr) {
      // We have filled up the current memtable, but the previous
      // one is still being compacted, so we wait.
      em_.stall_stops->Inc();
      if (options_.inline_compactions) {
        CompactMemTable();
      } else {
        MaybeScheduleCompaction();
        const uint64_t stall_start = NowMicros();
        background_work_finished_signal_.wait(mutex_);
        em_.stall_micros->AddMicros(NowMicros() - stall_start);
      }
    } else if (versions_->NumLevelFiles(0) >=
               options_.level0_stop_writes_trigger) {
      // There are too many level-0 files.
      em_.stall_stops->Inc();
      if (options_.inline_compactions) {
        MaybeScheduleCompaction();
      } else {
        MaybeScheduleCompaction();
        const uint64_t stall_start = NowMicros();
        background_work_finished_signal_.wait(mutex_);
        em_.stall_micros->AddMicros(NowMicros() - stall_start);
      }
    } else {
      // Attempt to switch to a new memtable and trigger compaction of old
      assert(versions_->PrevLogNumber() == 0);
      uint64_t new_log_number = versions_->NewFileNumber();
      std::unique_ptr<fs::WritableFile> lfile;
      s = store_->NewWritableFile(LogFileName(dbname_, new_log_number),
                                  options_.write_buffer_size * 2, &lfile,
                                  /*appendable=*/true);
      if (!s.ok()) {
        // Avoid chewing through file number space in a tight loop.
        versions_->ReuseFileNumber(new_log_number);
        break;
      }
      log_.reset();
      logfile_ = std::move(lfile);
      logfile_number_ = new_log_number;
      log_ = std::make_unique<log::Writer>(logfile_.get());
      imm_ = mem_;
      has_imm_.store(true, std::memory_order_release);
      mem_ = new MemTable(internal_comparator_);
      mem_->Ref();
      force = false;  // Do not force another compaction if have room
      MaybeScheduleCompaction();
    }
  }
  UpdateStallLevel();
  return s;
}

void DBImpl::UpdateStallLevel() {
  const int l0 = versions_->NumLevelFiles(0);
  int level = 0;
  if (l0 >= options_.level0_stop_writes_trigger) {
    level = 2;
  } else if (l0 >= options_.level0_slowdown_writes_trigger ||
             imm_ != nullptr) {
    level = 1;
  }
  stall_level_.store(level, std::memory_order_relaxed);
  em_.stall_level->Set(level);
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();

  mutex_.lock();
  Slice in = property;
  Slice prefix("sealdb.");
  bool ok = false;
  if (in.starts_with(prefix)) {
    in.remove_prefix(prefix.size());

    if (in.starts_with("num-files-at-level")) {
      in.remove_prefix(strlen("num-files-at-level"));
      uint64_t level;
      ok = ConsumeDecimalNumber(&in, &level) && in.empty();
      if (ok && level < static_cast<uint64_t>(versions_->NumLevels())) {
        char buf[100];
        std::snprintf(buf, sizeof(buf), "%d",
                      versions_->NumLevelFiles(static_cast<int>(level)));
        *value = buf;
      } else {
        ok = false;
      }
    } else if (in == "stats") {
      // Rendered from the metrics registry (the same counters METRICS
      // exposes), not from a separate stats struct.
      const uint64_t user = em_.user_bytes->Value();
      const uint64_t flush = em_.flush_bytes->Value();
      const uint64_t compact_write = em_.compaction_write_bytes->Value();
      char buf[800];
      std::snprintf(
          buf, sizeof(buf),
          "flushes: %llu, compactions: %llu\n"
          "user MB: %.1f, flush MB: %.1f, compact write MB: %.1f\n"
          "WA: %.2f, compaction device time: %.3f s\n"
          "compaction stage micros: pick %llu, read %llu, merge %llu, "
          "write %llu, install %llu\n"
          "max parallel compactions: %llu\n"
          "write stalls: %llu slowdowns, %llu stops, %llu micros parked "
          "(level now %d)\n",
          static_cast<unsigned long long>(em_.flushes->Value()),
          static_cast<unsigned long long>(em_.total_compactions()),
          user / 1048576.0, flush / 1048576.0, compact_write / 1048576.0,
          WriteAmp(user, flush, compact_write),
          em_.compaction_device->Seconds(),
          static_cast<unsigned long long>(em_.pick_micros->Micros()),
          static_cast<unsigned long long>(em_.read_micros->Micros()),
          static_cast<unsigned long long>(em_.merge_micros->Micros()),
          static_cast<unsigned long long>(em_.write_micros->Micros()),
          static_cast<unsigned long long>(em_.install_micros->Micros()),
          static_cast<unsigned long long>(em_.max_parallel->Value()),
          static_cast<unsigned long long>(em_.stall_slowdowns->Value()),
          static_cast<unsigned long long>(em_.stall_stops->Value()),
          static_cast<unsigned long long>(em_.stall_micros->Micros()),
          stall_level_.load(std::memory_order_relaxed));
      *value = buf;
      ok = true;
    } else if (in == "sstables") {
      *value = versions_->current()->DebugString();
      ok = true;
    } else if (in == "background-error") {
      // "OK" when healthy; otherwise the latched error that put the DB in
      // read-only mode.
      *value = bg_error_.ToString();
      ok = true;
    } else if (in == "approximate-memory-usage") {
      size_t total_usage = 0;
      if (options_.buffer_pool != nullptr) {
        // A shared pool's bytes belong to the whole stack; count them once
        // (in the unlabeled or shard-0 engine) so a sharded stack summing
        // per-shard properties doesn't multiply the pool.
        if (owned_buffer_pool_ != nullptr ||
            options_.metrics_shard_label.empty() ||
            options_.metrics_shard_label == "0") {
          total_usage += options_.buffer_pool->usage_bytes();
        }
      }
      if (mem_) {
        total_usage += mem_->ApproximateMemoryUsage();
      }
      if (imm_) {
        total_usage += imm_->ApproximateMemoryUsage();
      }
      if (options_.external_memory_bytes != nullptr) {
        total_usage += options_.external_memory_bytes->load(
            std::memory_order_relaxed);
      }
      char buf[50];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(total_usage));
      *value = buf;
      ok = true;
    }
  }
  mutex_.unlock();
  return ok;
}

void DBImpl::WaitForIdle() {
  mutex_.lock();
  if (options_.inline_compactions) {
    RunInlineCompactions();
  } else {
    // pick_exhausted_ breaks the NeedsCompaction() check when the trigger
    // is stale (nothing is actually runnable); it is cleared whenever a
    // flush or compaction installs new state.
    while (bg_error_.ok() &&
           (imm_ != nullptr || bg_active_ > 0 ||
            (!pick_exhausted_ && versions_->NeedsCompaction()))) {
      MaybeScheduleCompaction();
      background_work_finished_signal_.wait(mutex_);
    }
  }
  mutex_.unlock();
}

std::vector<LiveFileMeta> DBImpl::GetLiveFilesMetadata() {
  std::vector<LiveFileMeta> out;
  mutex_.lock();
  Version* v = versions_->current();
  for (int level = 0; level < versions_->NumLevels(); level++) {
    for (const FileMetaData* f : v->files(level)) {
      LiveFileMeta m;
      m.number = f->number;
      m.level = level;
      m.file_size = f->file_size;
      m.set_id = f->set_id;
      m.smallest_user_key = f->smallest.user_key().ToString();
      m.largest_user_key = f->largest.user_key().ToString();
      out.push_back(std::move(m));
    }
  }
  mutex_.unlock();
  return out;
}

void DBImpl::SetRecordCompactionEvents(bool enable) {
  mutex_.lock();
  record_events_ = enable;
  mutex_.unlock();
}

std::vector<CompactionEvent> DBImpl::TakeCompactionEvents() {
  mutex_.lock();
  std::vector<CompactionEvent> out;
  out.swap(events_);
  mutex_.unlock();
  return out;
}

Status DB::Open(const Options& options, const std::string& dbname,
                fs::FileStore* store, DB** dbptr) {
  *dbptr = nullptr;

  DBImpl* impl = new DBImpl(options, dbname, store);
  impl->mutex_.lock();
  VersionEdit edit;
  // Recover handles create_if_missing, error_if_exists
  bool save_manifest = false;
  Status s = impl->Recover(&edit, &save_manifest);
  if (s.ok() && impl->mem_ == nullptr) {
    // Create new log and a corresponding memtable.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    std::unique_ptr<fs::WritableFile> lfile;
    s = store->NewWritableFile(LogFileName(dbname, new_log_number),
                               impl->options_.write_buffer_size * 2, &lfile,
                               /*appendable=*/true);
    if (s.ok()) {
      edit.SetLogNumber(new_log_number);
      impl->logfile_ = std::move(lfile);
      impl->logfile_number_ = new_log_number;
      impl->log_ = std::make_unique<log::Writer>(impl->logfile_.get());
      impl->mem_ = new MemTable(impl->internal_comparator_);
      impl->mem_->Ref();
    }
  }
  if (s.ok() && save_manifest) {
    edit.SetPrevLogNumber(0);  // No older logs needed after recovery.
    edit.SetLogNumber(impl->logfile_number_);
    s = impl->versions_->LogAndApply(&edit);
  }
  if (s.ok()) {
    impl->RemoveObsoleteFiles();
    impl->MaybeScheduleCompaction();
  }
  impl->mutex_.unlock();
  if (s.ok()) {
    assert(impl->mem_ != nullptr);
    *dbptr = impl;
  } else {
    delete impl;
  }
  return s;
}

Status DestroyDB(const std::string& dbname, const Options& options,
                 fs::FileStore* store) {
  (void)options;
  std::vector<std::string> filenames = store->GetChildren();
  const std::string prefix = dbname + "/";
  Status result;
  for (const std::string& name : filenames) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      Status del = store->RemoveFile(name);
      if (result.ok() && !del.ok()) {
        result = del;
      }
    }
  }
  return result;
}

}  // namespace sealdb

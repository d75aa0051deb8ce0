#include "fs/file_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace sealdb::fs {

namespace {

// Adaptive readahead: sequential access streams this much per media read.
constexpr uint64_t kReadaheadBytes = 256 * 1024;
// Writable files push data to the media in chunks of this size.
constexpr uint64_t kFlushChunkBytes = 256 * 1024;
// Total read attempts per drive request before an IOError is classified as
// permanent and the failing blocks are quarantined.
constexpr int kReadAttempts = 3;

uint64_t RoundUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }
uint64_t RoundDown(uint64_t v, uint64_t a) { return v / a * a; }

std::string ExtentToString(const Extent& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%llu, +%llu, guard %llu]",
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.length),
                static_cast<unsigned long long>(e.guard));
  return buf;
}

}  // namespace

std::string Extent::ToString() const { return ExtentToString(*this); }

// ---------------------------------------------------------------------
// File handle implementations
// ---------------------------------------------------------------------

class StoreWritableFile final : public WritableFile {
 public:
  StoreWritableFile(FileStore* store, std::string name, uint64_t size_hint)
      : store_(store), name_(std::move(name)), size_hint_(size_hint) {}

  ~StoreWritableFile() override {
    if (!closed_) Close();
  }

  Status Append(const Slice& data) override {
    buffer_.append(data.data(), data.size());
    if (buffer_.size() >= kFlushChunkBytes) return Flush();
    return Status::OK();
  }

  Status Flush() override {
    const uint64_t block = store_->drive()->geometry().block_bytes;
    const uint64_t complete = RoundDown(buffer_.size(), block);
    if (complete == 0) return Status::OK();
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file removed while open", name_);
    }
    Status s = store_->WriteAt(&it->second, flushed_,
                               Slice(buffer_.data(), complete), size_hint_);
    if (!s.ok()) return s;
    flushed_ += complete;
    buffer_.erase(0, complete);
    it->second.size = std::max(it->second.size, flushed_);
    return Status::OK();
  }

  Status Sync() override {
    Status s = Flush();
    if (!s.ok()) return s;
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file removed while open", name_);
    }
    return store_->PersistFileMeta(kUpdateFile, name_, it->second);
  }

  Status Close() override {
    if (closed_) return Status::OK();
    closed_ = true;
    const uint64_t block = store_->drive()->geometry().block_bytes;
    const uint64_t logical = flushed_ + buffer_.size();
    // Pad the final partial block; the logical size below keeps readers
    // from seeing the padding.
    if (buffer_.size() % block != 0) {
      buffer_.resize(RoundUp(buffer_.size(), block), '\0');
    }
    if (!buffer_.empty()) {
      std::lock_guard<std::mutex> l(store_->mu_);
      auto it = store_->files_.find(name_);
      if (it == store_->files_.end()) {
        return Status::IOError("file removed while open", name_);
      }
      Status s = store_->WriteAt(&it->second, flushed_, Slice(buffer_),
                                 size_hint_);
      if (!s.ok()) return s;
      flushed_ += buffer_.size();
      buffer_.clear();
      it->second.size = logical;
      store_->ShrinkToFit(&it->second);
      return store_->PersistFileMeta(kUpdateFile, name_,
                                     it->second);
    }
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file removed while open", name_);
    }
    it->second.size = logical;
    store_->ShrinkToFit(&it->second);
    return store_->PersistFileMeta(kUpdateFile, name_, it->second);
  }

 private:
  FileStore* store_;
  std::string name_;
  uint64_t size_hint_;
  std::string buffer_;
  uint64_t flushed_ = 0;  // durable, block-aligned prefix
  bool closed_ = false;
};

class StoreRandomAccessFile final : public RandomAccessFile {
 public:
  StoreRandomAccessFile(FileStore* store, std::string name)
      : store_(store), name_(std::move(name)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    std::lock_guard<std::mutex> l(store_->mu_);
    auto it = store_->files_.find(name_);
    if (it == store_->files_.end()) {
      return Status::IOError("file not found", name_);
    }
    const FileStore::FileMeta& meta = it->second;
    if (offset >= meta.size) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    n = std::min<uint64_t>(n, meta.size - offset);

    // Serve from the readahead buffer when possible.
    if (offset >= buf_offset_ && offset + n <= buf_offset_ + buf_.size()) {
      std::memcpy(scratch, buf_.data() + (offset - buf_offset_), n);
      *result = Slice(scratch, n);
      return Status::OK();
    }

    // Choose fetch size: stream ahead on sequential access patterns, fetch
    // tightly on random ones.
    const bool sequential = offset == last_end_;
    last_end_ = offset + n;
    uint64_t fetch_len = sequential ? std::max<uint64_t>(n, kReadaheadBytes)
                                    : n;
    const uint64_t block = store_->drive()->geometry().block_bytes;
    const uint64_t fetch_begin = RoundDown(offset, block);
    fetch_len = RoundUp(offset + fetch_len, block) - fetch_begin;
    fetch_len = std::min(fetch_len,
                         RoundUp(meta.size, block) - fetch_begin);

    buf_.resize(fetch_len);
    buf_offset_ = fetch_begin;
    Status s = store_->ReadExtents(meta, fetch_begin, fetch_len, buf_.data());
    if (!s.ok()) {
      buf_.clear();
      return s;
    }
    std::memcpy(scratch, buf_.data() + (offset - buf_offset_), n);
    *result = Slice(scratch, n);
    return Status::OK();
  }

 private:
  FileStore* store_;
  std::string name_;
  mutable std::string buf_;
  mutable uint64_t buf_offset_ = 0;
  mutable uint64_t last_end_ = UINT64_MAX;
};

class StoreSequentialFile final : public SequentialFile {
 public:
  StoreSequentialFile(FileStore* store, std::string name)
      : file_(store, std::move(name)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = file_.Read(pos_, n, result, scratch);
    if (s.ok()) pos_ += result->size();
    return s;
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  StoreRandomAccessFile file_;
  uint64_t pos_ = 0;
};

// Double-buffered streaming reader for front-to-back scans. The file is
// divided into a grid of `window_`-byte chunks; two slots (chunk k in slot
// k % 2) hold the current chunk and its successor. When a read first
// touches chunk k, chunk k+1 is fetched right after it, so a front-to-back
// scan issues one large device read per chunk, in file order, one chunk
// early: the drive sees chunk k+1's request before the merge writes the
// outputs built from chunk k. A read error on the fetched-ahead chunk is
// kept in its slot and returned only when that chunk is used. Random access
// still works: any miss falls back to a synchronous chunk fetch.
//
// Every fetch happens on the caller's thread, so the drive sees the same
// request order on every run.
class StoreReadaheadFile final : public RandomAccessFile {
 public:
  StoreReadaheadFile(FileStore* store, std::string name, uint64_t window,
                     uint64_t size)
      : store_(store), name_(std::move(name)), window_(window), size_(size) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (offset >= size_) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    n = std::min<uint64_t>(n, size_ - offset);
    const uint64_t first = offset / window_;
    const uint64_t last = (offset + n - 1) / window_;

    std::lock_guard<std::mutex> l(m_);
    uint64_t copied = 0;
    for (uint64_t k = first; k <= last; k++) {
      const Slot& slot = EnsureChunk(k);
      if (!slot.status.ok()) return slot.status;
      const uint64_t begin = std::max(offset, k * window_);
      const uint64_t end = std::min<uint64_t>(offset + n, (k + 1) * window_);
      std::memcpy(scratch + copied, slot.data.data() + (begin - k * window_),
                  end - begin);
      copied += end - begin;
    }
    // Keep one chunk ahead of the caller.
    if ((last + 1) * window_ < size_) EnsureChunk(last + 1);
    *result = Slice(scratch, copied);
    return Status::OK();
  }

 private:
  struct Slot {
    uint64_t index = UINT64_MAX;
    Status status;
    std::string data;
  };

  // Make chunk k resident in slot k % 2, fetching it on a miss. Requires m_.
  const Slot& EnsureChunk(uint64_t k) const {
    Slot& slot = slots_[k % 2];
    if (slot.index == k) return slot;
    const uint64_t block = store_->drive()->geometry().block_bytes;
    const uint64_t len = std::min(window_, RoundUp(size_, block) - k * window_);
    slot.index = k;
    slot.data.resize(len);
    slot.status =
        store_->ReadFileRange(name_, k * window_, len, slot.data.data());
    return slot;
  }

  FileStore* const store_;
  const std::string name_;
  const uint64_t window_;  // block-aligned chunk size
  const uint64_t size_;    // logical file size (immutable once opened)

  mutable std::mutex m_;  // guards slots_
  mutable Slot slots_[2];
};

// ---------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------

FileStore::FileStore(smr::Drive* drive, ExtentAllocator* allocator,
                     uint64_t conv_base, uint64_t conv_len)
    : drive_(drive),
      allocator_(allocator),
      conv_base_(conv_base),
      conv_len_(conv_len != 0 ? conv_len
                              : drive->geometry().conventional_bytes) {
  log_head_ = LogBegin();
  conv_files_free_.Reset(ConvFilesBegin(), ConvFilesEnd() - ConvFilesBegin());
}

FileStore::~FileStore() = default;

uint64_t FileStore::SlotBytes() const {
  // Block-aligned so checkpoint slot 1 starts on a writable boundary even
  // when conv_len_ is an odd shard slice.
  const uint64_t block = drive_->geometry().block_bytes;
  return conv_len_ / 8 / block * block;
}
uint64_t FileStore::SlotOffset(int slot) const {
  return conv_base_ + static_cast<uint64_t>(slot) * SlotBytes();
}
uint64_t FileStore::LogBegin() const { return conv_base_ + 2 * SlotBytes(); }
uint64_t FileStore::LogEnd() const {
  const uint64_t block = drive_->geometry().block_bytes;
  return conv_base_ + conv_len_ / 2 / block * block;
}
uint64_t FileStore::ConvFilesBegin() const { return LogEnd(); }
uint64_t FileStore::ConvFilesEnd() const { return conv_base_ + conv_len_; }

Status FileStore::Format() {
  std::lock_guard<std::mutex> l(mu_);
  files_.clear();
  regions_.clear();
  next_region_id_ = 1;
  journal_seq_ = 0;
  active_slot_ = 1;  // WriteCheckpoint flips to slot 0
  log_head_ = LogBegin();
  conv_files_free_.Reset(ConvFilesBegin(), ConvFilesEnd() - ConvFilesBegin());
  recovered_ = true;
  // Seed both checkpoint slots so a single damaged slot never loses the
  // store, even before the first natural checkpoint rollover.
  Status s = WriteCheckpoint();
  if (s.ok()) s = WriteCheckpoint();
  return s;
}

Status FileStore::JournalAppend(const std::string& payload) {
  const uint64_t block = drive_->geometry().block_bytes;
  const uint64_t total = RoundUp(kRecordHeader + payload.size(), block);
  if (log_head_ + total > LogEnd()) {
    Status s = WriteCheckpoint();
    if (!s.ok()) return s;
    if (log_head_ + total > LogEnd()) {
      return Status::NoSpace("journal record larger than log area");
    }
  }
  journal_seq_++;
  std::string rec;
  rec.reserve(total);
  PutFixed32(&rec, kJournalMagic);
  PutFixed64(&rec, journal_seq_);
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  PutFixed32(&rec, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  rec.append(payload);
  rec.resize(total, '\0');
  Status s = DriveWrite(log_head_, rec);
  if (!s.ok()) return s;
  log_head_ += total;
  journal_records_++;
  return Status::OK();
}

std::string FileStore::EncodeState() const {
  std::string out;
  PutVarint64(&out, next_region_id_);
  PutVarint64(&out, regions_.size());
  for (const auto& [id, r] : regions_) {
    PutVarint64(&out, id);
    PutVarint64(&out, r.extent.offset);
    PutVarint64(&out, r.extent.length);
    PutVarint64(&out, r.extent.guard);
    out.push_back(r.sealed ? 1 : 0);
  }
  PutVarint64(&out, files_.size());
  for (const auto& [name, meta] : files_) {
    EncodeFileMeta(&out, name, meta);
  }
  return out;
}

Status FileStore::DecodeState(Slice in) {
  files_.clear();
  regions_.clear();
  uint64_t nregions, nfiles;
  if (!GetVarint64(&in, &next_region_id_) || !GetVarint64(&in, &nregions)) {
    return Status::Corruption("bad filestore checkpoint");
  }
  for (uint64_t i = 0; i < nregions; i++) {
    uint64_t id;
    RegionMeta r;
    if (!GetVarint64(&in, &id) || !GetVarint64(&in, &r.extent.offset) ||
        !GetVarint64(&in, &r.extent.length) ||
        !GetVarint64(&in, &r.extent.guard) || in.size() < 1) {
      return Status::Corruption("bad region record");
    }
    r.sealed = in[0] != 0;
    in.remove_prefix(1);
    regions_[id] = r;
  }
  if (!GetVarint64(&in, &nfiles)) {
    return Status::Corruption("bad filestore checkpoint");
  }
  for (uint64_t i = 0; i < nfiles; i++) {
    std::string name;
    FileMeta meta;
    if (!DecodeFileMeta(&in, &name, &meta)) {
      return Status::Corruption("bad file record");
    }
    files_[name] = std::move(meta);
  }
  return Status::OK();
}

void FileStore::EncodeFileMeta(std::string* dst, const std::string& name,
                               const FileMeta& meta) {
  PutLengthPrefixedSlice(dst, name);
  PutVarint64(dst, meta.region_id);
  PutVarint64(dst, meta.size);
  PutVarint32(dst, static_cast<uint32_t>(meta.extents.size()));
  for (const Extent& e : meta.extents) {
    PutVarint64(dst, e.offset);
    PutVarint64(dst, e.length);
    PutVarint64(dst, e.guard);
  }
}

bool FileStore::DecodeFileMeta(Slice* in, std::string* name, FileMeta* meta) {
  Slice name_slice;
  uint32_t nextents;
  if (!GetLengthPrefixedSlice(in, &name_slice) ||
      !GetVarint64(in, &meta->region_id) || !GetVarint64(in, &meta->size) ||
      !GetVarint32(in, &nextents)) {
    return false;
  }
  *name = name_slice.ToString();
  meta->extents.clear();
  for (uint32_t i = 0; i < nextents; i++) {
    Extent e;
    if (!GetVarint64(in, &e.offset) || !GetVarint64(in, &e.length) ||
        !GetVarint64(in, &e.guard)) {
      return false;
    }
    meta->extents.push_back(e);
  }
  return true;
}

Status FileStore::WriteCheckpoint() {
  const int slot = 1 - active_slot_;
  journal_seq_++;
  const std::string payload = EncodeState();
  std::string rec;
  PutFixed32(&rec, kCkptMagic);
  PutFixed64(&rec, journal_seq_);
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  PutFixed32(&rec, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  rec.append(payload);
  const uint64_t block = drive_->geometry().block_bytes;
  if (rec.size() > SlotBytes()) {
    return Status::NoSpace("filestore checkpoint exceeds slot size");
  }
  rec.resize(RoundUp(rec.size(), block), '\0');
  Status s = DriveWrite(SlotOffset(slot), rec);
  if (!s.ok()) return s;
  active_slot_ = slot;
  log_head_ = LogBegin();
  return Status::OK();
}

Status FileStore::Recover() {
  std::lock_guard<std::mutex> l(mu_);
  const uint64_t block = drive_->geometry().block_bytes;

  // 1. Load the freshest valid checkpoint.
  uint64_t best_seq = 0;
  int best_slot = -1;
  std::string best_payload;
  std::string scratch;
  for (int slot = 0; slot < 2; slot++) {
    scratch.resize(block);
    if (!DriveRead(SlotOffset(slot), block, scratch.data()).ok()) continue;
    Slice header(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    if (!GetFixed32(&header, &magic) || magic != kCkptMagic) continue;
    if (!GetFixed64(&header, &seq) || !GetFixed32(&header, &len) ||
        !GetFixed32(&header, &crc)) {
      continue;
    }
    if (kRecordHeader + len > SlotBytes()) continue;
    const uint64_t total = RoundUp(kRecordHeader + len, block);
    scratch.resize(total);
    if (!DriveRead(SlotOffset(slot), total, scratch.data()).ok()) continue;
    const char* payload = scratch.data() + kRecordHeader;
    if (crc32c::Unmask(crc) != crc32c::Value(payload, len)) continue;
    if (seq > best_seq) {
      best_seq = seq;
      best_slot = slot;
      best_payload.assign(payload, len);
    }
  }
  if (best_slot < 0) {
    return Status::NotFound("no valid filestore checkpoint");
  }
  Status s = DecodeState(Slice(best_payload));
  if (!s.ok()) return s;
  journal_seq_ = best_seq;
  active_slot_ = best_slot;

  // 2. Replay the journal log.
  uint64_t pos = LogBegin();
  uint64_t expect_seq = best_seq + 1;
  while (pos + block <= LogEnd()) {
    scratch.resize(block);
    if (!DriveRead(pos, block, scratch.data()).ok()) break;
    Slice header(scratch);
    uint32_t magic, len, crc;
    uint64_t seq;
    if (!GetFixed32(&header, &magic) || magic != kJournalMagic) break;
    if (!GetFixed64(&header, &seq) || !GetFixed32(&header, &len) ||
        !GetFixed32(&header, &crc)) {
      break;
    }
    if (seq != expect_seq) break;  // stale or out-of-order record
    const uint64_t total = RoundUp(kRecordHeader + len, block);
    if (pos + total > LogEnd()) break;
    scratch.resize(total);
    if (!DriveRead(pos, total, scratch.data()).ok()) break;
    const char* payload = scratch.data() + kRecordHeader;
    if (crc32c::Unmask(crc) != crc32c::Value(payload, len)) break;
    s = ApplyRecord(Slice(payload, len));
    if (!s.ok()) return s;
    pos += total;
    journal_seq_ = seq;
    expect_seq = seq + 1;
  }
  log_head_ = pos;

  // 3. Rebuild region occupancy from the surviving files.
  for (auto& [id, region] : regions_) {
    region.live_files = 0;
    region.cursor = 0;
  }
  for (const auto& [name, meta] : files_) {
    if (meta.region_id != 0) {
      auto it = regions_.find(meta.region_id);
      if (it == regions_.end()) {
        return Status::Corruption("file references unknown region", name);
      }
      it->second.live_files++;
      for (const Extent& e : meta.extents) {
        if (e.offset >= it->second.extent.offset &&
            e.end() <= it->second.extent.end()) {
          it->second.cursor = std::max(
              it->second.cursor, e.end() - it->second.extent.offset);
        }
      }
    }
  }
  // Drop regions that no longer hold files; their space stays free.
  for (auto it = regions_.begin(); it != regions_.end();) {
    if (it->second.live_files == 0) {
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }

  // 4. Seed the allocators with everything still in use.
  conv_files_free_.Reset(ConvFilesBegin(), ConvFilesEnd() - ConvFilesBegin());
  std::vector<Extent> referenced;
  for (const auto& [name, meta] : files_) {
    if (meta.region_id != 0) {
      // Region files are covered by their region extent below, but their
      // data blocks still count as referenced.
      for (const Extent& e : meta.extents) referenced.push_back(e);
      continue;
    }
    for (const Extent& e : meta.extents) {
      referenced.push_back(e);
      if (e.end_with_guard() <= drive_->geometry().conventional_bytes) {
        s = conv_files_free_.Carve(e.offset, e.length + e.guard);
      } else {
        s = allocator_->Reserve(e);
      }
      if (!s.ok()) return s;
    }
  }
  for (const auto& [id, region] : regions_) {
    referenced.push_back(region.extent);
    s = allocator_->Reserve(region.extent);
    if (!s.ok()) return s;
  }

  // 5. Scrub: a crash may have left data on the media that no recovered
  // metadata references (writes whose journal update never landed). Those
  // blocks must be trimmed, or the space they sit in — which the
  // allocators consider free — could never be safely rewritten.
  std::sort(referenced.begin(), referenced.end(),
            [](const Extent& a, const Extent& b) {
              return a.offset < b.offset;
            });
  uint64_t cursor = ConvFilesBegin();
  for (const Extent& e : referenced) {
    if (e.offset > cursor) {
      s = drive_->Trim(cursor, e.offset - cursor);
      if (!s.ok()) return s;
    }
    cursor = std::max(cursor, e.end_with_guard());
  }
  if (cursor < drive_->geometry().capacity_bytes) {
    s = drive_->Trim(cursor, drive_->geometry().capacity_bytes - cursor);
    if (!s.ok()) return s;
  }

  recovered_ = true;
  return Status::OK();
}

Status FileStore::ApplyRecord(Slice payload) {
  if (payload.empty()) return Status::Corruption("empty journal record");
  const uint8_t tag = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  switch (tag) {
    case kCreateFile:
    case kUpdateFile: {
      std::string name;
      FileMeta meta;
      if (!DecodeFileMeta(&payload, &name, &meta)) {
        return Status::Corruption("bad file journal record");
      }
      files_[name] = std::move(meta);
      return Status::OK();
    }
    case kRemoveFileTag: {
      Slice name;
      if (!GetLengthPrefixedSlice(&payload, &name)) {
        return Status::Corruption("bad remove record");
      }
      files_.erase(name.ToString());
      return Status::OK();
    }
    case kRenameTag: {
      Slice src, target;
      if (!GetLengthPrefixedSlice(&payload, &src) ||
          !GetLengthPrefixedSlice(&payload, &target)) {
        return Status::Corruption("bad rename record");
      }
      auto it = files_.find(src.ToString());
      if (it != files_.end()) {
        files_[target.ToString()] = std::move(it->second);
        files_.erase(it);
      }
      return Status::OK();
    }
    case kCreateRegion: {
      uint64_t id;
      RegionMeta r;
      if (!GetVarint64(&payload, &id) ||
          !GetVarint64(&payload, &r.extent.offset) ||
          !GetVarint64(&payload, &r.extent.length) ||
          !GetVarint64(&payload, &r.extent.guard)) {
        return Status::Corruption("bad region record");
      }
      regions_[id] = r;
      next_region_id_ = std::max(next_region_id_, id + 1);
      return Status::OK();
    }
    case kSealRegionTag: {
      uint64_t id;
      Extent e;
      if (!GetVarint64(&payload, &id) || !GetVarint64(&payload, &e.offset) ||
          !GetVarint64(&payload, &e.length) ||
          !GetVarint64(&payload, &e.guard)) {
        return Status::Corruption("bad seal record");
      }
      auto it = regions_.find(id);
      if (it != regions_.end()) {
        it->second.extent = e;
        it->second.sealed = true;
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown journal record tag");
  }
}

Status FileStore::PersistFileMeta(RecordTag tag, const std::string& name,
                                  const FileMeta& meta) {
  std::string payload;
  payload.push_back(static_cast<char>(tag));
  EncodeFileMeta(&payload, name, meta);
  return JournalAppend(payload);
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

Status FileStore::DriveRead(uint64_t offset, uint64_t n, char* scratch) {
  const uint64_t block = drive_->geometry().block_bytes;

  // Fail fast over quarantined blocks: one probe, no retry storm. A probe
  // that succeeds (e.g. the sector was rewritten) lifts the quarantine.
  if (!bad_blocks_.empty()) {
    auto it = bad_blocks_.lower_bound(RoundDown(offset, block));
    if (it != bad_blocks_.end() && *it < offset + n) {
      Status s = drive_->Read(offset, n, scratch);
      if (!s.ok()) {
        return Status::IOError("read overlaps quarantined bad block");
      }
      while (it != bad_blocks_.end() && *it < offset + n) {
        it = bad_blocks_.erase(it);
      }
      return s;
    }
  }

  Status s;
  for (int attempt = 0; attempt < kReadAttempts; attempt++) {
    s = drive_->Read(offset, n, scratch);
    if (s.ok() || !s.IsIOError()) return s;  // only I/O errors are retried
  }

  // Persistent failure: probe block-by-block to locate and quarantine the
  // bad blocks, salvaging whatever still reads.
  uint64_t bad = 0;
  for (uint64_t off = RoundDown(offset, block); off < offset + n;
       off += block) {
    const uint64_t lo = std::max(off, offset);
    const uint64_t hi = std::min(off + block, offset + n);
    Status bs;
    for (int attempt = 0; attempt < kReadAttempts; attempt++) {
      bs = drive_->Read(lo, hi - lo, scratch + (lo - offset));
      if (bs.ok() || !bs.IsIOError()) break;
    }
    if (!bs.ok()) {
      bad_blocks_.insert(off);
      bad++;
    }
  }
  if (bad == 0) return Status::OK();  // every block salvaged on the probe
  return Status::IOError("permanent read error",
                         std::to_string(bad) + " blocks quarantined");
}

Status FileStore::DriveWrite(uint64_t offset, const Slice& data) {
  Status s = drive_->Write(offset, data);
  if (s.ok() && !bad_blocks_.empty()) {
    // The rewrite remapped the sectors; their quarantine no longer applies.
    const uint64_t block = drive_->geometry().block_bytes;
    auto it = bad_blocks_.lower_bound(RoundDown(offset, block));
    while (it != bad_blocks_.end() && *it < offset + data.size()) {
      it = bad_blocks_.erase(it);
    }
  }
  return s;
}

std::vector<uint64_t> FileStore::QuarantinedBlocks() const {
  std::lock_guard<std::mutex> l(mu_);
  return {bad_blocks_.begin(), bad_blocks_.end()};
}

Status FileStore::Scrub(ScrubReport* report) {
  std::lock_guard<std::mutex> l(mu_);
  *report = ScrubReport();
  const uint64_t block = drive_->geometry().block_bytes;
  std::vector<char> buf(kReadaheadBytes);
  for (const auto& [name, meta] : files_) {
    report->files_scanned++;
    bool damaged = false;
    // Walk the logical bytes (rounded up to blocks) through the extent
    // chain; over-allocated tail space beyond the file size never held
    // data and is not scanned.
    uint64_t remaining = RoundUp(meta.size, block);
    for (const Extent& e : meta.extents) {
      if (remaining == 0) break;
      const uint64_t span = std::min(remaining, e.length);
      for (uint64_t off = 0; off < span; off += buf.size()) {
        const uint64_t m = std::min<uint64_t>(buf.size(), span - off);
        Status s = DriveRead(e.offset + off, m, buf.data());
        report->bytes_scanned += m;
        if (!s.ok()) {
          damaged = true;
          // Count every quarantined block in this range, including blocks
          // quarantined by earlier reads — extents are exclusively owned,
          // so no block is counted twice per scrub.
          const uint64_t begin = RoundDown(e.offset + off, block);
          for (auto it = bad_blocks_.lower_bound(begin);
               it != bad_blocks_.end() && *it < e.offset + off + m; ++it) {
            report->bad_blocks++;
          }
        }
      }
      remaining -= span;
    }
    if (damaged) report->damaged_files.push_back(name);
  }
  return Status::OK();
}

Status FileStore::ScrubStep(ScrubCursor* cursor, uint64_t max_bytes,
                            ScrubStepResult* out) {
  std::lock_guard<std::mutex> l(mu_);
  *out = ScrubStepResult();
  if (max_bytes == 0) return Status::OK();
  const uint64_t block = drive_->geometry().block_bytes;
  std::vector<char> buf(kReadaheadBytes);

  auto it = files_.lower_bound(cursor->file);
  if (it == files_.end() || it->first != cursor->file) {
    // The cursor's file was removed (or this is a fresh pass): its stored
    // offset belongs to a different file, start its successor from 0.
    cursor->offset = 0;
  }
  while (out->bytes_scanned < max_bytes) {
    if (it == files_.end()) {
      *cursor = ScrubCursor();
      out->wrapped = true;
      return Status::OK();
    }
    const FileMeta& meta = it->second;
    const uint64_t scan_end = RoundUp(meta.size, block);
    bool damaged = false;
    // Logical walk from cursor->offset through the extent chain, mirroring
    // the offline Scrub: over-allocated tail space beyond the file size
    // never held data and is not scanned.
    uint64_t extent_begin = 0;
    for (const Extent& e : meta.extents) {
      const uint64_t extent_end = std::min(extent_begin + e.length, scan_end);
      while (cursor->offset < extent_end &&
             out->bytes_scanned < max_bytes) {
        if (cursor->offset < extent_begin) break;  // shouldn't happen
        const uint64_t in_extent = cursor->offset - extent_begin;
        const uint64_t m =
            std::min({static_cast<uint64_t>(buf.size()),
                      extent_end - cursor->offset,
                      max_bytes - out->bytes_scanned});
        const uint64_t phys = e.offset + in_extent;
        // Diff the quarantine set over this physical range around the read:
        // new entries are blocks this step condemned, vanished entries are
        // blocks whose probe (or an interleaved rewrite) came back clean.
        const uint64_t before = CountBadBlocks(phys, m);
        Status s = DriveRead(phys, m, buf.data());
        const uint64_t after = CountBadBlocks(phys, m);
        if (after > before) out->bad_blocks += after - before;
        if (before > after) out->repaired_blocks += before - after;
        if (!s.ok()) damaged = true;
        out->bytes_scanned += m;
        cursor->offset += m;
      }
      extent_begin += e.length;
      if (extent_begin >= scan_end || out->bytes_scanned >= max_bytes) break;
    }
    if (damaged) out->damaged_files.push_back(it->first);
    if (cursor->offset >= scan_end) {
      ++it;
      cursor->file = (it == files_.end()) ? std::string() : it->first;
      cursor->offset = 0;
      if (it == files_.end()) {
        *cursor = ScrubCursor();
        out->wrapped = true;
        return Status::OK();
      }
    } else {
      cursor->file = it->first;  // budget ran out mid-file
    }
  }
  return Status::OK();
}

uint64_t FileStore::CountBadBlocks(uint64_t offset, uint64_t n) const {
  if (bad_blocks_.empty() || n == 0) return 0;
  const uint64_t block = drive_->geometry().block_bytes;
  uint64_t count = 0;
  for (auto it = bad_blocks_.lower_bound(RoundDown(offset, block));
       it != bad_blocks_.end() && *it < offset + n; ++it) {
    count++;
  }
  return count;
}

Status FileStore::ReadExtents(const FileMeta& meta, uint64_t offset, size_t n,
                              char* scratch) {
  uint64_t remaining = n;
  uint64_t pos = offset;
  char* dst = scratch;
  uint64_t extent_begin = 0;  // logical offset where the extent starts
  for (const Extent& e : meta.extents) {
    if (remaining == 0) break;
    const uint64_t extent_end = extent_begin + e.length;
    if (pos < extent_end) {
      const uint64_t in_extent = pos - extent_begin;
      const uint64_t m = std::min(remaining, e.length - in_extent);
      Status s = DriveRead(e.offset + in_extent, m, dst);
      if (!s.ok()) return s;
      dst += m;
      pos += m;
      remaining -= m;
    }
    extent_begin = extent_end;
  }
  if (remaining != 0) {
    return Status::IOError("read past end of file extents");
  }
  return Status::OK();
}

Status FileStore::GrowFile(const std::string& name, FileMeta* meta,
                           uint64_t min_bytes, uint64_t size_hint) {
  const uint64_t block = drive_->geometry().block_bytes;
  if (meta->region_id != 0) {
    // Carve contiguously from the owning region.
    auto rit = regions_.find(meta->region_id);
    if (rit == regions_.end()) {
      return Status::Corruption("file references unknown region", name);
    }
    RegionMeta& region = rit->second;
    const uint64_t avail = region.extent.length - region.cursor;
    if (avail >= min_bytes) {
      // Carve exactly what this write needs (block-rounded) so consecutive
      // files of the set stay back-to-back on disk.
      Extent piece{region.extent.offset + region.cursor,
                   std::min(avail, RoundUp(min_bytes, block)), 0};
      region.cursor += piece.length;
      // Merge with a contiguous previous carve.
      if (!meta->extents.empty() &&
          meta->extents.back().end() == piece.offset &&
          meta->extents.back().guard == 0) {
        meta->extents.back().length += piece.length;
      } else {
        meta->extents.push_back(piece);
      }
      return Status::OK();
    }
    // The set reservation ran out (outputs slightly exceeded the input
    // estimate); overflow into a standalone extent.
  }
  Extent e;
  Status s;
  if (meta->appendable) {
    // Long-lived append-mode file (WAL, manifest): placed in the
    // conventional-region pool, like the conventional zones real zoned
    // deployments reserve for logs. Falls back to a guarded allocation in
    // the shingled space when the pool is full.
    const uint64_t want = RoundUp(
        meta->extents.empty() ? std::max(min_bytes, size_hint)
                              : std::max(min_bytes, kFlushChunkBytes),
        block);
    uint64_t offset;
    if (conv_files_free_.Allocate(want, &offset)) {
      e = Extent{offset, want, 0};
      s = Status::OK();
    } else if (conv_files_free_.Allocate(RoundUp(min_bytes, block),
                                         &offset)) {
      e = Extent{offset, RoundUp(min_bytes, block), 0};
      s = Status::OK();
    } else {
      s = allocator_->AllocateGuarded(want, &e);
      if (s.IsNoSpace() && want > min_bytes) {
        s = allocator_->AllocateGuarded(RoundUp(min_bytes, block), &e);
      }
    }
  } else if (meta->extents.empty()) {
    // While the file is open its tail tracks keep being written, so on
    // shingled media the allocation must hold a trailing guard; ShrinkToFit
    // returns it at close. Allocators without the constraint ignore this.
    const uint64_t want = std::max(min_bytes, size_hint);
    s = allocator_->AllocateGuarded(RoundUp(want, block), &e);
    if (s.IsNoSpace() && want > min_bytes) {
      s = allocator_->AllocateGuarded(RoundUp(min_bytes, block), &e);
    }
  } else {
    // Grow near the file's current tail (ext4 goal-block behaviour).
    const uint64_t goal = meta->extents.back().end();
    const uint64_t want = std::max(min_bytes, kFlushChunkBytes);
    s = allocator_->AllocateNear(RoundUp(want, block), goal, &e);
    if (s.IsNoSpace() && want > min_bytes) {
      s = allocator_->AllocateNear(RoundUp(min_bytes, block), goal, &e);
    }
  }
  if (!s.ok()) return s;
  if (!meta->extents.empty() && meta->extents.back().end() == e.offset &&
      meta->extents.back().guard == 0 && e.guard == 0) {
    meta->extents.back().length += e.length;
  } else {
    meta->extents.push_back(e);
  }
  return Status::OK();
}

void FileStore::ShrinkToFit(FileMeta* meta) {
  if (meta->region_id != 0) return;  // region cursor is already exact
  const uint64_t block = drive_->geometry().block_bytes;
  const uint64_t used = RoundUp(meta->size, block);
  uint64_t covered = 0;
  size_t keep = 0;
  for (; keep < meta->extents.size(); keep++) {
    Extent& e = meta->extents[keep];
    if (covered >= used) break;
    if (covered + e.length > used) {
      const uint64_t keep_len = used - covered;
      if (e.end_with_guard() <= drive_->geometry().conventional_bytes) {
        const uint64_t keep_rounded = RoundUp(keep_len, block);
        if (keep_rounded < e.length) {
          Status fs = conv_files_free_.Free(e.offset + keep_rounded,
                                            e.length - keep_rounded + e.guard);
          if (fs.ok()) {
            e.length = keep_rounded;
            e.guard = 0;
          } else {
            CountFreeError(fs);
          }
        }
      } else {
        allocator_->Shrink(&e, keep_len);
      }
    } else if (e.guard > 0 &&
               e.end_with_guard() > drive_->geometry().conventional_bytes) {
      // Exactly-full extent: the file is closing, so its trailing shingle
      // guard (held while the tail tracks were still being written) can
      // return to the free pool.
      allocator_->Shrink(&e, e.length);
    }
    covered += e.length;
  }
  for (size_t i = keep; i < meta->extents.size(); i++) {
    FreeExtent(meta->extents[i]);
  }
  meta->extents.resize(keep);
}

Status FileStore::WriteAt(FileMeta* meta, uint64_t file_offset,
                          const Slice& data, uint64_t size_hint) {
  // Writers only append: file_offset always equals the flushed prefix.
  uint64_t capacity = 0;
  for (const Extent& e : meta->extents) capacity += e.length;
  uint64_t pos = file_offset;
  const char* src = data.data();
  uint64_t remaining = data.size();

  while (remaining > 0) {
    if (pos >= capacity) {
      // Locate the file's name for diagnostics lazily; GrowFile only uses
      // it in error messages.
      Status s = GrowFile("", meta, remaining, size_hint);
      if (!s.ok()) return s;
      capacity = 0;
      for (const Extent& e : meta->extents) capacity += e.length;
    }
    // Find the extent containing `pos`.
    uint64_t extent_begin = 0;
    for (const Extent& e : meta->extents) {
      const uint64_t extent_end = extent_begin + e.length;
      if (pos < extent_end) {
        const uint64_t in_extent = pos - extent_begin;
        const uint64_t m = std::min(remaining, e.length - in_extent);
        Status s = DriveWrite(e.offset + in_extent, Slice(src, m));
        if (!s.ok()) return s;
        src += m;
        pos += m;
        remaining -= m;
        break;
      }
      extent_begin = extent_end;
    }
  }
  return Status::OK();
}

void FileStore::FreeExtent(const Extent& e) {
  if (e.end_with_guard() <= drive_->geometry().conventional_bytes) {
    Status s = conv_files_free_.Free(e.offset, e.length + e.guard);
    if (!s.ok()) CountFreeError(s);
  } else {
    FreeAllocatorExtent(e);
  }
}

void FileStore::FreeAllocatorExtent(const Extent& e) {
  Status s = allocator_->Free(e);
  if (!s.ok()) CountFreeError(s);
}

void FileStore::CountFreeError(const Status& s) {
  (void)s;
  free_errors_++;
  if (c_free_errors_ != nullptr) c_free_errors_->Inc();
}

void FileStore::SetMetrics(
    const std::shared_ptr<obs::MetricsRegistry>& registry,
    const std::string& shard_label) {
  if (registry == nullptr) return;
  obs::Labels labels;
  if (!shard_label.empty()) labels.push_back({"shard", shard_label});
  std::lock_guard<std::mutex> l(mu_);
  c_free_errors_ = registry->RegisterCounter(
      "sealdb_fs_free_errors_total",
      "extent releases the allocator or free map refused as double-free "
      "or out-of-range",
      labels);
  if (c_free_errors_ != nullptr && free_errors_ > 0) {
    c_free_errors_->Add(free_errors_);
  }
}

uint64_t FileStore::free_errors() const {
  std::lock_guard<std::mutex> l(mu_);
  return free_errors_;
}

void FileStore::DropFileData(const FileMeta& meta) {
  for (const Extent& e : meta.extents) {
    drive_->Trim(e.offset, e.length);
  }
}

// ---------------------------------------------------------------------
// Public file API
// ---------------------------------------------------------------------

Status FileStore::NewWritableFile(const std::string& name, uint64_t size_hint,
                                  std::unique_ptr<WritableFile>* result,
                                  bool appendable) {
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(name);
    if (it != files_.end()) {
      // Truncate semantics: drop the old incarnation.
      DropFileData(it->second);
      if (it->second.region_id == 0) {
        for (const Extent& e : it->second.extents) FreeExtent(e);
      } else {
        auto rit = regions_.find(it->second.region_id);
        if (rit != regions_.end() && --rit->second.live_files == 0) {
          FreeAllocatorExtent(rit->second.extent);
          regions_.erase(rit);
        }
      }
      files_.erase(it);
    }
    FileMeta meta;
    meta.appendable = appendable;
    files_[name] = meta;
    Status s = PersistFileMeta(kCreateFile, name, meta);
    if (!s.ok()) return s;
  }
  *result = std::make_unique<StoreWritableFile>(this, name, size_hint);
  return Status::OK();
}

Status FileStore::NewRandomAccessFile(
    const std::string& name, std::unique_ptr<RandomAccessFile>* result) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (files_.find(name) == files_.end()) {
      return Status::NotFound("file not found", name);
    }
  }
  *result = std::make_unique<StoreRandomAccessFile>(this, name);
  return Status::OK();
}

Status FileStore::NewReadaheadFile(const std::string& name, uint64_t window,
                                   std::unique_ptr<RandomAccessFile>* result) {
  uint64_t size;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(name);
    if (it == files_.end()) {
      return Status::NotFound("file not found", name);
    }
    size = it->second.size;
  }
  const uint64_t block = drive_->geometry().block_bytes;
  window = RoundUp(std::max(window, block), block);
  *result = std::make_unique<StoreReadaheadFile>(this, name, window, size);
  return Status::OK();
}

Status FileStore::ReadFileRange(const std::string& name, uint64_t offset,
                                uint64_t n, char* scratch) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::IOError("file removed while open", name);
  }
  return ReadExtents(it->second, offset, n, scratch);
}

Status FileStore::NewSequentialFile(const std::string& name,
                                    std::unique_ptr<SequentialFile>* result) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (files_.find(name) == files_.end()) {
      return Status::NotFound("file not found", name);
    }
  }
  *result = std::make_unique<StoreSequentialFile>(this, name);
  return Status::OK();
}

Status FileStore::RemoveFile(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file not found", name);
  }
  DropFileData(it->second);
  if (it->second.region_id == 0) {
    for (const Extent& e : it->second.extents) FreeExtent(e);
  } else {
    // Set-granular reclamation: the region's space is recycled only when
    // its last SSTable dies (paper Sec. III-C "Delete").
    auto rit = regions_.find(it->second.region_id);
    if (rit != regions_.end() && --rit->second.live_files == 0) {
      FreeAllocatorExtent(rit->second.extent);
      regions_.erase(rit);
    }
  }
  files_.erase(it);
  std::string payload;
  payload.push_back(static_cast<char>(kRemoveFileTag));
  PutLengthPrefixedSlice(&payload, name);
  return JournalAppend(payload);
}

Status FileStore::RenameFile(const std::string& src,
                             const std::string& target) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(src);
  if (it == files_.end()) {
    return Status::NotFound("file not found", src);
  }
  auto tgt = files_.find(target);
  if (tgt != files_.end()) {
    DropFileData(tgt->second);
    if (tgt->second.region_id == 0) {
      for (const Extent& e : tgt->second.extents) FreeExtent(e);
    }
    files_.erase(tgt);
  }
  files_[target] = std::move(it->second);
  files_.erase(src);
  std::string payload;
  payload.push_back(static_cast<char>(kRenameTag));
  PutLengthPrefixedSlice(&payload, src);
  PutLengthPrefixedSlice(&payload, target);
  return JournalAppend(payload);
}

bool FileStore::FileExists(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  return files_.find(name) != files_.end();
}

Status FileStore::GetFileSize(const std::string& name, uint64_t* size) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file not found", name);
  }
  *size = it->second.size;
  return Status::OK();
}

std::vector<std::string> FileStore::GetChildren() {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, meta] : files_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------
// Set-region API
// ---------------------------------------------------------------------

Status FileStore::AllocateRegion(uint64_t size, uint64_t* region_id,
                                 bool guarded) {
  std::lock_guard<std::mutex> l(mu_);
  RegionMeta region;
  Status s = guarded ? allocator_->AllocateGuarded(size, &region.extent)
                     : allocator_->Allocate(size, &region.extent);
  if (!s.ok()) return s;
  const uint64_t id = next_region_id_++;
  regions_[id] = region;
  *region_id = id;
  std::string payload;
  payload.push_back(static_cast<char>(kCreateRegion));
  PutVarint64(&payload, id);
  PutVarint64(&payload, region.extent.offset);
  PutVarint64(&payload, region.extent.length);
  PutVarint64(&payload, region.extent.guard);
  s = JournalAppend(payload);
  if (!s.ok()) return s;
  return Status::OK();
}

Status FileStore::NewWritableFileInRegion(
    uint64_t region_id, const std::string& name,
    std::unique_ptr<WritableFile>* result) {
  {
    std::lock_guard<std::mutex> l(mu_);
    auto rit = regions_.find(region_id);
    if (rit == regions_.end()) {
      return Status::NotFound("unknown region");
    }
    if (files_.find(name) != files_.end()) {
      return Status::InvalidArgument("file already exists", name);
    }
    FileMeta meta;
    meta.region_id = region_id;
    files_[name] = meta;
    rit->second.live_files++;
    Status s = PersistFileMeta(kCreateFile, name, meta);
    if (!s.ok()) return s;
  }
  *result = std::make_unique<StoreWritableFile>(this, name, 0);
  return Status::OK();
}

Status FileStore::SealRegion(uint64_t region_id) {
  std::lock_guard<std::mutex> l(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    return Status::NotFound("unknown region");
  }
  RegionMeta& region = rit->second;
  if (region.live_files == 0) {
    // Nothing was written into the region; drop it entirely.
    FreeAllocatorExtent(region.extent);
    regions_.erase(rit);
    return Status::OK();
  }
  allocator_->Shrink(&region.extent, region.cursor);
  region.sealed = true;
  std::string payload;
  payload.push_back(static_cast<char>(kSealRegionTag));
  PutVarint64(&payload, region_id);
  PutVarint64(&payload, region.extent.offset);
  PutVarint64(&payload, region.extent.length);
  PutVarint64(&payload, region.extent.guard);
  return JournalAppend(payload);
}

Status FileStore::GetRegionExtent(uint64_t region_id, Extent* extent) {
  std::lock_guard<std::mutex> l(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    return Status::NotFound("unknown region");
  }
  *extent = rit->second.extent;
  return Status::OK();
}

Status FileStore::GetFileExtents(const std::string& name,
                                 std::vector<Extent>* out) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file not found", name);
  }
  *out = it->second.extents;
  return Status::OK();
}

}  // namespace sealdb::fs

// TableCache: LRU cache of open Table readers, keyed by file number.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "buf/buffer_pool.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "util/cache.h"
#include "util/options.h"

namespace sealdb {

namespace fs {
class FileStore;
}

class Table;

class TableCache {
 public:
  TableCache(const std::string& dbname, const Options& options,
             fs::FileStore* store, int entries);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  // Drops the cached tables and purges every buffer-pool page owned by
  // this cache incarnation, so a reopened engine reusing file numbers can
  // never alias stale frames in a shared pool.
  ~TableCache();

  // Return an iterator for the specified file number (the corresponding
  // file length must be exactly "file_size" bytes).  If "tableptr" is
  // non-null, also sets "*tableptr" to point to the Table object
  // underlying the returned iterator.  The returned "*tableptr" object is
  // owned by the cache and should not be deleted, and is valid for as long
  // as the returned iterator is live.
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size, Table** tableptr = nullptr);

  // If a seek to internal key "k" in specified file finds an entry,
  // call (*handle_result)(arg, found_key, found_value).
  Status Get(const ReadOptions& options, uint64_t file_number,
             uint64_t file_size, const Slice& k, void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&));

  // Evict any entry for the specified file number, including the file's
  // pages in the buffer pool (dead SSTable after compaction). `ban` is for
  // quarantined (not merely dead) files: the pool additionally refuses to
  // re-admit the file's pages, so a reader racing the quarantine cannot
  // resurrect them (see BufferPool::EvictFile).
  void Evict(uint64_t file_number, bool ban = false);

  // This cache's buffer-pool registration (empty without a pool); table
  // builders of compaction outputs admit their blocks under it.
  const buf::BufferClient& buffer_client() const { return buffer_; }

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size,
                   Cache::Handle**);

  const std::string dbname_;
  const Options& options_;
  fs::FileStore* const store_;
  // This cache's registration with the shared buffer pool; empty when the
  // options carry no pool (block reads then go uncached).
  buf::BufferClient buffer_;
  std::unique_ptr<Cache> cache_;
};

}  // namespace sealdb

// TableBuilder: streams sorted key/value pairs into an SSTable file
// (data blocks + filter block + metaindex + index + footer).
#pragma once

#include <cstdint>

#include "buf/buffer_pool.h"
#include "util/options.h"
#include "util/slice.h"
#include "util/status.h"

namespace sealdb {

namespace fs {
class WritableFile;
}

class BlockBuilder;
class BlockHandle;

class TableBuilder {
 public:
  // Create a builder that will store the contents of the table it is
  // building in *file.  Does not close the file.
  //
  // When `admit_to` names a buffer-pool client, each data block the file
  // accepts is also offered to that pool as the page a later read of
  // (admit_to.owner, file_number, block offset) would insert; the pool
  // takes it only while it has free room (BufferPool::Admit).
  TableBuilder(const Options& options, fs::WritableFile* file,
               const buf::BufferClient& admit_to = {},
               uint64_t file_number = 0);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // REQUIRES: Either Finish() or Abandon() has been called.
  ~TableBuilder();

  // Add key,value to the table being constructed.
  // REQUIRES: key is after any previously added key in comparator order.
  // REQUIRES: Finish(), Abandon() have not been called
  void Add(const Slice& key, const Slice& value);

  // Advanced operation: flush any buffered key/value pairs to file.
  void Flush();

  // Return non-ok iff some error has been detected.
  Status status() const;

  // Finish building the table.
  Status Finish();

  // Indicate that the contents of this builder should be abandoned.
  void Abandon();

  // Number of calls to Add() so far.
  uint64_t NumEntries() const;

  // Size of the file generated so far.
  uint64_t FileSize() const;

 private:
  bool ok() const { return status().ok(); }
  void WriteBlock(BlockBuilder* block, BlockHandle* handle);
  void WriteRawBlock(const Slice& data, BlockHandle* handle);
  void AdmitDataBlock(const Slice& contents, uint64_t offset);

  struct Rep;
  Rep* rep_;
};

}  // namespace sealdb

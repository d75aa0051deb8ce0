// Block: reader side of BlockBuilder's format, with binary search over
// restart points.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lsm/format.h"
#include "lsm/iterator.h"

namespace sealdb {

class Comparator;

class Block {
 public:
  // Initialize the block with the specified contents.
  explicit Block(const BlockContents& contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  ~Block();

  size_t size() const { return size_; }
  Iterator* NewIterator(const Comparator* comparator);

 private:
  class Iter;

  uint32_t NumRestarts() const;

  const char* data_;
  size_t size_;
  uint32_t restart_offset_;  // Offset in data_ of restart array
  bool owned_;               // Block owns data_[]
};

// Deleter for a Block held as a buffer-pool page.
void DeleteBlockPage(void* block);

}  // namespace sealdb

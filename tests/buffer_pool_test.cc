// BufferPool tests: partitioned page-table routing, pin/unpin refcounts,
// batched second-chance CLOCK eviction order, kind-biased admission,
// write-through admission into free room only, whole-file eviction (dead
// SSTables) through the per-file frame lists, owner namespacing across
// clients, the lock-free optimistic hit path, metric plumbing through a
// full stack, compaction outputs staying resident in the engine, and
// multi-threaded stress legs (readers racing eviction, admission and
// EvictFile) that are meaningful under TSan via the "stress" ctest label.
#include "buf/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "fs/file_store.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "obs/metrics.h"
#include "smr/fault_injection_drive.h"

namespace sealdb::buf {

namespace {

// Counting payloads: every test value is a heap uint64_t tracked by these
// so leaks and double-frees show up as counter mismatches.
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};

void* MakeValue(uint64_t tag) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return new uint64_t(tag);
}

void DeleteValue(void* v) {
  g_frees.fetch_add(1, std::memory_order_relaxed);
  delete static_cast<uint64_t*>(v);
}

uint64_t TagOf(void* v) { return *static_cast<uint64_t*>(v); }

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_allocs.store(0);
    g_frees.store(0);
  }

  std::unique_ptr<BufferPool> MakePool(size_t capacity,
                                       size_t partitions = 16) {
    BufferPool::Config config;
    config.capacity_bytes = capacity;
    config.partitions = partitions;
    return std::make_unique<BufferPool>(config);
  }
};

}  // namespace

TEST_F(BufferPoolTest, ManyDistinctPagesRouteAndHit) {
  auto pool = MakePool(64 << 20, 8);
  BufferClient client = pool->RegisterClient("0");
  constexpr int kPages = 512;
  size_t expected_usage = 0;
  for (int i = 0; i < kPages; i++) {
    BufferPool::PageRef ref;
    const uint64_t file = static_cast<uint64_t>(i % 7);
    const uint64_t off = static_cast<uint64_t>(i) * 4096;
    pool->Insert(client, file, off, BlockKind::kData,
                 MakeValue(static_cast<uint64_t>(i)), 1000 + i, &DeleteValue,
                 &ref);
    expected_usage += 1000 + i;
    ASSERT_TRUE(ref);
    EXPECT_EQ(TagOf(ref.value()), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(pool->usage_bytes(), expected_usage);
  for (int i = 0; i < kPages; i++) {
    BufferPool::PageRef ref;
    ASSERT_TRUE(pool->Lookup(client, static_cast<uint64_t>(i % 7),
                             static_cast<uint64_t>(i) * 4096,
                             BlockKind::kData, &ref))
        << "page " << i;
    EXPECT_EQ(TagOf(ref.value()), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(pool->hits(), static_cast<uint64_t>(kPages));
  BufferPool::PageRef miss;
  EXPECT_FALSE(pool->Lookup(client, 99, 0, BlockKind::kData, &miss));
  EXPECT_EQ(pool->misses(), 1u);
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, PinHoldsValueAcrossEvictFile) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  BufferPool::PageRef pin;
  pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(7), 4096,
               &DeleteValue, &pin);

  // A second lookup pins the same frame; both refs see the same value.
  BufferPool::PageRef pin2;
  ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &pin2));
  EXPECT_EQ(pin.value(), pin2.value());
  pin2.Reset();

  // Dropping the file dooms the pinned page: invisible to lookups, but
  // the payload stays alive until the last pin releases it.
  pool->EvictFile(client, 1);
  BufferPool::PageRef miss;
  EXPECT_FALSE(pool->Lookup(client, 1, 0, BlockKind::kData, &miss));
  EXPECT_EQ(g_frees.load(), 0u);
  EXPECT_EQ(TagOf(pin.value()), 7u);
  pin.Reset();
  EXPECT_EQ(g_frees.load(), 1u);
  pool->UnregisterClient(client);
}

TEST_F(BufferPoolTest, ClockSecondChancePrefersTouchedPage) {
  auto pool = MakePool(8192);
  BufferClient client = pool->RegisterClient("0");
  {
    BufferPool::PageRef a, b;
    pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(1), 4096,
                 &DeleteValue, &a);
    pool->Insert(client, 1, 4096, BlockKind::kData, MakeValue(2), 4096,
                 &DeleteValue, &b);
  }
  {
    // Touch A: the hit refreshes its chance counter, so the sweep spends
    // a chance on A but reclaims untouched B immediately.
    BufferPool::PageRef a;
    ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &a));
  }
  {
    BufferPool::PageRef c;
    pool->Insert(client, 2, 0, BlockKind::kData, MakeValue(3), 4096,
                 &DeleteValue, &c);
  }
  BufferPool::PageRef ref;
  EXPECT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &ref));
  ref.Reset();
  EXPECT_FALSE(pool->Lookup(client, 1, 4096, BlockKind::kData, &ref));
  EXPECT_EQ(pool->evictions(), 1u);
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, AdmissionBiasEvictsDataBeforeIndex) {
  auto pool = MakePool(8192);
  BufferClient client = pool->RegisterClient("0");
  {
    BufferPool::PageRef i, d;
    // Untouched index enters with more chances than untouched data.
    pool->Insert(client, 1, 0, BlockKind::kIndex, MakeValue(1), 4096,
                 &DeleteValue, &i);
    pool->Insert(client, 1, 4096, BlockKind::kData, MakeValue(2), 4096,
                 &DeleteValue, &d);
  }
  {
    BufferPool::PageRef c;
    pool->Insert(client, 2, 0, BlockKind::kData, MakeValue(3), 4096,
                 &DeleteValue, &c);
  }
  BufferPool::PageRef ref;
  EXPECT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kIndex, &ref));
  ref.Reset();
  EXPECT_FALSE(pool->Lookup(client, 1, 4096, BlockKind::kData, &ref));
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, EvictFileDropsOnlyThatFile) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  for (uint64_t off = 0; off < 3 * 4096; off += 4096) {
    BufferPool::PageRef ref;
    pool->Insert(client, 1, off, BlockKind::kData, MakeValue(off), 4096,
                 &DeleteValue, &ref);
  }
  {
    BufferPool::PageRef ref;
    pool->Insert(client, 2, 0, BlockKind::kData, MakeValue(99), 4096,
                 &DeleteValue, &ref);
  }
  const size_t usage_before = pool->usage_bytes();
  pool->EvictFile(client, 1);
  EXPECT_EQ(pool->usage_bytes(), usage_before - 3 * 4096);
  EXPECT_EQ(g_frees.load(), 3u);
  BufferPool::PageRef ref;
  for (uint64_t off = 0; off < 3 * 4096; off += 4096) {
    EXPECT_FALSE(pool->Lookup(client, 1, off, BlockKind::kData, &ref));
  }
  EXPECT_TRUE(pool->Lookup(client, 2, 0, BlockKind::kData, &ref));
  ref.Reset();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

// Write-through admission takes only free room: into a full pool it
// allocates nothing and evicts nothing, and a run of admissions never
// pushes usage past capacity.
TEST_F(BufferPoolTest, AdmitTakesOnlyFreeRoom) {
  BufferPool::Config config;
  config.capacity_bytes = 8192;
  auto registry = std::make_shared<obs::MetricsRegistry>();
  config.metrics_registry = registry;
  auto pool = std::make_unique<BufferPool>(config);
  BufferClient client = pool->RegisterClient("2");
  for (uint64_t off = 0; off < 8192; off += 4096) {
    BufferPool::PageRef ref;
    pool->Insert(client, 1, off, BlockKind::kData, MakeValue(off), 4096,
                 &DeleteValue, &ref);
  }
  ASSERT_EQ(pool->usage_bytes(), 8192u);

  int made = 0;
  auto make = [&made] {
    made++;
    return MakeValue(7);
  };
  EXPECT_FALSE(pool->Admit(client, 2, 0, BlockKind::kData, 4096, make,
                           &DeleteValue));
  EXPECT_EQ(made, 0) << "the value was built for a full pool";
  EXPECT_EQ(pool->evictions(), 0u);
  EXPECT_EQ(pool->usage_bytes(), 8192u);
  BufferPool::PageRef ref;
  EXPECT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &ref));
  ref.Reset();
  EXPECT_TRUE(pool->Lookup(client, 1, 4096, BlockKind::kData, &ref));
  ref.Reset();

  // Room freed by a file drop is taken by admissions until it runs out.
  pool->EvictFile(client, 1);
  ASSERT_EQ(pool->usage_bytes(), 0u);
  int admitted = 0;
  for (uint64_t off = 0; off < 100 * 1000; off += 1000) {
    if (pool->Admit(client, 2, off, BlockKind::kData, 1000,
                    [off] { return MakeValue(off); }, &DeleteValue)) {
      admitted++;
    }
    EXPECT_LE(pool->usage_bytes(), pool->capacity_bytes());
  }
  EXPECT_EQ(admitted, 8);
  EXPECT_EQ(pool->evictions(), 2u);  // the two dropped pages only

  // Admitted pages are served unpinned and cold: a later Insert that
  // needs room reclaims them like any untouched data page.
  ASSERT_TRUE(pool->Lookup(client, 2, 0, BlockKind::kData, &ref));
  EXPECT_EQ(TagOf(ref.value()), 0u);
  ref.Reset();
  pool->Insert(client, 3, 0, BlockKind::kData, MakeValue(3), 4096,
               &DeleteValue, &ref);
  ref.Reset();
  EXPECT_LE(pool->usage_bytes(), pool->capacity_bytes());

  // A resident copy of the page declines the admission.
  EXPECT_FALSE(pool->Admit(client, 3, 0, BlockKind::kData, 0,
                           [] { return MakeValue(4); }, &DeleteValue));
  EXPECT_EQ(registry->counter_value("sealdb_buf_compaction_admits_total",
                                    {{"shard", "2"}}),
            8u);
  EXPECT_EQ(registry->counter_value(
                "sealdb_buf_compaction_admit_skips_total", {{"shard", "2"}}),
            1u + 92u);
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

// EvictFile walks the file's own frame list. Frames the clock sweep
// reclaimed from that file and handed to another file must leave the
// other file's pages alone, and a file drop must leave the lists clean
// for the frames' next owners.
TEST_F(BufferPoolTest, EvictFileAfterFrameReuseDropsOnlyThatFile) {
  auto pool = MakePool(4 * 4096, 1);
  BufferClient client = pool->RegisterClient("0");
  auto insert = [&](uint64_t file, uint64_t off) {
    BufferPool::PageRef ref;
    pool->Insert(client, file, off, BlockKind::kData,
                 MakeValue(file * 1000 + off), 4096, &DeleteValue, &ref);
    return ref;
  };
  for (uint64_t off = 0; off < 4; off++) insert(1, off);
  {
    // File 2 takes two of file 1's frames through the clock sweep (its
    // own pages stay pinned, so the sweep cannot pick them).
    BufferPool::PageRef a = insert(2, 0);
    BufferPool::PageRef b = insert(2, 1);
  }
  EXPECT_EQ(pool->evictions(), 2u);
  int file1_resident = 0;
  BufferPool::PageRef ref;
  for (uint64_t off = 0; off < 4; off++) {
    if (pool->Lookup(client, 1, off, BlockKind::kData, &ref)) {
      file1_resident++;
      ref.Reset();
    }
  }
  ASSERT_EQ(file1_resident, 2);

  pool->EvictFile(client, 1);
  EXPECT_EQ(pool->usage_bytes(), 2 * 4096u);
  for (uint64_t off = 0; off < 2; off++) {
    ASSERT_TRUE(pool->Lookup(client, 2, off, BlockKind::kData, &ref));
    EXPECT_EQ(TagOf(ref.value()), 2000 + off);
    ref.Reset();
  }
  // File 1's freed frames now serve file 3; dropping file 1 again (its
  // number is dead) and then file 2 leaves exactly file 3 resident.
  insert(3, 0);
  insert(3, 1);
  pool->EvictFile(client, 1);
  pool->EvictFile(client, 2);
  EXPECT_EQ(pool->usage_bytes(), 2 * 4096u);
  for (uint64_t off = 0; off < 2; off++) {
    ASSERT_TRUE(pool->Lookup(client, 3, off, BlockKind::kData, &ref));
    ref.Reset();
  }
  pool->EvictFile(client, 3);
  EXPECT_EQ(pool->usage_bytes(), 0u);
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, OwnersNamespaceFileNumbers) {
  auto pool = MakePool(1 << 20);
  BufferClient c1 = pool->RegisterClient("0");
  BufferClient c2 = pool->RegisterClient("1");
  {
    BufferPool::PageRef r1, r2;
    pool->Insert(c1, 5, 0, BlockKind::kData, MakeValue(100), 4096,
                 &DeleteValue, &r1);
    pool->Insert(c2, 5, 0, BlockKind::kData, MakeValue(200), 4096,
                 &DeleteValue, &r2);
  }
  BufferPool::PageRef ref;
  ASSERT_TRUE(pool->Lookup(c1, 5, 0, BlockKind::kData, &ref));
  EXPECT_EQ(TagOf(ref.value()), 100u);
  ref.Reset();
  ASSERT_TRUE(pool->Lookup(c2, 5, 0, BlockKind::kData, &ref));
  EXPECT_EQ(TagOf(ref.value()), 200u);
  ref.Reset();
  // Tearing down client 1 purges only its pages.
  pool->UnregisterClient(c1);
  EXPECT_EQ(g_frees.load(), 1u);
  ASSERT_TRUE(pool->Lookup(c2, 5, 0, BlockKind::kData, &ref));
  EXPECT_EQ(TagOf(ref.value()), 200u);
  ref.Reset();
  pool->UnregisterClient(c2);
  EXPECT_EQ(g_frees.load(), 2u);
}

TEST_F(BufferPoolTest, DuplicateInsertKeepsResidentCopy) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  BufferPool::PageRef first, second;
  pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(1), 4096,
               &DeleteValue, &first);
  pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(2), 4096,
               &DeleteValue, &second);
  // The resident copy won; the duplicate payload was deleted and the
  // caller handed a pin on the original.
  EXPECT_EQ(g_frees.load(), 1u);
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(TagOf(second.value()), 1u);
  first.Reset();
  second.Reset();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

TEST_F(BufferPoolTest, SingleThreadedHitsAreOptimistic) {
  auto pool = MakePool(1 << 20);
  BufferClient client = pool->RegisterClient("0");
  {
    BufferPool::PageRef ref;
    pool->Insert(client, 1, 0, BlockKind::kData, MakeValue(1), 4096,
                 &DeleteValue, &ref);
  }
  for (int i = 0; i < 10; i++) {
    BufferPool::PageRef ref;
    ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kData, &ref));
  }
  // With no contention every hit should take the no-lock fast path.
  EXPECT_EQ(pool->optimistic_hits(), 10u);
  EXPECT_EQ(pool->hits(), 10u);
  pool->UnregisterClient(client);
}

TEST_F(BufferPoolTest, MetricsFamiliesAreLabelled) {
  BufferPool::Config config;
  config.capacity_bytes = 1 << 20;
  auto registry = std::make_shared<obs::MetricsRegistry>();
  config.metrics_registry = registry;
  auto pool = std::make_unique<BufferPool>(config);
  BufferClient client = pool->RegisterClient("3");
  {
    BufferPool::PageRef ref;
    pool->Insert(client, 1, 0, BlockKind::kFilter, MakeValue(1), 4096,
                 &DeleteValue, &ref);
  }
  BufferPool::PageRef ref;
  ASSERT_TRUE(pool->Lookup(client, 1, 0, BlockKind::kFilter, &ref));
  ref.Reset();
  EXPECT_FALSE(pool->Lookup(client, 1, 999, BlockKind::kData, &ref));
  pool->EvictFile(client, 1);
  EXPECT_EQ(registry->counter_family_sum("sealdb_buf_hits_total",
                                         {{"shard", "3"}, {"kind", "filter"}}),
            1u);
  EXPECT_EQ(registry->counter_family_sum("sealdb_buf_misses_total",
                                         {{"shard", "3"}}),
            1u);
  EXPECT_EQ(registry->counter_family_sum("sealdb_buf_evictions_total",
                                         {{"cause", "drop"}}),
            1u);
  EXPECT_GE(registry->counter_family_sum("sealdb_buf_pins_total", {}), 2u);
  // The collect hook refreshes the pool gauges on render.
  const std::string text = registry->Render();
  EXPECT_NE(text.find("sealdb_buf_capacity_bytes"), std::string::npos);
  EXPECT_NE(text.find("sealdb_buf_hit_ratio"), std::string::npos);
  pool->UnregisterClient(client);
}

// End-to-end plumb-through: a full stack routes every SSTable block read
// through the shared pool, and the pool's metrics land in the stack
// registry.
TEST_F(BufferPoolTest, StackReadsGoThroughPool) {
  baselines::StackConfig config;
  config.kind = baselines::SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  std::unique_ptr<baselines::Stack> stack;
  ASSERT_TRUE(baselines::BuildStack(config, "bufpool_stack", &stack).ok());
  ASSERT_NE(stack->buffer_pool(), nullptr);

  WriteOptions wo;
  std::string value(1024, 'v');
  for (int i = 0; i < 500; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(stack->db()->Put(wo, key, value).ok());
  }
  stack->db()->WaitForIdle();
  ReadOptions ro;
  for (int pass = 0; pass < 2; pass++) {
    for (int i = 0; i < 500; i++) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%06d", i);
      std::string got;
      ASSERT_TRUE(stack->db()->Get(ro, key, &got).ok()) << key;
    }
  }
  BufferPool* pool = stack->buffer_pool();
  EXPECT_GT(pool->hits(), 0u);
  EXPECT_GT(pool->optimistic_hits(), 0u);
  EXPECT_GT(pool->usage_bytes(), 0u);
  EXPECT_LE(pool->usage_bytes(), pool->capacity_bytes());
  EXPECT_GT(stack->metrics_registry()->counter_family_sum(
                "sealdb_buf_hits_total", {}),
            0u);
}

namespace {

// A one-column SEALDB stack whose pool is far larger than the data, so
// every compaction output block fits in free room.
std::unique_ptr<baselines::Stack> WarmPoolStack(const std::string& name) {
  baselines::StackConfig config;
  config.kind = baselines::SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.buffer_pool_bytes = 32ull << 20;
  config.fault_injection = true;
  std::unique_ptr<baselines::Stack> stack;
  EXPECT_TRUE(baselines::BuildStack(config, name, &stack).ok());
  return stack;
}

std::string WarmKey(int i) {
  char key[32];
  std::snprintf(key, sizeof(key), "warm%06d", i);
  return key;
}

std::string WarmValue(int i, int gen) {
  return std::to_string(gen) + "-" + std::string(400, 'a' + i % 26);
}

constexpr int kWarmKeys = 2000;

// Two overwriting passes, then manual compactions until all data sits in
// the last level: every live table is then a compaction output, none a
// flush output (flushes are never admitted).
void LoadAndCompact(baselines::Stack* stack) {
  DB* db = stack->db();
  for (int gen = 0; gen < 2; gen++) {
    for (int j = 0; j < kWarmKeys; j++) {
      const int i = gen == 0 ? j : kWarmKeys - 1 - j;
      ASSERT_TRUE(db->Put(WriteOptions(), WarmKey(i), WarmValue(i, gen)).ok());
    }
  }
  db->CompactRange(nullptr, nullptr);  // also flushes the memtable
  db->WaitForIdle();
  const int last_level = stack->options().num_levels - 1;
  for (int level = 0; level < last_level; level++) {
    for (int round = 0;; round++) {
      ASSERT_LT(round, 1000) << "level " << level << " never drained";
      bool has_files = false;
      for (const LiveFileMeta& f : db->GetLiveFilesMetadata()) {
        has_files |= f.level == level;
      }
      if (!has_files) break;
      db->CompactLevelRange(level, nullptr, nullptr);
      db->WaitForIdle();
    }
  }
}

uint64_t MediaReadOps(baselines::Stack* stack) {
  return stack->drive()->metrics().read_ops->Value();
}

}  // namespace

// Compaction writes its output blocks through to the pool: with room to
// spare, a full compaction leaves every block resident and point reads
// of every key read nothing from the drive.
TEST_F(BufferPoolTest, CompactionOutputsServeEveryGetFromThePool) {
  auto stack = WarmPoolStack("bufpool_warm");
  ASSERT_NE(stack, nullptr);
  LoadAndCompact(stack.get());
  EXPECT_GT(stack->metrics_registry()->counter_family_sum(
                "sealdb_buf_compaction_admits_total", {}),
            0u);
  EXPECT_EQ(stack->metrics_registry()->counter_family_sum(
                "sealdb_buf_compaction_admit_skips_total", {}),
            0u);
  const uint64_t reads_before = MediaReadOps(stack.get());
  for (int i = 0; i < kWarmKeys; i++) {
    std::string got;
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), WarmKey(i), &got).ok());
    ASSERT_EQ(got, WarmValue(i, 1));
  }
  EXPECT_EQ(MediaReadOps(stack.get()) - reads_before, 0u);
}

// Admitted pages hold the bytes the compaction wrote, so they keep
// serving acked values after the file's media is damaged. Once the pages
// are gone, reads reach the media and fail loudly: a quarantine bans and
// evicts them, and a reopen starts from an empty client. Never NotFound,
// never a wrong value.
TEST_F(BufferPoolTest, AdmittedPagesOutliveMediaDamageUntilEvicted) {
  auto stack = WarmPoolStack("bufpool_damage");
  ASSERT_NE(stack, nullptr);
  LoadAndCompact(stack.get());
  const std::vector<LiveFileMeta> live = stack->db()->GetLiveFilesMetadata();
  ASSERT_FALSE(live.empty());
  const LiveFileMeta victim = live[live.size() / 2];
  std::vector<fs::Extent> extents;
  const std::string name = TableFileName("bufpool_damage", victim.number);
  ASSERT_TRUE(stack->store()->GetFileExtents(name, &extents).ok()) << name;
  for (const fs::Extent& e : extents) {
    stack->fault_drive()->InjectReadError(e.offset, e.length);
  }
  std::vector<int> in_victim;
  for (int i = 0; i < kWarmKeys; i++) {
    const std::string key = WarmKey(i);
    if (key >= victim.smallest_user_key && key <= victim.largest_user_key) {
      in_victim.push_back(i);
    }
  }
  ASSERT_FALSE(in_victim.empty());

  auto expect_loud_failures = [&](const char* when) {
    for (int i : in_victim) {
      std::string got;
      const Status s = stack->db()->Get(ReadOptions(), WarmKey(i), &got);
      EXPECT_TRUE(s.IsIOError() || s.IsCorruption())
          << when << ": " << WarmKey(i) << " -> " << s.ToString();
    }
  };

  const obs::Counter* read_errors = stack->drive()->metrics().read_errors;
  const uint64_t reads_before = MediaReadOps(stack.get());
  for (int i : in_victim) {
    std::string got;
    ASSERT_TRUE(stack->db()->Get(ReadOptions(), WarmKey(i), &got).ok());
    EXPECT_EQ(got, WarmValue(i, 1));
  }
  EXPECT_EQ(MediaReadOps(stack.get()) - reads_before, 0u);
  EXPECT_EQ(read_errors->Value(), 0u);

  // The scrub's quarantine of the damaged table bans and evicts its pages.
  stack->db()->QuarantineFile(victim.number);
  expect_loud_failures("after quarantine");
  EXPECT_GT(read_errors->Value(), 0u) << "reads never reached the media";

  ASSERT_TRUE(stack->Reopen().ok());
  expect_loud_failures("after reopen");
}

// Stress: reader threads race CLOCK eviction (tiny capacity) and a writer
// cycling EvictFile, the exact interleaving the optimistic hit path and
// the doom-on-drop protocol must survive. Run under TSan via the "stress"
// label; the alloc/free ledger catches leaks and double-frees.
TEST_F(BufferPoolTest, ConcurrentReadersEvictionAndFileDrop) {
  auto pool = MakePool(64 << 10, 4);
  BufferClient client = pool->RegisterClient("0");
  constexpr int kFiles = 4;
  constexpr int kOffsets = 64;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; t++) {
    threads.emplace_back([&, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t file = (x >> 8) % kFiles;
        const uint64_t off = ((x >> 16) % kOffsets) * 4096;
        const BlockKind kind =
            (x % 8 == 0) ? BlockKind::kIndex : BlockKind::kData;
        BufferPool::PageRef ref;
        if (pool->Lookup(client, file, off, kind, &ref)) {
          EXPECT_EQ(TagOf(ref.value()), file * 1000 + off);
        } else {
          pool->Insert(client, file, off, kind,
                       MakeValue(file * 1000 + off), 2048, &DeleteValue,
                       &ref);
          EXPECT_EQ(TagOf(ref.value()), file * 1000 + off);
        }
      }
    });
  }
  std::thread dropper([&] {
    uint64_t file = 0;
    for (int i = 0; i < 200; i++) {
      pool->EvictFile(client, file % kFiles);
      file++;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  dropper.join();
  for (auto& th : threads) th.join();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

// Stress: writers admit pages of fresh files while readers look them up
// lock-free (inserting on a miss, so the clock sweep reclaims and reuses
// frames) and a dropper evicts files behind the writers. Runs under TSan
// via the "stress" label; the ledger catches leaks and double-frees.
TEST_F(BufferPoolTest, ConcurrentAdmitLookupAndFileDrop) {
  auto pool = MakePool(128 << 10, 4);
  BufferClient client = pool->RegisterClient("0");
  constexpr uint64_t kOffsets = 32;
  constexpr uint64_t kFiles = 2000;
  constexpr uint64_t kMaxLead = 16;  // files the writers may run ahead
  std::atomic<uint64_t> next_file{1};   // files [1, next_file) were written
  std::atomic<uint64_t> dropped_below{1};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&] {
      for (;;) {
        const uint64_t file = next_file.fetch_add(1);
        if (file >= kFiles) break;
        while (file > dropped_below.load() + kMaxLead) {
          std::this_thread::yield();
        }
        for (uint64_t off = 0; off < kOffsets; off++) {
          pool->Admit(client, file, off * 4096, BlockKind::kData, 2048,
                      [file, off] { return MakeValue(file * 1000 + off); },
                      &DeleteValue);
        }
      }
    });
  }
  for (int r = 0; r < 3; r++) {
    threads.emplace_back([&, r] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(r + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t lo = dropped_below.load();
        const uint64_t hi = next_file.load();
        if (hi <= lo) continue;
        const uint64_t file = lo + (x >> 8) % (hi - lo);
        const uint64_t off = (x >> 24) % kOffsets;
        BufferPool::PageRef ref;
        if (!pool->Lookup(client, file, off * 4096, BlockKind::kData, &ref)) {
          pool->Insert(client, file, off * 4096, BlockKind::kData,
                       MakeValue(file * 1000 + off), 2048, &DeleteValue,
                       &ref);
        }
        EXPECT_EQ(TagOf(ref.value()), file * 1000 + off);
      }
    });
  }
  std::thread dropper([&] {
    while (dropped_below.load() < kFiles) {
      const uint64_t file = dropped_below.load();
      if (file + 4 < next_file.load() || next_file.load() >= kFiles) {
        pool->EvictFile(client, file);
        dropped_below.store(file + 1);
      } else {
        std::this_thread::yield();
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });
  dropper.join();
  for (auto& th : threads) th.join();
  // Every file was dropped; readers may have re-inserted pages of a file
  // racing its drop, which the owner purge below frees.
  pool->UnregisterClient(client);
  EXPECT_EQ(pool->usage_bytes(), 0u);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

// Quarantine ordering: once EvictFile(ban) returns, no later Insert for
// that file may link a page other readers could find — the loser of a
// concurrent duplicate-insert race gets its page back born doomed (usable
// by the caller, invisible to Lookup). UnbanFile restores admission.
TEST_F(BufferPoolTest, BanKeepsQuarantinedFileOutOfThePool) {
  auto pool = MakePool(64 << 20, 8);
  BufferClient client = pool->RegisterClient("0");
  constexpr uint64_t kFile = 7;

  BufferPool::PageRef before;
  pool->Insert(client, kFile, 0, BlockKind::kData, MakeValue(1), 2048,
               &DeleteValue, &before);
  before.Reset();
  pool->EvictFile(client, kFile, /*ban=*/true);

  // The in-flight loser of the eviction race: its Insert still yields a
  // usable page (the read that raced the quarantine completes) ...
  BufferPool::PageRef loser;
  pool->Insert(client, kFile, 0, BlockKind::kData, MakeValue(2), 2048,
               &DeleteValue, &loser);
  ASSERT_TRUE(loser);
  EXPECT_EQ(TagOf(loser.value()), 2u);

  // ... but the page was never linked: no other reader can be served
  // stale bytes from the quarantined file, pinned or not.
  BufferPool::PageRef peek;
  EXPECT_FALSE(pool->Lookup(client, kFile, 0, BlockKind::kData, &peek));
  loser.Reset();
  EXPECT_FALSE(pool->Lookup(client, kFile, 0, BlockKind::kData, &peek));

  // Other files are untouched by the ban.
  BufferPool::PageRef other;
  pool->Insert(client, kFile + 1, 0, BlockKind::kData, MakeValue(3), 2048,
               &DeleteValue, &other);
  other.Reset();
  EXPECT_TRUE(pool->Lookup(client, kFile + 1, 0, BlockKind::kData, &other));
  other.Reset();

  // Lifting the ban restores normal admission for the file.
  pool->UnbanFile(client, kFile);
  BufferPool::PageRef fresh;
  pool->Insert(client, kFile, 0, BlockKind::kData, MakeValue(4), 2048,
               &DeleteValue, &fresh);
  fresh.Reset();
  ASSERT_TRUE(pool->Lookup(client, kFile, 0, BlockKind::kData, &fresh));
  EXPECT_EQ(TagOf(fresh.value()), 4u);
  fresh.Reset();

  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

// The same ordering under contention: one thread quarantines/unbans in a
// loop while readers insert-or-lookup pages of the banned file. At no
// point may a Lookup observe a page inserted after the ban; the ledger
// catches any page leaked by the doomed-insert path. TSan-meaningful via
// the "stress" label.
TEST_F(BufferPoolTest, ConcurrentBanVsInsertNeverReAdmits) {
  auto pool = MakePool(256 << 10, 4);
  BufferClient client = pool->RegisterClient("0");
  constexpr uint64_t kFile = 3;
  constexpr int kOffsets = 16;
  std::atomic<bool> stop{false};
  // Odd = the ban is in place (stored after EvictFile(ban) returns); even =
  // about to be lifted (stored before UnbanFile starts). A reader that sees
  // the same odd value before its insert and after its verify lookup knows
  // the ban held the whole time, so the assertion cannot race the unban.
  std::atomic<uint64_t> ban_state{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      uint64_t x = 0xdeadbeef * static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t off = ((x >> 16) % kOffsets) * 4096;
        const uint64_t s1 = ban_state.load(std::memory_order_acquire);
        BufferPool::PageRef ref;
        if (!pool->Lookup(client, kFile, off, BlockKind::kData, &ref)) {
          pool->Insert(client, kFile, off, BlockKind::kData,
                       MakeValue(off), 2048, &DeleteValue, &ref);
          BufferPool::PageRef again;
          const bool found =
              pool->Lookup(client, kFile, off, BlockKind::kData, &again);
          if (s1 % 2 == 1 &&
              ban_state.load(std::memory_order_acquire) == s1) {
            EXPECT_FALSE(found)
                << "banned file re-admitted at offset " << off;
          }
        }
        EXPECT_EQ(TagOf(ref.value()), off);
      }
    });
  }
  for (uint64_t i = 0; i < 100; i++) {
    pool->EvictFile(client, kFile, /*ban=*/true);
    ban_state.store(2 * i + 1, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ban_state.store(2 * i + 2, std::memory_order_release);
    pool->UnbanFile(client, kFile);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  pool->UnregisterClient(client);
  pool.reset();
  EXPECT_EQ(g_frees.load(), g_allocs.load());
}

}  // namespace sealdb::buf

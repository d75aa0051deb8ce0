// SEALDB-specific tests: the SealDB facade, set manager semantics, set
// contiguity on disk, dynamic-band safety (the shingled disk never sees an
// unsafe write), zero auxiliary write amplification, and the band
// inspector's fragment accounting.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "baselines/presets.h"
#include "core/band_inspector.h"
#include "core/fragment_gc.h"
#include "core/sealdb.h"
#include "core/set_manager.h"
#include "lsm/db.h"
#include "util/random.h"

namespace sealdb {

namespace {

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%010d", i);
  return buf;
}

std::string Value(int i, int len = 256) {
  Random rnd(i + 1);
  std::string v;
  for (int j = 0; j < len; j++) v.push_back('a' + rnd.Uniform(26));
  return v;
}

baselines::StackConfig TinySealConfig() {
  baselines::StackConfig config;
  config.kind = baselines::SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  return config;
}

}  // namespace

// ------------------------------------------------------------ SetManager

TEST(SetManager, RegisterAndInvalidate) {
  core::SetManager mgr;
  mgr.RegisterSet(1, {10, 11, 12}, 3000, 2);
  EXPECT_EQ(mgr.InvalidCount(1), 0);
  EXPECT_EQ(mgr.SetOf(11), 1u);
  EXPECT_EQ(mgr.live_sets(), 1u);

  mgr.OnFileDeleted(10);
  EXPECT_EQ(mgr.InvalidCount(1), 1);
  mgr.OnFileDeleted(11);
  EXPECT_EQ(mgr.InvalidCount(1), 2);
  // Last member dies -> the whole set fades away.
  mgr.OnFileDeleted(12);
  EXPECT_EQ(mgr.live_sets(), 0u);
  EXPECT_EQ(mgr.InvalidCount(1), 0);
}

TEST(SetManager, Statistics) {
  core::SetManager mgr;
  mgr.RegisterSet(1, {1, 2}, 200, 2);
  mgr.RegisterSet(2, {3, 4, 5, 6}, 400, 3);
  EXPECT_EQ(mgr.sets_created(), 2u);
  EXPECT_DOUBLE_EQ(mgr.average_set_bytes(), 300.0);
  EXPECT_DOUBLE_EQ(mgr.average_set_members(), 3.0);
}

TEST(SetManager, UnknownFilesIgnored) {
  core::SetManager mgr;
  mgr.OnFileDeleted(999);  // no-op
  EXPECT_EQ(mgr.InvalidCount(7), 0);
  EXPECT_EQ(mgr.SetOf(999), 0u);
}

TEST(SetManager, RecoverSets) {
  core::SetManager mgr;
  mgr.RecoverSet(5, 100, 1000);
  mgr.RecoverSet(5, 101, 1000);
  EXPECT_EQ(mgr.SetOf(100), 5u);
  EXPECT_EQ(mgr.live_sets(), 1u);
  mgr.OnFileDeleted(100);
  mgr.OnFileDeleted(101);
  EXPECT_EQ(mgr.live_sets(), 0u);
}

// ------------------------------------------------------------ facade

TEST(SealDBFacade, OpenPutGetScan) {
  core::SealDBOptions opt;
  opt.capacity_bytes = 256ull << 20;
  opt.sstable_bytes = 64 << 10;
  opt.write_buffer_bytes = 64 << 10;
  opt.track_bytes = 16 << 10;
  std::unique_ptr<core::SealDB> db;
  ASSERT_TRUE(core::SealDB::Open(opt, &db).ok());

  ASSERT_TRUE(db->Put("apple", "red").ok());
  ASSERT_TRUE(db->Put("banana", "yellow").ok());
  ASSERT_TRUE(db->Put("cherry", "dark").ok());
  std::string v;
  ASSERT_TRUE(db->Get("banana", &v).ok());
  EXPECT_EQ("yellow", v);
  ASSERT_TRUE(db->Delete("banana").ok());
  EXPECT_TRUE(db->Get("banana", &v).IsNotFound());

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan("a", 10, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "apple");
  EXPECT_EQ(rows[1].first, "cherry");
}

TEST(SealDBFacade, CrashAndReopen) {
  core::SealDBOptions opt;
  opt.capacity_bytes = 256ull << 20;
  opt.sstable_bytes = 64 << 10;
  opt.write_buffer_bytes = 64 << 10;
  opt.track_bytes = 16 << 10;
  std::unique_ptr<core::SealDB> db;
  ASSERT_TRUE(core::SealDB::Open(opt, &db).ok());
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db->raw()->Put(sync, "durable", "yes").ok());
  ASSERT_TRUE(db->CrashAndReopen().ok());
  std::string v;
  ASSERT_TRUE(db->Get("durable", &v).ok());
  EXPECT_EQ("yes", v);
}

// -------------------------------------------------- SEALDB guarantees

class SealDbBehaviorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        baselines::BuildStack(TinySealConfig(), "/db", &stack_).ok());
    db_ = stack_->db();
  }

  std::unique_ptr<baselines::Stack> stack_;
  DB* db_ = nullptr;
};

TEST_F(SealDbBehaviorTest, ZeroAuxiliaryWriteAmplification) {
  // The headline property: on dynamic bands, every logical byte is written
  // physically exactly once (AWA == 1), no matter how much churn happens.
  Random rnd(1);
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(rnd.Uniform(2000)), Value(i))
                    .ok());
  }
  db_->WaitForIdle();
  EXPECT_DOUBLE_EQ(stack_->awa(), 1.0);
  EXPECT_EQ(stack_->drive()->metrics().rmw_ops->Value(), 0u);
  EXPECT_GT(stack_->metrics_registry()->counter_family_sum(
                "sealdb_engine_compactions_total"),
            0u);
}

TEST_F(SealDbBehaviorTest, CompactionOutputsAreContiguousSets) {
  db_->SetRecordCompactionEvents(true);
  Random rnd(2);
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(rnd.Uniform(3000)), Value(i))
                    .ok());
  }
  db_->WaitForIdle();
  auto events = db_->TakeCompactionEvents();
  int sets_checked = 0;
  for (const CompactionEvent& ev : events) {
    if (ev.trivial_move || ev.set_id == 0) continue;
    // All outputs of one compaction form one physically contiguous run.
    ASSERT_FALSE(ev.output_placement.empty());
    uint64_t prev_end = 0;
    for (const auto& [offset, length] : ev.output_placement) {
      if (prev_end != 0) {
        EXPECT_EQ(offset, prev_end)
            << "set " << ev.set_id << " not contiguous";
      }
      prev_end = offset + length;
    }
    sets_checked++;
  }
  EXPECT_GT(sets_checked, 3);
}

TEST_F(SealDbBehaviorTest, FreeSpaceIsReusedByInserts) {
  // Sustained churn must eventually serve allocations from the free-space
  // list (inserts) rather than only growing the frontier.
  Random rnd(3);
  for (int i = 0; i < 30000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(rnd.Uniform(1500)), Value(i))
                    .ok());
  }
  db_->WaitForIdle();
  auto* alloc = stack_->dynamic_allocator();
  ASSERT_NE(alloc, nullptr);
  EXPECT_GT(alloc->inserts(), 0u);
  std::string why;
  EXPECT_TRUE(alloc->CheckInvariants(&why)) << why;
}

TEST_F(SealDbBehaviorTest, SpaceBoundedUnderChurn) {
  // The paper's Fig. 11 observation: reusing faded sets keeps the occupied
  // footprint near the live data size instead of growing with total writes.
  Random rnd(4);
  const int kRounds = 6;
  uint64_t frontier_after_round[kRounds];
  for (int round = 0; round < kRounds; round++) {
    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), Key(rnd.Uniform(1000)), Value(i)).ok());
    }
    db_->WaitForIdle();
    frontier_after_round[round] = stack_->dynamic_allocator()->frontier();
  }
  // Footprint growth slows dramatically once churn starts reusing space:
  // the last two rounds must grow far less than the first two.
  const uint64_t early =
      frontier_after_round[1] - frontier_after_round[0];
  const uint64_t late =
      frontier_after_round[kRounds - 1] - frontier_after_round[kRounds - 2];
  EXPECT_LT(late, early);
}

TEST_F(SealDbBehaviorTest, BandInspectorReportsSaneLayout) {
  Random rnd(5);
  for (int i = 0; i < 15000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(rnd.Uniform(2000)), Value(i))
                    .ok());
  }
  db_->WaitForIdle();
  core::BandInspector inspector(stack_->dynamic_allocator());
  auto bands = inspector.Bands();
  EXPECT_FALSE(bands.empty());
  // Bands are disjoint and ordered.
  uint64_t prev_end = 0;
  for (const auto& band : bands) {
    EXPECT_GE(band.offset, prev_end);
    EXPECT_GT(band.length, 0u);
    prev_end = band.offset + band.length;
  }
  auto report = inspector.Fragments(/*threshold=*/1 << 20);
  EXPECT_GT(report.occupied_bytes, 0u);
  EXPECT_LE(report.fragment_bytes, report.occupied_bytes);
  EXPECT_GE(report.fragment_fraction(), 0.0);
  EXPECT_LT(report.fragment_fraction(), 0.6);
  EXPECT_FALSE(inspector.Describe(1 << 20).empty());
}

TEST_F(SealDbBehaviorTest, InvalidSetPriorityDrainsSets) {
  // Set-aware picking prefers sets with many invalidated members, so
  // heavily churned ranges drain their sets and the FileStore reclaims
  // whole regions (live sets stay bounded).
  Random rnd(6);
  for (int i = 0; i < 25000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(rnd.Uniform(800)), Value(i))
                    .ok());
  }
  db_->WaitForIdle();
  // Occupied space stays within a small multiple of live data
  // (~800 keys x ~280 bytes). Without reclamation it would exceed this by
  // an order of magnitude.
  auto* alloc = stack_->dynamic_allocator();
  const uint64_t occupied = alloc->frontier() - alloc->base();
  EXPECT_LT(alloc->allocated_bytes(), occupied + 1);
  EXPECT_LT(occupied, 64ull << 20);
}

// ----------------------------------------------- fragment GC (future work)

TEST(FragmentGc, NoTriggerWhenClean) {
  core::SealDBOptions opt;
  opt.capacity_bytes = 256ull << 20;
  opt.sstable_bytes = 64 << 10;
  opt.write_buffer_bytes = 64 << 10;
  opt.track_bytes = 16 << 10;
  std::unique_ptr<core::SealDB> db;
  ASSERT_TRUE(core::SealDB::Open(opt, &db).ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(Key(i), Value(i)).ok());
  }
  core::FragmentGcOptions gc_opt;
  gc_opt.fragment_share_trigger = 0.99;  // never trigger
  auto result = db->RunFragmentGc(gc_opt);
  EXPECT_FALSE(result.triggered);
  EXPECT_EQ(result.sets_compacted, 0);
}

TEST(FragmentGc, ReclaimsFragmentedSpace) {
  core::SealDBOptions opt;
  opt.capacity_bytes = 256ull << 20;
  opt.sstable_bytes = 64 << 10;
  opt.write_buffer_bytes = 64 << 10;
  opt.track_bytes = 16 << 10;
  std::unique_ptr<core::SealDB> db;
  ASSERT_TRUE(core::SealDB::Open(opt, &db).ok());

  // Heavy churn leaves faded-set fragments behind.
  Random rnd(42);
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db->Put(Key(rnd.Uniform(1200)), Value(i)).ok());
  }
  db->raw()->WaitForIdle();

  core::FragmentGcOptions gc_opt;
  gc_opt.fragment_share_trigger = 0.0;  // always run
  gc_opt.fragment_threshold_bytes = 1 << 20;
  gc_opt.max_sets_per_run = 8;
  auto result = db->RunFragmentGc(gc_opt);
  EXPECT_TRUE(result.triggered);

  // GC must never corrupt data or the device invariants.
  EXPECT_DOUBLE_EQ(db->awa(), 1.0);
  std::string value;
  for (int i = 0; i < 1200; i += 13) {
    Status s = db->Get(Key(i), &value);
    EXPECT_TRUE(s.ok() || s.IsNotFound());
  }
  std::string why;
  EXPECT_TRUE(
      db->stack()->dynamic_allocator()->CheckInvariants(&why))
      << why;
  // The GC targets specific pinned fragments; most of them must be
  // reclaimed (merged into large free space or un-banded).
  if (result.sets_compacted > 0) {
    EXPECT_GT(result.pinned_bytes_targeted, 0u);
    EXPECT_GE(result.pinned_bytes_reclaimed,
              result.pinned_bytes_targeted / 2);
  }
}

}  // namespace sealdb

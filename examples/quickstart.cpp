// Quickstart: open a SEALDB instance (emulated HM-SMR drive + dynamic
// bands + set-aware LSM engine), do some KV work, inspect the device-level
// effects.
//
//   ./quickstart
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/sealdb.h"
#include "lsm/write_batch.h"

int main() {
  using sealdb::core::SealDB;
  using sealdb::core::SealDBOptions;

  // 1. Open a store on a 2 GB emulated shingled drive.
  SealDBOptions options;
  options.capacity_bytes = 2ull << 30;
  options.sstable_bytes = 1 << 20;       // 1 MB SSTables for the demo
  options.write_buffer_bytes = 1 << 20;
  options.track_bytes = 256 << 10;       // 256 KB tracks, 1 MB guard
  std::unique_ptr<SealDB> db;
  sealdb::Status s = SealDB::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("opened SEALDB on a %.1f GB emulated HM-SMR drive\n",
              options.capacity_bytes / (1024.0 * 1024.0 * 1024.0));

  // 2. Basic put/get/delete.
  db->Put("greeting", "hello, shingled world");
  std::string value;
  s = db->Get("greeting", &value);
  std::printf("get(greeting) -> %s\n", value.c_str());
  db->Delete("greeting");
  s = db->Get("greeting", &value);
  std::printf("after delete: %s\n", s.IsNotFound() ? "NotFound" : "??");

  // 3. Write enough data to trigger flushes and set-forming compactions.
  std::printf("loading 40k random keys...\n");
  char key[32], val[256];
  for (int i = 0; i < 40000; i++) {
    const int k = (i * 2654435761u) % 100000;
    std::snprintf(key, sizeof(key), "user%08d", k);
    std::snprintf(val, sizeof(val), "value-%d-%0240d", i, 0);
    s = db->Put(key, val);
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 4. Ordered scan.
  std::vector<std::pair<std::string, std::string>> rows;
  db->Scan("user00005", 3, &rows);
  std::printf("scan from user00005:\n");
  for (const auto& [k, v] : rows) {
    std::printf("  %s -> %.20s...\n", k.c_str(), v.c_str());
  }

  // 5. Inspect the LSM and the drive. On dynamic bands the auxiliary write
  // amplification is exactly 1.0: every byte the store wrote was written
  // to the media exactly once.
  const auto& metrics = *db->stack()->metrics_registry();
  std::printf("\n--- stats ---\n");
  std::printf(
      "flushes: %llu, compactions: %llu\n",
      (unsigned long long)metrics.counter_family_sum(
          "sealdb_engine_flushes_total"),
      (unsigned long long)metrics.counter_family_sum(
          "sealdb_engine_compactions_total"));
  std::printf("LSM write amplification (WA):  %.2f\n", db->wa());
  std::printf("device amplification (AWA):    %.2f  <- dynamic bands\n",
              db->awa());
  std::printf("multiplicative (MWA):          %.2f\n", db->mwa());

  // 6. Dynamic band layout.
  std::printf("\n--- dynamic bands ---\n%s",
              db->band_inspector().Describe(2 << 20).c_str());

  // 7. Crash and recover from drive contents alone.
  sealdb::WriteOptions sync;
  sync.sync = true;
  sealdb::WriteBatch batch;
  batch.Put("durable", "yes");
  db->Write(sync, &batch);
  s = db->CrashAndReopen();
  if (!s.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n", s.ToString().c_str());
    return 1;
  }
  db->Get("durable", &value);
  std::printf("\nafter crash+reopen: durable=%s\n", value.c_str());
  return 0;
}

// Fig. 12 — Write amplification of LevelDB, SMRDB, and SEALDB.
//
// Paper (100 GB random load, Fig. 12a/b):
//   WA:  LevelDB ~9.8x, SMRDB lower (~5-6x, two-level), SEALDB ~= LevelDB
//        (sets do not change the amount of compaction data)
//   AWA: LevelDB >> 1 (band RMW), SMRDB == 1, SEALDB == 1
//   MWA: SEALDB mitigates MWA by ~6.7x vs LevelDB.
//
// We random-load a scaled database into each system and report the same
// three metrics.
#include "bench_common.h"

using namespace sealdb;
using namespace sealdb::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchParams params = BenchParams::FromFlags(flags);

  PrintHeader("Fig. 12: WA / AWA / MWA (random load, " +
              std::to_string(params.load_mb) + " MB, scale 1/" +
              std::to_string(params.scale) + ")");
  std::printf("%-14s %8s %8s %8s %12s %12s %9s %9s %8s\n", "system", "WA",
              "AWA", "MWA", "logical-MB", "physical-MB", "busy-s", "seeks",
              "RMWs");

  const baselines::SystemKind kinds[] = {
      baselines::SystemKind::kLevelDB,
      baselines::SystemKind::kSMRDB,
      baselines::SystemKind::kSEALDB,
  };

  double leveldb_mwa = 0, sealdb_mwa = 0;
  for (baselines::SystemKind kind : kinds) {
    std::unique_ptr<baselines::Stack> stack;
    Status s = baselines::BuildStack(params.MakeConfig(kind), "/db", &stack);
    if (!s.ok()) {
      std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
      return 1;
    }
    LoadDatabase(stack.get(), params.entries(), params,
                 /*random_order=*/true);
    const double wa = stack->wa();
    const double awa = stack->awa();
    const double mwa = stack->mwa();
    const smr::DeviceMetrics& dev = stack->drive()->metrics();
    std::printf("%-14s %8.2f %8.2f %8.2f %12.1f %12.1f %9.2f %9llu %8llu\n",
                baselines::SystemName(kind), wa, awa, mwa,
                dev.logical_write->Value() / 1048576.0,
                dev.physical_write->Value() / 1048576.0, dev.busy->Seconds(),
                static_cast<unsigned long long>(dev.seeks->Value()),
                static_cast<unsigned long long>(dev.rmw_ops->Value()));
    if (kind == baselines::SystemKind::kLevelDB) leveldb_mwa = mwa;
    if (kind == baselines::SystemKind::kSEALDB) sealdb_mwa = mwa;
  }

  if (sealdb_mwa > 0) {
    PrintKV("SEALDB MWA reduction vs LevelDB (paper: 6.70x)",
            leveldb_mwa / sealdb_mwa, "x");
  }
  return 0;
}

// bench_paper — every table and figure of the paper's evaluation, from one
// deterministic driver.
//
// Each (system, config) load runs once and every figure that reads it is
// derived from that run: the random load of a preset feeds Fig. 3 (40 MB
// bands, LevelDB), Fig. 8, Fig. 10, Fig. 11, Fig. 12, Fig. 13 and Fig. 14;
// the sequential load feeds the fill-seq column of Fig. 8 and Fig. 14.
// Only the Fig. 13 fragment GC repeats a load (SEALDB's), because the
// micro benchmark's reads change the layout it compacts. Everything is
// measured in simulated device time with inline compactions and fixed
// seeds, so two runs print the same bytes.
//
// Output: the human tables on stdout, and one JSON document (--out,
// default BENCH_paper.json) holding every EXPERIMENTS.md row as
//   {"figure", "claim", "paper", "measured", "shape", "holds"}
// where `holds` evaluates the claim's shape (who wins, exact AWA = 1, a
// lower bound on a factor). `scripts/bench_gate.py --paper` fails on a
// shape that does not hold and on a measured value that drifts from
// bench/baseline_paper.json.
//
// Flags: --mb=N (loaded MiB, default 48), --scale=K (size divisor vs the
// paper's constants, default 16), --read_ops=N (default 20000),
// --out=PATH.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include "bench_common.h"
#include "core/band_inspector.h"
#include "core/fragment_gc.h"
#include "ycsb/runner.h"

using namespace sealdb;
using namespace sealdb::bench;
using baselines::SystemKind;

namespace {

constexpr double kMB = 1048576.0;

// ------------------------------------------------------------ workloads

struct LoadResult {
  uint64_t user_bytes = 0;
  double ops_per_second = 0.0;
};

// Load `entries` records in sequential or uniformly random key order.
LoadResult LoadDatabase(baselines::Stack* stack, uint64_t entries,
                        const BenchParams& params, bool random_order) {
  LoadResult result;
  DB* db = stack->db();
  Random rnd(301);
  const double device_before = DeviceBusySeconds(stack);
  uint64_t loaded = 0;
  for (uint64_t i = 0; i < entries; i++) {
    const uint64_t id = random_order ? rnd.Next64() % entries : i;
    const std::string key = MakeKey(id, params.key_bytes);
    const std::string value = MakeValue(i, params.value_bytes());
    Status s = db->Put(WriteOptions(), key, value);
    if (!s.ok()) {
      std::fprintf(stderr, "load failed at %llu: %s\n",
                   static_cast<unsigned long long>(i), s.ToString().c_str());
      break;
    }
    loaded++;
    result.user_bytes += key.size() + value.size();
  }
  db->WaitForIdle();
  const double seconds = DeviceBusySeconds(stack) - device_before;
  if (seconds > 0) result.ops_per_second = loaded / seconds;
  return result;
}

// Point-read `ops` uniformly random keys out of `entries` loaded ones;
// returns ops per device second.
double RandomRead(baselines::Stack* stack, uint64_t entries,
                  const BenchParams& params) {
  Random rnd(401);
  std::string value;
  const double device_before = DeviceBusySeconds(stack);
  for (uint64_t i = 0; i < params.read_ops; i++) {
    const std::string key = MakeKey(rnd.Next64() % entries, params.key_bytes);
    (void)stack->db()->Get(ReadOptions(), key, &value);
  }
  const double seconds = DeviceBusySeconds(stack) - device_before;
  return seconds > 0 ? params.read_ops / seconds : 0.0;
}

// Scan up to `read_ops` entries from the first key; ops per device second.
double SequentialRead(baselines::Stack* stack, const BenchParams& params) {
  const double device_before = DeviceBusySeconds(stack);
  std::unique_ptr<Iterator> iter(stack->db()->NewIterator(ReadOptions()));
  std::string value;
  uint64_t ops = 0;
  for (iter->SeekToFirst(); ops < params.read_ops && iter->Valid();
       iter->Next()) {
    value.assign(iter->value().data(), iter->value().size());
    ops++;
  }
  const double seconds = DeviceBusySeconds(stack) - device_before;
  return seconds > 0 ? ops / seconds : 0.0;
}

std::unique_ptr<baselines::Stack> Build(const baselines::StackConfig& config) {
  std::unique_ptr<baselines::Stack> stack;
  Status s = baselines::BuildStack(config, "/db", &stack);
  if (!s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return stack;
}

// Fig. 8 / Fig. 14 columns, ops per device second.
struct Micro {
  double fill_random = 0, fill_seq = 0, read_seq = 0, read_random = 0;
};

// Everything the figures read from one random load, captured right after
// the load (before any read moves the head or triggers a seek compaction).
struct RandomRun {
  baselines::StackConfig config;
  Micro micro;
  uint64_t user_bytes = 0;
  std::vector<CompactionEvent> events;
  double wa = 0, awa = 0, mwa = 0, busy_s = 0;
  uint64_t logical_write = 0, physical_write = 0, seeks = 0, rmws = 0;
  // Dynamic-band stacks only (Fig. 11 / Fig. 13).
  uint64_t occupied = 0;
  uint64_t avg_set = 0;
  std::vector<core::BandInfo> bands;
  core::FragmentReport fragments;
  core::FragmentGcResult gc;
};

// What runs on the loaded store once the load's figures are taken. Reads
// trigger seek compactions and the fragment GC compacts sets, so each needs
// the store exactly as the load left it.
enum class After { kNothing, kReads, kFragmentGc };

// Random-load `config`, capture the load's figures, then run `after`.
RandomRun RunRandom(const BenchParams& params,
                    const baselines::StackConfig& config, After after) {
  RandomRun run;
  run.config = config;
  auto stack = Build(config);
  stack->db()->SetRecordCompactionEvents(true);
  const LoadResult load =
      LoadDatabase(stack.get(), params.entries(), params, true);
  run.micro.fill_random = load.ops_per_second;
  run.user_bytes = load.user_bytes;
  run.events = stack->db()->TakeCompactionEvents();
  run.wa = stack->wa();
  run.awa = stack->awa();
  run.mwa = stack->mwa();
  const smr::DeviceMetrics& dev = stack->drive()->metrics();
  run.busy_s = dev.busy->Seconds();
  run.logical_write = dev.logical_write->Value();
  run.physical_write = dev.physical_write->Value();
  run.seeks = dev.seeks->Value();
  run.rmws = dev.rmw_ops->Value();

  core::DynamicBandAllocator* alloc = stack->dynamic_allocator();
  if (alloc != nullptr) {
    run.occupied = alloc->frontier() - alloc->base();
    // Average set size measured from the run itself, like the paper.
    uint64_t set_bytes = 0;
    int sets = 0;
    for (const CompactionEvent& ev : run.events) {
      if (ev.trivial_move || ev.set_id == 0) continue;
      set_bytes += ev.output_bytes;
      sets++;
    }
    run.avg_set = sets > 0 ? set_bytes / sets : config.sstable_bytes * 7;
    core::BandInspector inspector(alloc);
    run.bands = inspector.Bands();
    run.fragments = inspector.Fragments(run.avg_set);
  }

  if (after == After::kReads) {
    run.micro.read_random = RandomRead(stack.get(), params.entries(), params);
    run.micro.read_seq = SequentialRead(stack.get(), params);
  } else if (after == After::kFragmentGc && alloc != nullptr) {
    // The fragment GC the paper leaves as future work.
    core::FragmentGcOptions gc_opt;
    gc_opt.fragment_share_trigger = 0.02;
    gc_opt.fragment_threshold_bytes = run.avg_set;
    gc_opt.max_sets_per_run = 8;
    core::FragmentGc gc(stack->db(), stack->store(), alloc, gc_opt);
    run.gc = gc.Run();
  }
  return run;
}

double SequentialFill(const BenchParams& params, SystemKind kind) {
  auto stack = Build(params.MakeConfig(kind));
  return LoadDatabase(stack.get(), params.entries(), params, false)
      .ops_per_second;
}

// Compactions that wrote output, with the fields the layout figures use.
struct Merges {
  int count = 0;
  uint64_t outputs = 0;
  uint64_t data_bytes = 0;
  double latency = 0;
};

Merges SumMerges(const std::vector<CompactionEvent>& events) {
  Merges m;
  for (const CompactionEvent& ev : events) {
    if (ev.trivial_move) continue;
    m.count++;
    m.outputs += ev.num_outputs;
    m.data_bytes += ev.output_bytes;
    m.latency += ev.device_seconds;
  }
  return m;
}

// --------------------------------------------------------------- claims

struct Claim {
  std::string figure;
  std::string claim;
  std::string paper;
  double measured;
  std::string shape;
  bool holds;
};

std::vector<Claim> g_claims;

void AddClaim(const std::string& figure, const std::string& claim,
              const std::string& paper, double measured,
              const std::string& shape, bool holds) {
  g_claims.push_back({figure, claim, paper, measured, shape, holds});
}

bool Within(double measured, double target, double fraction) {
  return std::fabs(measured - target) <= fraction * std::fabs(target);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

void WriteJson(const std::string& path, const BenchParams& params) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"params\": {\"mb\": %llu, \"scale\": %llu, "
               "\"read_ops\": %llu},\n  \"claims\": [\n",
               static_cast<unsigned long long>(params.load_mb),
               static_cast<unsigned long long>(params.scale),
               static_cast<unsigned long long>(params.read_ops));
  for (size_t i = 0; i < g_claims.size(); i++) {
    const Claim& c = g_claims[i];
    std::fprintf(f,
                 "    {\"figure\": \"%s\", \"claim\": \"%s\", \"paper\": "
                 "\"%s\", \"measured\": %.6g, \"shape\": \"%s\", \"holds\": "
                 "%s}%s\n",
                 c.figure.c_str(), c.claim.c_str(), c.paper.c_str(),
                 c.measured, c.shape.c_str(), c.holds ? "true" : "false",
                 i + 1 < g_claims.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// --------------------------------------------------------------- Table II

void TableII() {
  constexpr uint64_t kSpan = 1ull << 40;  // 1 TB address space
  const smr::LatencyParams devices[] = {smr::LatencyParams::Hdd(),
                                        smr::LatencyParams::Smr()};
  PrintHeader("Table II: raw device performance (simulated)");
  std::printf("%-28s %10s %10s   %s\n", "metric", "HDD", "SMR", "paper");
  struct Row {
    const char* name;
    bool random, is_write;
    double paper[2];
    const char* paper_text;
  };
  const Row rows[] = {
      {"Sequence read (MB/s)", false, false, {169, 165}, "169 / 165"},
      {"Sequence write (MB/s)", false, true, {155, 148}, "155 / 148"},
      {"Random read 4KB (IOPS)", true, false, {64, 70}, "64 / 70"},
      // The paper's SMR 5-140 spans band RMW (measured in Fig. 3) to cache
      // hits; the raw model is the cache-hit end.
      {"Random write 4KB (IOPS)", true, true, {143, 140}, "143 / 5-140"},
  };
  for (const Row& row : rows) {
    double vals[2];
    for (int d = 0; d < 2; d++) {
      smr::LatencyModel m(devices[d], kSpan);
      double t = 0;
      if (!row.random) {
        // Stream 256 MB in 1 MB requests.
        for (uint64_t off = 0; off < (256ull << 20); off += 1 << 20) {
          t += m.Access(off, 1 << 20, row.is_write);
        }
        vals[d] = 256.0 * kMB / 1e6 / t;  // decimal MB/s
      } else {
        uint64_t pos = 12345;
        const int kOps = 3000;
        for (int op = 0; op < kOps; op++) {
          pos = pos * 6364136223846793005ull + 1442695040888963407ull;
          t += m.Access((pos % (kSpan - 4096)) / 4096 * 4096, 4096,
                        row.is_write);
        }
        vals[d] = kOps / t;
      }
    }
    std::printf("%-28s %10.0f %10.0f   %s\n", row.name, vals[0], vals[1],
                row.paper_text);
    for (int d = 0; d < 2; d++) {
      char paper[32];
      std::snprintf(paper, sizeof(paper), "%.0f", row.paper[d]);
      AddClaim("Table II", std::string(d == 0 ? "HDD " : "SMR ") + row.name,
               paper, vals[d], "within 10% of the paper",
               Within(vals[d], row.paper[d], 0.10));
    }
  }
}

// ----------------------------------------------------------------- Fig. 2

void Fig2(const BenchParams& params, const RandomRun& run) {
  PrintHeader("Fig. 2: LevelDB-on-ext4 SSTable placement per compaction (" +
              std::to_string(params.load_mb) + " MB random load)");
  std::printf("%8s %8s %14s %14s %12s\n", "compact#", "outputs", "min-PBA-MB",
              "max-PBA-MB", "span-MB");
  uint64_t total_outputs = 0;
  double total_span = 0;
  uint64_t max_pba = 0;
  int merges = 0;
  for (size_t i = 0; i < run.events.size(); i++) {
    const CompactionEvent& ev = run.events[i];
    if (ev.output_placement.empty()) continue;
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& [offset, length] : ev.output_placement) {
      lo = std::min(lo, offset);
      hi = std::max(hi, offset + length);
    }
    max_pba = std::max(max_pba, hi);
    total_outputs += ev.output_placement.size();
    total_span += (hi - lo) / kMB;
    merges++;
    if (i % 20 == 0) {
      std::printf("%8zu %8zu %14.1f %14.1f %12.1f\n", i,
                  ev.output_placement.size(), lo / kMB, hi / kMB,
                  (hi - lo) / kMB);
    }
  }
  const double avg_outputs = Ratio(total_outputs, merges);
  const double avg_span = Ratio(total_span, merges);
  const double fill = Ratio(run.user_bytes, max_pba);

  PrintHeader("Fig. 2 summary");
  PrintKV("user data loaded", FormatMB(run.user_bytes));
  PrintKV("compactions (paper: ~600 at 10 GB)", std::to_string(merges));
  PrintKV("avg SSTables written per compaction", avg_outputs);
  PrintKV("avg placement span per compaction", avg_span, "MB");
  PrintKV("disk space touched (paper: ~DB size)", FormatMB(max_pba));
  PrintKV("DB size / space-touched ratio", fill);

  AddClaim("Fig. 2", "compactions during the random load", "~600 at 10 GB",
           merges, "at least 100", merges >= 100);
  AddClaim("Fig. 2", "avg placement span per compaction / space touched",
           "scattered over the DB-sized span", Ratio(avg_span * kMB, max_pba),
           "at least 0.1", avg_span * kMB >= 0.1 * max_pba);
  AddClaim("Fig. 2", "DB size / space touched", "~1 (first 10 GB)", fill,
           "within 25% of 1", Within(fill, 1.0, 0.25));
}

// ----------------------------------------------------------------- Fig. 3

void Fig3(const BenchParams& params, const std::vector<RandomRun>& sweep,
          const std::vector<uint64_t>& band_mb) {
  PrintHeader("Fig. 3: band-size sweep, LevelDB on fixed-band SMR (" +
              std::to_string(params.load_mb) + " MB random load, scale 1/" +
              std::to_string(params.scale) + ")");
  std::printf("%12s %14s %14s %8s %8s %8s\n", "band-MB", "ssts/compact",
              "bands/compact", "WA", "AWA", "MWA");
  bool mwa_grows = true;
  for (size_t i = 0; i < sweep.size(); i++) {
    const RandomRun& run = sweep[i];
    const uint64_t conv = run.config.conventional_bytes;
    const uint64_t band = run.config.band_bytes;
    uint64_t total_outputs = 0, total_bands = 0;
    int merges = 0;
    for (const CompactionEvent& ev : run.events) {
      if (ev.trivial_move || ev.output_placement.empty()) continue;
      std::set<uint64_t> bands;
      for (const auto& [offset, length] : ev.output_placement) {
        if (offset < conv) continue;
        for (uint64_t b = (offset - conv) / band;
             b <= (offset + length - 1 - conv) / band; b++) {
          bands.insert(b);
        }
      }
      total_outputs += ev.output_placement.size();
      total_bands += bands.size();
      merges++;
    }
    const double ssts = Ratio(total_outputs, merges);
    const double bands = Ratio(total_bands, merges);
    std::printf("%12llu %14.2f %14.2f %8.2f %8.2f %8.2f\n",
                static_cast<unsigned long long>(band_mb[i]), ssts, bands,
                run.wa, run.awa, run.mwa);
    if (i > 0 && run.mwa <= sweep[i - 1].mwa) mwa_grows = false;
    if (band_mb[i] == 40) {
      AddClaim("Fig. 3", "SSTables written per compaction", "9.83", ssts,
               "within 25% of the paper", Within(ssts, 9.83, 0.25));
      AddClaim("Fig. 3", "bands involved per compaction @40 MB", "6.22",
               bands, "more than 1", bands > 1.0);
      AddClaim("Fig. 3", "WA", "9.83x", run.wa, "within 25% of the paper",
               Within(run.wa, 9.83, 0.25));
      AddClaim("Fig. 3", "MWA @40 MB bands", "52.85x", run.mwa,
               "within 25% of the paper", Within(run.mwa, 52.85, 0.25));
    }
  }
  std::printf(
      "\npaper @40MB: 9.83 SSTables over 6.22 bands; WA 9.83x -> MWA "
      "52.85x\n");
  AddClaim("Fig. 3", "MWA grows with band size (MWA @60 MB / @20 MB)",
           "40 -> 75x over 20-60 MB", Ratio(sweep.back().mwa, sweep[0].mwa),
           "strictly increasing over the sweep", mwa_grows);
}

// ---------------------------------------------------------- Fig. 8 / 14

void PrintMicro(const char* name, const Micro& m, const char* fmt) {
  std::printf(fmt, name, m.fill_random, m.fill_seq, m.read_seq,
              m.read_random);
}

Micro Normalized(const Micro& m, const Micro& base) {
  return {m.fill_random / base.fill_random, m.fill_seq / base.fill_seq,
          m.read_seq / base.read_seq, m.read_random / base.read_random};
}

void Fig8(const BenchParams& params, const Micro& leveldb, const Micro& smrdb,
          const Micro& sealdb) {
  const char* kAbs = "%-14s %14.0f %14.0f %14.0f %14.0f\n";
  const char* kRel = "%-14s %14.2f %14.2f %14.2f %14.2f\n";
  PrintHeader("Fig. 8: micro-benchmark throughput (ops/s, simulated device "
              "time; " + std::to_string(params.load_mb) + " MB load)");
  std::printf("%-14s %14s %14s %14s %14s\n", "system", "fill-random",
              "fill-seq", "read-seq", "read-random");
  PrintMicro("LevelDB", leveldb, kAbs);
  PrintMicro("SMRDB", smrdb, kAbs);
  PrintMicro("SEALDB", sealdb, kAbs);
  PrintHeader("Fig. 8 normalized to LevelDB (paper: 3.42 / ~1.2 / 3.96 / "
              "1.80 for SEALDB)");
  std::printf("%-14s %14s %14s %14s %14s\n", "system", "fill-random",
              "fill-seq", "read-seq", "read-random");
  const Micro smr = Normalized(smrdb, leveldb);
  const Micro seal = Normalized(sealdb, leveldb);
  PrintMicro("LevelDB", Normalized(leveldb, leveldb), kRel);
  PrintMicro("SMRDB", smr, kRel);
  PrintMicro("SEALDB", seal, kRel);

  AddClaim("Fig. 8", "fill-random SEALDB / LevelDB", "3.42", seal.fill_random,
           "SEALDB > SMRDB > LevelDB",
           seal.fill_random > smr.fill_random && smr.fill_random > 1.0);
  AddClaim("Fig. 8", "fill-random SMRDB / LevelDB", "2.05", smr.fill_random,
           "more than 1", smr.fill_random > 1.0);
  AddClaim("Fig. 8", "fill-seq SEALDB / LevelDB", "~1.2", seal.fill_seq,
           "at least 1", seal.fill_seq >= 1.0);
  AddClaim("Fig. 8", "fill-seq SMRDB / LevelDB", "~1.15", smr.fill_seq,
           "at least 1", smr.fill_seq >= 1.0);
  AddClaim("Fig. 8", "read-seq SEALDB / LevelDB", "3.96", seal.read_seq,
           "more than 1", seal.read_seq > 1.0);
  AddClaim("Fig. 8", "read-seq SMRDB / SEALDB", "slightly below 1",
           smr.read_seq / seal.read_seq, "below 1",
           smr.read_seq < seal.read_seq);
  AddClaim("Fig. 8", "read-random SEALDB / LevelDB", "1.80", seal.read_random,
           "more than 1", seal.read_random > 1.0);
  AddClaim("Fig. 8", "read-random SMRDB / LevelDB", "~1.0", smr.read_random,
           "at least 1", smr.read_random >= 1.0);
}

void Fig14(const BenchParams& params, const Micro& leveldb,
           const Micro& with_sets, const Micro& sealdb) {
  const char* kAbs = "%-14s %14.0f %14.0f %14.0f %14.0f\n";
  const char* kRel = "%-14s %14.2f %14.2f %14.2f %14.2f\n";
  PrintHeader("Fig. 14: set vs dynamic-band contribution (" +
              std::to_string(params.load_mb) + " MB)");
  std::printf("%-14s %14s %14s %14s %14s\n", "system", "fill-random",
              "fill-seq", "read-seq", "read-random");
  PrintMicro("LevelDB", leveldb, kAbs);
  PrintMicro("LevelDB+sets", with_sets, kAbs);
  PrintMicro("SEALDB", sealdb, kAbs);
  PrintHeader("normalized to LevelDB");
  PrintMicro("LevelDB", Normalized(leveldb, leveldb), kRel);
  PrintMicro("LevelDB+sets", Normalized(with_sets, leveldb), kRel);
  PrintMicro("SEALDB", Normalized(sealdb, leveldb), kRel);

  // Set contribution per the paper's accounting: the share of the total
  // SEALDB-vs-LevelDB improvement already delivered by sets alone.
  auto share = [](double sets, double seal, double base) {
    const double total_gain = seal - base;
    return total_gain > 0 ? 100.0 * (sets - base) / total_gain : 0.0;
  };
  const double write = share(with_sets.fill_random, sealdb.fill_random,
                             leveldb.fill_random);
  const double rread = share(with_sets.read_random, sealdb.read_random,
                             leveldb.read_random);
  const double sread =
      share(with_sets.read_seq, sealdb.read_seq, leveldb.read_seq);
  const double swrite =
      share(with_sets.fill_seq, sealdb.fill_seq, leveldb.fill_seq);
  PrintHeader("share of total improvement delivered by sets alone");
  PrintKV("random write (paper: ~41%)", write, "%");
  PrintKV("random read (paper: ~50%)", rread, "%");
  PrintKV("sequential read (paper: ~50%)", sread, "%");
  PrintKV("sequential write (paper: ~0%, dynamic band only)", swrite, "%");

  AddClaim("Fig. 14", "share of the random-write gain from sets (%)", "~41",
           write, "more than 0", write > 0);
  AddClaim("Fig. 14", "share of the random-read gain from sets (%)", "~50",
           rread, "more than 0", rread > 0);
  AddClaim("Fig. 14", "share of the sequential-read gain from sets (%)", "~50",
           sread, "more than 0", sread > 0);
  AddClaim("Fig. 14", "share of the sequential-write gain from sets (%)",
           "~0", swrite, "exactly 0", swrite == 0.0);
  const double best_other = std::min(
      {Ratio(sealdb.fill_random,
             std::max(leveldb.fill_random, with_sets.fill_random)),
       Ratio(sealdb.fill_seq, std::max(leveldb.fill_seq, with_sets.fill_seq)),
       Ratio(sealdb.read_seq, std::max(leveldb.read_seq, with_sets.read_seq)),
       Ratio(sealdb.read_random,
             std::max(leveldb.read_random, with_sets.read_random))});
  AddClaim("Fig. 14", "SEALDB / best other, worst column", "combination best",
           best_other, "at least 1", best_other >= 1.0);
}

// ----------------------------------------------------------------- Fig. 9

void Fig9(const BenchParams& params) {
  const SystemKind kinds[] = {SystemKind::kLevelDB, SystemKind::kSMRDB,
                              SystemKind::kSEALDB};
  const char* workloads[] = {"Load", "A", "B", "C", "D", "E", "F"};
  double results[7][3] = {};  // [workload][system]
  for (int sys = 0; sys < 3; sys++) {
    auto stack = Build(params.MakeConfig(kinds[sys]));
    ycsb::Runner runner(stack.get(), params.key_bytes, params.value_bytes());
    ycsb::RunResult r;
    Status s = runner.Load(params.entries(), &r);
    results[0][sys] = r.ops_per_second();
    for (int w = 1; w < 7 && s.ok(); w++) {
      // Workload E scans are ~50x heavier per op; run fewer.
      const uint64_t ops = w == 5 ? params.read_ops / 10 : params.read_ops;
      s = runner.Run(ycsb::WorkloadSpec::ByName(workloads[w]),
                     params.entries(), ops, &r);
      results[w][sys] = r.ops_per_second();
    }
    if (!s.ok()) {
      std::fprintf(stderr, "ycsb: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  PrintHeader("Fig. 9: YCSB throughput (ops/s, simulated device time; " +
              std::to_string(params.entries()) + " records, " +
              std::to_string(params.read_ops) + " ops/workload)");
  std::printf("%-10s %14s %14s %14s %18s\n", "workload", "LevelDB", "SMRDB",
              "SEALDB", "SEALDB/LevelDB");
  double gain[7];
  for (int w = 0; w < 7; w++) {
    gain[w] = Ratio(results[w][2], results[w][0]);
    std::printf("%-10s %14.0f %14.0f %14.0f %18.2f\n", workloads[w],
                results[w][0], results[w][1], results[w][2], gain[w]);
  }
  std::printf(
      "\npaper: SEALDB enjoys the largest gains on the load and "
      "write-dominated workloads (A, F); read-only C is closest.\n");

  const double write_heavy = std::min(gain[1], gain[6]);
  const double read_heavy = std::max({gain[2], gain[3], gain[4]});
  AddClaim("Fig. 9", "Load SEALDB / LevelDB", "largest gain", gain[0],
           "the largest of all workloads",
           gain[0] == *std::max_element(gain, gain + 7));
  AddClaim("Fig. 9", "A (50r/50u) SEALDB / LevelDB", "large gain", gain[1],
           "A and F above B, C and D", write_heavy > read_heavy);
  AddClaim("Fig. 9", "B (95r/5u) SEALDB / LevelDB", "moderate gain", gain[2],
           "more than 1", gain[2] > 1.0);
  AddClaim("Fig. 9", "C (100r) SEALDB / LevelDB", "smallest gain", gain[3],
           "more than 1, below A, B, D and F",
           gain[3] > 1.0 &&
               gain[3] < std::min({gain[1], gain[2], gain[4], gain[6]}));
  AddClaim("Fig. 9", "D (95r/5i latest) SEALDB / LevelDB", "moderate gain",
           gain[4], "more than 1", gain[4] > 1.0);
  AddClaim("Fig. 9", "E (scan-heavy) SEALDB / LevelDB", "moderate gain",
           gain[5], "within 10% of 1; SMRDB below both others",
           Within(gain[5], 1.0, 0.10) &&
               results[5][1] < std::min(results[5][0], results[5][2]));
  AddClaim("Fig. 9", "F (50r/50rmw) SEALDB / LevelDB", "large gain", gain[6],
           "A and F above B, C and D", write_heavy > read_heavy);
}

// ---------------------------------------------------------------- Fig. 10

void Fig10(const BenchParams& params, const RandomRun* runs[3]) {
  PrintHeader("Fig. 10: compaction detail (random load, " +
              std::to_string(params.load_mb) + " MB, scale 1/" +
              std::to_string(params.scale) + ")");
  Merges m[3];
  for (int sys = 0; sys < 3; sys++) {
    const char* name = baselines::SystemName(runs[sys]->config.kind);
    std::printf("\n--- %s: per-compaction latency series (every 25th) ---\n",
                name);
    std::printf("%10s %14s %14s %10s\n", "compact#", "latency-ms", "data-MB",
                "outputs");
    const auto& events = runs[sys]->events;
    for (size_t i = 0; i < events.size(); i += 25) {
      const CompactionEvent& ev = events[i];
      if (ev.trivial_move) continue;
      std::printf("%10zu %14.2f %14.2f %10d\n", i, ev.device_seconds * 1000.0,
                  ev.output_bytes / kMB, ev.num_outputs);
    }
    m[sys] = SumMerges(events);
    std::printf("-- %s summary --\n", name);
    PrintKV("compactions", std::to_string(m[sys].count));
    PrintKV("total compaction latency", m[sys].latency, "s (simulated)");
    if (m[sys].count > 0) {
      PrintKV("avg latency per compaction",
              m[sys].latency / m[sys].count * 1000.0, "ms");
      PrintKV("avg compaction data size",
              m[sys].data_bytes / kMB / m[sys].count, "MB");
      PrintKV("avg SSTables per compaction (set size)",
              static_cast<double>(m[sys].outputs) / m[sys].count);
    }
  }
  const double leveldb_x = Ratio(m[0].latency, m[2].latency);
  const double smrdb_x = Ratio(m[1].latency, m[2].latency);
  PrintHeader("Fig. 10 ratios");
  PrintKV("LevelDB / SEALDB total latency (paper: 4.30x)", leveldb_x, "x");
  PrintKV("SMRDB / SEALDB total latency (paper: 1.89x)", smrdb_x, "x");

  const double count_ratio = Ratio(m[2].count, m[0].count);
  AddClaim("Fig. 10", "SEALDB / LevelDB compaction count", "similar",
           count_ratio, "within 10% of 1", Within(count_ratio, 1.0, 0.10));
  AddClaim("Fig. 10", "LevelDB / SEALDB total compaction latency", "4.30x",
           leveldb_x, "within 30% of the paper", Within(leveldb_x, 4.30, 0.3));
  AddClaim("Fig. 10", "SMRDB / SEALDB total compaction latency", "1.89x",
           smrdb_x, "more than 1", smrdb_x > 1.0);
  const double size_x = Ratio(Ratio(m[1].data_bytes, m[1].count),
                              Ratio(m[2].data_bytes, m[2].count));
  AddClaim("Fig. 10", "SMRDB / SEALDB average compaction data",
           "~900 MB vs 27.48 MB", size_x,
           "SMRDB runs fewer compactions, each over 2x larger",
           m[1].count < m[2].count && size_x > 2.0);
  const double set_mb =
      Ratio(m[2].data_bytes, m[2].count) * params.scale / kMB;
  AddClaim("Fig. 10", "SEALDB average set, full-scale MB", "27.48", set_mb,
           "within 25% of the paper", Within(set_mb, 27.48, 0.25));
}

// ---------------------------------------------------------------- Fig. 11

void Fig11(const BenchParams& params, const RandomRun& run) {
  PrintHeader("Fig. 11: SEALDB set placement per compaction (" +
              std::to_string(params.load_mb) + " MB random load)");
  std::printf("%8s %8s %14s %12s %12s\n", "compact#", "outputs",
              "set-PBA-MB", "set-MB", "contiguous");
  int merges = 0, contiguous = 0;
  for (size_t i = 0; i < run.events.size(); i++) {
    const CompactionEvent& ev = run.events[i];
    if (ev.trivial_move || ev.output_placement.empty()) continue;
    bool is_contiguous = true;
    uint64_t prev_end = 0, lo = UINT64_MAX, bytes = 0;
    for (const auto& [offset, length] : ev.output_placement) {
      if (prev_end != 0 && offset != prev_end) is_contiguous = false;
      prev_end = offset + length;
      lo = std::min(lo, offset);
      bytes += length;
    }
    merges++;
    if (is_contiguous) contiguous++;
    if (i % 20 == 0) {
      std::printf("%8zu %8zu %14.1f %12.2f %12s\n", i,
                  ev.output_placement.size(), lo / kMB, bytes / kMB,
                  is_contiguous ? "yes" : "NO");
    }
  }
  const double contiguous_pct = merges > 0 ? 100.0 * contiguous / merges : 0;
  const double footprint = Ratio(run.occupied, run.user_bytes);
  PrintHeader("Fig. 11 summary");
  PrintKV("user data loaded", FormatMB(run.user_bytes));
  PrintKV("compactions", std::to_string(merges));
  PrintKV("compactions with fully contiguous sets (paper: all)",
          contiguous_pct, "%");
  PrintKV("disk space occupied", FormatMB(run.occupied));
  PrintKV("space / user-data ratio (paper: 2.7 GB for 10 GB DB ~ "
          "compact footprint)",
          footprint);
  PrintKV("dynamic bands on disk", std::to_string(run.bands.size()));

  AddClaim("Fig. 11", "compactions writing one contiguous set (%)", "all",
           contiguous_pct, "exactly 100", merges > 0 && contiguous == merges);
  AddClaim("Fig. 11", "occupied space / user data", "compact footprint",
           footprint, "below 2", footprint < 2.0);
}

// ---------------------------------------------------------------- Fig. 12

void Fig12(const BenchParams& params, const RandomRun* runs[3]) {
  PrintHeader("Fig. 12: WA / AWA / MWA (random load, " +
              std::to_string(params.load_mb) + " MB, scale 1/" +
              std::to_string(params.scale) + ")");
  std::printf("%-14s %8s %8s %8s %12s %12s %9s %9s %8s\n", "system", "WA",
              "AWA", "MWA", "logical-MB", "physical-MB", "busy-s", "seeks",
              "RMWs");
  for (int sys = 0; sys < 3; sys++) {
    const RandomRun& r = *runs[sys];
    std::printf("%-14s %8.2f %8.2f %8.2f %12.1f %12.1f %9.2f %9llu %8llu\n",
                baselines::SystemName(r.config.kind), r.wa, r.awa, r.mwa,
                r.logical_write / kMB, r.physical_write / kMB, r.busy_s,
                static_cast<unsigned long long>(r.seeks),
                static_cast<unsigned long long>(r.rmws));
  }
  const RandomRun& leveldb = *runs[0];
  const RandomRun& smrdb = *runs[1];
  const RandomRun& sealdb = *runs[2];
  const double reduction = Ratio(leveldb.mwa, sealdb.mwa);
  PrintKV("SEALDB MWA reduction vs LevelDB (paper: 6.70x)", reduction, "x");

  const double wa_ratio = Ratio(sealdb.wa, leveldb.wa);
  AddClaim("Fig. 12", "WA SEALDB / LevelDB", "~1 (~9.8 == ~9.8)", wa_ratio,
           "within 2% of 1", Within(wa_ratio, 1.0, 0.02));
  AddClaim("Fig. 12", "AWA LevelDB", "~5.4", leveldb.awa,
           "more than 1 (band RMW)", leveldb.awa > 1.0 && leveldb.rmws > 0);
  auto awa_one = [](const RandomRun& r) {
    return r.physical_write == r.logical_write && r.rmws == 0;
  };
  AddClaim("Fig. 12", "AWA SEALDB and SMRDB", "1.0, 1.0",
           std::max(sealdb.awa, smrdb.awa), "exactly 1 with 0 RMWs",
           awa_one(sealdb) && awa_one(smrdb));
  AddClaim("Fig. 12", "MWA reduction SEALDB vs LevelDB", "6.70x", reduction,
           "at least 5", reduction >= 5.0);
  const double smrdb_wa = Ratio(smrdb.wa, leveldb.wa);
  AddClaim("Fig. 12", "WA SMRDB / LevelDB (eager overlap merges)", "~0.6",
           smrdb_wa, "more than 1: merges at 2 overlapping runs",
           smrdb_wa > 1.0);
}

// ---------------------------------------------------------------- Fig. 13

void Fig13(const BenchParams& params, const RandomRun& run,
           const core::FragmentGcResult& gc) {
  PrintHeader("Fig. 13: dynamic bands and fragments (" +
              std::to_string(params.load_mb) + " MB random load)");
  const core::FragmentReport& report = run.fragments;
  PrintKV("average set size (paper: 27.48 MB full scale)", run.avg_set / kMB,
          "MB");
  PrintKV("dynamic bands", std::to_string(report.num_bands));
  PrintKV("occupied space", FormatMB(report.occupied_bytes));
  PrintKV("allocated (live) data", FormatMB(report.allocated_bytes));
  PrintKV("guard regions", FormatMB(report.guard_bytes));
  PrintKV("fragments (small free + guards)", FormatMB(report.fragment_bytes));
  PrintKV("large reusable free regions", FormatMB(report.large_free_bytes));
  PrintKV("fragment share of occupied space (paper: 9.32%)",
          100.0 * report.fragment_fraction(), "%");

  std::printf("\n--- band layout (band, following gap) ---\n");
  const auto& bands = run.bands;
  const size_t step = bands.size() > 40 ? bands.size() / 40 : 1;
  for (size_t i = 0; i < bands.size(); i += step) {
    std::printf("  band @%9.1f MB  len %9.2f MB  gap %8.2f MB\n",
                bands[i].offset / kMB, bands[i].length / kMB,
                bands[i].following_gap / kMB);
  }

  // Extension: the fragment GC the paper leaves as future work.
  PrintHeader("future-work extension: fragment garbage collection");
  PrintKV("triggered", gc.triggered ? "yes" : "no");
  PrintKV("sets compacted", std::to_string(gc.sets_compacted));
  PrintKV("pinned fragment bytes targeted",
          FormatMB(gc.pinned_bytes_targeted));
  PrintKV("pinned fragment bytes reclaimed",
          FormatMB(gc.pinned_bytes_reclaimed));
  PrintKV("fragment share before", 100.0 * gc.fragment_share_before, "%");
  PrintKV("fragment share after", 100.0 * gc.fragment_share_after, "%");

  // The last band ends at the allocation frontier, which has no gap.
  size_t gapped = 0;
  for (size_t i = 0; i + 1 < bands.size(); i++) {
    if (bands[i].following_gap > 0) gapped++;
  }
  const double gapped_pct =
      bands.size() > 1 ? 100.0 * gapped / (bands.size() - 1) : 0.0;
  AddClaim("Fig. 13", "dynamic bands followed by a gap (%)", "every band",
           gapped_pct, "exactly 100",
           bands.size() > 1 && gapped + 1 == bands.size());
  const double share = 100.0 * report.fragment_fraction();
  AddClaim("Fig. 13", "fragment share of occupied space (%)", "9.32", share,
           "within 50% of the paper", Within(share, 9.32, 0.5));
  AddClaim("Fig. 13", "fragment share after GC (%)", "future work",
           100.0 * gc.fragment_share_after, "below the share before GC",
           gc.fragment_share_after < gc.fragment_share_before);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const BenchParams params = BenchParams::FromFlags(flags);
  const std::string out_path = flags.GetString("out", "BENCH_paper.json");

  // Loads, each run once. The random loads keep their compaction events
  // and device counters for the layout and amplification figures.
  const SystemKind micro_kinds[] = {SystemKind::kLevelDB, SystemKind::kSMRDB,
                                    SystemKind::kSEALDB,
                                    SystemKind::kLevelDBWithSets};
  std::vector<RandomRun> random;  // indexed like micro_kinds
  for (SystemKind kind : micro_kinds) {
    random.push_back(
        RunRandom(params, params.MakeConfig(kind), After::kReads));
    random.back().micro.fill_seq = SequentialFill(params, kind);
  }
  const RandomRun& leveldb = random[0];
  const RandomRun& smrdb = random[1];
  const RandomRun& sealdb = random[2];
  const RandomRun& with_sets = random[3];

  // Fig. 3 sweeps the fixed band size (20..60 MB at full scale); the 40 MB
  // point is the LevelDB preset's own band, so its load is reused.
  const std::vector<uint64_t> band_mb = {20, 30, 40, 50, 60};
  std::vector<RandomRun> sweep;
  for (uint64_t mb : band_mb) {
    baselines::StackConfig config = params.MakeConfig(SystemKind::kLevelDB);
    config.band_bytes = mb * (1ull << 20) / params.scale;
    if (config.band_bytes == leveldb.config.band_bytes) {
      sweep.push_back(leveldb);
    } else {
      sweep.push_back(RunRandom(params, config, After::kNothing));
    }
  }

  const RandomRun hdd = RunRandom(
      params, params.MakeConfig(SystemKind::kLevelDBOnHdd), After::kNothing);
  // The one load that runs twice: the micro benchmark's reads compact, so
  // the Fig. 13 extension gets its own copy of the SEALDB load.
  const core::FragmentGcResult gc =
      RunRandom(params, sealdb.config, After::kFragmentGc).gc;

  TableII();
  Fig2(params, hdd);
  Fig3(params, sweep, band_mb);
  Fig8(params, leveldb.micro, smrdb.micro, sealdb.micro);
  Fig9(params);
  const RandomRun* systems[3] = {&leveldb, &smrdb, &sealdb};
  Fig10(params, systems);
  Fig11(params, sealdb);
  Fig12(params, systems);
  Fig13(params, sealdb, gc);
  Fig14(params, leveldb.micro, with_sets.micro, sealdb.micro);

  WriteJson(out_path, params);
  int broken = 0;
  for (const Claim& c : g_claims) {
    if (!c.holds) {
      std::printf("SHAPE BROKEN: %s: %s = %.4g (%s)\n", c.figure.c_str(),
                  c.claim.c_str(), c.measured, c.shape.c_str());
      broken++;
    }
  }
  std::printf("\n%zu claims, %d broken; JSON written to %s\n",
              g_claims.size(), broken, out_path.c_str());
  return broken == 0 ? 0 : 1;
}

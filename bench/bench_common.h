// Shared machinery for the benches: flag parsing, a scale-aware default
// configuration, key/value makers and row printers.
//
// All benches run at a reduced scale by default (the simulated drive keeps
// access-pattern economics intact; only CPU-bound merge work forces the
// shrink). Every size keeps the paper's ratios: AF = 10, band = 10 SSTables,
// guard = 4 tracks, value:SSTable = 1:1024. Use --scale=1 for paper-size
// constants (slow) or --mb=N to change the loaded volume.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "util/random.h"

namespace sealdb::bench {

// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv);

  uint64_t GetInt(const std::string& name, uint64_t def) const;
  std::string GetString(const std::string& name,
                        const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

// Benchmark scale knobs derived from flags.
struct BenchParams {
  // Scale divisor vs the paper's constants (default 16: 256 KB SSTables,
  // 2.5 MB bands, 64 KB tracks, 256 B values).
  uint64_t scale = 16;
  // Volume of user data loaded per experiment, in MiB.
  uint64_t load_mb = 48;
  // Operations for read benchmarks / YCSB transaction phases.
  uint64_t read_ops = 20000;
  uint64_t key_bytes = 16;

  uint64_t value_bytes() const { return 4096 / scale; }
  uint64_t entries() const {
    return load_mb * 1024 * 1024 / (key_bytes + value_bytes());
  }

  static BenchParams FromFlags(const Flags& flags);

  // Paper-ratio stack config for a given system at this scale.
  baselines::StackConfig MakeConfig(baselines::SystemKind kind) const;
};

// ------------------------------ workloads ------------------------------

std::string MakeKey(uint64_t id, uint64_t key_bytes);
std::string MakeValue(uint64_t seed, uint64_t value_bytes);

// Simulated drive busy time so far (the device-currency clock): phases
// report the difference of two readings.
inline double DeviceBusySeconds(baselines::Stack* stack) {
  return stack->drive()->metrics().busy->Seconds();
}

// ------------------------------ reporting ------------------------------

void PrintHeader(const std::string& title);
void PrintKV(const std::string& key, const std::string& value);
void PrintKV(const std::string& key, double value, const char* unit = "");

std::string FormatMB(uint64_t bytes);

}  // namespace sealdb::bench

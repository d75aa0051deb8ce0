#include "bench_common.h"

#include <algorithm>
#include <cstring>

namespace sealdb::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

uint64_t Flags::GetInt(const std::string& name, uint64_t def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : strtoull(it->second.c_str(), nullptr, 10);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1";
}

BenchParams BenchParams::FromFlags(const Flags& flags) {
  BenchParams params;
  params.scale = flags.GetInt("scale", params.scale);
  params.load_mb = flags.GetInt("mb", params.load_mb);
  params.read_ops = flags.GetInt("read_ops", params.read_ops);
  return params;
}

baselines::StackConfig BenchParams::MakeConfig(
    baselines::SystemKind kind) const {
  baselines::StackConfig config;  // paper-scale defaults
  config.kind = kind;
  config = config.Scaled(scale);
  // Capacity: generous headroom over the load so no system runs out even
  // with placement fragmentation. SMRDB genuinely wastes space through
  // partially used bands (paper Sec. III-B2), so it gets extra room.
  const uint64_t headroom =
      kind == baselines::SystemKind::kSMRDB ? 16 : 4;
  config.capacity_bytes = std::max<uint64_t>(config.capacity_bytes,
                                             load_mb * headroom << 20);
  return config;
}

std::string MakeKey(uint64_t id, uint64_t key_bytes) {
  char buf[32];
  const int n =
      std::snprintf(buf, sizeof(buf), "k%014llu",
                    static_cast<unsigned long long>(id));
  std::string key(buf, n);
  if (key.size() < key_bytes) {
    key.append(key_bytes - key.size(), 'x');
  } else {
    key.resize(key_bytes);
  }
  return key;
}

std::string MakeValue(uint64_t seed, uint64_t value_bytes) {
  Random rnd(static_cast<uint32_t>(seed * 2654435761u % 0x7fffffff) + 1);
  std::string v;
  v.reserve(value_bytes);
  while (v.size() + 4 <= value_bytes) {
    const uint32_t w = rnd.Next();
    v.append(reinterpret_cast<const char*>(&w), 4);
  }
  while (v.size() < value_bytes) v.push_back('v');
  return v;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintKV(const std::string& key, const std::string& value) {
  std::printf("%-42s %s\n", key.c_str(), value.c_str());
}

void PrintKV(const std::string& key, double value, const char* unit) {
  std::printf("%-42s %.3f %s\n", key.c_str(), value, unit);
}

std::string FormatMB(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / 1048576.0);
  return buf;
}

}  // namespace sealdb::bench

// YCSB runner: drives a workload against a DB and reports throughput in
// simulated device time (the disk-bound metric the paper's Fig. 9 plots).
//
// Two modes:
//   - embedded: operate directly on a baselines::Stack (the original mode;
//     throughput is measured in simulated device seconds);
//   - remote: operate through a net::SealClient against a sealdb_server,
//     measuring client-observed wall latency per op (util/histogram) —
//     the serving-path metric the embedded mode cannot see.
#pragma once

#include <cstdint>
#include <string>

#include "lsm/db.h"
#include "util/histogram.h"
#include "ycsb/workload.h"

namespace sealdb::baselines {
class Stack;
}

namespace sealdb::net {
class SealClient;
}

namespace sealdb::ycsb {

struct RunResult {
  std::string workload;
  uint64_t operations = 0;
  uint64_t reads = 0, updates = 0, inserts = 0, scans = 0, rmws = 0;
  uint64_t not_found = 0;
  double device_seconds = 0.0;  // simulated drive busy time (embedded mode)
  double wall_seconds = 0.0;    // wall-clock duration of the phase
  // Client-observed per-op latency in microseconds (remote mode only).
  Histogram latency_micros;

  double ops_per_second() const {
    return device_seconds > 0 ? operations / device_seconds : 0.0;
  }
  double ops_per_wall_second() const {
    return wall_seconds > 0 ? operations / wall_seconds : 0.0;
  }
};

class Runner {
 public:
  // Embedded mode.
  Runner(baselines::Stack* stack, size_t key_bytes, size_t value_bytes,
         uint32_t seed = 42)
      : stack_(stack), key_bytes_(key_bytes), value_bytes_(value_bytes),
        seed_(seed) {}

  // Remote mode: every operation travels over `client`'s connection. The
  // client must already be connected and stay exclusive to this runner.
  Runner(net::SealClient* client, size_t key_bytes, size_t value_bytes,
         uint32_t seed = 42)
      : client_(client), key_bytes_(key_bytes), value_bytes_(value_bytes),
        seed_(seed) {}

  // Load `record_count` entries (YCSB load phase).
  Status Load(uint64_t record_count, RunResult* result);

  // Run `op_count` operations of the given workload against a database
  // previously loaded with `record_count` entries.
  Status Run(const WorkloadSpec& spec, uint64_t record_count,
             uint64_t op_count, RunResult* result);

 private:
  Status OpGet(const std::string& key, std::string* value);
  Status OpPut(const std::string& key, const std::string& value);
  Status OpScan(const std::string& start, int len, std::string* sink);
  void Settle();  // WaitForIdle in embedded mode; no-op remotely
  // Simulated drive busy time in embedded mode; 0 remotely.
  double DeviceBusySeconds() const;

  baselines::Stack* stack_ = nullptr;
  net::SealClient* client_ = nullptr;
  size_t key_bytes_;
  size_t value_bytes_;
  uint32_t seed_;
};

}  // namespace sealdb::ycsb

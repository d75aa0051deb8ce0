// DeviceMetrics: the drive models' traffic accounting, as registry metrics.
//
// The counters live in a MetricsRegistry (shared with the engine and server
// when the stack wires one in, private otherwise) under the sealdb_device_*
// and sealdb_smr_* families. Drive::metrics() hands out these typed handles,
// so `sealdb.stats`, the METRICS exposition, and bench deltas all read the
// same counters.
//
// One registry carries at most one device's metrics (a stack owns exactly
// one drive); idempotent registration means a FaultInjectionDrive wrapper
// built on its inner drive's registry gets the very same counters — the
// wrapper increments the fault counters, the inner drive the traffic
// counters.
#pragma once

#include <memory>

#include "obs/metrics.h"

namespace sealdb::smr {

class DeviceMetrics {
 public:
  // A null registry gets a private one (standalone drives in unit tests).
  explicit DeviceMetrics(std::shared_ptr<obs::MetricsRegistry> registry);

  // Host-visible traffic.
  obs::Counter* logical_read;   // bytes
  obs::Counter* logical_write;  // bytes
  // Media traffic (includes band read-modify-write).
  obs::Counter* physical_read;   // bytes
  obs::Counter* physical_write;  // bytes

  obs::Counter* read_ops;
  obs::Counter* write_ops;
  obs::Counter* rmw_ops;
  obs::Counter* seeks;

  obs::TimeCounter* busy;      // total simulated device busy time
  obs::TimeCounter* position;  // seek + rotational share of busy

  // Fault injection (FaultInjectionDrive increments these).
  obs::Counter* read_errors;
  obs::Counter* write_errors;
  obs::Counter* torn_writes;
  obs::Counter* crashes;

  // Writes rejected because they would shingle over valid data. The SEALDB
  // allocator's guard discipline keeps this at zero; a nonzero value is a
  // placement bug.
  obs::Counter* guard_violations;

  // Physical / logical write bytes: the paper's auxiliary write
  // amplification (1.0 before the first write).
  double awa() const;

  const std::shared_ptr<obs::MetricsRegistry>& registry() const {
    return registry_;
  }

 private:
  std::shared_ptr<obs::MetricsRegistry> registry_;
};

}  // namespace sealdb::smr

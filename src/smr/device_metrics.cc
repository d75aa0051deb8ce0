#include "smr/device_metrics.h"

namespace sealdb::smr {

namespace {

double Awa(const obs::Counter& logical, const obs::Counter& physical) {
  const uint64_t l = logical.Value();
  return l == 0 ? 1.0 : static_cast<double>(physical.Value()) /
                            static_cast<double>(l);
}

}  // namespace

DeviceMetrics::DeviceMetrics(std::shared_ptr<obs::MetricsRegistry> registry)
    : registry_(registry != nullptr
                    ? std::move(registry)
                    : std::make_shared<obs::MetricsRegistry>()) {
  obs::MetricsRegistry& r = *registry_;
  logical_read = r.RegisterCounter(
      "sealdb_device_logical_bytes_total",
      "Bytes the host asked the drive to transfer", {{"dir", "read"}});
  logical_write = r.RegisterCounter(
      "sealdb_device_logical_bytes_total",
      "Bytes the host asked the drive to transfer", {{"dir", "write"}});
  physical_read = r.RegisterCounter(
      "sealdb_device_physical_bytes_total",
      "Bytes the media actually transferred (includes band RMW)",
      {{"dir", "read"}});
  physical_write = r.RegisterCounter(
      "sealdb_device_physical_bytes_total",
      "Bytes the media actually transferred (includes band RMW)",
      {{"dir", "write"}});
  read_ops = r.RegisterCounter("sealdb_device_ops_total",
                               "Drive requests by kind", {{"kind", "read"}});
  write_ops = r.RegisterCounter("sealdb_device_ops_total",
                                "Drive requests by kind", {{"kind", "write"}});
  rmw_ops = r.RegisterCounter("sealdb_device_ops_total",
                              "Drive requests by kind", {{"kind", "rmw"}});
  seeks = r.RegisterCounter("sealdb_device_seeks_total",
                            "Non-sequential head repositions");
  busy = r.RegisterTimeCounter("sealdb_device_busy_seconds_total",
                               "Simulated device busy time");
  position = r.RegisterTimeCounter(
      "sealdb_device_position_seconds_total",
      "Positioning (seek + rotation) share of busy time; busy - position "
      "is transfer + command time");
  read_errors =
      r.RegisterCounter("sealdb_device_faults_total", "Injected device faults",
                        {{"kind", "read_error"}});
  write_errors =
      r.RegisterCounter("sealdb_device_faults_total", "Injected device faults",
                        {{"kind", "write_error"}});
  torn_writes =
      r.RegisterCounter("sealdb_device_faults_total", "Injected device faults",
                        {{"kind", "torn_write"}});
  crashes =
      r.RegisterCounter("sealdb_device_faults_total", "Injected device faults",
                        {{"kind", "crash"}});
  guard_violations = r.RegisterCounter(
      "sealdb_smr_guard_violations_total",
      "Writes rejected for shingling over valid data (must stay 0)");

  // AWA is derived; refresh it whenever the registry is snapshotted. The
  // hook captures the counters (registry-owned), never the drive.
  obs::Gauge* gauge = r.RegisterGauge(
      "sealdb_device_aux_write_amplification",
      "Physical / logical write bytes (the paper's AWA)");
  obs::Counter* lw = logical_write;
  obs::Counter* pw = physical_write;
  r.AddCollectHook([gauge, lw, pw] { gauge->Set(Awa(*lw, *pw)); });
}

double DeviceMetrics::awa() const {
  return Awa(*logical_write, *physical_write);
}

}  // namespace sealdb::smr

#include <mutex>

#include "smr/device_metrics.h"
#include "smr/drive.h"

namespace sealdb::smr {

namespace {

// Conventional drive: any aligned write is accepted in place, no
// amplification. This is the substrate of the paper's Fig. 2 experiment and
// the Table II "HDD" column.
class HddDrive final : public Drive {
 public:
  HddDrive(const Geometry& geo, const LatencyParams& lat,
           std::shared_ptr<obs::MetricsRegistry> registry)
      : geo_(geo),
        media_(geo),
        latency_(lat, geo.capacity_bytes),
        met_(std::move(registry)) {}

  Status Read(uint64_t offset, uint64_t n, char* scratch) override {
    if (Status s = CheckRange(offset, n); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
    if (latency_.head_position() != offset) met_.seeks->Inc();
    met_.busy->AddSeconds(latency_.Access(offset, n, /*is_write=*/false));
    met_.position->AddSeconds(latency_.last_position_seconds());
    media_.Read(offset, n, scratch);
    met_.read_ops->Inc();
    met_.logical_read->Add(n);
    met_.physical_read->Add(n);
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    if (Status s = CheckRange(offset, data.size()); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
    if (offset + data.size() <= geo_.conventional_bytes) {
      // Metadata region: absorbed by the write cache.
      met_.busy->AddSeconds(
          latency_.AccessCached(data.size(), /*is_write=*/true));
    } else {
      if (latency_.head_position() != offset) met_.seeks->Inc();
      met_.busy->AddSeconds(
          latency_.Access(offset, data.size(), /*is_write=*/true));
      met_.position->AddSeconds(latency_.last_position_seconds());
    }
    media_.Write(offset, data);
    media_.MarkValid(offset, data.size());
    met_.write_ops->Inc();
    met_.logical_write->Add(data.size());
    met_.physical_write->Add(data.size());
    return Status::OK();
  }

  Status Trim(uint64_t offset, uint64_t n) override {
    if (Status s = CheckRange(offset, n); !s.ok()) return s;
    std::lock_guard<std::mutex> l(mu_);
    media_.MarkInvalid(offset, n);
    return Status::OK();
  }

  const Geometry& geometry() const override { return geo_; }
  const DeviceMetrics& metrics() const override { return met_; }

  bool IsValid(uint64_t offset, uint64_t n) const override {
    std::lock_guard<std::mutex> l(mu_);
    return media_.AllValid(offset, n);
  }

 private:
  Status CheckRange(uint64_t offset, uint64_t n) const {
    if (!geo_.aligned(offset) || !geo_.aligned(n)) {
      return Status::InvalidArgument("unaligned drive access");
    }
    if (offset + n > geo_.capacity_bytes) {
      return Status::InvalidArgument("drive access beyond capacity");
    }
    return Status::OK();
  }

  Geometry geo_;
  // Serializes media/latency state for concurrent shard I/O (one spindle).
  mutable std::mutex mu_;
  MediaStore media_;
  LatencyModel latency_;
  DeviceMetrics met_;
};

}  // namespace

std::unique_ptr<Drive> NewHddDrive(
    const Geometry& geo, const LatencyParams& lat,
    std::shared_ptr<obs::MetricsRegistry> registry) {
  return std::make_unique<HddDrive>(geo, lat, std::move(registry));
}

}  // namespace sealdb::smr

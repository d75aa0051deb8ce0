#include "baselines/presets.h"

#include <algorithm>

#include "core/shard_layout.h"
#include "lsm/engine_metrics.h"
#include "lsm/sharded_db.h"

namespace sealdb::baselines {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kLevelDB:
      return "LevelDB";
    case SystemKind::kLevelDBOnHdd:
      return "LevelDB-HDD";
    case SystemKind::kLevelDBWithSets:
      return "LevelDB+sets";
    case SystemKind::kSMRDB:
      return "SMRDB";
    case SystemKind::kSEALDB:
      return "SEALDB";
  }
  return "unknown";
}

StackConfig StackConfig::Scaled(uint64_t factor) const {
  StackConfig c = *this;
  if (factor <= 1) return c;
  c.capacity_bytes /= factor;
  c.band_bytes /= factor;
  c.sstable_bytes /= factor;
  c.write_buffer_bytes /= factor;
  if (buffer_pool_bytes > 0) {
    c.buffer_pool_bytes = std::max<uint64_t>(256 << 10,
                                             buffer_pool_bytes / factor);
  }
  c.track_bytes = static_cast<uint32_t>(
      std::max<uint64_t>(4096, track_bytes / factor));
  c.conventional_bytes = std::max<uint64_t>(4ull << 20,
                                            conventional_bytes / factor);
  c.value_bytes = std::max<uint64_t>(64, value_bytes / factor);
  c.time_scale = time_scale * factor;
  return c;
}

namespace {

smr::Geometry MakeGeometry(const StackConfig& config) {
  smr::Geometry geo;
  geo.capacity_bytes = config.capacity_bytes;
  geo.block_bytes = 4096;
  geo.track_bytes = config.track_bytes;
  geo.shingle_overlap_tracks = config.shingle_overlap_tracks;
  geo.conventional_bytes = config.conventional_bytes;
  return geo;
}

Options MakeOptions(const StackConfig& config, const FilterPolicy* filter,
                    std::shared_ptr<obs::MetricsRegistry> registry) {
  Options opt;
  // Always allocate the external-memory counter so a serving layer built
  // on top of the stack (src/server) can account its connection buffers
  // into "sealdb.approximate-memory-usage" without reopening the DB.
  opt.external_memory_bytes = std::make_shared<std::atomic<uint64_t>>(0);
  // One registry for the whole stack: engine, drive, allocator, and any
  // server in front all publish into it, and Reopen() reuses it so the
  // counters keep accumulating across restarts.
  opt.metrics_registry = std::move(registry);
  opt.write_buffer_size = config.write_buffer_bytes;
  opt.max_file_size = config.sstable_bytes;
  opt.filter_policy = filter;
  opt.inline_compactions = config.inline_compactions;
  opt.buffer_pool_bytes = config.buffer_pool_bytes;
  opt.compaction_readahead = config.compaction_readahead;
  // Per-system executor width: set/band designs have naturally disjoint
  // compaction units, so they profit most from extra workers.
  if (config.max_background_compactions > 0) {
    opt.max_background_compactions = config.max_background_compactions;
  } else {
    opt.max_background_compactions =
        (config.kind == SystemKind::kSEALDB ||
         config.kind == SystemKind::kSMRDB)
            ? 4
            : 2;
  }
  opt.max_bytes_for_level_base = 10 * config.sstable_bytes;
  opt.max_manifest_file_size =
      std::max<uint64_t>(256 << 10, 2 * config.write_buffer_bytes);
  if (config.level0_slowdown_writes_trigger > 0) {
    opt.level0_slowdown_writes_trigger = config.level0_slowdown_writes_trigger;
  }
  if (config.level0_stop_writes_trigger > 0) {
    opt.level0_stop_writes_trigger = config.level0_stop_writes_trigger;
  }

  switch (config.kind) {
    case SystemKind::kLevelDB:
    case SystemKind::kLevelDBOnHdd:
      break;  // stock configuration
    case SystemKind::kLevelDBWithSets:
      opt.compaction_unit = CompactionUnit::kSet;
      break;
    case SystemKind::kSMRDB:
      opt.num_levels = 2;
      opt.allow_overlap_last_level = true;
      // SMRDB enlarges SSTables to the band size (40 MB at full scale),
      // with headroom so a finished table (builders overshoot by a block
      // or two) still fits one band exactly.
      opt.max_file_size = config.band_bytes - config.band_bytes / 16;
      opt.max_bytes_for_level_base = 10 * config.band_bytes;
      break;
    case SystemKind::kSEALDB:
      opt.compaction_unit = CompactionUnit::kSet;
      break;
  }
  return opt;
}

std::unique_ptr<smr::Drive> MakeDrive(
    const StackConfig& config, smr::ShingledDisk** shingled_out,
    const std::shared_ptr<obs::MetricsRegistry>& registry) {
  const smr::Geometry geo = MakeGeometry(config);
  const smr::LatencyParams hdd =
      smr::LatencyParams::Hdd().TimeScaled(config.time_scale);
  const smr::LatencyParams smr_params =
      smr::LatencyParams::Smr().TimeScaled(config.time_scale);
  *shingled_out = nullptr;
  switch (config.kind) {
    case SystemKind::kLevelDBOnHdd:
      return smr::NewHddDrive(geo, hdd, registry);
    case SystemKind::kLevelDB:
    case SystemKind::kLevelDBWithSets:
    case SystemKind::kSMRDB: {
      smr::FixedBandOptions fb;
      fb.band_bytes = config.band_bytes;
      return smr::NewFixedBandDrive(geo, smr_params, fb, registry);
    }
    case SystemKind::kSEALDB: {
      auto disk = smr::NewShingledDisk(geo, smr_params, registry);
      *shingled_out = disk.get();
      return disk;
    }
  }
  return nullptr;
}

// `base`/`limit` bound the managed shingled space (a shard's slice, or the
// whole post-conventional span for the classic single-engine layout);
// `shard_label` stamps the allocator's metric series when non-empty.
std::unique_ptr<fs::ExtentAllocator> MakeAllocator(
    const StackConfig& config, const smr::Geometry& geo,
    core::DynamicBandAllocator** dyn_out,
    const std::shared_ptr<obs::MetricsRegistry>& registry, uint64_t base,
    uint64_t limit, const std::string& shard_label) {
  *dyn_out = nullptr;
  const uint64_t size = limit - base;
  switch (config.kind) {
    case SystemKind::kLevelDB:
    case SystemKind::kLevelDBOnHdd:
    case SystemKind::kLevelDBWithSets: {
      fs::Ext4Options opt;
      // Keep roughly 64 block groups at any scale so placement scatters
      // like ext4 on a large partition.
      opt.block_group_bytes = std::max<uint64_t>(
          8ull << 20, config.capacity_bytes / 64);
      return fs::NewExt4Allocator(base, size, geo.block_bytes, opt);
    }
    case SystemKind::kSMRDB:
      return fs::NewBandAlignedAllocator(base, size, config.band_bytes);
    case SystemKind::kSEALDB: {
      core::DynamicBandOptions opt;
      opt.base = base;
      opt.limit = limit;
      opt.track_bytes = geo.track_bytes;
      opt.guard_bytes = geo.guard_bytes();
      opt.class_unit = config.sstable_bytes;
      opt.metrics_registry = registry;
      opt.metrics_shard_label = shard_label;
      auto alloc = std::make_unique<core::DynamicBandAllocator>(opt);
      *dyn_out = alloc.get();
      return alloc;
    }
  }
  return nullptr;
}

}  // namespace

double Stack::wa() const {
  const obs::MetricsRegistry& r = *options_.metrics_registry;
  return WriteAmp(r.counter_family_sum("sealdb_engine_user_bytes_total"),
                  r.counter_family_sum("sealdb_engine_flush_bytes_total"),
                  r.counter_family_sum("sealdb_engine_compaction_bytes_total",
                                       {{"dir", "write"}}));
}

Stack::~Stack() {
  // The scrub thread reads through the DB and stores, so it stops first;
  // then DB closes before the stores, the stores before the drive. Member
  // declaration order already guarantees this (unique_ptrs destroyed in
  // reverse order), the explicit resets just make it obvious.
  scrub_.reset();
  db_.reset();
  stores_.clear();
}

Status Stack::OpenEngines(bool format) {
  const smr::Geometry geo = MakeGeometry(config_);
  const int shards = std::max(1, config_.num_shards);
  if (shards > 1 && config_.kind != SystemKind::kSEALDB) {
    return Status::InvalidArgument(
        "num_shards > 1 is only supported by the SEALDB stack");
  }
  const core::ShardLayout layout(geo, shards, geo.track_bytes);
  if (shards > 1) {
    Status s = format ? layout.WriteSuperblock(drive_.get())
                      : layout.VerifySuperblock(drive_.get());
    if (!s.ok()) return s;
  }

  // ONE buffer pool for the whole stack: every shard column caches into
  // the same frames, so the read-cache budget is a process-wide resource
  // and an idle shard's share isn't stranded. Created once; Reopen()
  // reuses it (the per-owner purge in ~TableCache keeps it consistent).
  if (buffer_pool_ == nullptr && options_.buffer_pool_bytes > 0) {
    buf::BufferPool::Config pool_config;
    pool_config.capacity_bytes = options_.buffer_pool_bytes;
    pool_config.metrics_registry = options_.metrics_registry;
    buffer_pool_ = std::make_unique<buf::BufferPool>(pool_config);
  }
  options_.buffer_pool = buffer_pool_.get();

  dyn_alloc_ = nullptr;
  std::vector<std::unique_ptr<DB>> dbs;
  for (int i = 0; i < shards; i++) {
    const core::ShardRegion& rg = layout.region(i);
    const std::string label = shards > 1 ? std::to_string(i) : "";
    core::DynamicBandAllocator* dyn = nullptr;
    auto alloc =
        MakeAllocator(config_, geo, &dyn, options_.metrics_registry,
                      rg.data_base, rg.data_limit, label);
    if (i == 0) dyn_alloc_ = dyn;
    auto store = std::make_unique<fs::FileStore>(drive_.get(), alloc.get(),
                                                 rg.conv_base, rg.conv_len);
    store->SetMetrics(options_.metrics_registry, label);
    Status s = format ? store->Format() : store->Recover();
    if (!s.ok()) return s;

    Options shard_opt = options_;
    if (shards > 1) {
      shard_opt.metrics_shard_label = label;
      // The read cache is NOT split: every shard uses the one shared pool
      // above. The executor stays a per-engine resource, so N full-size
      // copies would change the stack's footprint, not just its
      // partitioning.
      shard_opt.max_background_compactions =
          std::max(1, options_.max_background_compactions / shards);
      // Only shard 0 folds the shared external counter into its memory
      // property; ShardedDb sums the shards, and N copies would count the
      // server's buffers N times.
      if (i != 0) shard_opt.external_memory_bytes = nullptr;
    }
    DB* db = nullptr;
    s = DB::Open(shard_opt, dbname_, store.get(), &db);
    if (!s.ok()) return s;
    dbs.emplace_back(db);
    allocators_.push_back(std::move(alloc));
    stores_.push_back(std::move(store));
  }
  if (shards == 1) {
    db_ = std::move(dbs[0]);
  } else {
    db_ = std::make_unique<ShardedDb>(std::move(dbs), options_.comparator,
                                      options_.metrics_registry);
  }

  if (config_.scrub_enabled) {
    std::vector<fs::ScrubScheduler::Target> targets;
    for (int i = 0; i < shards; i++) {
      fs::ScrubScheduler::Target t;
      t.store = stores_[i].get();
      // Quarantine dispatch goes to the column whose table numbers the
      // damaged file names decode to.
      t.db = shards > 1 ? sharded_db()->shard(i) : db_.get();
      t.shard = i;
      t.label = shards > 1 ? std::to_string(i) : "";
      targets.push_back(std::move(t));
    }
    fs::ScrubOptions sopt;
    sopt.rate_bytes_per_sec = config_.scrub_rate_bytes_per_sec;
    sopt.degrade_bad_blocks = config_.scrub_degrade_bad_blocks;
    scrub_ = std::make_unique<fs::ScrubScheduler>(
        std::move(targets), sopt, options_.metrics_registry,
        [this](int shard, const std::string& reason) {
          // Single-engine stacks have no narrower failure domain than the
          // whole DB; the quarantine plumbing alone protects them.
          if (ShardedDb* sdb = sharded_db()) sdb->DegradeShard(shard, reason);
        });
    scrub_->Start();
  }
  return Status::OK();
}

Status Stack::Reopen(int num_shards) {
  scrub_.reset();  // joins the scrub thread before its stores/DB die
  db_.reset();
  stores_.clear();
  allocators_.clear();

  // Power is restored only after the old stack is fully torn down, so any
  // destructor-time flushes above hit the dead drive and fail — exactly the
  // crash semantics the recovery tests rely on.
  if (fault_ != nullptr) fault_->ClearCrash();

  if (num_shards != 0) config_.num_shards = num_shards;
  return OpenEngines(/*format=*/false);
}

Status BuildStack(const StackConfig& config, const std::string& name,
                  std::unique_ptr<Stack>* out) {
  auto stack = std::make_unique<Stack>();
  stack->config_ = config;
  stack->dbname_ = name;
  if (config.bloom_bits_per_key > 0) {
    stack->filter_.reset(NewBloomFilterPolicy(config.bloom_bits_per_key));
  }
  auto registry = std::make_shared<obs::MetricsRegistry>();
  stack->options_ = MakeOptions(config, stack->filter_.get(), registry);

  stack->drive_ = MakeDrive(config, &stack->shingled_, registry);
  if (stack->drive_ == nullptr) {
    return Status::InvalidArgument("unknown system kind");
  }
  if (config.fault_injection) {
    auto fault =
        std::make_unique<smr::FaultInjectionDrive>(std::move(stack->drive_));
    stack->fault_ = fault.get();
    stack->drive_ = std::move(fault);
  }
  Status s = stack->OpenEngines(/*format=*/true);
  if (!s.ok()) return s;
  *out = std::move(stack);
  return Status::OK();
}

}  // namespace sealdb::baselines

#include "smr/fault_injection_drive.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace sealdb::smr {

FaultInjectionDrive::FaultInjectionDrive(std::unique_ptr<Drive> target)
    : target_(std::move(target)), met_(target_->metrics().registry()) {}

void FaultInjectionDrive::InjectReadError(uint64_t offset, uint64_t n,
                                          int remaining_failures) {
  if (n == 0) return;
  std::lock_guard<std::mutex> l(mu_);
  const Geometry& geo = target_->geometry();
  const uint64_t first = geo.block_of(offset);
  const uint64_t last = geo.block_of(offset + n - 1);
  for (uint64_t b = first; b <= last; b++) {
    bad_blocks_[b] = remaining_failures;
  }
}

void FaultInjectionDrive::ClearReadError(uint64_t offset, uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  ClearReadErrorLocked(offset, n);
}

void FaultInjectionDrive::ClearReadErrorLocked(uint64_t offset, uint64_t n) {
  if (n == 0) return;
  const Geometry& geo = target_->geometry();
  const uint64_t first = geo.block_of(offset);
  const uint64_t last = geo.block_of(offset + n - 1);
  for (uint64_t b = first; b <= last; b++) {
    bad_blocks_.erase(b);
  }
}

void FaultInjectionDrive::SetReadErrorProbability(double p, uint32_t seed) {
  std::lock_guard<std::mutex> l(mu_);
  read_error_probability_ = p;
  rng_ = Random(seed);
}

void FaultInjectionDrive::SetWriteError(bool enabled, uint64_t begin,
                                        uint64_t end) {
  std::lock_guard<std::mutex> l(mu_);
  write_error_enabled_ = enabled;
  write_error_begin_ = begin;
  write_error_end_ = end;
}

void FaultInjectionDrive::TearNextWrite(uint64_t keep_blocks) {
  std::lock_guard<std::mutex> l(mu_);
  tear_next_write_ = true;
  tear_keep_blocks_ = keep_blocks;
}

void FaultInjectionDrive::CrashAfterBlockWrites(uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  crash_after_blocks_ = static_cast<int64_t>(n);
}

void FaultInjectionDrive::PowerOff() {
  std::lock_guard<std::mutex> l(mu_);
  if (!crashed_) {
    crashed_ = true;
    met_.crashes->Inc();
  }
  crash_after_blocks_ = -1;
}

bool FaultInjectionDrive::ConsumeReadFault(uint64_t offset, uint64_t n) {
  if (bad_blocks_.empty() || n == 0) return false;
  const Geometry& geo = target_->geometry();
  const uint64_t first = geo.block_of(offset);
  const uint64_t last = geo.block_of(offset + n - 1);
  bool fault = false;
  for (auto it = bad_blocks_.lower_bound(first);
       it != bad_blocks_.end() && it->first <= last;) {
    fault = true;
    if (it->second > 0 && --it->second == 0) {
      it = bad_blocks_.erase(it);  // transient fault exhausted: healed
    } else {
      ++it;
    }
  }
  return fault;
}

void FaultInjectionDrive::HealWrittenBlocks(uint64_t offset, uint64_t n) {
  // A successful write remaps the sector: injected read errors clear.
  ClearReadErrorLocked(offset, n);
}

Status FaultInjectionDrive::Read(uint64_t offset, uint64_t n, char* scratch) {
  std::lock_guard<std::mutex> l(mu_);
  if (crashed_) {
    met_.read_errors->Inc();
    return Status::IOError("fault injection: drive powered off");
  }
  if (read_error_probability_ > 0.0 &&
      rng_.NextDouble() < read_error_probability_) {
    met_.read_errors->Inc();
    return Status::IOError("fault injection: transient read error");
  }
  if (ConsumeReadFault(offset, n)) {
    met_.read_errors->Inc();
    return Status::IOError("fault injection: unreadable block");
  }
  return target_->Read(offset, n, scratch);
}

Status FaultInjectionDrive::Write(uint64_t offset, const Slice& data) {
  const uint64_t delay = write_delay_micros_.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  std::lock_guard<std::mutex> l(mu_);
  if (crashed_) {
    met_.write_errors->Inc();
    return Status::IOError("fault injection: drive powered off");
  }
  if (write_error_enabled_ && offset < write_error_end_ &&
      offset + data.size() > write_error_begin_) {
    met_.write_errors->Inc();
    return Status::IOError("fault injection: write error");
  }

  const uint64_t block = target_->geometry().block_bytes;
  const uint64_t nblocks = data.size() / block;

  // Determine how many leading blocks actually persist.
  uint64_t keep = nblocks;
  bool torn = false, crash = false;
  if (tear_next_write_) {
    tear_next_write_ = false;
    if (tear_keep_blocks_ < keep) {
      keep = tear_keep_blocks_;
      torn = true;
    }
  }
  if (crash_after_blocks_ >= 0 &&
      static_cast<uint64_t>(crash_after_blocks_) < keep) {
    keep = static_cast<uint64_t>(crash_after_blocks_);
    crash = true;
  }

  if (!torn && !crash) {
    Status s = target_->Write(offset, data);
    if (s.ok()) {
      blocks_written_ += nblocks;
      if (crash_after_blocks_ >= 0) crash_after_blocks_ -= nblocks;
      HealWrittenBlocks(offset, data.size());
    }
    return s;
  }

  if (keep > 0) {
    Status s = target_->Write(offset, Slice(data.data(), keep * block));
    if (!s.ok()) return s;  // the target's own rejection takes precedence
    blocks_written_ += keep;
    HealWrittenBlocks(offset, keep * block);
  }
  if (!crash && crash_after_blocks_ >= 0) crash_after_blocks_ -= keep;
  if (torn) met_.torn_writes->Inc();
  if (crash) {
    crash_after_blocks_ = -1;
    crashed_ = true;
    met_.crashes->Inc();
    return Status::IOError("fault injection: power failure during write");
  }
  return Status::IOError("fault injection: torn write");
}

Status FaultInjectionDrive::Trim(uint64_t offset, uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  if (crashed_) {
    return Status::IOError("fault injection: drive powered off");
  }
  return target_->Trim(offset, n);
}

}  // namespace sealdb::smr

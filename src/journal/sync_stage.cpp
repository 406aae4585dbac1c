#include "journal/sync_stage.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"

namespace nonrep::journal {

namespace {

struct PipelineMetrics {
  obs::Gauge& depth = obs::Registry::global().gauge("journal.pipeline.depth");
  obs::Counter& coalesced =
      obs::Registry::global().counter("journal.pipeline.coalesced");
  obs::Counter& backpressure =
      obs::Registry::global().counter("journal.pipeline.backpressure_waits");
  obs::Counter& syncs = obs::Registry::global().counter("journal.syncs");
  obs::Histogram& fsync_ns = obs::Registry::global().histogram("journal.fsync_ns");
  obs::Histogram& batch_records =
      obs::Registry::global().histogram("journal.batch_records");
};

PipelineMetrics& metrics() {
  static PipelineMetrics m;
  return m;
}

Error errno_error(const std::string& what) {
  return Error::make("journal.io", what + ": " + std::strerror(errno));
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

SyncStage::SyncStage(std::shared_ptr<DurabilityState> state, Options options)
    : state_(std::move(state)), opt_(std::move(options)) {
  if (opt_.max_batches_in_flight == 0) opt_.max_batches_in_flight = 1;
}

SyncStage::~SyncStage() {
  (void)shutdown();
  if (spare_fd_ >= 0) ::close(spare_fd_);
}

void SyncStage::request(int fd, std::uint64_t target_lsn,
                        std::uint64_t target_bytes) {
  util::UniqueLock lk(mu_);
  if (stop_ || crashed_) return;
  if (!thread_.joinable()) thread_ = std::thread([this] { worker(); });
  if (queue_.size() + executing_ >= opt_.max_batches_in_flight) {
    ++stats_.backpressure_waits;
    metrics().backpressure.add();
    done_cv_.wait(lk, [&] {
      return stop_ || crashed_ ||
             queue_.size() + executing_ < opt_.max_batches_in_flight;
    });
    if (stop_ || crashed_) return;
  }
  queue_.push_back(Job{fd, target_lsn, target_bytes});
  ++requested_;
  const std::uint64_t depth = queue_.size() + executing_;
  if (depth > stats_.in_flight_peak) stats_.in_flight_peak = depth;
  metrics().depth.set(static_cast<std::int64_t>(depth));
  cv_.notify_one();
}

Status SyncStage::drain() {
  util::UniqueLock lk(mu_);
  done_cv_.wait(lk, [&] { return executed_ >= requested_; });
  return error_;
}

void SyncStage::crash(Status reason) {
  {
    util::UniqueLock lk(mu_);
    if (!crashed_) {
      crashed_ = true;
      // Queued barriers never ran: account them as executed so drain()
      // settles; their tickets fail through the shared state below.
      executed_ += queue_.size();
      queue_.clear();
      if (error_.ok()) error_ = reason;
    }
    stop_ = true;
  }
  state_->fail(std::move(reason));
  cv_.notify_all();
  done_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Status SyncStage::shutdown() {
  {
    util::MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  done_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  util::MutexLock lk(mu_);
  return error_;
}

void SyncStage::prepare_spare(const std::string& path, std::uint64_t bytes) {
  util::MutexLock lk(mu_);
  if (stop_ || crashed_) return;
  if (spare_ready_path_ == path && spare_fd_ >= 0) return;  // already there
  if (!thread_.joinable()) thread_ = std::thread([this] { worker(); });
  spare_want_path_ = path;
  spare_bytes_ = bytes;
  cv_.notify_one();
}

int SyncStage::take_spare(const std::string& path) {
  util::MutexLock lk(mu_);
  if (spare_fd_ < 0) return -1;
  if (spare_ready_path_ != path) {
    ::close(spare_fd_);
    spare_fd_ = -1;
    spare_ready_path_.clear();
    return -1;
  }
  const int fd = spare_fd_;
  spare_fd_ = -1;
  spare_ready_path_.clear();
  return fd;
}

SyncStage::Stats SyncStage::stats() const {
  util::MutexLock lk(mu_);
  return stats_;
}

Status SyncStage::error() const {
  util::MutexLock lk(mu_);
  return error_;
}

void SyncStage::worker() {
  util::UniqueLock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] {
      return stop_ || !queue_.empty() || !spare_want_path_.empty();
    });
    if (queue_.empty() && stop_) break;

    if (!queue_.empty()) {
      // Take everything queued: it coalesces into (at most) one barrier per
      // fd run.
      std::deque<Job> group;
      group.swap(queue_);
      executing_ += group.size();
      const bool skip = !error_.ok();
      lk.unlock();
      if (!skip) run_group(group);
      lk.lock();
      executing_ -= group.size();
      executed_ += group.size();
      done_cv_.notify_all();
      continue;  // barriers before spare prep
    }

    if (!spare_want_path_.empty() && !crashed_) {
      std::string path = spare_want_path_;
      const std::uint64_t bytes = spare_bytes_;
      spare_want_path_.clear();
      lk.unlock();
      make_spare(std::move(path), bytes);
      lk.lock();
    }
  }
}

void SyncStage::fail_locked_unlocked(Status s) {
  {
    util::MutexLock lk(mu_);
    if (error_.ok()) error_ = s;
  }
  state_->fail(std::move(s));
}

void SyncStage::run_group(const std::deque<Job>& group) {
  // One fdatasync per contiguous same-fd run, targeting the run's last
  // (largest) job — everything earlier is covered by the same barrier.
  std::size_t i = 0;
  while (i < group.size()) {
    std::size_t j = i;
    while (j + 1 < group.size() && group[j + 1].fd == group[i].fd) ++j;
    const Job& last = group[j];
    const std::uint64_t folded = j - i;

    if (opt_.before_sync) {
      if (auto ordered = opt_.before_sync(); !ordered.ok()) {
        fail_locked_unlocked(std::move(ordered));
        return;
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (::fdatasync(last.fd) != 0) {
      fail_locked_unlocked(errno_error("fdatasync"));
      return;
    }
    metrics().fsync_ns.record(elapsed_ns(t0));
    metrics().syncs.add();
    metrics().batch_records.record(last.target_lsn - last_retired_lsn_);
    if (folded > 0) metrics().coalesced.add(folded);
    {
      util::MutexLock lk(mu_);
      ++stats_.barriers;
      stats_.coalesced += folded;
    }
    last_retired_lsn_ = std::max(last_retired_lsn_, last.target_lsn);
    state_->retire(last.target_lsn, last.target_bytes);
    i = j + 1;
  }
}

void SyncStage::make_spare(std::string path, std::uint64_t bytes) {
  // Best effort: rotation falls back to a plain open when no spare is ready.
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return;
  if (bytes > 0) {
    // KEEP_SIZE: scan semantics require file size == written content, so
    // only the *allocation* may run ahead. EOPNOTSUPP (e.g. tmpfs) is fine.
    (void)::fallocate(fd, FALLOC_FL_KEEP_SIZE, 0,
                      static_cast<off_t>(bytes));
  }
  util::MutexLock lk(mu_);
  if (stop_ || crashed_ || !spare_want_path_.empty()) {
    // Shutting down, or a newer request superseded this one.
    ::close(fd);
    return;
  }
  if (spare_fd_ >= 0) ::close(spare_fd_);
  spare_fd_ = fd;
  spare_ready_path_ = std::move(path);
  ++stats_.spares_prepared;
}

}  // namespace nonrep::journal

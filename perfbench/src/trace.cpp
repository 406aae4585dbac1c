#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

thread_local TraceCtx t_current;
// Set while a RequestSpan is open and its run id is not yet bound.
thread_local bool t_bind_pending = false;
thread_local SpanSink* t_buffer_owner = nullptr;
thread_local void* t_buffer = nullptr;

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void maybe_bind_run(const nonrep::store::LogRecord& record) {
  if (!t_bind_pending) return;
  t_bind_pending = false;
  SpanSink::global().bind_run(record.run.str(), t_current);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanSink& SpanSink::global() {
  static SpanSink sink;
  return sink;
}

SpanSink::Buffer& SpanSink::local_buffer() {
  if (t_buffer_owner != this) {
    std::lock_guard<std::mutex> lk(buffers_mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(1 << 14);
    t_buffer = buffers_.back().get();
    t_buffer_owner = this;
  }
  return *static_cast<Buffer*>(t_buffer);
}

void SpanSink::record(const SpanRec& span) {
  Buffer& b = local_buffer();
  std::lock_guard<std::mutex> lk(b.mu);
  b.spans.push_back(span);
  b.spans.back().thread = b.thread;
}

std::vector<SpanRec> SpanSink::take() {
  std::vector<SpanRec> out;
  std::lock_guard<std::mutex> lk(buffers_mu_);
  for (auto& b : buffers_) {
    std::lock_guard<std::mutex> blk(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

void SpanSink::bind_run(const std::string& run, TraceCtx ctx) {
  std::lock_guard<std::mutex> lk(runs_mu_);
  runs_[run] = ctx;
}

TraceCtx SpanSink::lookup_run(const std::string& run) const {
  std::lock_guard<std::mutex> lk(runs_mu_);
  auto it = runs_.find(run);
  return it == runs_.end() ? TraceCtx{} : it->second;
}

void SpanSink::clear_runs() {
  std::lock_guard<std::mutex> lk(runs_mu_);
  runs_.clear();
}

ScopedSpan::ScopedSpan(const char* name) : ScopedSpan(name, t_current) {}

ScopedSpan::ScopedSpan(const char* name, TraceCtx parent) : saved_(t_current) {
  rec_.id = SpanSink::global().next_id();
  rec_.parent = parent.span;
  rec_.trace = parent.trace;
  rec_.name = name;
  t_current = TraceCtx{parent.trace, rec_.id};
  cpu_start_ = thread_cpu_ns();
  rec_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  rec_.end_ns = now_ns();
  rec_.cpu_ns = thread_cpu_ns() - cpu_start_;
  t_current = saved_;
  SpanSink::global().record(rec_);
}

RequestSpan::RequestSpan(std::uint64_t trace)
    : span_("core.client", TraceCtx{trace, 0}) {
  t_bind_pending = true;
}

RequestSpan::~RequestSpan() { t_bind_pending = false; }

nonrep::Result<nonrep::Bytes> TracedSigner::sign(nonrep::BytesView msg) {
  ScopedSpan span("crypto.sign");
  return inner_->sign(msg);
}

nonrep::Result<nonrep::Bytes> TracedTimestampHook::countersign(nonrep::BytesView data) {
  ScopedSpan span("tsa.countersign");
  return inner_->countersign(data);
}

nonrep::Status TracedLogBackend::append(const nonrep::store::LogRecord& record) {
  maybe_bind_run(record);
  ScopedSpan span("store.log_append");
  return inner_->append(record);
}

nonrep::Result<nonrep::store::AppendReceipt> TracedLogBackend::append_async(
    const nonrep::store::LogRecord& record) {
  maybe_bind_run(record);
  ScopedSpan span("store.log_append");
  return inner_->append_async(record);
}

nonrep::Result<nonrep::core::ProtocolMessage> TracedHandler::process_request(
    const nonrep::net::Address& from, const nonrep::core::ProtocolMessage& msg) {
  ScopedSpan span(name_, SpanSink::global().lookup_run(msg.run.str()));
  return inner_->process_request(from, msg);
}

void TracedHandler::process(const nonrep::net::Address& from,
                            const nonrep::core::ProtocolMessage& msg) {
  ScopedSpan span(name_, SpanSink::global().lookup_run(msg.run.str()));
  inner_->process(from, msg);
}

std::vector<std::uint64_t> self_times(const std::vector<SpanRec>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const SpanRec& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    out[i] = dur > covered ? dur - covered : 0;
  }
  return out;
}

}  // namespace perfbench

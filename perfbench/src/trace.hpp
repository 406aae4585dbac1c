// In-memory span recorder and the timing decorators the traced run hands the
// fleet at the library's public seams (crypto::Signer, core::TimestampHook,
// store::LogBackend, core::ProtocolHandler).
//
// A span is (id, parent, trace, name, start, end, thread). Spans are kept in
// per-thread buffers and written out only when the run ends, so recording
// costs a clock read and a vector push. Trace ids come from three places:
//   * the injector opens each request's root span ("core.client") with the
//     request index as its trace id;
//   * the first evidence record the client appends under that span carries
//     the protocol run id, which TracedLogBackend binds to the trace;
//   * TracedHandler looks up the run id of every ProtocolMessage it serves,
//     so server and TTP spans on pool threads become children of the client
//     span they belong to.
// Untraced runs never construct these decorators: the fleet gets the plain
// objects, and nothing here runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/coordinator.hpp"
#include "core/evidence.hpp"
#include "crypto/signer.hpp"
#include "store/evidence_log.hpp"

namespace perfbench {

std::uint64_t now_ns();

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t trace = 0;   // 0 = not tied to a request (warm-up, stray)
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;  // CPU time of the recording thread inside the span
  std::uint32_t thread = 0;
};

struct TraceCtx {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
};

class SpanSink {
 public:
  static SpanSink& global();

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRec& span);

  /// Every span recorded so far, moved out of the per-thread buffers. Call
  /// with the fleet drained.
  std::vector<SpanRec> take();

  void bind_run(const std::string& run, TraceCtx ctx);
  TraceCtx lookup_run(const std::string& run) const;
  void clear_runs();

 private:
  struct Buffer {
    std::mutex mu;
    std::uint32_t thread = 0;
    std::vector<SpanRec> spans;
  };
  Buffer& local_buffer();

  std::atomic<std::uint64_t> next_id_{1};
  std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  mutable std::mutex runs_mu_;
  std::unordered_map<std::string, TraceCtx> runs_;
};

/// RAII span. The one-argument form is a child of the thread's current
/// span; the two-argument form names its parent explicitly (a root, or a
/// span on another thread).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, TraceCtx parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return rec_.id; }

 private:
  SpanRec rec_;
  TraceCtx saved_;
  std::uint64_t cpu_start_ = 0;
};

/// Root span of one injected request (trace id = request index + 1). The
/// first evidence record appended on this thread while it is open binds its
/// run id to the trace.
class RequestSpan {
 public:
  explicit RequestSpan(std::uint64_t trace);
  ~RequestSpan();
  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

 private:
  ScopedSpan span_;
};

class TracedSigner final : public nonrep::crypto::Signer {
 public:
  explicit TracedSigner(std::shared_ptr<nonrep::crypto::Signer> inner)
      : inner_(std::move(inner)) {}
  nonrep::crypto::SigAlgorithm algorithm() const noexcept override {
    return inner_->algorithm();
  }
  nonrep::Bytes public_key() const override { return inner_->public_key(); }
  nonrep::Result<nonrep::Bytes> sign(nonrep::BytesView msg) override;

 private:
  std::shared_ptr<nonrep::crypto::Signer> inner_;
};

class TracedTimestampHook final : public nonrep::core::TimestampHook {
 public:
  explicit TracedTimestampHook(std::shared_ptr<nonrep::core::TimestampHook> inner)
      : inner_(std::move(inner)) {}
  nonrep::Result<nonrep::Bytes> countersign(nonrep::BytesView data) override;

 private:
  std::shared_ptr<nonrep::core::TimestampHook> inner_;
};

class TracedLogBackend final : public nonrep::store::LogBackend {
 public:
  explicit TracedLogBackend(std::unique_ptr<nonrep::store::LogBackend> inner)
      : inner_(std::move(inner)) {}
  nonrep::Status append(const nonrep::store::LogRecord& record) override;
  nonrep::Result<nonrep::store::AppendReceipt> append_async(
      const nonrep::store::LogRecord& record) override;
  std::vector<nonrep::store::LogRecord> load() override { return inner_->load(); }
  nonrep::Status health() const override { return inner_->health(); }
  nonrep::Status sync() override { return inner_->sync(); }

 private:
  std::unique_ptr<nonrep::store::LogBackend> inner_;
};

class TracedHandler final : public nonrep::core::ProtocolHandler {
 public:
  TracedHandler(std::shared_ptr<nonrep::core::ProtocolHandler> inner, const char* span_name)
      : inner_(std::move(inner)), name_(span_name) {}
  std::string protocol() const override { return inner_->protocol(); }
  nonrep::Result<nonrep::core::ProtocolMessage> process_request(
      const nonrep::net::Address& from, const nonrep::core::ProtocolMessage& msg) override;
  void process(const nonrep::net::Address& from,
               const nonrep::core::ProtocolMessage& msg) override;

 private:
  std::shared_ptr<nonrep::core::ProtocolHandler> inner_;
  const char* name_;
};

/// Self time of every span (index-aligned): its duration minus the part of
/// it covered by the union of its children's intervals, children on other
/// threads included, clipped to the parent.
std::vector<std::uint64_t> self_times(const std::vector<SpanRec>& spans);

}  // namespace perfbench

#include "phases.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_set>

#include "core/dispute.hpp"
#include "speed.hpp"
#include "store/journal_backend.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using nonrep::Status;

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double unit(std::uint64_t x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

/// Draw i of stream `stream` under `seed`; streams and seeds don't overlap.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return mix64(mix64(mix64(seed) ^ stream) + i);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double since_s(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// What the client's bundle must prove for the request's outcome.
bool fair(Outcome outcome, const nonrep::core::Verdict& v) {
  switch (outcome) {
    case Outcome::kCompleted:
      return v.exchange_complete();
    case Outcome::kAborted:
      return v.run_aborted;
    case Outcome::kRecovered:
      return v.receipt_by_affidavit;
    case Outcome::kFailed:
      break;
  }
  return false;
}

}  // namespace

Inputs::Inputs(std::uint64_t seed, Mix mix, double ttp_ratio)
    : mix_(mix), seed_(seed), ttp_ratio_(ttp_ratio) {
  // kSmall: draws from 256 distinct 64 B payloads. kMixed: an arbitrary
  // stress mix (the repository records no measured payload distribution):
  // each block of 40 requests holds 28 payloads of 64 B, 10 of 4 KiB and 2
  // of 64 KiB in a seeded order, and in every size class alternate draws
  // are new content or repeat one of a small pool. So every size brings new
  // content at a fixed rate, and half the draws repeat earlier content.
  sizes_ = mix == Mix::kSmall ? std::vector<Size>{{64, 256, 1}}
                              : std::vector<Size>{{64, 32, 28}, {4096, 8, 10}, {65536, 2, 2}};
  std::uint64_t state = draw(seed, 3, 0);
  for (const Size& s : sizes_) {
    pools_.emplace_back();
    for (std::size_t d = 0; d < s.pool; ++d) {
      nonrep::Bytes b(s.bytes);
      for (auto& byte : b) byte = static_cast<std::uint8_t>(state = mix64(state));
      pools_.back().push_back(std::move(b));
    }
  }
}

nonrep::Bytes Inputs::payload(std::size_t i) const {
  if (mix_ == Mix::kSmall) return pools_[0][draw(seed_, 1, i) % pools_[0].size()];
  // Size class of slot i % block in a seeded shuffle of the block's slots.
  std::vector<std::size_t> slots;
  for (std::size_t c = 0; c < sizes_.size(); ++c) {
    slots.insert(slots.end(), sizes_[c].per_block, c);
  }
  const std::size_t block = i / slots.size();
  for (std::size_t k = slots.size() - 1; k > 0; --k) {
    std::swap(slots[k], slots[draw(seed_, 5, block * slots.size() + k) % (k + 1)]);
  }
  const std::size_t slot = i % slots.size();
  const std::size_t c = slots[slot];
  const auto occurrence =
      std::count(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(slot), c);
  nonrep::Bytes out = pools_[c][draw(seed_, 1, i) % pools_[c].size()];
  if (occurrence % 2 == 0) {
    // New content: the request index stamped over the pool payload's head.
    for (std::size_t b = 0; b < 8; ++b) out[b] = static_cast<std::uint8_t>(~(i >> (8 * b)));
  }
  return out;
}

bool Inputs::forced(std::size_t i) const {
  return ttp_ratio_ > 0.0 && unit(draw(seed_, 2, i)) < ttp_ratio_;
}

std::size_t finished(const std::vector<Request>& requests) {
  return static_cast<std::size_t>(
      std::count_if(requests.begin(), requests.end(),
                    [](const Request& r) { return r.outcome != Outcome::kFailed; }));
}

PayloadShares payload_shares(const Inputs& inputs, const std::vector<Request>& requests,
                             std::size_t from) {
  PayloadShares out;
  std::unordered_set<std::string> seen;
  std::size_t repeats = 0;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const nonrep::Bytes p = inputs.payload(requests[k].index);
    const bool first = seen.emplace(p.begin(), p.end()).second;
    if (k < from) continue;
    repeats += !first;
    out.large_first_sends += first && p.size() == 65536;
  }
  out.repeat_share = ratio(static_cast<double>(repeats),
                           static_cast<double>(requests.size() - std::min(from, requests.size())));
  return out;
}

Window run_window(Fleet& fleet, const Inputs& inputs, double rate, std::size_t first,
                  std::size_t count, bool traced, double stop_after_s,
                  std::size_t injectors) {
  Window w;
  const double period_ns = rate > 0.0 ? 1e9 / rate : 0.0;
  const double cpu0 = cpu_seconds();
  const auto t0_tp = std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  const std::uint64_t t0 = now_ns() + 1'000'000;  // first slot 1 ms out
  const std::uint64_t stop_ns =
      stop_after_s > 0 ? t0 + static_cast<std::uint64_t>(stop_after_s * 1e9) : 0;

  // With kInjectors threads, injector k is member k's client: it sends that
  // member's requests in order, so a slow exchange delays only the requests
  // queued behind it at the same client, and that wait counts into their
  // latency. A single injector sends every member's requests in turn.
  std::vector<std::vector<Request>> done(injectors);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < injectors; ++k) {
    threads.emplace_back([&, k] {
      for (std::size_t j = k; j < count; j += injectors) {
        const auto offset = static_cast<std::uint64_t>(period_ns * static_cast<double>(j));
        std::this_thread::sleep_until(t0_tp + std::chrono::nanoseconds(offset));
        Request r;
        r.index = first + j;
        r.scheduled_ns = t0 + offset;
        r.woke_ns = now_ns();
        if (stop_ns != 0 && r.woke_ns >= stop_ns) return;
        r.forced = inputs.forced(r.index);
        ExchangeResult x;
        if (traced) {
          RequestSpan span(r.index + 1);
          x = fleet.exchange(inputs.member(r.index), inputs.payload(r.index), r.forced);
        } else {
          x = fleet.exchange(inputs.member(r.index), inputs.payload(r.index), r.forced);
        }
        r.done_ns = now_ns();
        r.outcome = x.outcome;
        r.run = std::move(x.run);
        done[k].push_back(std::move(r));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& d : done) {
    w.requests.insert(w.requests.end(), std::make_move_iterator(d.begin()),
                      std::make_move_iterator(d.end()));
  }
  std::sort(w.requests.begin(), w.requests.end(),
            [](const Request& a, const Request& b) { return a.index < b.index; });
  std::uint64_t last = t0;
  for (const Request& r : w.requests) last = std::max(last, r.done_ns);
  w.wall_s = static_cast<double>(last - t0) * 1e-9;
  w.cpu_s = cpu_seconds() - cpu0;
  fleet.drain();
  return w;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

std::vector<double> latencies_ms(const Window& w) {
  std::vector<double> out;
  out.reserve(w.requests.size());
  for (const Request& r : w.requests) {
    out.push_back(static_cast<double>(r.done_ns - std::min(r.scheduled_ns, r.done_ns)) * 1e-6);
  }
  return out;
}

std::size_t fairness_misses(Fleet& fleet, const std::vector<Request>& requests) {
  std::size_t misses = 0;
  for (std::size_t m = 0; m < fleet.member_count(); ++m) {
    FleetParty& party = fleet.member(m);
    // One pass over the quiescent log instead of a find_run scan per run.
    std::map<std::string, std::vector<const nonrep::store::LogRecord*>> by_run;
    for (const auto& rec : party.log->records()) by_run[rec.run.str()].push_back(&rec);
    const nonrep::core::Adjudicator judge(*party.credentials, fleet.clock());
    for (const Request& r : requests) {
      if (r.outcome == Outcome::kFailed || r.index % fleet.member_count() != m) continue;
      std::vector<nonrep::core::PresentedEvidence> bundle;
      for (const auto* rec : by_run[r.run.str()]) {
        auto token = nonrep::core::EvidenceToken::decode(rec->payload);
        if (!token) continue;
        auto subject = party.states->get(token.value().subject);
        if (!subject) continue;
        bundle.push_back({std::move(token).take(), std::move(subject).take()});
      }
      if (!fair(r.outcome, judge.adjudicate(r.run, bundle))) ++misses;
    }
  }
  return misses;
}

Status audit_fleet(Fleet& fleet, const std::vector<Request>& all_requests) {
  for (FleetParty* p : fleet.parties()) {
    if (auto chain = p->log->verify_chain(); !chain) return chain;
    if (auto backend = p->log->backend_status(); !backend) return backend;
  }
  std::size_t aborted = 0;
  std::size_t recovered = 0;
  for (const Request& r : all_requests) {
    aborted += r.outcome == Outcome::kAborted;
    recovered += r.outcome == Outcome::kRecovered;
  }
  const auto [ttp_aborted, ttp_resolved] = fleet.ttp_verdicts();
  if (ttp_aborted != aborted || ttp_resolved != recovered) {
    return nonrep::Error::make(
        "perfbench.verdict_mismatch",
        "ttp aborted/resolved " + std::to_string(ttp_aborted) + "/" +
            std::to_string(ttp_resolved) + " vs tallied " + std::to_string(aborted) + "/" +
            std::to_string(recovered));
  }
  return Status::ok_status();
}

Status take_image(Fleet& fleet, const std::string& dir, std::vector<Request> sample_from,
                  CrashImage& image) {
  image = CrashImage{};
  image.dir = dir;
  image.requests = std::move(sample_from);
  const std::vector<FleetParty*> parties = fleet.parties();
  if (!fleet.options().journal_root.empty()) {
    // What a crash right now would leave. Syncing first settles every
    // receipt, so every record the live log holds must come back.
    for (FleetParty* p : parties) {
      if (auto ok = p->backend->sync(); !ok) return ok;
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (FleetParty* p : parties) {
      fs::copy(p->journal_dir, dir + "/" + p->address, fs::copy_options::recursive);
    }
  }
  for (FleetParty* p : parties) {
    const auto& live = p->log->records();
    if (fleet.options().journal_root.empty()) image.records.push_back(live);
    image.sizes.push_back(live.size());
    image.tails.push_back(live.empty() ? nonrep::crypto::Digest{} : live.back().chain);
  }
  return Status::ok_status();
}

Status read_round(Fleet& fleet, const CrashImage& image, std::size_t disputes,
                  std::uint64_t seed, const std::string& work_dir, ReadRep& out) {
  const std::vector<FleetParty*> parties = fleet.parties();
  const bool journal = !fleet.options().journal_root.empty();

  // A fresh copy of the image for this round, not timed.
  std::vector<std::vector<nonrep::store::LogRecord>> records;
  if (journal) {
    fs::remove_all(work_dir);
    fs::copy(image.dir, work_dir, fs::copy_options::recursive);
  } else {
    records = image.records;
  }

  // Restart: reopen every party's evidence from its backend.
  auto store = std::make_shared<nonrep::store::ObjectStore>();
  std::vector<std::unique_ptr<nonrep::store::EvidenceLog>> logs;
  const double k0 = kernel_ns();
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < parties.size(); ++i) {
    std::unique_ptr<nonrep::store::LogBackend> backend;
    if (journal) {
      nonrep::journal::Options jo;
      jo.dir = work_dir + "/" + parties[i]->address;
      jo.sync = fleet.options().sync;
      auto opened = nonrep::store::JournalLogBackend::open(jo, store);
      if (!opened) return opened.error();
      backend = std::move(opened).take();
    } else {
      backend = std::make_unique<nonrep::store::MemoryLogBackend>(std::move(records[i]));
    }
    logs.push_back(
        std::make_unique<nonrep::store::EvidenceLog>(std::move(backend), fleet.clock(), store));
  }
  out.restart_s = since_s(t0);
  out.restart_slowdown = slowdown(k0, kernel_ns());

  // Every record the live log held when the image was taken came back.
  out.records = 0;
  for (std::size_t i = 0; i < parties.size(); ++i) {
    const auto& back = logs[i]->records();
    out.records += back.size();
    if (back.size() != image.sizes[i] || (!back.empty() && back.back().chain != image.tails[i])) {
      return nonrep::Error::make("perfbench.restart_lost_records",
                                 parties[i]->address + ": " + std::to_string(back.size()) +
                                     " of " + std::to_string(image.sizes[i]) + " records");
    }
    if (auto chain = logs[i]->verify_chain(); !chain) return chain;
  }

  // A fresh auditor: empty credential memos and an empty segment memo.
  auto creds = std::make_shared<nonrep::pki::CredentialManager>();
  if (auto ok = creds->add_trusted_root(fleet.root_certificate()); !ok) return ok;
  for (FleetParty* p : parties) creds->add_certificate(p->certificate);
  auto scratch_log = std::make_shared<nonrep::store::EvidenceLog>(
      std::make_unique<nonrep::store::MemoryLogBackend>(), fleet.clock());
  const nonrep::core::EvidenceService auditor(
      nonrep::PartyId("org:auditor"), fleet.server().signer, creds, scratch_log,
      std::make_shared<nonrep::store::StateStore>(), fleet.clock(), seed);

  auto audit_all = [&](double& seconds, bool memo) -> Status {
    const std::uint64_t a0 = now_ns();
    std::vector<nonrep::core::EvidenceService::LogAuditReport> reports;
    for (const auto& log : logs) reports.push_back(auditor.audit_log(*log));
    seconds = since_s(a0);
    for (const auto& rep : reports) {
      if (!rep.verdict) return rep.verdict;
      if (memo) {
        out.segments += rep.segments;
        out.segments_memoized += rep.segments_memoized;
      }
    }
    return Status::ok_status();
  };
  const double k2 = kernel_ns();
  if (auto ok = audit_all(out.audit_cold_s, false); !ok) return ok;
  const double k3 = kernel_ns();
  out.audit_cold_slowdown = slowdown(k2, k3);

  // Sampled disputes, judged from the reopened client logs. Subjects come
  // from the live parties' state stores: the state store is not persisted.
  const nonrep::core::Adjudicator judge(*creds, fleet.clock());
  std::vector<const Request*> candidates;
  for (const Request& r : image.requests) {
    if (r.outcome != Outcome::kFailed) candidates.push_back(&r);
  }
  for (std::size_t d = 0; d < disputes && !candidates.empty(); ++d) {
    const Request& r = *candidates[draw(seed, 4, d) % candidates.size()];
    const std::size_t m = r.index % fleet.member_count();
    const std::size_t party_index = 2 + m;  // parties(): server, ttp, members
    const std::uint64_t d0 = now_ns();
    const auto bundle = nonrep::core::Adjudicator::bundle_from_log(
        *logs[party_index], *fleet.member(m).states, r.run);
    const std::uint64_t d1 = now_ns();
    const auto v = judge.adjudicate(r.run, bundle);
    const std::uint64_t d2 = now_ns();
    out.bundle_us.push_back(static_cast<double>(d1 - d0) * 1e-3);
    out.adjudicate_us.push_back(static_cast<double>(d2 - d1) * 1e-3);
    out.dispute_us.push_back(static_cast<double>(d2 - d0) * 1e-3);
    if (!fair(r.outcome, v)) {
      return nonrep::Error::make("perfbench.dispute_unfair",
                                 "run " + r.run.str() + " lost its evidence across restart");
    }
  }

  const double k4 = kernel_ns();
  out.dispute_slowdown = slowdown(k3, k4);
  if (auto ok = audit_all(out.audit_memo_s, true); !ok) return ok;
  out.audit_memo_slowdown = slowdown(k4, kernel_ns());
  logs.clear();
  if (journal) fs::remove_all(work_dir);
  return Status::ok_status();
}

std::uint64_t evidence_bytes(Fleet& fleet) {
  std::uint64_t total = 0;
  if (!fleet.options().journal_root.empty()) {
    for (const auto& e : fs::recursive_directory_iterator(fleet.options().journal_root)) {
      if (e.is_regular_file() && e.path().filename() != ".spare.wal") total += e.file_size();
    }
    return total;
  }
  for (FleetParty* p : fleet.parties()) {
    for (const auto& rec : p->log->records()) {
      total += nonrep::store::encode_log_record_ref(rec).size();
    }
  }
  return total + fleet.objects()->stored_bytes();
}

}  // namespace perfbench

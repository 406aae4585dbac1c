#include "scenario/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <random>

#include "store/journal_backend.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::scenario {

namespace {

using container::Invocation;

constexpr const char* kServerAddress = "server";
constexpr const char* kTtpAddress = "ttp";
// Never registered with the network: sends are dropped, the reliable layer
// retries then gives up, and the client walks to the TTP — the scenario's
// deterministic trigger for the abort subprotocol.
constexpr const char* kBlackholeAddress = "blackhole";
const ObjectId kSharedObject{"obj:scenario"};

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  return c;
}

Invocation make_echo_invocation(const PartyId& caller, const std::string& target,
                                const std::string& payload) {
  Invocation inv;
  inv.service = ServiceUri("svc://" + target + "/echo");
  inv.method = "echo";
  inv.arguments = to_bytes(payload);
  inv.caller = caller;
  return inv;
}

struct OpTimer {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  void record(double& sum, double& max, std::size_t& n) const {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    sum += ms;
    if (ms > max) max = ms;
    ++n;
  }
};

}  // namespace

ScenarioEngine::ScenarioEngine(ScenarioConfig config)
    : config_(std::move(config)), world_(config_.seed, config_.rsa_bits) {
  auto backend_for = [&](const std::string& name) -> std::unique_ptr<store::LogBackend> {
    if (!config_.journal_backed) return nullptr;  // in-memory default
    // Against the world's fleet-wide store: each party journals
    // thin records plus its own object segment, deduped per journal.
    auto opened = store::JournalLogBackend::open(
        {.dir = config_.journal_dir + "/" + name}, world_.objects());
    if (!opened) {
      if (setup_.ok()) setup_ = opened.error();
      return nullptr;
    }
    return std::move(opened).take();
  };

  server_party_ = &world_.add_party(kServerAddress, {}, backend_for(kServerAddress));
  ttp_party_ = &world_.add_party(kTtpAddress, {}, backend_for(kTtpAddress));

  container::DeploymentDescriptor descriptor;
  descriptor.non_repudiation = true;
  server_container_.deploy(ServiceUri(std::string("svc://") + kServerAddress + "/echo"),
                           make_echo(), descriptor);
  server_handler_ = core::install_nr_server(
      *server_party_->coordinator, server_container_,
      core::InvocationConfig{.request_timeout = config_.request_timeout});
  ttp_handler_ = std::make_shared<core::OptimisticTtp>(*ttp_party_->coordinator);
  ttp_party_->coordinator->register_handler(ttp_handler_);

  // The shared-object group spans the driven parties only (server and TTP
  // stay infrastructure).
  members_.reserve(config_.parties);
  std::vector<membership::Member> group;
  for (std::size_t i = 0; i < config_.parties; ++i) {
    const std::string name = "p" + std::to_string(i);
    Member m;
    m.party = &world_.add_party(name, {}, backend_for(name));
    members_.push_back(std::move(m));
    group.push_back({members_.back().party->id, members_.back().party->address});
  }
  for (auto& m : members_) {
    m.membership = std::make_unique<membership::MembershipService>();
    m.membership->create_group(kSharedObject, group);
    m.controller = std::make_shared<core::B2BObjectController>(
        *m.party->coordinator, *m.membership,
        core::SharingConfig{.vote_timeout = config_.vote_timeout,
                            .lock_lease = 4 * config_.vote_timeout});
    m.party->coordinator->register_handler(m.controller);
    if (auto hosted = m.controller->host(kSharedObject, to_bytes("scenario-v1"));
        !hosted && setup_.ok()) {
      setup_ = hosted;
    }
  }

  // Injected loss on every party<->party and party<->server link; TTP
  // links stay clean (the recovery guarantee assumes a reachable TTP).
  if (config_.loss > 0.0) {
    const net::LinkConfig lossy{.latency = 5, .drop = config_.loss};
    for (auto& m : members_) {
      world_.network.set_link(m.party->address, kServerAddress, lossy);
      world_.network.set_link(kServerAddress, m.party->address, lossy);
      for (auto& other : members_) {
        if (other.party != m.party) {
          world_.network.set_link(m.party->address, other.party->address, lossy);
        }
      }
    }
  }

  pool_ = std::make_shared<util::ThreadPool>(std::max<std::size_t>(1, config_.threads));
  world_.network.set_executor(pool_);
  pump_ = std::thread([this] { world_.network.run_live(); });
}

ScenarioEngine::~ScenarioEngine() {
  world_.network.drain();
  world_.network.stop_live();
  if (pump_.joinable()) pump_.join();
  world_.network.set_executor(nullptr);
}

void ScenarioEngine::fair_exchange_op(Member& m, std::uint64_t draw, Tally& tally) {
  // draw in [0, 2^32): map to [0,1) for the TTP-involvement decision.
  const double r = static_cast<double>(draw % (1u << 30)) / static_cast<double>(1u << 30);
  const bool forced_recovery = r < config_.ttp_ratio;
  if (forced_recovery && (draw >> 32) % 2 != 0) {
    withheld_receipt_op(m, tally);
    return;
  }

  // Forced abort targets the unreachable server — recovery must deliver a
  // TTP abort verdict; otherwise the normal optimistic path.
  const char* target = forced_recovery ? kBlackholeAddress : kServerAddress;
  core::OptimisticInvocationClient client(
      *m.party->coordinator, kTtpAddress,
      core::InvocationConfig{.request_timeout = config_.request_timeout});
  auto inv = make_echo_invocation(m.party->id, target,
                                  forced_recovery ? "lost-op" : "op-" + m.party->id.str());
  (void)client.invoke(target, inv);
  switch (client.last_outcome()) {
    case core::OptimisticInvocationClient::LastOutcome::kNormal: ++tally.completed; break;
    case core::OptimisticInvocationClient::LastOutcome::kAborted: ++tally.aborted; break;
    case core::OptimisticInvocationClient::LastOutcome::kRecoveredFromTtp:
      ++tally.recovered;
      break;
    case core::OptimisticInvocationClient::LastOutcome::kFailed: ++tally.failed; break;
  }
}

void ScenarioEngine::withheld_receipt_op(Member& m, Tally& tally) {
  // A receipt-withholding client: run steps 1-2 of the direct protocol,
  // never send NRR_resp, and let the server reclaim a substitute receipt
  // from the TTP (the resolve subprotocol) — racing every other driver's
  // abort/resolve traffic at the TTP.
  using core::EvidenceType;
  core::EvidenceService& cev = *m.party->evidence;
  auto inv = make_echo_invocation(m.party->id, kServerAddress, "withheld-op");
  const RunId run = cev.new_run();
  inv.context[container::kRunIdContextKey] = run.str();
  const Bytes req = core::request_subject(inv);
  auto nro_req = cev.issue(EvidenceType::kNroRequest, run, req);
  if (!nro_req) {
    ++tally.failed;
    return;
  }
  core::ProtocolMessage m1;
  m1.protocol = core::kDirectInvocationProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = cev.self();
  m1.body = container::encode_invocation(inv);
  m1.tokens.push_back(std::move(nro_req).take());

  // Generous timeout: retransmissions must win against injected loss so
  // the run deterministically reaches the withheld-receipt state.
  const TimeMs generous = std::max<TimeMs>(config_.request_timeout * 4, 2000);
  auto reply = m.party->coordinator->deliver_request(kServerAddress, m1, generous);
  if (!reply) {
    ++tally.failed;
    return;
  }
  auto reclaimed = core::reclaim_receipt(*server_party_->coordinator, *server_handler_, run,
                                         kTtpAddress, generous);
  if (reclaimed.ok()) {
    ++tally.recovered;
  } else {
    ++tally.failed;
  }
}

void ScenarioEngine::sharing_op(Member& m, std::size_t member_index, std::size_t op_index,
                                Tally& tally) {
  for (std::size_t attempt = 0; attempt <= config_.propose_retries; ++attempt) {
    if (attempt > 0) {
      // Member-staggered backoff: symmetric proposers otherwise re-collide
      // in lockstep (every round busy-rejects every other) and the wave
      // livelocks — lower-index members retry sooner and win the object.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<std::size_t>(50, attempt * (1 + member_index))));
    }
    auto current = m.controller->get(kSharedObject);
    if (!current) {
      // Keep the tallies coherent: `failed` counts fair-exchange runs only,
      // so a sharing op that cannot even read its replica ends rejected.
      ++tally.rounds_rejected;
      return;
    }
    const Bytes next = to_bytes(m.party->id.str() + ":op" + std::to_string(op_index) +
                                ":v" + std::to_string(current.value().version + 1));
    ++tally.rounds_attempted;
    auto agreed = m.controller->propose_update(kSharedObject, next);
    if (agreed.ok()) {
      ++tally.rounds_committed;
      return;
    }
    // sharing.busy / sharing.rejected: contention — re-read and retry.
  }
  ++tally.rounds_rejected;
}

ScenarioResult ScenarioEngine::run_wave(WaveKind kind) {
  ScenarioResult result;
  if (!setup_.ok()) {
    result.audit = setup_;
    return result;
  }

  // Plan: which member drives which op kind. kSharing is position-based in
  // kMixed so voters and exchangers interleave on every driver.
  struct PlanEntry {
    std::size_t member;
    bool sharing;
  };
  std::vector<PlanEntry> plan;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const bool sharing = kind == WaveKind::kSharing ||
                         (kind == WaveKind::kMixed && members_.size() > 1 && i % 2 == 0);
    plan.push_back({i, sharing});
  }

  const std::size_t drivers =
      std::max<std::size_t>(1, std::min(config_.threads, plan.size()));
  std::vector<Tally> tallies(drivers);

  const auto wave_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (std::size_t d = 0; d < drivers; ++d) {
    threads.emplace_back([this, d, drivers, &plan, &tallies] {
      Tally& tally = tallies[d];
      for (std::size_t idx = d; idx < plan.size(); idx += drivers) {
        Member& m = members_[plan[idx].member];
        // Deterministic per-(party, op) draws: outcomes shift only with
        // the scenario seed, not with driver scheduling.
        std::mt19937_64 rng(config_.seed * 0x9E3779B97F4A7C15ull + plan[idx].member);
        for (std::size_t op = 0; op < config_.ops_per_party; ++op) {
          const std::uint64_t draw = rng();
          OpTimer timer;
          if (plan[idx].sharing) {
            sharing_op(m, plan[idx].member, op, tally);
          } else {
            fair_exchange_op(m, draw, tally);
          }
          timer.record(tally.latency_sum_ms, tally.latency_max_ms,
                       tally.latency_samples);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Let tail traffic land (final one-way steps, decision fan-outs, ACKs).
  world_.network.drain();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wave_start).count();

  std::size_t samples = 0;
  for (const auto& tally : tallies) {
    result.completed += tally.completed;
    result.aborted += tally.aborted;
    result.recovered += tally.recovered;
    result.failed += tally.failed;
    result.rounds_attempted += tally.rounds_attempted;
    result.rounds_committed += tally.rounds_committed;
    result.rounds_rejected += tally.rounds_rejected;
    samples += tally.latency_samples;
    result.mean_latency_ms += tally.latency_sum_ms;
    result.max_latency_ms = std::max(result.max_latency_ms, tally.latency_max_ms);
  }
  result.attempted = result.completed + result.aborted + result.recovered + result.failed;
  if (samples > 0) result.mean_latency_ms /= static_cast<double>(samples);
  if (result.wall_seconds > 0) {
    result.ops_per_second = static_cast<double>(result.ops()) / result.wall_seconds;
  }

  total_aborted_ += result.aborted;
  total_recovered_ += result.recovered;
  total_committed_ += result.rounds_committed;
  result.audit = audit(kind);
  return result;
}

Status ScenarioEngine::audit(WaveKind kind) {
  // 1. Every party's evidence chain is intact and durably persisted.
  auto check_party = [](const Party& p) -> Status {
    if (auto chain = p.log->verify_chain(); !chain) return chain;
    if (auto backend = p.log->backend_status(); !backend) return backend;
    return Status::ok_status();
  };
  if (auto ok = check_party(*server_party_); !ok) return ok;
  if (auto ok = check_party(*ttp_party_); !ok) return ok;
  for (const auto& m : members_) {
    if (auto ok = check_party(*m.party); !ok) return ok;
  }

  // 2. Fairness: the TTP reached exactly one terminal verdict per
  // recovered run, and the table reconciles with the drivers' tallies.
  if (kind != WaveKind::kSharing) {
    const auto [ttp_aborted, ttp_resolved] = ttp_handler_->verdict_counts();
    if (ttp_aborted != total_aborted_ || ttp_resolved != total_recovered_) {
      return Error::make("scenario.verdict_mismatch",
                         "ttp aborted/resolved " + std::to_string(ttp_aborted) + "/" +
                             std::to_string(ttp_resolved) + " vs tallied " +
                             std::to_string(total_aborted_) + "/" +
                             std::to_string(total_recovered_));
    }
  }

  // 3. Convergence: every replica agreed on the same final state, exactly
  // one version bump per committed round.
  if (kind != WaveKind::kFairExchange && !members_.empty()) {
    auto reference = members_.front().controller->get(kSharedObject);
    if (!reference) return reference.error();
    if (reference.value().version != 1 + total_committed_) {
      return Error::make("scenario.version_drift",
                         "version " + std::to_string(reference.value().version) +
                             " after " + std::to_string(total_committed_) +
                             " committed rounds");
    }
    for (const auto& m : members_) {
      auto replica = m.controller->get(kSharedObject);
      if (!replica) return replica.error();
      if (replica.value().version != reference.value().version ||
          replica.value().state != reference.value().state) {
        return Error::make("scenario.divergence", m.party->id.str());
      }
    }
  }
  return Status::ok_status();
}

ScenarioResult run_fair_exchange(const ScenarioConfig& config) {
  ScenarioEngine engine(config);
  return engine.run_wave(WaveKind::kFairExchange);
}

ScenarioResult run_sharing(const ScenarioConfig& config) {
  ScenarioEngine engine(config);
  return engine.run_wave(WaveKind::kSharing);
}

ScenarioResult run_mixed(const ScenarioConfig& config) {
  ScenarioEngine engine(config);
  return engine.run_wave(WaveKind::kMixed);
}

}  // namespace nonrep::scenario

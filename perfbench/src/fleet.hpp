// The benchmark's fleet: an echo server, an optimistic TTP and N member
// parties on one simulated network with the concurrent runtime (live pump +
// worker pool), built from the library's public constructors the way
// scenario::World::add_party builds its parties. Building it here, rather
// than through World, is what lets the traced run wrap each party's signer,
// TSA hook, log backend and protocol handlers in timing decorators.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "container/container.hpp"
#include "core/fair_exchange.hpp"
#include "core/nr_interceptor.hpp"
#include "crypto/drbg.hpp"
#include "journal/writer.hpp"
#include "net/network.hpp"
#include "pki/authority.hpp"
#include "store/evidence_log.hpp"
#include "store/object_store.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

struct FleetOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  /// Empty: in-memory logs. Otherwise every party logs to an object-mode
  /// JournalLogBackend under <journal_root>/<party>.
  std::string journal_root;
  nonrep::journal::SyncPolicy sync = nonrep::journal::SyncPolicy::kEveryRecord;
  /// Countersign every issued token with a time-stamping authority.
  bool tsa = false;
  /// Drop probability on member<->server links.
  double loss = 0.0;
};

struct FleetParty {
  nonrep::PartyId id;
  std::string address;
  std::string journal_dir;  // empty for in-memory logs
  nonrep::pki::Certificate certificate;
  std::shared_ptr<nonrep::crypto::Signer> signer;
  std::shared_ptr<nonrep::pki::CredentialManager> credentials;
  nonrep::store::LogBackend* backend = nullptr;  // owned by `log`
  std::shared_ptr<nonrep::store::EvidenceLog> log;
  std::shared_ptr<nonrep::store::StateStore> states;
  std::shared_ptr<nonrep::core::EvidenceService> evidence;
  std::unique_ptr<nonrep::core::Coordinator> coordinator;
};

enum class Outcome { kCompleted, kAborted, kRecovered, kFailed };

struct ExchangeResult {
  Outcome outcome = Outcome::kFailed;
  nonrep::RunId run;
};

/// Member parties, each the client of one injector thread.
inline constexpr std::size_t kMembers = 4;

inline constexpr const char* kServerAddress = "server";
inline constexpr const char* kTtpAddress = "ttp";
// Never registered: requests sent here time out and settle via TTP abort.
inline constexpr const char* kBlackholeAddress = "blackhole";

class Fleet {
 public:
  explicit Fleet(const FleetOptions& options);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const nonrep::Status& status() const noexcept { return status_; }
  const FleetOptions& options() const noexcept { return options_; }

  /// One fair exchange from member `member`. Each member runs one client
  /// exchange at a time: only its own injector calls this for it.
  /// `forced_recovery` targets the unreachable address, so the client's
  /// timeout sends the run to the TTP for an abort.
  ExchangeResult exchange(std::size_t member, const nonrep::Bytes& payload,
                          bool forced_recovery);

  void drain() { network_.drain(); }

  std::size_t member_count() const noexcept { return members_.size(); }
  FleetParty& member(std::size_t i) { return *members_[i]; }
  FleetParty& server() { return *server_; }
  FleetParty& ttp() { return *ttp_; }
  /// Every party that keeps an evidence log: server, TTP, members.
  std::vector<FleetParty*> parties();
  const nonrep::pki::Certificate& root_certificate() const { return ca_->certificate(); }
  std::shared_ptr<nonrep::SimClock> clock() const { return clock_; }
  const std::shared_ptr<nonrep::store::ObjectStore>& objects() const { return objects_; }
  std::pair<std::size_t, std::size_t> ttp_verdicts() const {
    return ttp_handler_->verdict_counts();
  }

 private:
  std::unique_ptr<FleetParty> make_party(const std::string& name);
  std::shared_ptr<nonrep::crypto::Signer> make_signer();

  FleetOptions options_;
  nonrep::Status status_ = nonrep::Status::ok_status();
  std::shared_ptr<nonrep::SimClock> clock_;
  nonrep::net::SimNetwork network_;
  nonrep::crypto::Drbg rng_;
  std::shared_ptr<nonrep::store::ObjectStore> objects_;
  std::unique_ptr<nonrep::pki::CertificateAuthority> ca_;
  std::shared_ptr<nonrep::core::TimestampHook> tsa_hook_;

  std::unique_ptr<FleetParty> server_;
  std::unique_ptr<FleetParty> ttp_;
  std::vector<std::unique_ptr<FleetParty>> members_;
  nonrep::container::Container server_container_;
  std::shared_ptr<nonrep::core::OptimisticTtp> ttp_handler_;

  std::shared_ptr<nonrep::util::ThreadPool> pool_;
  std::thread pump_;
};

}  // namespace perfbench

// A virtual enterprise in a box — the party fleet the scenario engine
// (and the test suite) builds on.
//
// World constructs N organisations, each with its own RSA keys, a
// certificate issued by one shared root CA, a credential manager primed
// with everyone's certificates, an evidence log / state store / evidence
// service, and a B2BCoordinator endpoint on one simulated network. The
// network runs deterministically single-threaded by default and becomes
// the concurrent party runtime once an executor pool is attached
// (net::SimNetwork::set_executor).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/coordinator.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "crypto/signer.hpp"
#include "net/network.hpp"
#include "pki/authority.hpp"
#include "store/evidence_log.hpp"

namespace nonrep::scenario {

inline constexpr TimeMs kFarFuture = 1000ull * 60 * 60 * 24 * 365;

struct Party {
  PartyId id;
  net::Address address;
  pki::Certificate certificate;
  std::shared_ptr<crypto::Signer> signer;
  std::shared_ptr<pki::CredentialManager> credentials;
  std::shared_ptr<store::EvidenceLog> log;
  std::shared_ptr<store::StateStore> states;
  std::shared_ptr<core::EvidenceService> evidence;
  std::unique_ptr<core::Coordinator> coordinator;
};

class World {
 public:
  explicit World(std::uint64_t seed = 42, std::size_t rsa_bits = 512);

  /// Create a party named `name` with coordinator address `name`. Pass a
  /// `log_backend` to persist the party's evidence somewhere real (e.g. a
  /// JournalLogBackend); the default is in-memory.
  Party& add_party(const std::string& name, net::ReliableConfig reliable = {},
                   std::unique_ptr<store::LogBackend> log_backend = nullptr);

  pki::CertificateAuthority& ca() { return *ca_; }
  pki::RevocationAuthority& revocation() { return *revocation_; }
  crypto::Drbg& rng() { return rng_; }

  std::size_t party_count() const { return parties_.size(); }
  Party& party(std::size_t i) { return *parties_[i]; }

  /// Push a fresh CRL to every party.
  void broadcast_crl();

  /// The world-wide content-addressed object store: every party's evidence
  /// log interns through it, so a token accepted by N parties is held once
  /// for the whole fleet.
  const std::shared_ptr<store::ObjectStore>& objects() const noexcept { return objects_; }

  std::shared_ptr<SimClock> clock;
  net::SimNetwork network;

 private:
  crypto::Drbg rng_;
  std::size_t rsa_bits_;
  std::shared_ptr<store::ObjectStore> objects_;
  std::unique_ptr<pki::CertificateAuthority> ca_;
  std::unique_ptr<pki::RevocationAuthority> revocation_;
  std::vector<std::unique_ptr<Party>> parties_;
};

}  // namespace nonrep::scenario

// Time-stamping authority (§3.5).
//
// Evidence is time-stamped "for logging and to support the assertion that
// the signature used to sign evidence was not compromised at time of use"
// [26]. A TimestampAuthority countersigns (digest, time) pairs; relying
// parties verify the token against the TSA's certificate. The evidence
// layer treats TSA tokens as an opt-in extension.
#pragma once

#include <memory>

#include "core/evidence.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "pki/credential_manager.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"

namespace nonrep::tsa {

struct TimestampToken {
  PartyId authority;
  crypto::Digest subject_digest{};  // digest of the time-stamped data
  TimeMs time = 0;

  Bytes signature;  // TSA signature over tbs()

  Bytes tbs() const;
  Bytes encode() const;
  static Result<TimestampToken> decode(BytesView b);
};

class TimestampAuthority {
 public:
  TimestampAuthority(PartyId id, std::shared_ptr<crypto::Signer> signer,
                     std::shared_ptr<Clock> clock)
      : id_(std::move(id)), signer_(std::move(signer)), clock_(std::move(clock)) {}

  const PartyId& id() const noexcept { return id_; }

  /// Issue a token over `data` at the current time.
  Result<TimestampToken> stamp(BytesView data);

 private:
  PartyId id_;
  std::shared_ptr<crypto::Signer> signer_;
  std::shared_ptr<Clock> clock_;
};

/// Verify a token against the TSA certificate held by `credentials`.
Status verify_timestamp(const TimestampToken& token, BytesView original_data,
                        const pki::CredentialManager& credentials, TimeMs verification_time);

/// Adapter plugging a TimestampAuthority into core::EvidenceService (the
/// core::TimestampHook indirection avoids a core -> tsa cycle).
class EvidenceTimestamper final : public core::TimestampHook {
 public:
  explicit EvidenceTimestamper(std::shared_ptr<TimestampAuthority> authority)
      : authority_(std::move(authority)) {}

  Result<Bytes> countersign(BytesView data) override {
    auto token = authority_->stamp(data);
    if (!token) return token.error();
    return token.value().encode();
  }

 private:
  std::shared_ptr<TimestampAuthority> authority_;
};

}  // namespace nonrep::tsa

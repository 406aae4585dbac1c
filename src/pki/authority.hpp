// Certificate authority: issues subject and intermediate-CA certificates.
#pragma once

#include <memory>

#include "pki/certificate.hpp"

namespace nonrep::pki {

class CertificateAuthority {
 public:
  /// A root CA signs its own certificate with `signer`. If self-signing
  /// fails, `status()` reports the error and the certificate carries an
  /// empty signature, which every verifier rejects.
  CertificateAuthority(PartyId id, std::shared_ptr<crypto::Signer> signer,
                       TimeMs not_before, TimeMs not_after);

  /// An intermediate CA carries a certificate issued by its parent. The
  /// certificate is held as-is: CA-ness is enforced where it matters, in
  /// CredentialManager::verify_chain (`pki.not_a_ca`).
  CertificateAuthority(Certificate own_cert, std::shared_ptr<crypto::Signer> signer);

  const Certificate& certificate() const noexcept { return cert_; }
  const PartyId& id() const noexcept { return id_; }

  /// Outcome of self-signing the root certificate; always ok for an
  /// intermediate constructed from an existing certificate.
  const Status& status() const noexcept { return status_; }

  /// Issue a subject (or, if `is_ca`, an intermediate CA) certificate.
  /// Fails, with the signer's error, when the backing signer fails.
  Result<Certificate> issue(const PartyId& subject, crypto::SigAlgorithm alg,
                            BytesView public_key, TimeMs not_before, TimeMs not_after,
                            bool is_ca = false);

 private:
  PartyId id_;
  std::shared_ptr<crypto::Signer> signer_;
  Certificate cert_;
  Status status_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace nonrep::pki

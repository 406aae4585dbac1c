#include "pki/certificate.hpp"

#include "util/serialize.hpp"

namespace nonrep::pki {

Bytes Certificate::tbs() const {
  BinaryWriter w;
  w.str(serial);
  w.str(subject.str());
  w.str(issuer.str());
  w.u8(static_cast<std::uint8_t>(algorithm));
  w.bytes(public_key);
  w.u64(not_before);
  w.u64(not_after);
  w.u8(is_ca ? 1 : 0);
  return std::move(w).take();
}

Bytes Certificate::encode() const {
  BinaryWriter w;
  w.bytes(tbs());
  w.u8(static_cast<std::uint8_t>(issuer_algorithm));
  w.bytes(issuer_signature);
  return std::move(w).take();
}

Result<Certificate> Certificate::decode(BytesView b) {
  BinaryReader outer(b);
  auto tbs_bytes = outer.bytes();
  if (!tbs_bytes) return tbs_bytes.error();
  auto issuer_alg = outer.u8();
  if (!issuer_alg) return issuer_alg.error();
  auto sig = outer.bytes();
  if (!sig) return sig.error();
  if (!outer.at_end()) return Error::make("pki.trailing_bytes", "after signature");
  if (issuer_alg.value() != static_cast<std::uint8_t>(crypto::SigAlgorithm::kRsa)) {
    return Error::make("pki.bad_algorithm", "issuer tag " + std::to_string(issuer_alg.value()));
  }

  BinaryReader r(tbs_bytes.value());
  Certificate cert;
  auto serial = r.str();
  if (!serial) return serial.error();
  cert.serial = serial.value();
  auto subject = r.str();
  if (!subject) return subject.error();
  cert.subject = PartyId(subject.value());
  auto issuer = r.str();
  if (!issuer) return issuer.error();
  cert.issuer = PartyId(issuer.value());
  auto alg = r.u8();
  if (!alg) return alg.error();
  if (alg.value() != static_cast<std::uint8_t>(crypto::SigAlgorithm::kRsa)) {
    return Error::make("pki.bad_algorithm", "subject tag " + std::to_string(alg.value()));
  }
  cert.algorithm = crypto::SigAlgorithm::kRsa;
  auto key = r.bytes();
  if (!key) return key.error();
  cert.public_key = key.value();
  auto nb = r.u64();
  if (!nb) return nb.error();
  cert.not_before = nb.value();
  auto na = r.u64();
  if (!na) return na.error();
  cert.not_after = na.value();
  auto ca = r.u8();
  if (!ca) return ca.error();
  if (ca.value() > 1) return Error::make("pki.bad_is_ca", std::to_string(ca.value()));
  cert.is_ca = ca.value() == 1;
  if (!r.at_end()) return Error::make("pki.trailing_bytes", "after is_ca");

  cert.issuer_algorithm = crypto::SigAlgorithm::kRsa;
  cert.issuer_signature = sig.value();
  return cert;
}

}  // namespace nonrep::pki

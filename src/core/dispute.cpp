#include "core/dispute.hpp"

#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::core {

namespace {

/// Vote and decision subjects embed their boolean as
/// (tag-string, run-string, u8 flag, ...); extract it.
std::optional<bool> subject_flag(BytesView subject, std::string_view expected_tag) {
  BinaryReader r(subject);
  auto tag = r.str();
  if (!tag || tag.value() != expected_tag) return std::nullopt;
  auto run = r.str();
  if (!run) return std::nullopt;
  auto flag = r.u8();
  if (!flag) return std::nullopt;
  return flag.value() == 1;
}

}  // namespace

bool Adjudicator::verify_item(const RunId& run, const PresentedEvidence& item) const {
  if (item.token.run != run) return false;
  const crypto::Digest expected = store::state_digest(item.subject);
  if (!constant_time_equal(BytesView(expected.data(), expected.size()),
                           BytesView(item.token.subject.data(),
                                     item.token.subject.size()))) {
    return false;
  }
  return credentials_
      ->verify_signature(item.token.issuer, item.token.tbs(), item.token.signature,
                         clock_->now())
      .ok();
}

Verdict Adjudicator::adjudicate(const RunId& run,
                                const std::vector<PresentedEvidence>& bundle,
                                util::ThreadPool* pool) const {
  // Phase 1 — the expensive part (one chain walk + signature check per
  // item), embarrassingly parallel across the pool.
  std::vector<char> verified(bundle.size(), 0);
  util::parallel_for(pool, bundle.size(), [&](std::size_t i) {
    verified[i] = verify_item(run, bundle[i]) ? 1 : 0;
  });

  // Phase 2 — fold verdicts in presentation order, independent of which
  // worker finished first.
  Verdict verdict;
  for (std::size_t i = 0; i < bundle.size(); ++i) {
    const auto& item = bundle[i];
    if (!verified[i]) {
      verdict.rejected.push_back(item.token);
      continue;
    }
    switch (item.token.type) {
      case EvidenceType::kNroRequest:
        verdict.client_sent_request = true;
        break;
      case EvidenceType::kNrrRequest:
        verdict.server_received_request = true;
        break;
      case EvidenceType::kNroResponse:
        verdict.server_sent_response = true;
        break;
      case EvidenceType::kNrrResponse:
        verdict.client_received_response = true;
        break;
      case EvidenceType::kAffidavit:
        verdict.client_received_response = true;
        verdict.receipt_by_affidavit = true;
        break;
      case EvidenceType::kAbort:
        verdict.run_aborted = true;
        break;
      case EvidenceType::kProposal:
        verdict.update_proposed = true;
        break;
      case EvidenceType::kVote: {
        const auto accept = subject_flag(item.subject, "nr.sharing.vote");
        if (accept.has_value()) {
          if (*accept) ++verdict.accept_votes;
          else ++verdict.reject_votes;
        }
        break;
      }
      case EvidenceType::kDecision: {
        const auto commit = subject_flag(item.subject, "nr.sharing.decision");
        if (commit.has_value()) {
          verdict.update_agreed = *commit;
          verdict.update_rejected = !*commit;
        }
        break;
      }
      default:
        break;  // connect/disconnect are judged through the view history
    }
  }
  return verdict;
}

std::vector<PresentedEvidence> Adjudicator::bundle_from_log(const store::EvidenceLog& log,
                                                            const store::StateStore& states,
                                                            const RunId& run) {
  std::vector<PresentedEvidence> bundle;
  for (const auto& record : log.find_run(run)) {
    auto token = EvidenceToken::decode(record.payload);
    if (!token) continue;  // non-token record
    auto subject = states.get(token.value().subject);
    if (!subject) continue;  // cannot substantiate: skip
    bundle.push_back(PresentedEvidence{std::move(token).take(), std::move(subject).take()});
  }
  return bundle;
}

}  // namespace nonrep::core

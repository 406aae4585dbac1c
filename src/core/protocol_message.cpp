#include "core/protocol_message.hpp"

#include "util/serialize.hpp"

namespace nonrep::core {

Bytes ProtocolMessage::encode() const {
  BinaryWriter w;
  w.str(protocol);
  w.str(run.str());
  w.u32(step);
  w.str(sender.str());
  w.bytes(body);
  w.u32(static_cast<std::uint32_t>(tokens.size()));
  for (const auto& t : tokens) w.bytes(t.encode());
  return std::move(w).take();
}

Result<ProtocolMessage> ProtocolMessage::decode(BytesView b) {
  BinaryReader r(b);
  ProtocolMessage msg;
  auto protocol = r.str();
  if (!protocol) return protocol.error();
  msg.protocol = protocol.value();
  auto run = r.str();
  if (!run) return run.error();
  msg.run = RunId(run.value());
  auto step = r.u32();
  if (!step) return step.error();
  msg.step = step.value();
  auto sender = r.str();
  if (!sender) return sender.error();
  msg.sender = PartyId(sender.value());
  auto body = r.bytes();
  if (!body) return body.error();
  msg.body = body.value();
  auto count = r.u32();
  if (!count) return count.error();
  if (count.value() > 1024) {
    return Error::make("protocol.too_many_tokens", std::to_string(count.value()));
  }
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto raw = r.bytes();
    if (!raw) return raw.error();
    auto token = EvidenceToken::decode(raw.value());
    if (!token) return token.error();
    msg.tokens.push_back(std::move(token).take());
  }
  if (!r.at_end()) return Error::make("protocol.trailing_bytes", "after tokens");
  return msg;
}

Result<EvidenceToken> ProtocolMessage::token(EvidenceType type) const {
  for (const auto& t : tokens) {
    if (t.type == type) return t;
  }
  return Error::make("protocol.missing_token", to_string(type));
}

ProtocolMessage make_error_reply(const ProtocolMessage& request, const PartyId& sender,
                                 const Error& error) {
  ProtocolMessage msg;
  msg.protocol = kErrorProtocol;
  msg.run = request.run;
  msg.step = request.step + 1;
  msg.sender = sender;
  BinaryWriter w;
  w.str(error.code);
  w.str(error.detail);
  msg.body = std::move(w).take();
  return msg;
}

std::optional<Error> as_error(const ProtocolMessage& msg) {
  if (msg.protocol != kErrorProtocol) return std::nullopt;
  BinaryReader r(msg.body);
  auto code = r.str();
  auto detail = r.str();
  return Error::make(code ? code.value() : "protocol.error",
                     detail ? detail.value() : "");
}

}  // namespace nonrep::core

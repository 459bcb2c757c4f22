#include "src/auth/auth_service.h"

#include "src/base/check.h"

namespace lastcpu::auth {

constexpr sim::Duration kTokenLifetime = sim::Duration::Seconds(3600);

uint64_t HashSecret(const std::string& secret, uint64_t salt) {
  uint64_t h = 0xCBF29CE484222325ULL ^ salt;
  for (char c : secret) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  // One more mixing round so short secrets spread.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

AuthService::AuthService(DeviceId provider, sim::Simulator* simulator)
    : Service(proto::ServiceDescriptor{provider, proto::ServiceType::kAuth, "auth", 0}),
      simulator_(simulator) {
  LASTCPU_CHECK(simulator != nullptr, "auth service needs a simulator for expiry");
}

void AuthService::AddUser(const std::string& user, const std::string& secret) {
  UserEntry entry;
  entry.salt = next_salt_ = next_salt_ * 6364136223846793005ULL + 1442695040888963407ULL;
  entry.secret_hash = HashSecret(secret, entry.salt);
  users_[user] = entry;
}

Result<proto::AuthResponse> AuthService::HandleAuth(const proto::AuthRequest& request) {
  auto it = users_.find(request.user);
  if (it == users_.end()) {
    // Same error as a wrong secret: do not leak which users exist.
    return PermissionDenied("authentication failed");
  }
  if (HashSecret(request.secret, it->second.salt) != it->second.secret_hash) {
    return PermissionDenied("authentication failed");
  }
  // Token value mixes a counter with the user hash; uniqueness is what
  // matters here, not unforgeability (see header).
  uint64_t token = HashSecret(request.user, ++token_counter_ ^ 0xA5A5A5A5A5A5A5A5ULL);
  sim::SimTime expiry = simulator_->Now() + kTokenLifetime;
  tokens_[token] = TokenEntry{request.user, expiry};
  return proto::AuthResponse{token, expiry.nanos()};
}

bool AuthService::ValidateToken(uint64_t token) const { return UserForToken(token).has_value(); }

std::optional<std::string> AuthService::UserForToken(uint64_t token) const {
  auto it = tokens_.find(token);
  if (it == tokens_.end()) {
    return std::nullopt;
  }
  if (it->second.expiry <= simulator_->Now()) {
    tokens_.erase(it);
    return std::nullopt;
  }
  return it->second.user;
}

void AuthService::RevokeToken(uint64_t token) { tokens_.erase(token); }

Result<proto::OpenResponse> AuthService::Open(DeviceId client, const proto::OpenRequest& request) {
  (void)client;
  (void)request;
  return Unimplemented("auth uses AuthRequest messages, not open");
}

std::optional<Result<proto::Payload>> AuthService::HandleMessage(const proto::Message& message) {
  if (!message.Is<proto::AuthRequest>()) {
    return std::nullopt;
  }
  auto response = HandleAuth(message.As<proto::AuthRequest>());
  if (!response.ok()) {
    return Result<proto::Payload>(response.status());
  }
  return Result<proto::Payload>(proto::Payload(*response));
}

size_t AuthService::active_tokens() const {
  size_t count = 0;
  for (const auto& [token, entry] : tokens_) {
    if (entry.expiry > simulator_->Now()) {
      ++count;
    }
  }
  return count;
}

}  // namespace lastcpu::auth

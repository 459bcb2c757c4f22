// Access control service (paper Sec. 4): the 'login' program and 'passwd'
// file of the CPU-less machine, hosted on any self-managing device (typically
// the smart SSD, next to the files it protects).
//
// Users authenticate with a secret and receive an expiring token; services
// (file system, loader) validate tokens before honoring sensitive requests.
// Hashing is FNV-based for simulation purposes — this models the *protocol*,
// not real cryptography (documented in DESIGN.md).
#ifndef SRC_AUTH_AUTH_SERVICE_H_
#define SRC_AUTH_AUTH_SERVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/dev/service.h"
#include "src/sim/simulator.h"

namespace lastcpu::auth {

// Salted FNV-1a, the stand-in for a real password hash.
uint64_t HashSecret(const std::string& secret, uint64_t salt);

class AuthService : public dev::Service {
 public:
  AuthService(DeviceId provider, sim::Simulator* simulator);

  // Registers a user (the 'passwd file' entry). Local administrative call —
  // in a deployment this would itself be loader-gated.
  void AddUser(const std::string& user, const std::string& secret);

  // Handles a login request; issues a token on success.
  Result<proto::AuthResponse> HandleAuth(const proto::AuthRequest& request);

  // Token check used by other services. Expired or unknown tokens fail.
  bool ValidateToken(uint64_t token) const;
  // As above, also returning who the token belongs to.
  std::optional<std::string> UserForToken(uint64_t token) const;

  // Drops a token before its expiry (logout).
  void RevokeToken(uint64_t token);

  // Auth has no streaming instances: each login is a single exchange.
  Result<proto::OpenResponse> Open(DeviceId client, const proto::OpenRequest& request) override;

  // Accepts kAuthRequest messages routed by the hosting device.
  std::optional<Result<proto::Payload>> HandleMessage(const proto::Message& message) override;

  size_t active_tokens() const;

 private:
  struct UserEntry {
    uint64_t salt = 0;
    uint64_t secret_hash = 0;
  };
  struct TokenEntry {
    std::string user;
    sim::SimTime expiry;
  };

  sim::Simulator* simulator_;
  std::map<std::string, UserEntry> users_;
  mutable std::map<uint64_t, TokenEntry> tokens_;  // mutable: lookups prune expired
  uint64_t next_salt_ = 0x1234;
  uint64_t token_counter_ = 0;
};

}  // namespace lastcpu::auth

#endif  // SRC_AUTH_AUTH_SERVICE_H_

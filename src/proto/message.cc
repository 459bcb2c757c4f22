#include "src/proto/message.h"

#include <array>
#include <utility>

namespace lastcpu::proto {

std::string_view ServiceTypeName(ServiceType type) {
  switch (type) {
    case ServiceType::kMemory:
      return "memory";
    case ServiceType::kFile:
      return "file";
    case ServiceType::kBlock:
      return "block";
    case ServiceType::kNetwork:
      return "network";
    case ServiceType::kCompute:
      return "compute";
    case ServiceType::kLoader:
      return "loader";
    case ServiceType::kAuth:
      return "auth";
    case ServiceType::kLog:
      return "log";
    case ServiceType::kKeyValue:
      return "key-value";
  }
  return "unknown";
}

namespace {

struct KindTraits {
  std::string_view name;
  bool is_response;
};

template <size_t... I>
constexpr std::array<KindTraits, sizeof...(I)> KindTable(std::index_sequence<I...>) {
  return {KindTraits{std::variant_alternative_t<I, Payload>::kName,
                     std::variant_alternative_t<I, Payload>::kIsResponse}...};
}

// Indexed by MessageType.
constexpr auto kKinds = KindTable(std::make_index_sequence<std::variant_size_v<Payload>>());

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  size_t index = static_cast<size_t>(type);
  return index < kKinds.size() ? kKinds[index].name : "Unknown";
}

bool IsResponse(MessageType type) {
  size_t index = static_cast<size_t>(type);
  return index < kKinds.size() && kKinds[index].is_response;
}

Message MakeRequest(DeviceId src, DeviceId dst, RequestId id, Payload payload) {
  return Message{src, dst, id, std::move(payload)};
}

Message MakeResponse(const Message& request, DeviceId src, Payload payload) {
  return Message{src, request.src, request.request_id, std::move(payload)};
}

Message MakeError(const Message& request, DeviceId src, Status status) {
  return Message{src, request.src, request.request_id,
                 ErrorResponse{status.code(), status.message()}};
}

}  // namespace lastcpu::proto

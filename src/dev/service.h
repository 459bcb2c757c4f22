// Service: one resource a self-managing device exposes (paper Sec. 2.1).
//
// "A device must expose the services it provides, and provide a separate
// context for each instance of a service (multiplexing) to ensure isolation
// between applications." Service owns that multiplexing: each Open() creates
// an isolated ServiceInstance bound to one client device and one application
// address space (PASID).
#ifndef SRC_DEV_SERVICE_H_
#define SRC_DEV_SERVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/proto/message.h"

namespace lastcpu::dev {

// Book-keeping every instance carries; concrete services attach their own
// state keyed by the instance id.
struct ServiceInstance {
  InstanceId id;
  DeviceId client;
  Pasid pasid;
  std::string resource;
};

class Service {
 public:
  explicit Service(proto::ServiceDescriptor descriptor) : descriptor_(std::move(descriptor)) {}
  virtual ~Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const proto::ServiceDescriptor& descriptor() const { return descriptor_; }

  // Whether this service can answer a discovery query. The default matches on
  // service type; services owning named resources (files) also check
  // `resource` (Fig. 2 step 1: the broadcast carries the file name).
  virtual bool Matches(const proto::DiscoverRequest& query) const;

  // Opens a new isolated instance for `client`. Concrete services validate
  // the request (auth token, resource existence) and report the shared-memory
  // contract in the OpenResponse.
  virtual Result<proto::OpenResponse> Open(DeviceId client, const proto::OpenRequest& request) = 0;

  // Single-exchange messages (auth logins, image loads) that need no open
  // instance. Returns nullopt when this service does not handle the message;
  // otherwise the device replies with the payload (or error) returned.
  virtual std::optional<Result<proto::Payload>> HandleMessage(const proto::Message& message) {
    (void)message;
    return std::nullopt;
  }

  // Closes one instance, releasing its resources.
  virtual Status Close(InstanceId instance);

  // Drops every instance belonging to an application (task teardown).
  virtual void TeardownPasid(Pasid pasid);

  // Drops every instance held by a client device (the client died).
  virtual void TeardownClient(DeviceId client);

  bool HasInstance(InstanceId instance) const { return instances_.contains(instance); }
  size_t instance_count() const { return instances_.size(); }
  const std::map<InstanceId, ServiceInstance>& instances() const { return instances_; }

 protected:
  // Registers a new instance; enforces max_instances from the descriptor.
  // Its id comes from the hosting device, unique across the device's services.
  Result<InstanceId> CreateInstance(DeviceId client, Pasid pasid, std::string resource);

  // Hook invoked whenever an instance goes away (Close/Teardown*), so
  // concrete services can free their per-instance state.
  virtual void OnInstanceClosed(const ServiceInstance& instance) { (void)instance; }

  std::optional<ServiceInstance> FindInstance(InstanceId instance) const;

 private:
  friend class Device;  // AddService binds next_instance_

  proto::ServiceDescriptor descriptor_;
  std::map<InstanceId, ServiceInstance> instances_;
  uint64_t* next_instance_ = nullptr;  // the hosting device's instance id counter
};

}  // namespace lastcpu::dev

#endif  // SRC_DEV_SERVICE_H_

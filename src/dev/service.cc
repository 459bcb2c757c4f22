#include "src/dev/service.h"

#include <utility>
#include <vector>

#include "src/base/check.h"

namespace lastcpu::dev {

bool Service::Matches(const proto::DiscoverRequest& query) const {
  return query.type == descriptor_.type;
}

Result<InstanceId> Service::CreateInstance(DeviceId client, Pasid pasid, std::string resource) {
  if (descriptor_.max_instances != 0 && instances_.size() >= descriptor_.max_instances) {
    return ResourceExhausted("service '" + descriptor_.name + "' instance limit reached");
  }
  LASTCPU_CHECK(next_instance_ != nullptr, "service '%s' is on no device",
                descriptor_.name.c_str());
  InstanceId id((*next_instance_)++);
  instances_.emplace(id, ServiceInstance{id, client, pasid, std::move(resource)});
  return id;
}

std::optional<ServiceInstance> Service::FindInstance(InstanceId instance) const {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Status Service::Close(InstanceId instance) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    return NotFound("no such instance");
  }
  ServiceInstance copy = it->second;
  instances_.erase(it);
  OnInstanceClosed(copy);
  return OkStatus();
}

void Service::TeardownPasid(Pasid pasid) {
  std::vector<InstanceId> doomed;
  for (const auto& [id, instance] : instances_) {
    if (instance.pasid == pasid) {
      doomed.push_back(id);
    }
  }
  for (InstanceId id : doomed) {
    (void)Close(id);
  }
}

void Service::TeardownClient(DeviceId client) {
  std::vector<InstanceId> doomed;
  for (const auto& [id, instance] : instances_) {
    if (instance.client == client) {
      doomed.push_back(id);
    }
  }
  for (InstanceId id : doomed) {
    (void)Close(id);
  }
}

}  // namespace lastcpu::dev

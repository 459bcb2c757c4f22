#include "src/ssddev/smart_ssd.h"

#include <utility>

#include "src/base/check.h"

namespace lastcpu::ssddev {

SmartSsd::SmartSsd(DeviceId id, const dev::DeviceContext& context, SmartSsdConfig config)
    : dev::Device(id, "smart-ssd", context, config.device),
      nand_(context.simulator, config.nand, /*seed=*/id.value() + 7),
      ftl_(context.simulator, &nand_, config.ftl),
      fs_(&ftl_) {
  if (config.host_auth_service) {
    auto auth = std::make_unique<auth::AuthService>(id, context.simulator);
    auth_ = auth.get();
    AddService(std::move(auth));
  }
  auto file_service = std::make_unique<FileService>(this, &fs_, auth_, config.file_service);
  file_service_ = file_service.get();
  AddService(std::move(file_service));

  // Loader uploads are auth-gated when the auth service is present.
  auth::AuthService* auth_for_loader = auth_;
  auto loader = std::make_unique<dev::LoaderService>(
      id, auth_for_loader == nullptr
              ? std::function<bool(uint64_t)>()
              : [auth_for_loader](uint64_t token) {
                  return auth_for_loader->ValidateToken(token);
                });
  loader_ = loader.get();
  AddService(std::move(loader));
}

void SmartSsd::ProvisionFile(const std::string& name, std::vector<uint8_t> contents,
                             FileAcl acl) {
  Status created = fs_.Create(name, std::move(acl));
  LASTCPU_CHECK(created.ok(), "provisioning failed: %s", created.ToString().c_str());
  if (!contents.empty()) {
    fs_.Write(name, 0, std::move(contents), [](Status s) {
      LASTCPU_CHECK(s.ok(), "provision write failed: %s", s.ToString().c_str());
    });
  }
}

void SmartSsd::OnMessage(const proto::Message& message) {
  if (message.Is<proto::AttachQueue>()) {
    const auto& attach = message.As<proto::AttachQueue>();
    Status attached = file_service_->AttachQueue(attach.instance, attach.base);
    if (attached.ok()) {
      TraceEvent("queue-attached", "instance=" + std::to_string(attach.instance.value()));
      Reply(message, proto::AttachQueueResponse{});
    } else {
      ReplyError(message, attached);
    }
    return;
  }
  dev::Device::OnMessage(message);
}

void SmartSsd::OnDoorbell(DeviceId from, uint64_t value) {
  (void)from;
  // Doorbell value = instance id of the session whose ring has work.
  file_service_->OnDoorbell(InstanceId(value));
}

void SmartSsd::OnPowerLoss() {
  // Order matters: sessions first (so failure callbacks cascading out of the
  // FTL's pending-op registry find no session and drop harmlessly), then the
  // filesystem's queued writes, then the FTL + NAND themselves.
  file_service_->PowerCut();
  fs_.PowerCut();
  ftl_.PowerCut();
  power_lost_ = true;
}

void SmartSsd::OnReset() {
  if (power_lost_) {
    // Cold boot after a power cut: replay the on-media journal before
    // serving anything.
    ftl_.Recover();
    fs_.Recover();
    power_lost_ = false;
  }
  dev::Device::OnReset();
}

}  // namespace lastcpu::ssddev

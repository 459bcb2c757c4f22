// SmartSsd: the self-managing storage device of the CPU-less machine.
//
// Hosts the NAND array, FTL, and FlashFs, and exposes them as bus services:
// a file service (VIRTIO sessions), a loader service (Sec. 2.1), and — when
// enabled — the machine's auth service (Sec. 4 suggests a smart storage
// controller hosts access control). All request processing runs on the SSD's
// embedded firmware; no CPU is involved anywhere.
#ifndef SRC_SSDDEV_SMART_SSD_H_
#define SRC_SSDDEV_SMART_SSD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/auth/auth_service.h"
#include "src/dev/device.h"
#include "src/dev/loader_service.h"
#include "src/ssddev/file_service.h"
#include "src/ssddev/flash_fs.h"
#include "src/ssddev/ftl.h"
#include "src/ssddev/nand.h"

namespace lastcpu::ssddev {

struct SmartSsdConfig {
  NandGeometry nand;
  FtlConfig ftl;
  FileServiceConfig file_service;
  bool host_auth_service = true;
  dev::DeviceConfig device;
};

class SmartSsd : public dev::Device {
 public:
  SmartSsd(DeviceId id, const dev::DeviceContext& context, SmartSsdConfig config = {});

  FlashFs& fs() { return fs_; }
  Ftl& ftl() { return ftl_; }
  NandArray& nand() { return nand_; }
  FileService& file_service() { return *file_service_; }
  dev::LoaderService& loader() { return *loader_; }
  // Null when host_auth_service is false.
  auth::AuthService* auth() { return auth_; }

  // Administrative helper for examples/tests: create a file with contents and
  // an ACL, bypassing the service path (a deployment would use the loader /
  // provisioning flow).
  void ProvisionFile(const std::string& name, std::vector<uint8_t> contents, FileAcl acl = {});

 protected:
  void OnMessage(const proto::Message& message) override;
  void OnDoorbell(DeviceId from, uint64_t value) override;
  // Power-cut fault: sessions, queues, and all volatile FTL/FlashFs state
  // drop; in-flight NAND programs tear their pages. The next reset pulse
  // replays the on-media journal (Ftl::Recover + FlashFs::Recover) before
  // the device comes back alive.
  void OnPowerLoss() override;
  void OnReset() override;

 private:
  NandArray nand_;
  Ftl ftl_;
  FlashFs fs_;
  FileService* file_service_ = nullptr;
  dev::LoaderService* loader_ = nullptr;
  auth::AuthService* auth_ = nullptr;
  bool power_lost_ = false;
};

}  // namespace lastcpu::ssddev

#endif  // SRC_SSDDEV_SMART_SSD_H_

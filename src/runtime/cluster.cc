#include "runtime/cluster.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "runtime/operator_instance.h"
#include "runtime/tcp_transport.h"

namespace seep::runtime {
namespace {

/// A fresh per-cluster store directory under the working directory:
/// pid + a process-wide counter keep concurrent clusters (and test shards)
/// apart without consulting the clock.
std::string MakeStoreDirectory() {
  static std::atomic<uint32_t> counter{0};
  const uint32_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path dir =
      std::filesystem::current_path() /
      (".seep-store-" + std::to_string(::getpid()) + "-" + std::to_string(n));
  return dir.string();
}

}  // namespace

Cluster::Cluster(const core::QueryGraph* graph, ClusterConfig config)
    : graph_(graph),
      config_(config),
      network_(&sim_, config.network),
      provider_(&sim_, config.provider, config.seed ^ 0xC10DD),
      pool_(&sim_, &provider_, config.pool),
      membership_(this),
      fences_(this) {
  if (config_.transport == TransportKind::kTcp) {
    transport_ = std::make_unique<TcpTransport>(this);
  } else {
    transport_ = std::make_unique<SimTransport>(this);
  }
  if (config_.audit_level > verify::kAuditOff) {
    auditor_ = std::make_unique<verify::InvariantAuditor>(config_.audit_level);
  }
  if (config_.backup_durability != BackupDurability::kMemory) {
    store::CheckpointLogConfig log_config = config_.store;
    if (log_config.directory.empty()) {
      owned_store_dir_ = MakeStoreDirectory();
      log_config.directory = owned_store_dir_;
    }
    auto log = store::CheckpointLog::Open(log_config);
    if (!log.ok()) {
      SEEP_LOG(kWarn, 0) << "durable checkpoint log failed to open at "
                         << log_config.directory << ": "
                         << log.status().message();
    }
    SEEP_CHECK(log.ok());
    durable_log_ = std::move(log).value();
    backups_.AttachDurable(durable_log_.get(), config_.backup_durability,
                           auditor_.get());
  }
}

Cluster::~Cluster() {
  // Close the log (its final fsync and its files) before deleting an
  // auto-created store directory out from under it.
  durable_log_.reset();
  if (!owned_store_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(owned_store_dir_, ec);
  }
}

void Cluster::DeleteBackup(InstanceId owner) { backups_.Delete(owner); }

void Cluster::InstallRoutes(OperatorId down_op,
                            std::vector<core::RoutingState::Route> routes) {
  if (auditor_) auditor_->OnRoutesInstalled(down_op, routes);
  routing_.SetRoutes(down_op, std::move(routes));
}

}  // namespace seep::runtime

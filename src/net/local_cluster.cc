#include "net/local_cluster.h"

#include <utility>

#include "common/macros.h"

namespace seep::net {

[[nodiscard]]
Status LocalCluster::StartWorker(VmId vm, Worker::MessageCallback on_message,
                                 Worker::PeerCallback on_peer_disconnect,
                                 Worker::DropCallback on_frames_dropped) {
  auto worker = std::make_unique<Worker>(vm, &registry_, &loop_);
  worker->set_on_message(std::move(on_message));
  worker->set_on_peer_disconnect(std::move(on_peer_disconnect));
  worker->set_on_frames_dropped(std::move(on_frames_dropped));
  SEEP_RETURN_IF_ERROR(worker->Start());
  workers_[vm] = std::move(worker);
  return Status::OK();
}

void LocalCluster::KillWorker(VmId vm) {
  auto it = workers_.find(vm);
  if (it == workers_.end()) return;
  const Worker::Stats& stats = it->second->stats();
  frozen_.messages_delivered += stats.messages_delivered;
  frozen_.frames_dropped += stats.frames_dropped;
  workers_.erase(it);  // ~Worker closes its sockets
}

SendStatus LocalCluster::Post(VmId from, VmId to, const Message& msg) {
  auto it = workers_.find(from);
  if (it == workers_.end()) return SendStatus::kClosed;
  return it->second->Post(to, msg);
}

LocalCluster::Stats LocalCluster::TotalStats() const {
  Stats total = frozen_;
  for (const auto& [vm, worker] : workers_) {
    total.messages_delivered += worker->stats().messages_delivered;
    total.frames_dropped += worker->stats().frames_dropped;
  }
  return total;
}

}  // namespace seep::net

#include "net/local_cluster.h"

#include <utility>

#include "common/macros.h"

namespace seep::net {

[[nodiscard]]
Status LocalCluster::StartWorker(VmId vm, Worker::MessageCallback on_message,
                                 Worker::PeerCallback on_peer_disconnect,
                                 Worker::DropCallback on_frames_dropped) {
  auto worker = std::make_unique<Worker>(vm, &loop_);
  worker->set_on_message(std::move(on_message));
  worker->set_on_peer_disconnect(std::move(on_peer_disconnect));
  worker->set_on_frames_dropped(std::move(on_frames_dropped));
  SEEP_RETURN_IF_ERROR(worker->Start());
  workers_[vm] = std::move(worker);
  return Status::OK();
}

void LocalCluster::KillWorker(VmId vm) {
  workers_.erase(vm);  // ~Worker closes its sockets
}

SendStatus LocalCluster::Post(VmId from, VmId to, const Message& msg) {
  auto sender = workers_.find(from);
  auto receiver = workers_.find(to);
  if (sender == workers_.end() || receiver == workers_.end()) {
    return SendStatus::kClosed;
  }
  return sender->second->Post(to, receiver->second->port(), msg);
}

void LocalCluster::Poll(std::chrono::microseconds timeout) {
  loop_.Poll(timeout);
  for (auto& [vm, worker] : workers_) worker->FreeClosed();
}

}  // namespace seep::net

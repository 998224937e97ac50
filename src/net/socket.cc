#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/macros.h"

namespace seep::net {

namespace {

[[nodiscard]] Status Errno(const char* what) {
  // strerror(3) shares a static buffer across threads (clang-tidy's
  // concurrency-mt-unsafe rejects it); format into a local buffer instead.
  // The GNU strerror_r returns the message pointer (which may ignore buf).
  char buf[128] = {};
  const char* msg = strerror_r(errno, buf, sizeof(buf));
  return Status::Internal(std::string(what) + ": " + msg);
}

[[nodiscard]] Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  // Latency over throughput on the data path: tuple batches are small and
  // Nagle would add a full RTT of delay to every odd-sized frame.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void ScopedFd::Reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

[[nodiscard]] Result<ScopedFd> ListenLoopback(uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), SOMAXCONN) < 0) return Errno("listen");
  SEEP_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

[[nodiscard]] Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

[[nodiscard]] Result<ScopedFd> ConnectLoopback(uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket");
  SEEP_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  SetNoDelay(fd.get());
  const sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    return Errno("connect");
  }
  return fd;
}

[[nodiscard]] Result<ScopedFd> AcceptConnection(int listen_fd) {
  const int fd =
      ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ScopedFd();
    return Errno("accept4");
  }
  SetNoDelay(fd);
  return ScopedFd(fd);
}

int SocketError(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return errno;
  return err;
}

}  // namespace seep::net

// Fixture: violates single-thread. Nothing in the tree may start a thread;
// the driver thread runs everything, sockets and store compaction included.
// Never compiled.
#include <pthread.h>

#include <future>
#include <thread>

struct StartsItsOwnLoop {
  void Start() {
    loop_ = std::thread([this] { Run(); });
  }
  void StartRaw() { pthread_create(&raw_, nullptr, &Trampoline, this); }
  void StartAsync() {
    auto done = std::async(std::launch::async, [this] { Run(); });
  }
  void Run();
  static void* Trampoline(void* self);

  std::thread loop_;
  pthread_t raw_;
};

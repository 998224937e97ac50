// Fixture: violates thread-outside-store. Outside the durable store's
// checkpoint log, nothing under src/ may start a thread; the driver thread
// owns everything else, sockets included. Never compiled.
#include <pthread.h>

#include <thread>

struct StartsItsOwnLoop {
  void Start() {
    loop_ = std::thread([this] { Run(); });
  }
  void StartRaw() { pthread_create(&raw_, nullptr, &Trampoline, this); }
  void Run();
  static void* Trampoline(void* self);

  std::thread loop_ SEEP_UNGUARDED("owned exclusively by the starter");
  pthread_t raw_ SEEP_UNGUARDED("owned exclusively by the starter");
};

// Fixture: violates single-thread. With one thread there is nothing to
// exclude, so no std lock type, condition variable or their headers may
// appear. Never compiled.
#include <mutex>

struct RawLocker {
  void Touch() {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
  }
  std::mutex mu;
  int count = 0;
};

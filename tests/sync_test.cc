// Unit tests for the annotated synchronisation wrappers (common/sync.h):
// Mutex/MutexLock semantics and holder bookkeeping, CondVar hand-off around
// the internal unlock, ThreadRole adoption, and the always-on runtime
// checks behind SEEP_ASSERT_RUN_ON — the death tests pin the discipline the
// SEEP_TSA build proves statically (a wrapper that stopped aborting would
// leave gcc builds with no enforcement at all).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace seep::sync {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------- Mutex

TEST(MutexTest, LockUnlockAndTryLock) {
  Mutex mu;
  mu.Lock();
  mu.AssertHeld();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.AssertHeld();
  mu.Unlock();
}

TEST(MutexTest, TryLockFailsWhenHeldElsewhere) {
  Mutex mu;
  mu.Lock();
  bool other_got_it = true;
  std::thread t([&] { other_got_it = mu.TryLock(); });
  t.join();
  EXPECT_FALSE(other_got_it);
  mu.Unlock();
}

TEST(MutexTest, MutexLockIsScoped) {
  Mutex mu;
  {
    MutexLock lock(&mu);
    mu.AssertHeld();
  }
  ASSERT_TRUE(mu.TryLock());  // released at scope exit
  mu.Unlock();
}

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 4, kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexDeathTest, AssertHeldAbortsWhenNotHeld) {
  // The runtime half of the TSA REQUIRES annotation: calling into
  // mutex-guarded code without the lock must die, not race.
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "SEEP_CHECK failed");
}

TEST(MutexDeathTest, AssertHeldAbortsWhenHeldByAnotherThread) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  mu.Lock();
  EXPECT_DEATH(
      {
        std::thread t([&] { mu.AssertHeld(); });
        t.join();
      },
      "SEEP_CHECK failed");
  mu.Unlock();
}

// ----------------------------------------------------------------- CondVar

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    cv.Wait(&mu, [&] {
      mu.AssertHeld();  // the predicate always runs with the mutex held
      return ready;
    });
    EXPECT_TRUE(ready);
    mu.AssertHeld();  // reacquired after the wait
  }
  producer.join();
}

TEST(CondVarTest, WaitForTimesOutWhenPredicateStaysFalse) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_FALSE(cv.WaitFor(&mu, 10ms, [&] {
    mu.AssertHeld();
    return false;
  }));
  mu.AssertHeld();  // reacquired even on timeout
}

TEST(CondVarTest, HolderMarkIsReleasedDuringWait) {
  // While a waiter sleeps inside Wait, it genuinely does not hold the
  // mutex: another thread can take it, see AssertHeld succeed, and wake
  // the waiter. This pins the Adopt/Restore holder hand-off.
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    cv.Wait(&mu, [&] {
      mu.AssertHeld();
      return ready;
    });
  });
  for (;;) {
    MutexLock lock(&mu);
    mu.AssertHeld();
    ready = true;
    cv.NotifyAll();
    break;
  }
  waiter.join();
}

// -------------------------------------------------------------- ThreadRole

TEST(ThreadRoleTest, AdoptDropAndQuery) {
  // Use the store-compactor role: DriverThread may already be adopted by
  // the process-wide test harness (any test that builds a Simulation).
  EXPECT_FALSE(StoreCompactorThread.OnThread());
  StoreCompactorThread.Adopt();
  EXPECT_TRUE(StoreCompactorThread.OnThread());
  StoreCompactorThread.AssertOnThread();
  StoreCompactorThread.Adopt();  // idempotent
  EXPECT_TRUE(StoreCompactorThread.OnThread());
  StoreCompactorThread.Drop();
  EXPECT_FALSE(StoreCompactorThread.OnThread());
}

TEST(ThreadRoleTest, ScopedThreadRoleDropsAtScopeExit) {
  {
    ScopedThreadRole role(StoreCompactorThread);
    EXPECT_TRUE(StoreCompactorThread.OnThread());
  }
  EXPECT_FALSE(StoreCompactorThread.OnThread());
}

TEST(ThreadRoleTest, RolesAreThreadLocal) {
  ScopedThreadRole role(StoreCompactorThread);
  bool seen_on_other_thread = true;
  std::thread t(
      [&] { seen_on_other_thread = StoreCompactorThread.OnThread(); });
  t.join();
  EXPECT_FALSE(seen_on_other_thread);  // adoption does not leak across
  EXPECT_TRUE(StoreCompactorThread.OnThread());
}

TEST(ThreadRoleTest, RolesAreIndependentBits) {
  // Runs on a fresh thread: this one may hold DriverThread for good.
  std::thread t([] {
    ScopedThreadRole driver(DriverThread);
    {
      ScopedThreadRole compactor(StoreCompactorThread);
      EXPECT_TRUE(DriverThread.OnThread());
      EXPECT_TRUE(StoreCompactorThread.OnThread());
    }
    EXPECT_TRUE(DriverThread.OnThread());  // dropping one bit keeps the other
    EXPECT_FALSE(StoreCompactorThread.OnThread());
  });
  t.join();
}

TEST(ThreadRoleDeathTest, AssertOnThreadAbortsWithoutTheRole) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The runtime half of SEEP_RUN_ON / SEEP_ASSERT_RUN_ON: protocol
  // surfaces annotated with a role abort when entered from the wrong
  // thread, naming the missing role.
  EXPECT_DEATH(
      {
        std::thread t([] { DriverThread.AssertOnThread(); });
        t.join();
      },
      "thread-affinity violation.*DriverThread");
}

TEST(ThreadRoleDeathTest, DroppedRoleNoLongerSatisfiesAssert) {
  EXPECT_DEATH(
      {
        StoreCompactorThread.Adopt();
        StoreCompactorThread.Drop();
        StoreCompactorThread.AssertOnThread();
      },
      "thread-affinity violation.*StoreCompactorThread");
}

}  // namespace
}  // namespace seep::sync

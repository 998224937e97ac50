#ifndef SEEP_COMMON_SYNC_H_
#define SEEP_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/macros.h"

/// Compile-time concurrency discipline for the whole repo (clang Thread
/// Safety Analysis, per Hickman et al., "C/C++ Thread Safety Analysis").
///
/// Every mutex, condition variable and cross-thread field in the codebase
/// goes through this header: the wrappers carry capability annotations, so
/// a clang build with -DSEEP_TSA=ON (-Werror=thread-safety) rejects lock
/// discipline violations at compile time — a guarded field read without its
/// mutex, a driver-confined method called from another thread, a capability
/// released twice. Under gcc the annotations expand to nothing and only the
/// runtime checks (AssertHeld / AssertOnThread) remain.
///
/// Two kinds of capability live here:
///
///  * Lock capabilities — `Mutex`, acquired with `MutexLock` and named by
///    `SEEP_GUARDED_BY(mu_)` annotations on the fields it protects. The
///    acquisition order between mutexes is recorded in
///    tools/lock_order.json, which tools/lint_concurrency.py verifies
///    acyclic.
///
///  * Thread-affinity capabilities — phantom capabilities that model "runs
///    on thread X" as a capability the thread's entry point adopts. The
///    repo has two thread roles (DESIGN.md §8): the simulation driver
///    thread (`DriverThread` — all protocol state, and every socket of the
///    TCP backend, which it polls itself), and the durable store's
///    compactor (`StoreCompactorThread`, the one thread the repo starts).
///    A function annotated `SEEP_RUN_ON(DriverThread)` is compile-time
///    rejected when called from a context that does not hold the
///    capability, and `Role.AssertOnThread()` backs the static claim with a
///    runtime check.

// ---------------------------------------------------------------- attributes

#if defined(__clang__) && !defined(SEEP_NO_THREAD_SAFETY_ANALYSIS_MODE)
#define SEEP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define SEEP_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Declares a class to be a capability (lockable, or a phantom such as a
/// thread role). The string names the capability kind in diagnostics.
#define SEEP_CAPABILITY(x) SEEP_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability.
#define SEEP_SCOPED_CAPABILITY SEEP_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated field may only be accessed while holding capability `x`.
#define SEEP_GUARDED_BY(x) SEEP_THREAD_ANNOTATION_(guarded_by(x))

/// The annotated pointer/smart-pointer field may be *dereferenced* only
/// while holding capability `x` (the pointer itself is unguarded).
#define SEEP_PT_GUARDED_BY(x) SEEP_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The annotated function may only be called while holding the listed
/// capabilities; it does not acquire or release them.
#define SEEP_REQUIRES(...) \
  SEEP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define SEEP_REQUIRES_SHARED(...) \
  SEEP_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The annotated function acquires / releases the listed capabilities.
#define SEEP_ACQUIRE(...) \
  SEEP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define SEEP_RELEASE(...) \
  SEEP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define SEEP_TRY_ACQUIRE(...) \
  SEEP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// The annotated function must NOT be called while holding the listed
/// capabilities (deadlock prevention: it acquires them itself, or sleeps).
#define SEEP_EXCLUDES(...) SEEP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// States (to the analysis and at runtime) that the capability is held.
/// This is how code that the analysis cannot follow across a type-erased
/// boundary — socket callbacks, simulation events, condition-variable wait
/// predicates — re-establishes the capability on re-entry.
#define SEEP_ASSERT_CAPABILITY(x) \
  SEEP_THREAD_ANNOTATION_(assert_capability(x))

/// The annotated function returns a reference to the named capability.
#define SEEP_RETURN_CAPABILITY(x) SEEP_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only in the
/// sync primitives themselves.
#define SEEP_NO_THREAD_SAFETY_ANALYSIS \
  SEEP_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Thread-affinity shorthand: the annotated function runs only on threads
/// holding `role` (DriverThread or StoreCompactorThread).
#define SEEP_RUN_ON(role) SEEP_REQUIRES(role)

/// Written waiver for a field in a thread-spawning TU that deliberately
/// carries no capability annotation. The reason is mandatory and checked by
/// tools/lint_concurrency.py (rule waiver-needs-reason); typical reasons
/// are "set before the thread starts, immutable afterwards" or "owned
/// exclusively by the harness thread". Expands to nothing.
#define SEEP_UNGUARDED(reason)

namespace seep::sync {

// ------------------------------------------------------------------- Mutex

/// An annotated std::mutex. Lock/Unlock track the holding thread so
/// AssertHeld() is a real runtime check (always on: one relaxed atomic
/// store per lock/unlock, noise next to the lock itself), and the
/// SEEP_ACQUIRE/SEEP_RELEASE annotations make the clang analysis track the
/// capability statically.
class SEEP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SEEP_ACQUIRE() {
    mu_.lock();
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void Unlock() SEEP_RELEASE() {
    holder_.store(std::thread::id(), std::memory_order_relaxed);
    mu_.unlock();
  }

  bool TryLock() SEEP_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    return true;
  }

  /// Aborts unless the calling thread holds this mutex. Statically, tells
  /// the analysis the capability is held from here on — the idiom for
  /// condition-variable wait predicates and other code the analysis cannot
  /// follow across the lock boundary.
  void AssertHeld() const SEEP_ASSERT_CAPABILITY(this) {
    SEEP_CHECK(holder_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id());
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  // The thread currently inside the critical section (default id: none).
  std::atomic<std::thread::id> holder_{};
};

/// RAII lock for a Mutex (the only way the codebase takes locks — raw
/// std::lock_guard/std::unique_lock are banned by lint rule no-raw-mutex).
class SEEP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SEEP_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() SEEP_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// ----------------------------------------------------------------- CondVar

/// Condition variable paired with Mutex. All waits require the mutex held;
/// the holder bookkeeping is handed off around the internal unlock/relock
/// so AssertHeld stays truthful inside predicates.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  /// Atomically releases `*mu`, waits, and reacquires. Spurious wakeups
  /// happen; callers loop on their predicate (or use the predicate
  /// overloads, whose predicate runs with the mutex held — start it with
  /// `mu->AssertHeld()` so the static analysis knows).
  void Wait(Mutex* mu) SEEP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock = Adopt(mu);
    cv_.wait(lock);
    Restore(mu, &lock);
  }

  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) SEEP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock = Adopt(mu);
    cv_.wait(lock, WrapPred(mu, pred));
    Restore(mu, &lock);
  }

  /// Bounded wait; returns the predicate's value on exit.
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout,
               Pred pred) SEEP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock = Adopt(mu);
    const bool satisfied = cv_.wait_for(lock, timeout, WrapPred(mu, pred));
    Restore(mu, &lock);
    return satisfied;
  }

 private:
  /// Takes over the already-held native mutex for the duration of a wait.
  /// The holder mark is cleared: while the wait sleeps, the calling thread
  /// genuinely does not hold the mutex.
  static std::unique_lock<std::mutex> Adopt(Mutex* mu)
      SEEP_NO_THREAD_SAFETY_ANALYSIS {
    mu->AssertHeld();
    mu->holder_.store(std::thread::id(), std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(mu->mu_, std::adopt_lock);
  }

  /// Returns the native mutex (reacquired by the wait) to the wrapper.
  static void Restore(Mutex* mu, std::unique_lock<std::mutex>* lock)
      SEEP_NO_THREAD_SAFETY_ANALYSIS {
    mu->holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    lock->release();
  }

  /// Runs the caller's predicate with the holder mark set: the wait holds
  /// the native mutex whenever the predicate runs, so AssertHeld inside
  /// the predicate must succeed.
  template <typename Pred>
  auto WrapPred(Mutex* mu, Pred& pred) {
    return [mu, &pred]() SEEP_NO_THREAD_SAFETY_ANALYSIS {
      mu->holder_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
      const bool satisfied = pred();
      mu->holder_.store(std::thread::id(), std::memory_order_relaxed);
      return satisfied;
    };
  }

  std::condition_variable cv_;
};

// -------------------------------------------------------------- ThreadRole

/// A phantom capability modelling "the calling thread is one of the X
/// threads". Unlike a mutex, several threads may hold the same role at
/// once (each test's driver thread holds DriverThread); what the
/// capability buys is the converse guarantee — code annotated
/// SEEP_RUN_ON(Role) cannot be reached from a thread that never adopted
/// the role, statically under clang and at runtime via AssertOnThread.
class SEEP_CAPABILITY("thread role") ThreadRole {
 public:
  constexpr ThreadRole(const char* name, uint32_t bit)
      : name_(name), bit_(bit) {}
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  /// Marks the calling thread as holding this role until Drop (or forever:
  /// the simulation driver adopts DriverThread once and never drops it).
  /// Adoption is idempotent and thread-local.
  void Adopt() const SEEP_ACQUIRE(this) { tls_roles_ |= bit_; }
  void Drop() const SEEP_RELEASE(this) { tls_roles_ &= ~bit_; }

  /// Whether the calling thread holds this role.
  bool OnThread() const { return (tls_roles_ & bit_) != 0; }

  /// Aborts unless the calling thread holds this role. Statically asserts
  /// the capability — the re-entry idiom for socket callbacks and
  /// simulation events, mirroring Mutex::AssertHeld.
  void AssertOnThread() const SEEP_ASSERT_CAPABILITY(this) {
    if (!OnThread()) {
      std::fprintf(stderr,
                   "SEEP thread-affinity violation: current thread does not "
                   "hold role '%s'\n",
                   name_);
      std::abort();
    }
  }

  const char* name() const { return name_; }

 private:
  const char* const name_;
  const uint32_t bit_;
  // Roles held by the current thread, as a bitmask over ThreadRole bits.
  static thread_local uint32_t tls_roles_;
};

inline thread_local uint32_t ThreadRole::tls_roles_ = 0;

/// The repo's thread roles (DESIGN.md §8 maps state to roles).
inline constexpr ThreadRole DriverThread{"DriverThread", 1u << 0};
inline constexpr ThreadRole StoreCompactorThread{"StoreCompactorThread",
                                                 1u << 1};

/// Scoped role adoption for a thread entry point: the body of the thread
/// (or the scope that is provably confined to it) holds the role.
class SEEP_SCOPED_CAPABILITY ScopedThreadRole {
 public:
  explicit ScopedThreadRole(const ThreadRole& role) SEEP_ACQUIRE(role)
      : role_(role) {
    role_.Adopt();
  }
  ~ScopedThreadRole() SEEP_RELEASE() { role_.Drop(); }

  ScopedThreadRole(const ScopedThreadRole&) = delete;
  ScopedThreadRole& operator=(const ScopedThreadRole&) = delete;

 private:
  const ThreadRole& role_;
};

}  // namespace seep::sync

/// Runtime + static assertion that the enclosing code runs under `role`.
/// Place as the first statement of any function or lambda that touches
/// role-confined state but is reached through a type-erased boundary
/// (std::function, simulation event, socket callback) the static analysis
/// cannot see through.
#define SEEP_ASSERT_RUN_ON(role) (role).AssertOnThread()

#endif  // SEEP_COMMON_SYNC_H_

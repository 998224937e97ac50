#ifndef SEEP_SIM_TASK_H_
#define SEEP_SIM_TASK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace seep::sim {

/// A move-only nullary callable: what the simulation schedules. A closure of
/// up to kInlineBytes whose move cannot throw is placed inside the Task, so
/// scheduling it allocates nothing; a larger one goes to the heap. Unlike
/// std::function, the closure need not be copyable, so payloads move in.
class Task {
 public:
  static constexpr size_t kInlineBytes = 88;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Task> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Task(F&& fn) {  // NOLINT(google-explicit-constructor): as std::function
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Task(Task&& other) noexcept { Take(&other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(&other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Reset(); }

  /// Runs the closure. The Task must not have been moved from.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the closure at `to` and destroys the one at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static Fn* Inline(void* storage) {
    return std::launder(static_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn*& Boxed(void* storage) {
    return *std::launder(static_cast<Fn**>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*Inline<Fn>(s))(); },
      [](void* from, void* to) noexcept {
        Fn* fn = Inline<Fn>(from);
        ::new (to) Fn(std::move(*fn));
        fn->~Fn();
      },
      [](void* s) noexcept { Inline<Fn>(s)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (*Boxed<Fn>(s))(); },
      [](void* from, void* to) noexcept { ::new (to) Fn*(Boxed<Fn>(from)); },
      [](void* s) noexcept { delete Boxed<Fn>(s); }};

  void Take(Task* other) noexcept {
    ops_ = other->ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other->storage_, storage_);
      other->ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace seep::sim

#endif  // SEEP_SIM_TASK_H_

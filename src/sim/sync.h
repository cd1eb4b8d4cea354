// Synchronization primitives for coroutine tasks in simulated time.
//
// All primitives are single-threaded (the DES engine runs one event at a
// time); "blocking" means suspending the coroutine until another task or a
// scheduled callback wakes it. Wakeups go through the event queue at the
// current timestamp, preserving deterministic FIFO ordering.
#ifndef ROS_SRC_SIM_SYNC_H_
#define ROS_SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>

#include "src/common/status.h"
#include "src/sim/simulator.h"

namespace ros::sim {

// A manually-reset event. Wait() suspends until Set() is called; once set,
// waits complete immediately until Reset().
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  void Set() {
    set_ = true;
    WakeAll();
  }

  void Reset() { set_ = false; }

  // Wakes current waiters without latching the event (pulse semantics).
  void Pulse() { WakeAll(); }

  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

 private:
  void WakeAll() {
    while (!waiters_.empty()) {
      sim_.ScheduleHandle(sim_.now(), waiters_.front());
      waiters_.pop_front();
    }
  }

  Simulator& sim_;
  bool set_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO fairness. Used to model pools of scarce
// hardware (optical drives, the robotic arm, RAID volume queue slots).
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t count) : sim_(sim), count_(count) {
    ROS_CHECK(count >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::int64_t available() const { return count_; }
  std::size_t waiters() const { return waiters_.size(); }

  auto Acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const {
        if (sem->count_ > 0 && sem->waiters_.empty()) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  bool TryAcquire() {
    if (count_ > 0 && waiters_.empty()) {
      --count_;
      return true;
    }
    return false;
  }

  void Release() {
    if (!waiters_.empty()) {
      // Hand the permit directly to the oldest waiter.
      sim_.ScheduleHandle(sim_.now(), waiters_.front());
      waiters_.pop_front();
    } else {
      ++count_;
    }
  }

 private:
  Simulator& sim_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Mutual exclusion built on Semaphore, with a co_await-able scoped guard:
//
//   ScopedLock lock = co_await mutex.Lock();
class Mutex {
 public:
  explicit Mutex(Simulator& sim) : sem_(sim, 1) {}

  // No task holds the mutex or waits for it. A release hands the mutex
  // straight to its oldest waiter, so it is idle only when none is left.
  bool idle() const { return sem_.available() > 0; }

  class ScopedLock {
   public:
    explicit ScopedLock(Semaphore* sem) : sem_(sem) {}
    ScopedLock(ScopedLock&& other) noexcept
        : sem_(std::exchange(other.sem_, nullptr)) {}
    ScopedLock& operator=(ScopedLock&& other) noexcept {
      if (this != &other) {
        Unlock();
        sem_ = std::exchange(other.sem_, nullptr);
      }
      return *this;
    }
    ScopedLock(const ScopedLock&) = delete;
    ScopedLock& operator=(const ScopedLock&) = delete;
    ~ScopedLock() { Unlock(); }

    void Unlock() {
      if (sem_ != nullptr) {
        sem_->Release();
        sem_ = nullptr;
      }
    }

   private:
    Semaphore* sem_;
  };

  Task<ScopedLock> Lock() {
    co_await sem_.Acquire();
    co_return ScopedLock(&sem_);
  }

 private:
  Semaphore sem_;
};

// Condition-variable-style wait queue: tasks Wait() until another task
// Notifies. Always re-check the guarded predicate in a loop after waking.
class ConditionVariable {
 public:
  explicit ConditionVariable(Simulator& sim) : event_(sim) {}

  auto Wait() { return event_.Wait(); }
  void NotifyAll() { event_.Pulse(); }

 private:
  Event event_;
};

}  // namespace ros::sim

#endif  // ROS_SRC_SIM_SYNC_H_

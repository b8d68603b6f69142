#pragma once

#include <condition_variable>
#include <mutex>

#include "mst/common/thread_annotations.hpp"

/// \file mutex.hpp
/// `std::mutex` wrapped as an annotated capability, plus its RAII guards
/// and a condition variable that waits on them.
///
/// The standard mutex carries no thread-safety attributes, so Clang's
/// analysis cannot connect a `std::lock_guard` to the members it protects.
/// These wrappers restate the same primitives with the `MST_*` annotations
/// (thread_annotations.hpp); use them for any state shared across the
/// sweep thread pool so the Clang CI job can prove the locking discipline.

namespace mst {

/// A `std::mutex` the thread-safety analysis can see.
class MST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MST_ACQUIRE() { impl_.lock(); }
  void unlock() MST_RELEASE() { impl_.unlock(); }

 private:
  friend class UniqueLock;
  std::mutex impl_;
};

/// RAII lock for `Mutex`; scoped capability, non-movable.
class MST_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) MST_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
  ~LockGuard() MST_RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII lock that may be released and re-acquired inside its scope (for
/// work done unlocked, and for `CondVar::wait`).  The destructor releases
/// the mutex only if it is still held.
class MST_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) MST_ACQUIRE(mutex) : lock_(mutex.impl_) {}
  ~UniqueLock() MST_RELEASE() {}
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() MST_ACQUIRE() { lock_.lock(); }
  void unlock() MST_RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// `std::condition_variable` over a `UniqueLock`.  `wait` atomically
/// releases the lock, blocks, and re-acquires it before returning, so the
/// caller holds the mutex on both sides of the call — as the analysis
/// assumes.  Spurious wakeups happen: wait in a loop on the predicate.
/// Declare it `MST_GUARDED_BY` the mutex its waiters lock, so the analysis
/// also proves every wait and notify happens under that mutex.
class CondVar {
 public:
  void wait(UniqueLock& lock) { impl_.wait(lock.lock_); }
  void notify_all() { impl_.notify_all(); }

 private:
  std::condition_variable impl_;
};

}  // namespace mst

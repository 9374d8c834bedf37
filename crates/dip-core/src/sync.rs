//! Lock acquisition that recovers from poisoning.
//!
//! A `std::sync` lock is poisoned when a thread panics while holding it.
//! Here that happens when planner code panics under a held guard (the
//! offline partition, for one, runs under the partition lock). The locked
//! data itself (plan caches, counters, the warm-start seed, the pinned
//! partition) is only written outside planner code, so such a panic leaves
//! it in a consistent earlier state. [`crate::PlanningSession::plan_many`]
//! confines a planner panic to its own request; taking the poisoned guard
//! over keeps that panic from failing every later call on the session.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, recovering the guard if a panic poisoned it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `lock`, recovering the guard if a panic poisoned it.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering the guard if a panic poisoned it.
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

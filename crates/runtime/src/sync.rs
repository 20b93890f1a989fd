//! Poison-tolerant lock acquisition shared by the runtime's internal
//! `Mutex`-protected state.
//!
//! A poisoned mutex means some thread panicked while holding the lock.
//! For the runtime's bookkeeping state (open batches, metric counters,
//! trace rings, the response registry) the data is still structurally
//! valid — every critical section either completes its update or leaves
//! the previous consistent value — so recovering the guard is strictly
//! better than cascading the panic into unrelated client threads.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Waits on `condvar`, recovering the guard if a previous holder of its
/// mutex panicked.
pub(crate) fn wait_unpoisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner())
}

//! The epoch-size and staleness bounds of worker-pull dispatch.
//!
//! The paper's Fig. 2 argument: undersized blind-rotation batches waste
//! the bootstrapping-key stream (fragmentation), so an epoch should be
//! a full `TvLP × core_batch` whenever the load allows it. The runtime
//! gets there without ever idling a worker: a request joins its
//! tenant's open batch and stays there until a worker asks for work,
//! so while every worker is busy the open batches keep absorbing
//! arrivals, and an idle worker takes what is open at that moment — a
//! batch of one if need be. The policy bounds the epoch size, not the
//! wait.
//!
//! Which open batch a worker takes is decided in this order:
//!
//! 1. **stale** — a tenant whose oldest request was submitted at least
//!    `max_delay` ago, oldest first. Submission time counts, so time a
//!    submitter spent blocked on backpressure counts too. `max_delay`
//!    is a staleness *priority*, never a flush trigger: it only decides
//!    who goes first while workers are scarce.
//! 2. **full** — tenants holding at least one full epoch, round robin
//!    from a rotating cursor, one epoch per visit: a tenant with an
//!    endless backlog cannot monopolise the workers while others hold
//!    full batches.
//! 3. **oldest** — otherwise, the tenant with the oldest request.
//!
//! Epochs never mix tenants (each executes under one tenant's key) and
//! take at most [`FlushPolicy::max_epoch`] requests from the front of
//! the chosen batch, so each tenant's requests execute in admission
//! order.

use std::time::Duration;

use strix_core::BatchGeometry;

/// How the dispatcher sizes and prioritises epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushPolicy {
    /// The largest epoch a worker takes — `TvLP × core_batch` of the
    /// mirrored accelerator config. An open batch this long is *full*.
    pub max_epoch: usize,
    /// Age since submission past which a tenant's open batch is taken
    /// before every fresher one.
    pub max_delay: Duration,
}

impl FlushPolicy {
    /// A policy with the given epoch size and staleness bound.
    pub fn new(max_epoch: usize, max_delay: Duration) -> Self {
        Self { max_epoch, max_delay }
    }

    /// Policy mirroring an accelerator batch geometry with the given
    /// staleness bound.
    pub fn from_geometry(geometry: BatchGeometry, max_delay: Duration) -> Self {
        Self::new(geometry.epoch_size(), max_delay)
    }

    /// Whether an open batch of `len` requests holds a full epoch.
    #[inline]
    pub fn is_full(&self, len: usize) -> bool {
        len >= self.max_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_sets_epoch() {
        let p =
            FlushPolicy::from_geometry(BatchGeometry::explicit(8, 32), Duration::from_millis(5));
        assert_eq!(p.max_epoch, 256);
        assert_eq!(p.max_delay, Duration::from_millis(5));
        assert!(!p.is_full(255));
        assert!(p.is_full(256));
    }
}

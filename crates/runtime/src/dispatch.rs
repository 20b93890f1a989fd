//! Worker-pull dispatch: per-tenant open batches that free workers take
//! their epochs from.
//!
//! [`ClientHandle::submit`](crate::runtime::ClientHandle::submit)
//! admits a request straight into its tenant's open batch, and nothing
//! forms an epoch until a worker asks for one. A free worker calls
//! [`Dispatcher::next_epoch`], which takes what is open at that moment
//! in the [`FlushPolicy`] order — stale, then full round robin, then
//! oldest — even a batch of one, and sleeps only while nothing is
//! pending. A busy worker thus leaves the batches open to absorb
//! arrivals, and no request waits while a worker is idle.
//!
//! The policy is [`OpenBatches`]: plain state with no lock and no clock
//! ([`OpenBatches::take`] is handed `now`), so its tests (under
//! `batcher::tests`) run it on synthetic instants. [`Dispatcher`]
//! guards it with one `Mutex` and two condvars: *work* wakes an idle
//! worker when a request is admitted, *room* wakes submitters blocked
//! on backpressure when a worker takes requests, and close wakes both.
//! After close `submit` fails with [`RuntimeError::Shutdown`], and the
//! workers keep taking until nothing is pending (tests under
//! `queue::tests`).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::error::RuntimeError;
use crate::metrics::MetricsSink;
use crate::policy::FlushPolicy;
use crate::request::{Epoch, Request, TenantId};
use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use crate::trace::{TraceStage, Tracer};

/// One tenant's open batch. Batches persist once created, in
/// first-seen order: tenant counts are small and bounded by the
/// deployment.
struct TenantBatch {
    tenant: TenantId,
    requests: VecDeque<Request>,
}

impl TenantBatch {
    /// Submission time of the batch's oldest request. Admission order
    /// is not submission order — a submitter that blocked on
    /// backpressure holds an older `submitted_at` than requests
    /// admitted before it — so this is the true minimum.
    fn oldest(&self) -> Option<Instant> {
        self.requests.iter().map(|r| r.submitted_at).min()
    }
}

/// The open batches and the policy that takes from them: plain state,
/// no lock and no clock.
pub(crate) struct OpenBatches {
    policy: FlushPolicy,
    /// Per-tenant open batches, in rotation order.
    ring: Vec<TenantBatch>,
    /// Where the next round-robin scan for a full batch starts.
    cursor: usize,
    /// Requests admitted and not yet taken.
    pending: usize,
    /// The largest `pending` ever reached.
    high_water: usize,
    closed: bool,
    next_epoch: u64,
}

impl OpenBatches {
    pub(crate) fn new(policy: FlushPolicy) -> Self {
        Self {
            policy,
            ring: Vec::new(),
            cursor: 0,
            pending: 0,
            high_water: 0,
            closed: false,
            next_epoch: 0,
        }
    }

    /// Appends `request` to its tenant's open batch, stamping
    /// `batched_at` with `now`.
    pub(crate) fn admit(&mut self, mut request: Request, now: Instant) {
        request.batched_at = Some(now);
        self.pending += 1;
        self.high_water = self.high_water.max(self.pending);
        let tenant = request.tenant;
        match self.ring.iter_mut().find(|batch| batch.tenant == tenant) {
            Some(batch) => batch.requests.push_back(request),
            None => self.ring.push(TenantBatch { tenant, requests: VecDeque::from([request]) }),
        }
    }

    /// The next epoch at `now`: at most `max_epoch` requests from the
    /// front of the batch [`Self::pick`] chooses, with the epoch id
    /// assigned and `flushed_at` stamped. `None` exactly when nothing
    /// is pending.
    pub(crate) fn take(&mut self, now: Instant) -> Option<Epoch> {
        let idx = self.pick(now)?;
        let batch = &mut self.ring[idx];
        let len = batch.requests.len().min(self.policy.max_epoch.max(1));
        let mut requests: Vec<Request> = batch.requests.drain(..len).collect();
        for request in &mut requests {
            request.flushed_at = Some(now);
        }
        self.pending -= len;
        let id = self.next_epoch;
        self.next_epoch += 1;
        Some(Epoch { id, tenant: batch.tenant, requests })
    }

    /// The batch to take from at `now`: the one holding the oldest
    /// request if that request is stale, else the next full batch from
    /// the round-robin cursor, else again the one holding the oldest
    /// request.
    fn pick(&mut self, now: Instant) -> Option<usize> {
        let (oldest, submitted_at) = self
            .ring
            .iter()
            .enumerate()
            .filter_map(|(idx, batch)| batch.oldest().map(|at| (idx, at)))
            .min_by_key(|&(_, at)| at)?;
        if now.saturating_duration_since(submitted_at) >= self.policy.max_delay {
            return Some(oldest);
        }
        let n = self.ring.len();
        let full = (0..n).map(|step| (self.cursor + step) % n).find(|&idx| {
            let len = self.ring[idx].requests.len();
            len > 0 && self.policy.is_full(len)
        });
        match full {
            Some(idx) => {
                self.cursor = (idx + 1) % n;
                Some(idx)
            }
            None => Some(oldest),
        }
    }

    /// Marks the batches closed; pending requests stay takeable.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Requests admitted and not yet taken.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// The largest number of requests ever pending at once.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }
}

/// The shared dispatch point between client handles and workers.
pub(crate) struct Dispatcher {
    state: Mutex<OpenBatches>,
    /// Signalled when a request is admitted, and on close.
    work: Condvar,
    /// Signalled when a worker takes requests, and on close.
    room: Condvar,
    /// Pending requests at which `submit` blocks (backpressure).
    ingress_depth: usize,
    max_epoch: usize,
    metrics: Arc<MetricsSink>,
    tracer: Arc<Tracer>,
}

impl Dispatcher {
    pub(crate) fn new(
        policy: FlushPolicy,
        ingress_depth: usize,
        metrics: Arc<MetricsSink>,
        tracer: Arc<Tracer>,
    ) -> Self {
        Self {
            state: Mutex::new(OpenBatches::new(policy)),
            work: Condvar::new(),
            room: Condvar::new(),
            ingress_depth: ingress_depth.max(1),
            max_epoch: policy.max_epoch,
            metrics,
            tracer,
        }
    }

    /// Admits `request` into its tenant's open batch, blocking while
    /// `ingress_depth` requests are pending.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Shutdown`] once the dispatcher is closed —
    /// including for a submitter that was blocked when it closed.
    pub(crate) fn submit(&self, request: Request) -> Result<(), RuntimeError> {
        let (span, client, seq) = (request.span, request.client, request.seq);
        let mut state = lock_unpoisoned(&self.state);
        while !state.is_closed() && state.pending() >= self.ingress_depth {
            state = wait_unpoisoned(&self.room, state);
        }
        if state.is_closed() {
            return Err(RuntimeError::Shutdown);
        }
        let now = Instant::now();
        state.admit(request, now);
        drop(state);
        self.work.notify_one();
        self.tracer.record_at(span, client, seq, None, TraceStage::BatchOpened, now);
        Ok(())
    }

    /// Blocks until a request is pending, then takes the epoch the
    /// policy picks, however small. `None` once the dispatcher is
    /// closed and nothing is pending.
    pub(crate) fn next_epoch(&self) -> Option<Epoch> {
        let mut state = lock_unpoisoned(&self.state);
        let (epoch, now) = loop {
            let now = Instant::now();
            if let Some(epoch) = state.take(now) {
                break (epoch, now);
            }
            if state.is_closed() {
                return None;
            }
            state = wait_unpoisoned(&self.work, state);
        };
        let pending = state.pending();
        drop(state);
        self.room.notify_all();
        self.metrics.record_epoch(epoch.requests.len(), self.max_epoch);
        self.metrics.record_queue_depth(pending);
        for request in &epoch.requests {
            self.tracer.record_at(
                request.span,
                request.client,
                request.seq,
                Some(epoch.id),
                TraceStage::EpochFlushed,
                now,
            );
        }
        Some(epoch)
    }

    /// Closes the dispatcher: further submits fail, blocked submitters
    /// and idle workers wake, and pending requests stay takeable.
    pub(crate) fn close(&self) {
        lock_unpoisoned(&self.state).close();
        self.work.notify_all();
        self.room.notify_all();
    }

    /// Requests admitted and not yet taken.
    pub(crate) fn pending(&self) -> usize {
        lock_unpoisoned(&self.state).pending()
    }

    /// The largest number of requests ever pending at once.
    pub(crate) fn high_water(&self) -> usize {
        lock_unpoisoned(&self.state).high_water()
    }

    /// The epoch capacity occupancy is measured against.
    pub(crate) fn max_epoch(&self) -> usize {
        self.max_epoch
    }
}

//! The dispatch policy on a virtual clock: `OpenBatches::take` is
//! handed `now`, so every schedule here runs on synthetic instants,
//! without sleeps.

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::{Duration, Instant};

    use strix_tfhe::lwe::LweCiphertext;

    use crate::dispatch::OpenBatches;
    use crate::policy::FlushPolicy;
    use crate::request::{ClientId, Epoch, Request, RequestOp, TenantId};
    use crate::trace::SpanId;

    /// Far enough that nothing goes stale.
    const NEVER: Duration = Duration::from_secs(1000);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Request `seq` of `tenant`, submitted at `at`.
    fn request(seq: u64, tenant: u64, at: Instant) -> Request {
        let mut request = Request::new(
            ClientId(0),
            seq,
            SpanId(seq),
            LweCiphertext::trivial(4, 0),
            RequestOp::Keyswitch,
        )
        .with_tenant(TenantId(tenant));
        request.submitted_at = at;
        request
    }

    fn seqs(epoch: &Epoch) -> Vec<u64> {
        epoch.requests.iter().map(|r| r.seq).collect()
    }

    /// Takes epochs at `now` until nothing is pending.
    fn drain(open: &mut OpenBatches, now: Instant) -> Vec<Epoch> {
        std::iter::from_fn(|| open.take(now)).collect()
    }

    #[test]
    fn flushes_on_batch_full() {
        let t0 = Instant::now();
        let mut open = OpenBatches::new(FlushPolicy::new(4, NEVER));
        for seq in 0..8 {
            open.admit(request(seq, 0, t0), t0);
        }
        let epochs = drain(&mut open, t0);
        assert_eq!(epochs.iter().map(|e| e.id).collect::<Vec<_>>(), [0, 1]);
        // Admission order is preserved across the epoch boundary.
        assert_eq!(seqs(&epochs[0]), [0, 1, 2, 3]);
        assert_eq!(seqs(&epochs[1]), [4, 5, 6, 7]);
        assert_eq!((open.pending(), open.high_water()), (0, 8));
    }

    #[test]
    fn flushes_on_deadline_when_undersized() {
        // A lone request is taken the instant a worker asks — there is no
        // deadline to wait out — and once an undersized batch is stale it
        // goes before a fresh full one.
        let t0 = Instant::now();
        let mut open = OpenBatches::new(FlushPolicy::new(2, ms(20)));
        open.admit(request(0, 1, t0), t0);
        assert_eq!(open.take(t0).map(|e| seqs(&e)), Some(vec![0]));
        open.admit(request(1, 1, t0), t0);
        let later = t0 + ms(20);
        open.admit(request(2, 2, later), later);
        open.admit(request(3, 2, later), later);
        let tenants: Vec<u64> = drain(&mut open, later).iter().map(|e| e.tenant.0).collect();
        assert_eq!(tenants, [1, 2]);
    }

    #[test]
    fn deadline_counts_from_submission_not_batch_open() {
        // A request whose submitter blocked on backpressure for 2 s is
        // stale the moment it is admitted and goes before a fresh
        // tenant's full batch; a fresh lone request (tenant 2) does not.
        let t0 = Instant::now();
        let now = t0 + Duration::from_secs(2);
        let mut open = OpenBatches::new(FlushPolicy::new(2, ms(500)));
        open.admit(request(0, 1, now), now);
        open.admit(request(1, 1, now), now);
        open.admit(request(2, 2, now - ms(10)), now);
        open.admit(request(3, 3, t0), now);
        let tenants: Vec<u64> = drain(&mut open, now).iter().map(|e| e.tenant.0).collect();
        assert_eq!(tenants, [3, 1, 2]);
    }

    #[test]
    fn aged_backlog_fills_epochs_instead_of_singleton_flushes() {
        // Staleness decides which batch goes first, never how much of it:
        // 8 aged requests at max_epoch 4 form 2 full epochs.
        let t0 = Instant::now();
        let now = t0 + Duration::from_secs(2);
        let mut open = OpenBatches::new(FlushPolicy::new(4, ms(100)));
        for seq in 0..8 {
            open.admit(request(seq, 0, t0), now);
        }
        let epochs = drain(&mut open, now);
        assert_eq!(epochs.iter().map(|e| e.requests.len()).collect::<Vec<_>>(), [4, 4]);
        assert_eq!(seqs(&epochs[0]), [0, 1, 2, 3]);
    }

    #[test]
    fn flush_stamps_batch_and_flush_times() {
        let t0 = Instant::now();
        let mut open = OpenBatches::new(FlushPolicy::new(2, NEVER));
        open.admit(request(0, 0, t0), t0 + ms(1));
        let epoch = open.take(t0 + ms(5)).expect("pending work is taken");
        let r = &epoch.requests[0];
        assert_eq!((r.batched_at, r.flushed_at), (Some(t0 + ms(1)), Some(t0 + ms(5))));
    }

    #[test]
    fn close_flushes_remainder_and_closes_epochs() {
        // Closing stops admissions upstream but leaves every pending
        // request takeable; an undersized remainder goes out as is.
        let t0 = Instant::now();
        let mut open = OpenBatches::new(FlushPolicy::new(64, NEVER));
        for seq in 0..5 {
            open.admit(request(seq, 0, t0), t0);
        }
        open.close();
        assert!(open.is_closed());
        let epochs = drain(&mut open, t0);
        assert_eq!(epochs.iter().map(|e| e.requests.len()).collect::<Vec<_>>(), [5]);
        assert!(open.take(t0).is_none());
    }

    #[test]
    fn tenants_never_share_an_epoch() {
        // Interleaved arrivals from two tenants partition into
        // single-tenant epochs with per-tenant arrival order intact.
        let t0 = Instant::now();
        let mut open = OpenBatches::new(FlushPolicy::new(4, NEVER));
        for seq in 0..8u64 {
            for t in [1u64, 2] {
                open.admit(request(seq * 2 + t, t, t0), t0);
            }
        }
        let epochs = drain(&mut open, t0);
        assert_eq!(epochs.len(), 4, "8 + 8 requests at max_epoch 4");
        let mut per_tenant: HashMap<u64, Vec<u64>> = HashMap::new();
        for epoch in &epochs {
            assert!(
                epoch.requests.iter().all(|r| r.tenant == epoch.tenant),
                "epoch {} mixes tenants",
                epoch.id
            );
            per_tenant.entry(epoch.tenant.0).or_default().extend(seqs(epoch));
        }
        for t in [1u64, 2] {
            let seqs = &per_tenant[&t];
            assert_eq!(seqs.len(), 8);
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "tenant {t} order broken: {seqs:?}");
        }
    }

    #[test]
    fn full_tenants_flush_in_rotation() {
        // Tenant 0 holds three full epochs and tenant 1 one: the rotation
        // alternates instead of draining tenant 0 first.
        let t0 = Instant::now();
        let mut open = OpenBatches::new(FlushPolicy::new(2, NEVER));
        for seq in 0..6 {
            open.admit(request(seq, 0, t0), t0);
        }
        for seq in 6..8 {
            open.admit(request(seq, 1, t0), t0);
        }
        let tenants: Vec<u64> = drain(&mut open, t0).iter().map(|e| e.tenant.0).collect();
        assert_eq!(tenants, [0, 1, 0, 0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, HashSet, VecDeque};

        /// [`OpenBatches`] beside a model of what every take must
        /// satisfy.
        struct Checked {
            open: OpenBatches,
            policy: FlushPolicy,
            /// Per tenant, `(seq, submitted_at)` of each pending request
            /// in admission order.
            shadow: BTreeMap<u64, VecDeque<(u64, Instant)>>,
            /// Per tenant, the tenants that held a full batch when it last
            /// took a full epoch and have not been taken since.
            owed: HashMap<u64, HashSet<u64>>,
            next_seq: u64,
        }

        impl Checked {
            fn new(policy: FlushPolicy) -> Self {
                Self {
                    open: OpenBatches::new(policy),
                    policy,
                    shadow: BTreeMap::new(),
                    owed: HashMap::new(),
                    next_seq: 0,
                }
            }

            fn admit(&mut self, tenant: u64, submitted_at: Instant, now: Instant) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.open.admit(request(seq, tenant, submitted_at), now);
                self.shadow.entry(tenant).or_default().push_back((seq, submitted_at));
            }

            /// Takes one epoch at `now` and checks it against the model;
            /// false when nothing was pending.
            fn take(&mut self, now: Instant) -> bool {
                let pending: usize = self.shadow.values().map(VecDeque::len).sum();
                assert_eq!(self.open.pending(), pending);
                let oldest: BTreeMap<u64, Instant> = self
                    .shadow
                    .iter()
                    .filter_map(|(&t, queue)| {
                        queue.iter().map(|&(_, at)| at).min().map(|at| (t, at))
                    })
                    .collect();
                let full: HashSet<u64> = self
                    .shadow
                    .iter()
                    .filter(|(_, queue)| !queue.is_empty() && self.policy.is_full(queue.len()))
                    .map(|(&t, _)| t)
                    .collect();
                let Some(epoch) = self.open.take(now) else {
                    // Work conservation.
                    assert_eq!(pending, 0, "{pending} requests pending, nothing taken");
                    return false;
                };
                let tenant = epoch.tenant.0;
                assert!(!epoch.requests.is_empty());
                assert!(epoch.requests.len() <= self.policy.max_epoch);
                assert!(
                    epoch.requests.iter().all(|r| r.tenant == epoch.tenant),
                    "epoch {} mixes tenants",
                    epoch.id
                );
                // Per-tenant FIFO with nothing lost or duplicated: the
                // epoch is exactly the front of its tenant's queue.
                let queue = self.shadow.get_mut(&tenant).expect("taken tenant had work");
                let front: Vec<u64> =
                    queue.drain(..epoch.requests.len()).map(|(seq, _)| seq).collect();
                assert_eq!(seqs(&epoch), front, "tenant {tenant} out of admission order");
                let first = *oldest.values().min().expect("something was pending");
                if now.saturating_duration_since(first) >= self.policy.max_delay || full.is_empty()
                {
                    // Bounded staleness (and, with no full batch, oldest
                    // first): no older request waits behind this epoch.
                    assert_eq!(oldest[&tenant], first, "tenant {tenant} jumped an older request");
                } else {
                    // Round robin among full batches: a tenant takes a
                    // second full epoch only after every tenant that was
                    // full at its first has been taken.
                    assert!(full.contains(&tenant), "a partial batch beat a full one");
                    let waiting = self.owed.entry(tenant).or_default();
                    assert!(waiting.is_empty(), "tenant {tenant} went again before {waiting:?}");
                    *waiting = full.iter().copied().filter(|&t| t != tenant).collect();
                }
                for waiting in self.owed.values_mut() {
                    waiting.remove(&tenant);
                }
                true
            }
        }

        proptest! {
            #[test]
            fn epochs_never_mix_tenants_and_preserve_per_tenant_order(
                tenants in prop::collection::vec(0u64..4, 1..80),
                max_epoch in 1usize..8,
            ) {
                let t0 = Instant::now();
                let mut open = OpenBatches::new(FlushPolicy::new(max_epoch, NEVER));
                for (seq, &t) in tenants.iter().enumerate() {
                    open.admit(request(seq as u64, t, t0), t0);
                }
                open.close();
                let mut per_tenant: HashMap<u64, Vec<u64>> = HashMap::new();
                for epoch in drain(&mut open, t0) {
                    prop_assert!(!epoch.requests.is_empty());
                    prop_assert!(epoch.requests.len() <= max_epoch);
                    prop_assert!(
                        epoch.requests.iter().all(|r| r.tenant == epoch.tenant),
                        "epoch {} mixes tenants",
                        epoch.id
                    );
                    per_tenant.entry(epoch.tenant.0).or_default().extend(seqs(&epoch));
                }
                // Nothing lost, nothing duplicated, and every tenant's
                // requests go out in their arrival order.
                let mut expected: HashMap<u64, Vec<u64>> = HashMap::new();
                for (seq, &t) in tenants.iter().enumerate() {
                    expected.entry(t).or_default().push(seq as u64);
                }
                prop_assert_eq!(per_tenant, expected);
            }

            #[test]
            fn drr_rotation_bounds_every_tenants_wait(
                tenant_count in 2usize..5,
                max_epoch in 1usize..5,
                epochs_per_tenant in 1usize..4,
            ) {
                // Equal backlogs admitted round robin: full epochs go out
                // round robin too, so at any prefix of the take order no
                // tenant is more than one epoch ahead of another.
                let t0 = Instant::now();
                let mut open = OpenBatches::new(FlushPolicy::new(max_epoch, NEVER));
                let mut seq = 0u64;
                for _ in 0..epochs_per_tenant * max_epoch {
                    for t in 0..tenant_count as u64 {
                        open.admit(request(seq, t, t0), t0);
                        seq += 1;
                    }
                }
                let epochs = drain(&mut open, t0);
                prop_assert_eq!(epochs.len(), tenant_count * epochs_per_tenant);
                let mut counts = vec![0usize; tenant_count];
                for epoch in &epochs {
                    prop_assert_eq!(epoch.requests.len(), max_epoch, "backlogged epochs are full");
                    counts[epoch.tenant.0 as usize] += 1;
                    let lo = counts.iter().copied().min().unwrap_or(0);
                    let hi = counts.iter().copied().max().unwrap_or(0);
                    prop_assert!(hi - lo <= 1, "unfair epoch prefix: {:?}", counts);
                }
            }

            #[test]
            fn random_scripts_keep_every_dispatch_invariant(
                script in prop::collection::vec((0u8..10, 0u64..4, 0u64..40), 1..160),
                max_epoch in 1usize..6,
                delay_ms in 1u64..60,
            ) {
                // Admissions (submitted up to 40 ms before they are
                // admitted, as after a backpressure wait), takes, clock
                // steps and a close in random order on a virtual clock,
                // then a drain; `Checked::take` asserts every invariant.
                let t0 = Instant::now();
                let mut clock = Duration::ZERO;
                let mut model = Checked::new(FlushPolicy::new(max_epoch, ms(delay_ms)));
                for &(op, tenant, step) in &script {
                    let now = t0 + clock;
                    match op {
                        0..=4 => {
                            if !model.open.is_closed() {
                                model.admit(tenant, t0 + clock.saturating_sub(ms(step)), now);
                            }
                        }
                        5..=7 => {
                            model.take(now);
                        }
                        8 => clock += ms(step),
                        _ => model.open.close(),
                    }
                }
                model.open.close();
                while model.take(t0 + clock) {}
                prop_assert!(model.shadow.values().all(VecDeque::is_empty), "requests lost");
            }
        }
    }
}

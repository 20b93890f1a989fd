//! Admission, backpressure and shutdown of the dispatcher across
//! threads.

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use strix_tfhe::lwe::LweCiphertext;

    use crate::dispatch::Dispatcher;
    use crate::error::RuntimeError;
    use crate::metrics::MetricsSink;
    use crate::policy::FlushPolicy;
    use crate::request::{ClientId, Epoch, Request, RequestOp};
    use crate::trace::{SpanId, Tracer};

    fn request(seq: u64) -> Request {
        Request::new(
            ClientId(0),
            seq,
            SpanId(seq),
            LweCiphertext::trivial(4, 0),
            RequestOp::Keyswitch,
        )
    }

    /// A dispatcher taking epochs of up to `max_epoch` that blocks
    /// submitters at `depth` pending requests; nothing goes stale.
    fn dispatcher(max_epoch: usize, depth: usize) -> Arc<Dispatcher> {
        Arc::new(Dispatcher::new(
            FlushPolicy::new(max_epoch, Duration::from_secs(1000)),
            depth,
            Arc::new(MetricsSink::default()),
            Arc::new(Tracer::default()),
        ))
    }

    fn seqs(epoch: Epoch) -> Vec<u64> {
        epoch.requests.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn fifo_order() {
        let d = dispatcher(8, 8);
        for seq in 0..5 {
            d.submit(request(seq)).unwrap();
        }
        assert_eq!(d.next_epoch().map(seqs), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let d = dispatcher(8, 8);
        d.submit(request(1)).unwrap();
        d.submit(request(2)).unwrap();
        d.close();
        assert!(matches!(d.submit(request(3)), Err(RuntimeError::Shutdown)));
        assert_eq!(d.next_epoch().map(seqs), Some(vec![1, 2]));
        assert!(d.next_epoch().is_none());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let d = dispatcher(2, 8);
        assert_eq!(d.high_water(), 0);
        for seq in 0..3 {
            d.submit(request(seq)).unwrap();
        }
        assert_eq!(d.high_water(), 3);
        d.next_epoch().unwrap();
        assert_eq!(d.pending(), 1);
        // Taking never lowers the mark...
        assert_eq!(d.high_water(), 3);
        d.submit(request(3)).unwrap();
        // ...and refilling below the peak doesn't move it either.
        assert_eq!(d.high_water(), 3);
    }

    #[test]
    fn full_queue_blocks_until_pop() {
        // At `depth` pending requests a submitter waits until a worker
        // takes some: the second request is admitted only after the first
        // was taken, so the depth never exceeds one. (Whether the
        // submitter parks before or after the take, the outcome is the
        // same.)
        let d = dispatcher(4, 1);
        d.submit(request(0)).unwrap();
        let submitter = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.submit(request(1)))
        };
        assert_eq!(d.next_epoch().map(seqs), Some(vec![0]));
        submitter.join().unwrap().expect("admitted once a worker made room");
        assert_eq!(d.next_epoch().map(seqs), Some(vec![1]));
        assert_eq!(d.high_water(), 1);
    }

    #[test]
    fn close_wakes_blocked_push_with_the_item() {
        // A submitter blocked on backpressure when the dispatcher closes
        // gets `Shutdown` — never a deadlock, never a late admission —
        // and the request admitted before the close still drains. The
        // sleep only makes it likely the submitter is parked by then; if
        // it arrives after the close it meets the closed flag first, with
        // the same outcome.
        let d = dispatcher(4, 1);
        d.submit(request(0)).unwrap();
        let submitter = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.submit(request(1)))
        };
        std::thread::sleep(Duration::from_millis(30));
        d.close();
        assert!(matches!(submitter.join().unwrap(), Err(RuntimeError::Shutdown)));
        assert_eq!(d.next_epoch().map(seqs), Some(vec![0]));
        assert!(d.next_epoch().is_none());
    }

    #[test]
    fn close_wakes_blocked_pop_after_drain() {
        // The mirror race: a worker waiting for work when the dispatcher
        // closes must see the end of the stream, not hang.
        let d = dispatcher(4, 4);
        let worker = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.next_epoch().map(seqs))
        };
        std::thread::sleep(Duration::from_millis(30));
        d.close();
        assert_eq!(worker.join().unwrap(), None);
    }

    #[test]
    fn shutdown_race_accounts_for_every_item() {
        // Concurrent submitters against a mid-stream close: every submit
        // is either admitted — and then taken exactly once — or refused
        // with `Shutdown`. A depth of 2 keeps submitters blocking on
        // backpressure, so the close also meets parked submits.
        //
        // Deterministic by construction: the worker itself closes once it
        // has taken CLOSE_AFTER requests and keeps taking until the stream
        // ends. By then at most CLOSE_AFTER + 2 were taken (one epoch of
        // 3 past the mark) and 2 more pending, so all but
        // CLOSE_AFTER + 4 of the 2000 attempted submits must be refused.
        const SUBMITTERS: u64 = 4;
        const PER_SUBMITTER: u64 = 500;
        const CLOSE_AFTER: usize = 500;
        let d = dispatcher(3, 2);
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let (mut admitted, mut refused) = (Vec::new(), Vec::new());
                    for i in 0..PER_SUBMITTER {
                        let seq = s * PER_SUBMITTER + i;
                        match d.submit(request(seq)) {
                            Ok(()) => admitted.push(seq),
                            Err(RuntimeError::Shutdown) => refused.push(seq),
                            Err(other) => panic!("unexpected submit error {other:?}"),
                        }
                    }
                    (admitted, refused)
                })
            })
            .collect();
        let worker = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let mut taken = Vec::new();
                while let Some(epoch) = d.next_epoch() {
                    taken.extend(seqs(epoch));
                    if taken.len() >= CLOSE_AFTER {
                        d.close();
                    }
                }
                taken
            })
        };
        let (mut admitted, mut refused) = (Vec::new(), Vec::new());
        for submitter in submitters {
            let (a, r) = submitter.join().unwrap();
            admitted.extend(a);
            refused.extend(r);
        }
        let mut taken = worker.join().unwrap();
        let total = (SUBMITTERS * PER_SUBMITTER) as usize;
        assert!(refused.len() >= total - CLOSE_AFTER - 4, "only {} refused", refused.len());
        // Every admitted request was taken exactly once, and every
        // attempted submit is accounted for exactly once.
        admitted.sort_unstable();
        taken.sort_unstable();
        assert_eq!(taken, admitted);
        let mut seen = [admitted, refused].concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..total as u64).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_handoff() {
        let d = dispatcher(4, 4);
        let producer = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                for seq in 0..100 {
                    d.submit(request(seq)).unwrap();
                }
                d.close();
            })
        };
        let mut seen = Vec::new();
        while let Some(epoch) = d.next_epoch() {
            seen.extend(seqs(epoch));
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }
}

//! The worker pool: executes epochs and routes responses.
//!
//! Each worker pulls its next epoch from the dispatcher the moment it
//! is free, runs it through the [`BatchExecutor`], records metrics and
//! delivers each response to its client's channel. Multiple workers
//! may complete epochs out of take order — the per-client reorder
//! buffer in [`ClientHandle`](crate::runtime::ClientHandle) restores
//! per-client sequencing at the receive side.

use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::error::RuntimeError;
use crate::executor::BatchExecutor;
use crate::metrics::{MetricsSink, RequestRecord};
use crate::request::{ClientId, Epoch, Response};
use crate::sync::lock_unpoisoned;
use crate::trace::{TraceStage, Tracer};

/// Routes responses to per-client channels.
#[derive(Default)]
pub(crate) struct ClientRegistry {
    senders: Mutex<HashMap<ClientId, Sender<Response>>>,
}

impl ClientRegistry {
    pub(crate) fn register(&self, id: ClientId, tx: Sender<Response>) {
        lock_unpoisoned(&self.senders).insert(id, tx);
    }

    pub(crate) fn deregister(&self, id: ClientId) {
        lock_unpoisoned(&self.senders).remove(&id);
    }

    /// Drops every sender. Called after the workers have drained and
    /// joined: receivers then observe disconnection once their
    /// buffered responses are consumed, which is what lets
    /// `ClientHandle::recv` report shutdown instead of blocking.
    pub(crate) fn clear(&self) {
        lock_unpoisoned(&self.senders).clear();
    }

    fn deliver(&self, response: Response) {
        let senders = lock_unpoisoned(&self.senders);
        if let Some(tx) = senders.get(&response.client) {
            // A dropped handle just discards its remaining responses.
            let _ = tx.send(response);
        }
    }
}

/// Executes every epoch `epochs` yields, in order, delivering each
/// response; returns when `epochs` ends. A runtime worker passes the
/// dispatcher's blocking epoch stream, which ends on shutdown once
/// nothing is pending.
pub(crate) fn run(
    epochs: impl IntoIterator<Item = Epoch>,
    executor: Arc<dyn BatchExecutor>,
    registry: Arc<ClientRegistry>,
    metrics: Arc<MetricsSink>,
    tracer: Arc<Tracer>,
    profile_every: u64,
) {
    for epoch in epochs {
        let expected = epoch.requests.len();
        // Thread usage scales with the PBS-bearing subset of the epoch
        // (keyswitch-only requests never shard), so record against that
        // count, not the raw epoch size.
        let pbs_len = epoch.requests.iter().filter(|r| r.op.is_pbs()).count();
        metrics.record_epoch_threads(executor.planned_threads(pbs_len), executor.max_threads());
        // Sampling decision: every `profile_every`-th epoch (by flush
        // id, so it's deterministic and uniform across workers with no
        // shared counter) runs the probed production kernel and feeds
        // the per-stage breakdown. 0 disables sampling entirely.
        let profiled = profile_every > 0 && epoch.id % profile_every == 0;
        let execution = executor.execute_epoch(&epoch.requests, profiled);
        if let Some((timings, pbs_jobs)) = &execution.stage_sample {
            metrics.record_stage_sample(timings, *pbs_jobs);
        }
        // Per-kernel dispatch accounting: which kernel the epoch's PBS
        // jobs ran through (the epoch key's own).
        let [classical_jobs, multi_bit_jobs] = execution.kernel_jobs;
        if classical_jobs + multi_bit_jobs > 0 {
            metrics.record_kernel_jobs(classical_jobs, multi_bit_jobs);
        }
        // The epoch-level execution timeline applies to every
        // PBS-bearing span in the epoch: the batched blind rotation and
        // the batched keyswitch tail are shared work, so each traced
        // request shows the same pbs/keyswitch sub-slices.
        for request in epoch.requests.iter().filter(|r| r.op.is_pbs()) {
            for (span, stage) in [
                (execution.pbs_span, (TraceStage::PbsStart, TraceStage::PbsEnd)),
                (execution.ks_span, (TraceStage::KsStart, TraceStage::KsEnd)),
            ] {
                if let Some((t0, t1)) = span {
                    let id = Some(epoch.id);
                    tracer.record_at(request.span, request.client, request.seq, id, stage.0, t0);
                    tracer.record_at(request.span, request.client, request.seq, id, stage.1, t1);
                }
            }
        }
        let mut results: Vec<Result<_, RuntimeError>> =
            execution.results.into_iter().map(|r| r.map_err(RuntimeError::Tfhe)).collect();
        // An executor that breaks its one-result-per-request contract
        // must not strand clients: surplus results are dropped, missing
        // ones surface as explicit losses.
        results.truncate(expected);
        results.resize_with(expected, || Err(RuntimeError::Lost));
        for (request, result) in epoch.requests.into_iter().zip(results) {
            let completed_at = Instant::now();
            let latency = completed_at.saturating_duration_since(request.submitted_at);
            // The dispatcher stamps both waypoints; epochs injected by
            // tests may omit them, in which case the missing interval
            // collapses to zero rather than inventing time.
            let batched = request.batched_at.unwrap_or(request.submitted_at);
            let flushed = request.flushed_at.unwrap_or(batched);
            metrics.record_request(RequestRecord {
                submitted_at: request.submitted_at,
                latency,
                queue_wait: batched.saturating_duration_since(request.submitted_at),
                batch_wait: flushed.saturating_duration_since(batched),
                execute: completed_at.saturating_duration_since(flushed),
                class: request.op.class(),
                fused_linear: request.op.is_fused_linear(),
                ok: result.is_ok(),
            });
            tracer.record_at(
                request.span,
                request.client,
                request.seq,
                Some(epoch.id),
                TraceStage::Completed,
                completed_at,
            );
            registry.deliver(Response {
                client: request.client,
                seq: request.seq,
                span: request.span,
                result,
                latency,
                epoch: epoch.id,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use strix_tfhe::lwe::LweCiphertext;
    use strix_tfhe::TfheError;

    use crate::request::{Request, RequestOp, TenantId};
    use crate::trace::SpanId;

    /// Echoes the input ciphertext back; fails on dimension 0.
    struct EchoExecutor;

    impl BatchExecutor for EchoExecutor {
        fn execute(&self, batch: &[Request]) -> Vec<Result<LweCiphertext, TfheError>> {
            batch
                .iter()
                .map(|r| {
                    if r.ct.dimension() == 0 {
                        Err(TfheError::InvalidParameters("zero dimension"))
                    } else {
                        Ok(r.ct.clone())
                    }
                })
                .collect()
        }
    }

    #[test]
    fn worker_delivers_to_the_right_client() {
        let registry = Arc::new(ClientRegistry::default());
        let metrics = Arc::new(MetricsSink::default());
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        registry.register(ClientId(1), tx_a);
        registry.register(ClientId(2), tx_b);

        let make = |client: u64, seq: u64, body: u64| {
            Request::new(
                ClientId(client),
                seq,
                SpanId(client * 100 + seq),
                LweCiphertext::trivial(4, body),
                RequestOp::Keyswitch,
            )
        };
        let epoch = Epoch {
            id: 0,
            tenant: TenantId::default(),
            requests: vec![make(1, 0, 10), make(2, 0, 20), make(1, 1, 11)],
        };

        run(
            [epoch],
            Arc::new(EchoExecutor),
            Arc::clone(&registry),
            Arc::clone(&metrics),
            Arc::new(Tracer::default()),
            0,
        );

        let a0 = rx_a.recv().unwrap();
        let a1 = rx_a.recv().unwrap();
        let b0 = rx_b.recv().unwrap();
        assert_eq!((a0.seq, a0.result.unwrap().body()), (0, 10));
        assert_eq!((a1.seq, a1.result.unwrap().body()), (1, 11));
        assert_eq!((b0.seq, b0.result.unwrap().body()), (0, 20));
        assert_eq!(metrics.report(3).requests_completed, 3);
    }

    /// Violates the executor contract: returns one result too few.
    struct ShortExecutor;

    impl BatchExecutor for ShortExecutor {
        fn execute(&self, batch: &[Request]) -> Vec<Result<LweCiphertext, TfheError>> {
            batch.iter().take(batch.len().saturating_sub(1)).map(|r| Ok(r.ct.clone())).collect()
        }
    }

    #[test]
    fn short_executor_results_surface_as_losses_not_hangs() {
        let registry = Arc::new(ClientRegistry::default());
        let metrics = Arc::new(MetricsSink::default());
        let (tx, rx) = mpsc::channel();
        registry.register(ClientId(1), tx);
        let make = |seq: u64| {
            Request::new(
                ClientId(1),
                seq,
                SpanId(seq),
                LweCiphertext::trivial(4, seq),
                RequestOp::Keyswitch,
            )
        };
        run(
            [Epoch { id: 0, tenant: TenantId::default(), requests: vec![make(0), make(1)] }],
            Arc::new(ShortExecutor),
            registry,
            Arc::clone(&metrics),
            Arc::new(Tracer::default()),
            0,
        );

        let first = rx.recv().unwrap();
        assert!(first.result.is_ok());
        let second = rx.recv().unwrap();
        assert_eq!(second.seq, 1);
        assert!(matches!(second.result, Err(RuntimeError::Lost)), "missing result must surface");
        let report = metrics.report(2);
        assert_eq!(report.requests_completed, 1);
        assert_eq!(report.requests_failed, 1);
    }

    #[test]
    fn dropped_client_does_not_wedge_the_worker() {
        let registry = Arc::new(ClientRegistry::default());
        let metrics = Arc::new(MetricsSink::default());
        // No registered client at all.
        let epoch = Epoch {
            id: 0,
            tenant: TenantId::default(),
            requests: vec![Request::new(
                ClientId(9),
                0,
                SpanId(0),
                LweCiphertext::trivial(4, 1),
                RequestOp::Keyswitch,
            )],
        };
        run(
            [epoch],
            Arc::new(EchoExecutor),
            registry,
            Arc::clone(&metrics),
            Arc::new(Tracer::default()),
            0,
        );
        assert_eq!(metrics.report(1).requests_completed, 1);
    }

    /// Counts how often it was asked for a profiled execution.
    struct ProfileCountingExecutor(Mutex<Vec<(u64, bool)>>);

    impl BatchExecutor for ProfileCountingExecutor {
        fn execute(&self, batch: &[Request]) -> Vec<Result<LweCiphertext, TfheError>> {
            batch.iter().map(|r| Ok(r.ct.clone())).collect()
        }

        fn execute_epoch(
            &self,
            batch: &[Request],
            profiled: bool,
        ) -> crate::executor::EpochExecution {
            self.0.lock().unwrap().push((batch[0].seq, profiled));
            crate::executor::EpochExecution::from_results(self.execute(batch))
        }
    }

    #[test]
    fn every_nth_epoch_is_profiled() {
        let registry = Arc::new(ClientRegistry::default());
        let metrics = Arc::new(MetricsSink::default());
        let exec = Arc::new(ProfileCountingExecutor(Mutex::new(Vec::new())));
        let epochs = (0..6u64).map(|id| Epoch {
            id,
            tenant: TenantId::default(),
            requests: vec![Request::new(
                ClientId(1),
                id,
                SpanId(id),
                LweCiphertext::trivial(4, 0),
                RequestOp::Keyswitch,
            )],
        });
        run(
            epochs,
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
            registry,
            metrics,
            Arc::new(Tracer::default()),
            3,
        );
        let seen = exec.0.lock().unwrap().clone();
        let profiled: Vec<bool> = seen.iter().map(|&(_, p)| p).collect();
        assert_eq!(profiled, [true, false, false, true, false, false]);
    }
}

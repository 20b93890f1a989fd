//! Integration tests of the streaming runtime: per-client ordering and
//! correctness under bursty open-loop arrivals, batch occupancy under
//! saturation, lossless drain-on-shutdown, and submitters racing
//! shutdown.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strix::core::BatchGeometry;
use strix::runtime::{
    ArrivalProcess, BatchExecutor, OpenLoopTrafficGen, Request, RequestOp, Runtime, RuntimeConfig,
    RuntimeError, TfheExecutor, TraceStage, REPORT_SCHEMA_VERSION,
};
use strix::tfhe::bootstrap::Lut;
use strix::tfhe::lwe::LweCiphertext;
use strix::tfhe::prelude::*;
use strix::tfhe::TfheError;

/// A scheduling-only executor: echoes inputs back after a fixed delay,
/// so tests can control the compute/arrival speed ratio without paying
/// for real bootstraps.
struct SlowEchoExecutor {
    delay: Duration,
}

impl BatchExecutor for SlowEchoExecutor {
    fn execute(&self, batch: &[Request]) -> Vec<Result<LweCiphertext, TfheError>> {
        std::thread::sleep(self.delay);
        batch.iter().map(|r| Ok(r.ct.clone())).collect()
    }
}

#[test]
fn bursty_multi_client_streams_stay_ordered_and_correct() {
    const CLIENTS: u64 = 4;
    const PER_CLIENT: usize = 12;
    const BITS: u32 = 3;

    let params = TfheParameters::testing_fast();
    let (client_key, server_key) = generate_keys(&params, 0xB0257);
    let runtime = Runtime::start(
        RuntimeConfig::new(BatchGeometry::explicit(2, 4))
            .with_max_delay(Duration::from_millis(3))
            .with_workers(3),
        TfheExecutor::new(Arc::new(server_key)),
    );
    // Each client evaluates its own function, so a cross-client mixup
    // would also corrupt values, not just ordering.
    let luts: Vec<Arc<Lut>> = (0..CLIENTS)
        .map(|c| {
            Arc::new(
                Lut::from_function(params.polynomial_size, BITS, move |m| (m + c) % 8).unwrap(),
            )
        })
        .collect();
    let traffic = OpenLoopTrafficGen::new(
        ArrivalProcess::Bursty { burst: 5, rate_hz: 5_000.0, idle: Duration::from_millis(8) },
        99,
    );

    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let mut handle = runtime.client();
            let mut key = client_key.clone();
            let lut = Arc::clone(&luts[client_idx as usize]);
            let delays = traffic.inter_arrivals(client_idx, PER_CLIENT);
            scope.spawn(move || {
                for (i, delay) in delays.iter().enumerate() {
                    std::thread::sleep(*delay);
                    let m = (3 * client_idx + i as u64) % 8;
                    let ct = key.encrypt_shortint(m, BITS).unwrap().as_lwe().clone();
                    handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).unwrap();
                }
                for i in 0..PER_CLIENT as u64 {
                    let response = handle.recv().expect("response");
                    // (a) per-client result ordering is preserved.
                    assert_eq!(response.seq, i, "client {client_idx} out of order");
                    // ...and decrypted results are correct.
                    let out = response.result.expect("op succeeds");
                    let phase = key.decrypt_phase(&out).unwrap();
                    let decoded = strix::tfhe::torus::decode_message(phase, BITS + 1);
                    let expected = ((3 * client_idx + i) % 8 + client_idx) % 8;
                    assert_eq!(decoded, expected, "client {client_idx} request {i}");
                }
            });
        }
    });

    let report = runtime.shutdown();
    assert_eq!(report.requests_completed, CLIENTS as usize * PER_CLIENT);
    assert_eq!(report.requests_failed, 0);
}

#[test]
fn parallel_epoch_runtime_is_correct_and_reports_thread_occupancy() {
    // End-to-end through `Runtime::start_tfhe`: each worker shards its
    // epochs across 3 PBS threads. Results must decode exactly as with
    // the single-threaded executor (the crypto layer guarantees
    // bit-identity; here we check the whole pipeline plus metrics).
    const PER_CLIENT: usize = 24;
    const BITS: u32 = 3;
    const THREADS: usize = 3;

    let params = TfheParameters::testing_fast();
    let (client_key, server_key) = generate_keys(&params, 0x9A7A11E1);
    let geometry = BatchGeometry::explicit(2, 4);
    let runtime = Runtime::start_tfhe(
        RuntimeConfig::new(geometry)
            .with_max_delay(Duration::from_millis(3))
            .with_workers(2)
            .with_threads_per_worker(THREADS),
        Arc::new(server_key),
    );
    let lut =
        Arc::new(Lut::from_function(params.polynomial_size, BITS, |m| (5 * m + 2) % 8).unwrap());

    let mut handle = runtime.client();
    let mut key = client_key.clone();
    for i in 0..PER_CLIENT as u64 {
        let ct = key.encrypt_shortint(i % 8, BITS).unwrap().as_lwe().clone();
        handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).unwrap();
    }
    for i in 0..PER_CLIENT as u64 {
        let response = handle.recv().expect("response");
        assert_eq!(response.seq, i);
        let out = response.result.expect("op succeeds");
        let phase = key.decrypt_phase(&out).unwrap();
        let decoded = strix::tfhe::torus::decode_message(phase, BITS + 1);
        assert_eq!(decoded, (5 * (i % 8) + 2) % 8, "request {i}");
    }

    let report = runtime.shutdown();
    assert_eq!(report.requests_completed, PER_CLIENT);
    assert_eq!(report.requests_failed, 0);
    // Thread metrics recorded: never above the configured budget, and
    // full-size epochs (8 jobs > 3 threads) use the whole budget.
    assert!(report.max_threads_per_epoch <= THREADS);
    assert!(report.mean_threads_per_epoch >= 1.0);
    assert!(report.thread_occupancy > 0.0 && report.thread_occupancy <= 1.0);
    assert!(report.summary().contains("per epoch"));
}

#[test]
fn saturated_ingress_fills_epochs_past_90_percent() {
    // Saturation: a backlog of exactly 12 epochs' worth of requests
    // submitted as fast as admission accepts them, against an executor
    // slow enough that arrivals always outrun completion. A free worker
    // takes whatever is open, so each of the first `WORKERS` epochs may
    // be partial — taken while the backlog was still arriving. From then
    // on every worker is busy while the batches fill, so every later
    // epoch is full, except the last, which holds what the partial start
    // left over.
    const WORKERS: usize = 2;
    let geometry = BatchGeometry::explicit(4, 8);
    let epoch = geometry.epoch_size();
    let total = epoch * 12;
    let runtime = Runtime::start(
        RuntimeConfig::new(geometry).with_max_delay(Duration::from_secs(5)).with_workers(WORKERS),
        SlowEchoExecutor { delay: Duration::from_millis(20) },
    );

    let mut handle = runtime.client();
    for i in 0..total as u64 {
        let ct = LweCiphertext::trivial(16, i);
        handle.submit(ct, RequestOp::Keyswitch).unwrap();
    }
    let mut epoch_sizes: BTreeMap<u64, usize> = BTreeMap::new();
    for i in 0..total as u64 {
        let response = handle.recv().expect("response");
        assert_eq!(response.seq, i);
        assert_eq!(response.result.unwrap().body(), i);
        *epoch_sizes.entry(response.epoch).or_default() += 1;
    }
    let sizes: Vec<usize> = epoch_sizes.into_values().collect();

    let report = runtime.shutdown();
    assert_eq!(report.requests_completed, total);
    assert_eq!(report.epochs, sizes.len());
    assert!(sizes.len() <= 12 + WORKERS, "too many epochs: {sizes:?}");
    let head = WORKERS.min(sizes.len());
    let rest = total - sizes[..head].iter().sum::<usize>();
    let mut expected = vec![epoch; rest / epoch];
    if !rest.is_multiple_of(epoch) {
        expected.push(rest % epoch);
    }
    assert_eq!(sizes[head..], expected[..], "epochs after the first {WORKERS}: {sizes:?}");
}

#[test]
fn submitters_racing_shutdown_get_exactly_one_outcome_per_submit() {
    // Concurrent submitters race `shutdown`: every `submit` either
    // returns `Shutdown` or is answered exactly once, in order, with its
    // own input, and a refused submit is never followed by an accepted
    // one. An ingress depth of 2 keeps submitters blocking on
    // backpressure, so the close also meets parked submits. Shutdown
    // comes once 50 requests were answered, far short of the 1,600
    // attempted (at most 4 per ms get through two 1 ms workers).
    const SUBMITTERS: u64 = 4;
    const PER_SUBMITTER: u64 = 400;
    let mut config = RuntimeConfig::new(BatchGeometry::explicit(1, 2)).with_workers(2);
    config.ingress_depth = 2;
    let runtime = Runtime::start(config, SlowEchoExecutor { delay: Duration::from_millis(1) });
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|c| {
            let mut handle = runtime.client();
            std::thread::spawn(move || {
                let mut accepted = 0u64;
                for i in 0..PER_SUBMITTER {
                    let ct = LweCiphertext::trivial(8, c << 32 | i);
                    match handle.submit(ct, RequestOp::Keyswitch) {
                        Ok(seq) => {
                            assert_eq!(seq, i, "a submit after a refusal was accepted");
                            accepted += 1;
                        }
                        Err(RuntimeError::Shutdown) => {}
                        Err(other) => panic!("unexpected submit error {other:?}"),
                    }
                }
                for i in 0..accepted {
                    let response = handle.recv().expect("every accepted submit is answered");
                    assert_eq!(response.seq, i);
                    assert_eq!(response.result.unwrap().body(), c << 32 | i);
                }
                assert!(
                    matches!(handle.recv(), Err(RuntimeError::Shutdown)),
                    "no response beyond the accepted submits"
                );
                accepted
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    while runtime.report().requests_completed < 50 {
        assert!(Instant::now() < deadline, "the runtime made no progress");
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = runtime.shutdown();
    let accepted: u64 = submitters.into_iter().map(|s| s.join().unwrap()).sum();
    assert_eq!(report.requests_completed as u64, accepted, "each accepted request ran once");
    assert_eq!(report.requests_failed, 0);
    assert!(accepted < SUBMITTERS * PER_SUBMITTER, "shutdown never raced a submit");
}

#[test]
fn observability_pipeline_traces_spans_and_attributes_latency_end_to_end() {
    // One run through the real TFHE backend exercises the whole
    // telemetry path: span tracing at every stage boundary, per-class
    // latency attribution, the sampled per-stage PBS breakdown
    // (profile_every = 1 so every epoch samples), windowed series and
    // the queue gauges — all without perturbing results.
    const PER_CLIENT: usize = 10;
    const BITS: u32 = 3;

    let params = TfheParameters::testing_fast();
    let (client_key, server_key) = generate_keys(&params, 0x0B5E7);
    let runtime = Runtime::start_tfhe(
        RuntimeConfig::new(BatchGeometry::explicit(2, 4))
            .with_max_delay(Duration::from_millis(3))
            .with_workers(2)
            .with_profile_every(1),
        Arc::new(server_key),
    );
    let lut = Arc::new(Lut::from_function(params.polynomial_size, BITS, |m| (m + 1) % 8).unwrap());

    let mut handle = runtime.client();
    let mut key = client_key.clone();
    for i in 0..PER_CLIENT as u64 {
        let ct = key.encrypt_shortint(i % 8, BITS).unwrap().as_lwe().clone();
        handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).unwrap();
    }
    for i in 0..PER_CLIENT as u64 {
        let response = handle.recv().expect("response");
        assert_eq!(response.seq, i);
        let out = response.result.expect("op succeeds");
        let phase = key.decrypt_phase(&out).unwrap();
        assert_eq!(strix::tfhe::torus::decode_message(phase, BITS + 1), (i % 8 + 1) % 8);
    }

    // Every request's span reached every lifecycle stage.
    let events = runtime.tracer().events();
    for stage in [
        TraceStage::Submitted,
        TraceStage::Enqueued,
        TraceStage::BatchOpened,
        TraceStage::EpochFlushed,
        TraceStage::PbsStart,
        TraceStage::PbsEnd,
        TraceStage::KsStart,
        TraceStage::KsEnd,
        TraceStage::Completed,
    ] {
        let count = events.iter().filter(|e| e.stage == stage).count();
        assert_eq!(count, PER_CLIENT, "stage {stage:?} missing events");
    }
    // The Chrome export is valid JSON with one complete-event slice
    // per queue-wait/batch-wait/execute/pbs/keyswitch interval.
    let chrome = runtime.tracer().chrome_trace_json();
    assert!(chrome.starts_with('['));
    for name in ["queue-wait", "batch-wait", "execute", "pbs", "keyswitch"] {
        assert!(chrome.contains(name), "chrome trace lacks {name} slices");
    }

    let report = runtime.shutdown();
    assert_eq!(report.schema_version, REPORT_SCHEMA_VERSION);
    assert_eq!(report.requests_completed, PER_CLIENT);
    // Latency attribution: the lut class completed everything, with
    // non-degenerate stage means.
    let lut_class =
        report.latency_attribution.iter().find(|c| c.class == "lut").expect("lut class attributed");
    assert_eq!(lut_class.completed, PER_CLIENT);
    assert!(lut_class.mean_execute_us > 0.0);
    assert!(lut_class.mean_latency_us >= lut_class.mean_execute_us);
    // Stage breakdown came from the sampled production epochs.
    let stages = report.pbs_stage_breakdown.as_ref().expect("profiled epochs sampled");
    assert!(stages.sampled_epochs >= 1);
    assert_eq!(stages.sampled_pbs, PER_CLIENT);
    assert!(stages.forward_fft_us > 0.0 && stages.keyswitch_us > 0.0);
    // Windowed series and queue gauges populated.
    assert!(!report.windows.is_empty());
    assert_eq!(report.windows.iter().map(|w| w.completed).sum::<usize>(), PER_CLIENT);
    assert!(report.ingress_queue_high_water >= 1);
    assert_eq!(report.ingress_queue_depth, 0, "shutdown drained the queue");
    // The human summary surfaces the new telemetry.
    let summary = report.summary();
    assert!(summary.contains("lut"), "class attribution missing from summary");
}

#[test]
fn shutdown_drains_every_accepted_request() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 40;

    let runtime = Runtime::start(
        RuntimeConfig::new(BatchGeometry::explicit(4, 4))
            .with_max_delay(Duration::from_millis(1))
            .with_workers(2),
        SlowEchoExecutor { delay: Duration::from_millis(1) },
    );

    // Submit everything, then shut down while much of it is still
    // queued; every accepted request must still come back.
    let mut handles: Vec<_> = (0..CLIENTS).map(|_| runtime.client()).collect();
    for (c, handle) in handles.iter_mut().enumerate() {
        for i in 0..PER_CLIENT as u64 {
            let ct = LweCiphertext::trivial(8, (c as u64) << 32 | i);
            handle.submit(ct, RequestOp::Keyswitch).unwrap();
        }
    }
    let report = runtime.shutdown();
    assert_eq!(report.requests_completed, CLIENTS * PER_CLIENT, "shutdown lost requests");
    assert_eq!(report.requests_failed, 0);

    // Responses stay receivable (in order) after shutdown — plain
    // blocking recv works because shutdown dropped the senders.
    for (c, handle) in handles.iter_mut().enumerate() {
        // Nothing was returned to this caller yet, buffered or not.
        assert_eq!(handle.outstanding(), PER_CLIENT as u64);
        for i in 0..PER_CLIENT as u64 {
            let response = handle.recv().expect("drained response is buffered");
            assert_eq!(response.seq, i);
            assert_eq!(response.result.unwrap().body(), (c as u64) << 32 | i);
        }
        assert_eq!(handle.outstanding(), 0);
        // Once drained, recv reports shutdown instead of blocking...
        let err = handle.recv().unwrap_err();
        assert!(matches!(err, strix::runtime::RuntimeError::Shutdown));
        // ...and a further submit is rejected cleanly.
        let err = handle.submit(LweCiphertext::trivial(8, 0), RequestOp::Keyswitch).unwrap_err();
        assert!(matches!(err, strix::runtime::RuntimeError::Shutdown));
    }
}

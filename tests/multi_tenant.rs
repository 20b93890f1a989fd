//! Integration tests of the multi-tenant key fabric: concurrent
//! per-tenant streams through the registry-backed runtime under an
//! eviction-forcing residency budget, bit-compared against sequential
//! single-tenant execution; clean failure for unregistered tenants;
//! the seeded-transport size guarantee onboarding relies on; and the
//! pinned and registry key sources agreeing on kernel, admission and
//! output bits.

use std::sync::Arc;
use std::time::Duration;

use strix::core::BatchGeometry;
use strix::runtime::{
    AdmissionPolicy, BatchExecutor, KeyRegistry, RequestOp, Runtime, RuntimeConfig, TenantId,
    TfheExecutor,
};
use strix::tfhe::bootstrap::Lut;
use strix::tfhe::lwe::LweCiphertext;
use strix::tfhe::prelude::*;

#[test]
fn concurrent_tenants_under_eviction_match_sequential_execution_bitwise() {
    const TENANTS: u64 = 5;
    const PER_TENANT: usize = 12;
    const BITS: u32 = 3;

    let params = TfheParameters::testing_fast();
    // Five tenants against a residency budget of two expanded keys:
    // every few epochs some tenant's key must be evicted and later
    // re-expanded, so the run exercises the full miss/expand/evict
    // cycle while epochs execute in parallel on three workers.
    let registry = Arc::new(KeyRegistry::with_resident_keys(params.clone(), 2));
    let lut =
        Arc::new(Lut::from_function(params.polynomial_size, BITS, |m| (3 * m + 1) % 8).unwrap());

    // Two identical clients per tenant (same generation seed, so the
    // same RNG stream): one produces the seeded key the registry
    // expands on demand, the other the reference key for sequential
    // execution. Seeded expansion is deterministic, so both server
    // keys are bit-identical.
    let mut clients = Vec::new();
    let mut references = Vec::new();
    for t in 0..TENANTS {
        let mut registered = ClientKey::generate(&params, 0x7E000 + t);
        registry.register_seeded(TenantId(t), registered.seeded_server_key(0x5EED ^ t));
        let mut reference = ClientKey::generate(&params, 0x7E000 + t);
        references.push(Arc::new(reference.seeded_server_key(0x5EED ^ t).expand()));
        clients.push(reference);
    }

    // Encrypt each tenant's inputs once and precompute the expected
    // outputs by sequential per-tenant execution; PBS+KS is
    // deterministic per request regardless of batch composition, so
    // the streamed multi-tenant outputs must match these bit for bit.
    let mut inputs: Vec<Vec<LweCiphertext>> = Vec::new();
    let mut expected: Vec<Vec<LweCiphertext>> = Vec::new();
    for (t, client) in clients.iter_mut().enumerate() {
        let cts: Vec<LweCiphertext> = (0..PER_TENANT as u64)
            .map(|i| client.encrypt_shortint((i + t as u64) % 8, BITS).unwrap().as_lwe().clone())
            .collect();
        let sequential = TfheExecutor::new(Arc::clone(&references[t]));
        let outs = cts
            .iter()
            .map(|ct| {
                let batch = vec![strix::runtime::Request::new(
                    strix::runtime::ClientId(0),
                    0,
                    strix::runtime::SpanId(0),
                    ct.clone(),
                    RequestOp::Lut(Arc::clone(&lut)),
                )];
                sequential.execute(&batch).pop().unwrap().unwrap()
            })
            .collect();
        inputs.push(cts);
        expected.push(outs);
    }

    let runtime = Runtime::start_multi_tenant(
        RuntimeConfig::new(BatchGeometry::explicit(2, 2))
            .with_max_delay(Duration::from_millis(3))
            .with_workers(3),
        Arc::clone(&registry),
    );
    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let mut handle = runtime.client_for(TenantId(t));
            let cts = inputs[t as usize].clone();
            let expect = &expected[t as usize];
            let lut = Arc::clone(&lut);
            scope.spawn(move || {
                for ct in cts {
                    handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).unwrap();
                }
                for (i, want) in expect.iter().enumerate() {
                    let response = handle.recv().expect("response");
                    assert_eq!(response.seq, i as u64, "tenant {t} out of order");
                    let got = response.result.expect("op succeeds");
                    assert_eq!(
                        &got, want,
                        "tenant {t} request {i} diverged from sequential execution"
                    );
                }
            });
        }
    });

    let report = runtime.shutdown();
    assert_eq!(report.requests_completed, TENANTS as usize * PER_TENANT);
    assert_eq!(report.requests_failed, 0);
    // Key-cache accounting: every tenant registered, one resolve per
    // epoch (hits + misses add up), at least one cold expansion per
    // tenant, eviction actually forced by the budget, and residency
    // never above it (no pinned keys in this run).
    assert_eq!(report.tenants_registered, TENANTS as usize);
    assert_eq!(
        report.key_cache_hits + report.key_cache_misses,
        report.epochs as u64,
        "each epoch resolves its tenant's key exactly once"
    );
    assert!(report.key_cache_misses >= TENANTS, "each tenant expands at least once");
    assert!(report.key_cache_evictions >= 1, "budget of 2 keys across 5 tenants must evict");
    assert!(report.key_cache_resident_bytes <= report.key_cache_budget_bytes);
    assert_eq!(report.key_cache_budget_bytes, 2 * registry.key_bytes_per_tenant());
    assert!(report.summary().contains("tenants:"), "summary surfaces the key cache");
}

#[test]
fn unregistered_tenant_fails_cleanly_without_stalling_registered_ones() {
    const PER_TENANT: usize = 6;
    const BITS: u32 = 2;

    let params = TfheParameters::testing_fast();
    let registry = Arc::new(KeyRegistry::with_resident_keys(params.clone(), 1));
    let mut client = ClientKey::generate(&params, 0xAB5);
    registry.register_seeded(TenantId(1), client.seeded_server_key(0xF00D));
    let lut = Arc::new(Lut::from_function(params.polynomial_size, BITS, |m| (m + 1) % 4).unwrap());

    let runtime = Runtime::start_multi_tenant(
        RuntimeConfig::new(BatchGeometry::explicit(2, 2))
            .with_max_delay(Duration::from_millis(2))
            .with_workers(2),
        Arc::clone(&registry),
    );
    let mut good = runtime.client_for(TenantId(1));
    let mut ghost = runtime.client_for(TenantId(99));
    assert_eq!(ghost.tenant(), TenantId(99));
    for i in 0..PER_TENANT as u64 {
        let ct = client.encrypt_shortint(i % 4, BITS).unwrap().as_lwe().clone();
        good.submit(ct, RequestOp::Lut(Arc::clone(&lut))).unwrap();
        // The ghost tenant's requests carry well-formed ciphertexts;
        // only the missing key can fail them.
        ghost
            .submit(
                LweCiphertext::trivial(params.lwe_dimension, i),
                RequestOp::Lut(Arc::clone(&lut)),
            )
            .unwrap();
    }
    for i in 0..PER_TENANT as u64 {
        let ok = good.recv().expect("registered tenant response");
        let out = ok.result.expect("registered tenant succeeds");
        let phase = client.decrypt_phase(&out).unwrap();
        assert_eq!(strix::tfhe::torus::decode_message(phase, BITS + 1), (i % 4 + 1) % 4);
        let err = ghost.recv().expect("unregistered tenant still answered");
        assert!(err.result.is_err(), "no key registered: the request must fail, not hang");
    }

    let report = runtime.shutdown();
    assert_eq!(report.requests_completed, PER_TENANT);
    assert_eq!(report.requests_failed, PER_TENANT);
    assert_eq!(report.tenants_registered, 1);
}

#[test]
fn seeded_transport_stays_under_sixty_percent_of_full_key_bytes() {
    // Onboarding cost: registering a tenant ships the seeded transport
    // form, not the expanded key. The estimators the registry accounts
    // with must preserve the compression guarantee at both the testing
    // and the paper-mirroring parameter sets.
    for params in [TfheParameters::testing_fast(), ParameterSet::SetI.parameters()] {
        let seeded = params.seeded_server_key_bytes() as f64;
        let full = params.server_key_bytes() as f64;
        assert!(
            seeded <= 0.6 * full,
            "seeded transport {seeded} vs full {full} exceeds 0.6x at {params:?}"
        );
    }
}

#[test]
fn pinned_and_registry_key_sources_agree_on_kernel_admission_and_bits() {
    const BITS: u32 = 2;
    const TENANT: TenantId = TenantId(3);
    let multi_bit = PbsKernel::MultiBit { grouping_factor: 2 };
    for params_kernel in [PbsKernel::Classical, multi_bit] {
        let params = TfheParameters::testing_fast().with_kernel(params_kernel);
        // The registry expands the seeded form of the same key the
        // pinned source holds (seeded expansion is deterministic).
        let mut client = ClientKey::generate(&params, 0x50C);
        let server = Arc::new(client.seeded_server_key(0x5EED).expand());
        let registry = Arc::new(KeyRegistry::with_resident_keys(params.clone(), 1));
        registry
            .register_seeded(TENANT, ClientKey::generate(&params, 0x50C).seeded_server_key(0x5EED));
        let lut =
            Arc::new(Lut::from_function(params.polynomial_size, BITS, |m| (m + 3) % 4).unwrap());
        let batch: Vec<_> = (0..3u64)
            .map(|i| {
                let ct = client.encrypt_shortint(i, BITS).unwrap().as_lwe().clone();
                strix::runtime::Request::new(
                    strix::runtime::ClientId(0),
                    i,
                    strix::runtime::SpanId(i),
                    ct,
                    RequestOp::Lut(Arc::clone(&lut)),
                )
                .with_tenant(TENANT)
            })
            .collect();

        let case = format!("params {params_kernel}");
        // The key decides: a server holds one blind-rotation key, and
        // the pinned and registry sources serve the parameters' kernel.
        let expected = params_kernel;
        let pinned = TfheExecutor::new(Arc::clone(&server));
        let from_registry = TfheExecutor::multi_tenant(Arc::clone(&registry), 1);
        assert_eq!(pinned.kernel(), expected, "{case}");
        assert_eq!(from_registry.kernel(), expected, "{case}");
        assert_eq!(
            pinned.admission(),
            Some(AdmissionPolicy::new(params.clone(), expected)),
            "{case}"
        );
        assert_eq!(pinned.admission(), from_registry.admission(), "{case}");

        let a = pinned.execute_epoch(&batch, false);
        let b = from_registry.execute_epoch(&batch, false);
        let jobs = if expected == multi_bit { [0, 3] } else { [3, 0] };
        assert_eq!(a.kernel_jobs, jobs, "{case}");
        assert_eq!(b.kernel_jobs, jobs, "{case}");
        for (i, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
            let x = x.as_ref().expect("pinned request succeeds");
            assert_eq!(Ok(x), y.as_ref(), "{case}: request {i} differs across sources");
            let phase = client.decrypt_phase(x).unwrap();
            let want = (i as u64 + 3) % 4;
            assert_eq!(strix::tfhe::torus::decode_message(phase, BITS + 1), want, "{case}");
        }
    }
}

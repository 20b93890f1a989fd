//! Key-registry residency measured in live heap bytes.
//!
//! A counting global allocator tracks every live byte of this test
//! binary (its own binary, so no other test shares the counters). On a
//! one-key budget a registry miss must evict the resident key *before*
//! expanding the new one: the peak live heap during a miss that evicts
//! may exceed the peak of a miss into an empty cache by at most slack,
//! never by a second key. A multi-bit tenant is charged, and holds, one
//! blind-rotation key.
//!
//! The counters are process-wide, so the tests take turns.
// A global allocator can only be written against the unsafe
// `GlobalAlloc` interface; it forwards to the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use strix_runtime::{KeyRegistry, TenantId};
use strix_tfhe::prelude::*;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// lint:allow(unsafe) GlobalAlloc is an unsafe trait; every call forwards to System unchanged
unsafe impl GlobalAlloc for Counting {
    // lint:allow(unsafe) same contract as System::alloc, which it calls
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    // lint:allow(unsafe) same contract as System::dealloc, which it calls
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serialises the tests: each reads the process-wide counters.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Live heap bytes above `base` at the peak of `f`.
fn peak_above(base: usize, f: impl FnOnce()) -> usize {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

#[test]
fn a_miss_never_holds_more_than_one_key_on_a_one_key_budget() {
    let _turn = exclusive();
    let params = TfheParameters::testing_fast();
    let registry = KeyRegistry::with_resident_keys(params.clone(), 1);
    for tenant in 0..2u64 {
        let mut client = ClientKey::generate(&params, 0xB0D6 + tenant);
        registry.register_seeded(TenantId(tenant), client.seeded_server_key(tenant));
    }
    // Nothing resident yet: this is the floor both misses start from.
    let empty = LIVE.load(Ordering::Relaxed);
    let first_miss = peak_above(empty, || drop(registry.resolve(TenantId(0))));
    let one_key = LIVE.load(Ordering::Relaxed).saturating_sub(empty);
    assert!(one_key > 0, "a resident key holds heap bytes");
    // Tenant 0 is resident; resolving tenant 1 must evict it first.
    let evicting_miss = peak_above(empty, || drop(registry.resolve(TenantId(1))));
    assert_eq!(registry.stats().evictions, 1);
    let slack = one_key / 4;
    assert!(
        evicting_miss <= first_miss + slack,
        "an evicting miss peaked {evicting_miss} B above the empty cache, a miss into an empty \
         cache {first_miss} B (one key is {one_key} B): the new key was expanded before the old \
         one was dropped"
    );
}

/// Set-II g = 3 server key bytes while a multi-bit server also carried
/// the 61,931,520-byte classical key.
const TWO_KEY_G3_BYTES: usize = 252_928_000;

#[test]
fn a_multi_bit_tenant_is_charged_and_holds_one_blind_rotation_key() {
    let _turn = exclusive();
    let params = TfheParameters::set_ii().with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
    // The budget that held four two-key g = 3 tenants.
    let budget = 4 * TWO_KEY_G3_BYTES;
    assert_eq!(budget, 1_011_712_000);
    let registry = KeyRegistry::new(params.clone(), budget);
    let charged = registry.key_bytes_per_tenant();
    // One blind-rotation key and a seeded keyswitching key (bodies and
    // mask seed): 165,191,688 B.
    assert!(charged as f64 <= 0.66 * TWO_KEY_G3_BYTES as f64, "charged {charged} B");
    // The registry keeps a key resident while resident + key ≤ budget.
    assert_eq!(budget / charged, 6, "resident g = 3 keys in the old four-key budget");

    registry.register_seeded(TenantId(0), SeededServerKey::for_benchmark(&params, 3));
    let before = LIVE.load(Ordering::Relaxed);
    let key = registry.resolve(TenantId(0)).expect("registered tenant");
    let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!(key.key_bytes(), charged, "the charge is the expanded key's footprint");
    assert!(key.multi_bit_bootstrap_key().is_some());
    // The live heap of the resident key is its footprint, plus small
    // change (FFT plan, monomial table): no second key rides along.
    assert!(
        (charged..=charged + charged / 100).contains(&live),
        "a resident g = 3 key holds {live} B of heap, charged {charged} B"
    );
}

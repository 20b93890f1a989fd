//! The multi-tenant key registry: per-tenant server keys behind an LRU
//! residency cache.
//!
//! A multi-tenant service holds one key domain per tenant, but resident
//! Fourier-domain key material is the expensive part — a `ServerKey`'s
//! bootstrapping keys dominate memory the way the bootstrapping-key
//! *stream* dominates accelerator bandwidth. [`KeyRegistry`] therefore
//! separates the two forms a tenant's key can take:
//!
//! * the **transport form** — a [`SeededServerKey`] (CRS seed plus the
//!   body halves), roughly half the bytes of the expanded key, kept for
//!   every registered tenant, and
//! * the **resident form** — the expanded [`ServerKey`] with its
//!   Fourier bootstrapping keys, materialised lazily on first
//!   [`resolve`](KeyRegistry::resolve) and accounted against a
//!   configurable byte budget using the parameter set's
//!   [`server_key_bytes`](strix_tfhe::TfheParameters::server_key_bytes)
//!   estimator.
//!
//! When materialising a key would exceed the budget, the least
//! recently *resolved* seeded tenants are evicted *before* the new key
//! is expanded, so a miss never holds more than the budget's worth of
//! registry-resident keys (their resident keys are dropped; the
//! transport form stays, so a later resolve re-expands it
//! deterministically — seeded expansion is bit-reproducible). Tenants
//! registered with an already-expanded key are pinned: they count
//! against the budget but are never evicted, because dropping them
//! would lose the only copy.
//!
//! Residency is tracked per *resolve*, which is per epoch: the worker
//! resolves the epoch's tenant once and pins the `Arc<ServerKey>` for
//! the epoch's whole PBS+KS run, so an eviction can never pull a key
//! out from under in-flight work — the Arc keeps it alive until the
//! epoch completes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use strix_tfhe::{SeededServerKey, ServerKey, TfheParameters};

use crate::request::TenantId;
use crate::sync::lock_unpoisoned;

/// A snapshot of the registry's cache counters, surfaced in
/// [`RuntimeReport`](crate::metrics::RuntimeReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyRegistryStats {
    /// Tenants with registered key material (any form).
    pub tenants_registered: usize,
    /// Resolves served from an already-resident key.
    pub hits: u64,
    /// Resolves that had to expand the seeded transport form.
    pub misses: u64,
    /// Resident keys dropped to fit the byte budget.
    pub evictions: u64,
    /// Estimated bytes of currently resident expanded keys.
    pub resident_bytes: usize,
    /// Configured residency budget in bytes.
    pub budget_bytes: usize,
}

enum KeySource {
    /// Compact transport form, shared with every other holder of the
    /// key; the resident key can be re-expanded at any time, so it is
    /// evictable.
    Seeded(SeededServerKey),
    /// Registered pre-expanded: the resident `Arc` is the only copy,
    /// so the slot is pinned (never evicted).
    Pinned,
}

struct Slot {
    source: KeySource,
    resident: Option<Arc<ServerKey>>,
    /// Logical timestamp of the last resolve (LRU order).
    last_use: u64,
}

#[derive(Default)]
struct Inner {
    slots: HashMap<TenantId, Slot>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_bytes: usize,
}

/// Per-tenant server keys behind an LRU residency cache with a byte
/// budget. Shared by every worker through an `Arc`; all methods take
/// `&self`.
pub struct KeyRegistry {
    params: TfheParameters,
    budget_bytes: usize,
    /// Estimated resident footprint of one expanded key.
    key_bytes: usize,
    inner: Mutex<Inner>,
}

impl KeyRegistry {
    /// An empty registry for one parameter set (every tenant of a
    /// deployment shares the geometry; only the key material differs)
    /// with a residency budget in bytes. A budget smaller than one key
    /// still admits one resident key at a time — the cache never
    /// refuses the key an epoch needs.
    pub fn new(params: TfheParameters, budget_bytes: usize) -> Self {
        let key_bytes = params.server_key_bytes();
        Self { params, budget_bytes, key_bytes, inner: Mutex::new(Inner::default()) }
    }

    /// A registry whose budget holds `resident_keys` expanded keys.
    pub fn with_resident_keys(params: TfheParameters, resident_keys: usize) -> Self {
        let budget = params.server_key_bytes().saturating_mul(resident_keys.max(1));
        Self::new(params, budget)
    }

    /// The shared parameter set.
    pub fn params(&self) -> &TfheParameters {
        &self.params
    }

    /// Estimated resident bytes of one expanded key (the eviction
    /// accounting unit).
    pub fn key_bytes_per_tenant(&self) -> usize {
        self.key_bytes
    }

    /// Registers a tenant by its compact transport form. The key stays
    /// seeded until the first [`resolve`](Self::resolve) materialises
    /// it. Re-registering a tenant replaces its key material and drops
    /// any resident expansion.
    ///
    /// The registry shares the key and never copies it: a
    /// [`SeededServerKey`] is one immutable payload behind a reference
    /// count, so registering `key.clone()` while the caller keeps `key`
    /// costs no payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if the seeded key was generated for a different
    /// parameter set than the registry's.
    pub fn register_seeded(&self, tenant: TenantId, key: SeededServerKey) {
        assert_eq!(
            key.params(),
            &self.params,
            "seeded key parameter set differs from the registry's"
        );
        let mut inner = lock_unpoisoned(&self.inner);
        let slot = Slot { source: KeySource::Seeded(key), resident: None, last_use: 0 };
        if let Some(old) = inner.slots.insert(tenant, slot) {
            if old.resident.is_some() {
                inner.resident_bytes = inner.resident_bytes.saturating_sub(self.key_bytes);
            }
        }
    }

    /// Registers a tenant with an already-expanded key. The key is
    /// immediately resident, counts against the budget, and is never
    /// evicted (the registry holds the only copy).
    ///
    /// # Panics
    ///
    /// Panics if the key's parameter set differs from the registry's.
    pub fn register_server_key(&self, tenant: TenantId, key: Arc<ServerKey>) {
        assert_eq!(
            key.params(),
            &self.params,
            "server key parameter set differs from the registry's"
        );
        let mut inner = lock_unpoisoned(&self.inner);
        let slot = Slot { source: KeySource::Pinned, resident: Some(key), last_use: 0 };
        if inner.slots.insert(tenant, slot).is_none_or(|old| old.resident.is_none()) {
            inner.resident_bytes = inner.resident_bytes.saturating_add(self.key_bytes);
        }
    }

    /// Resolves a tenant's resident server key, materialising the
    /// seeded form on a miss after evicting least-recently-used seeded
    /// residents to make room for it. The returned `Arc` stays valid for
    /// as long as the caller holds it, eviction or not — workers pin
    /// it for an epoch's whole PBS+KS run.
    ///
    /// Returns `None` for a tenant with no registered key.
    ///
    /// Expansion runs under the registry lock: one materialisation at
    /// a time, so concurrent resolves can never overshoot the budget
    /// by racing their expansions.
    pub fn resolve(&self, tenant: TenantId) -> Option<Arc<ServerKey>> {
        let mut inner = lock_unpoisoned(&self.inner);
        let inner = &mut *inner;
        inner.clock += 1;
        let clock = inner.clock;
        let slot = inner.slots.get_mut(&tenant)?;
        slot.last_use = clock;
        if let Some(key) = &slot.resident {
            inner.hits += 1;
            return Some(Arc::clone(key));
        }
        if !matches!(slot.source, KeySource::Seeded(_)) {
            // A pinned slot is resident by construction; an empty one
            // cannot be rebuilt.
            return None;
        }
        inner.misses += 1;
        // Make room first: evict LRU seeded residents until the new key
        // fits, so the expansion never holds budget + 1 keys. The
        // resolving tenant is not resident, so it is never a victim.
        while inner.resident_bytes.saturating_add(self.key_bytes) > self.budget_bytes {
            let victim = inner
                .slots
                .iter()
                .filter(|(_, slot)| {
                    slot.resident.is_some() && matches!(slot.source, KeySource::Seeded(_))
                })
                .min_by_key(|(_, slot)| slot.last_use)
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                break; // only pinned keys remain: the epoch still needs its key
            };
            // lint:allow(panic) the victim id was just found in the map
            let slot = inner.slots.get_mut(&victim).expect("victim slot exists");
            slot.resident = None;
            inner.resident_bytes = inner.resident_bytes.saturating_sub(self.key_bytes);
            inner.evictions += 1;
        }
        let slot = inner.slots.get_mut(&tenant)?;
        let KeySource::Seeded(seeded) = &slot.source else { return None };
        let key = Arc::new(seeded.expand());
        slot.resident = Some(Arc::clone(&key));
        inner.resident_bytes = inner.resident_bytes.saturating_add(self.key_bytes);
        Some(key)
    }

    /// Current cache counters.
    pub fn stats(&self) -> KeyRegistryStats {
        let inner = lock_unpoisoned(&self.inner);
        KeyRegistryStats {
            tenants_registered: inner.slots.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.resident_bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strix_tfhe::prelude::*;

    fn params() -> TfheParameters {
        TfheParameters::testing_fast()
    }

    fn seeded(seed: u64) -> SeededServerKey {
        let mut client = ClientKey::generate(&params(), seed);
        client.seeded_server_key(seed ^ 0xCE5)
    }

    #[test]
    fn resolve_materialises_once_and_hits_after() {
        let registry = KeyRegistry::with_resident_keys(params(), 2);
        registry.register_seeded(TenantId(1), seeded(11));
        assert!(registry.resolve(TenantId(9)).is_none(), "unknown tenant");
        let a = registry.resolve(TenantId(1)).expect("registered");
        let b = registry.resolve(TenantId(1)).expect("resident");
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same resident key");
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.tenants_registered, 1);
        assert_eq!(stats.resident_bytes, registry.key_bytes_per_tenant());
    }

    #[test]
    fn lru_eviction_respects_budget_and_revives_deterministically() {
        let registry = KeyRegistry::with_resident_keys(params(), 1);
        registry.register_seeded(TenantId(1), seeded(21));
        registry.register_seeded(TenantId(2), seeded(22));
        let first = registry.resolve(TenantId(1)).unwrap();
        let _second = registry.resolve(TenantId(2)).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.evictions, 1, "budget of one key evicts the LRU resident");
        assert_eq!(stats.resident_bytes, registry.key_bytes_per_tenant());
        // The evicted tenant re-expands to a bit-identical key (the
        // held Arc from before the eviction stays valid throughout).
        let revived = registry.resolve(TenantId(1)).unwrap();
        assert!(!Arc::ptr_eq(&first, &revived), "re-expansion allocates fresh material");
        assert_eq!(first.key_bytes(), revived.key_bytes(), "same geometry either way");
        assert_eq!(registry.stats().misses, 3);
    }

    #[test]
    fn registering_a_clone_shares_the_callers_key() {
        let registry = KeyRegistry::with_resident_keys(params(), 1);
        let key = seeded(41);
        let bytes = key.transport_bytes();
        registry.register_seeded(TenantId(1), key.clone());
        // The registry holds a second handle on the caller's payload,
        // not a copy of it.
        assert_eq!(key.holders(), 2);
        let resident = registry.resolve(TenantId(1)).expect("registered");
        // The caller's key still expands, to the key the registry holds.
        let own = key.expand();
        assert_eq!(key.transport_bytes(), bytes);
        let mut client = ClientKey::generate(&params(), 41);
        let (a, b) = (client.encrypt_bool(true), client.encrypt_bool(false));
        assert_eq!(own.nand(&a, &b).unwrap(), resident.nand(&a, &b).unwrap());
        // Replacing the tenant's key drops the registry's handle.
        registry.register_seeded(TenantId(1), seeded(42));
        assert_eq!(key.holders(), 1);
    }

    #[test]
    fn resolved_seeded_key_keyswitches_like_its_expansion() {
        // The keyswitching key stays seeded through expansion: the key
        // the registry resolves, the caller's own `expand()` and a
        // revival after eviction regenerate one mask stream and switch
        // bit for bit alike, while holding only bodies and a seed.
        let p = params();
        let registry = KeyRegistry::with_resident_keys(p.clone(), 1);
        let key = seeded(51);
        registry.register_seeded(TenantId(1), key.clone());
        registry.register_seeded(TenantId(2), seeded(52));
        let own = key.expand();
        let mut client = ClientKey::generate(&p, 51);
        let lut = strix_tfhe::bootstrap::Lut::sign(p.polynomial_size, 1 << 61);
        let extracted: Vec<LweCiphertext> = [true, false, true]
            .iter()
            .map(|&bit| {
                let ct = client.encrypt_bool(bit).into_lwe();
                own.bootstrap_key().bootstrap(&ct, &lut).unwrap()
            })
            .collect();
        let want = own.keyswitch_key().keyswitch_batch(&extracted).unwrap();
        let resident = registry.resolve(TenantId(1)).expect("registered");
        assert_eq!(resident.keyswitch_key().keyswitch_batch(&extracted).unwrap(), want);
        let _evicts_tenant_1 = registry.resolve(TenantId(2)).expect("registered");
        let revived = registry.resolve(TenantId(1)).expect("registered");
        assert!(!Arc::ptr_eq(&resident, &revived), "tenant 1 was re-expanded");
        for (ct, w) in extracted.iter().zip(&want) {
            assert_eq!(&revived.keyswitch_key().keyswitch(ct).unwrap(), w);
        }
        let rows = p.extracted_lwe_dimension() * p.ks_level;
        assert_eq!(resident.keyswitch_key().byte_size(), (rows + 1) * 8);
    }

    #[test]
    fn pinned_keys_count_but_never_evict() {
        let p = params();
        let registry = KeyRegistry::with_resident_keys(p.clone(), 1);
        let (_, server) = generate_keys(&p, 31);
        registry.register_server_key(TenantId(1), Arc::new(server));
        registry.register_seeded(TenantId(2), seeded(32));
        let pinned = registry.resolve(TenantId(1)).unwrap();
        let _other = registry.resolve(TenantId(2)).unwrap();
        // The seeded tenant's expansion pushed the cache over budget,
        // but the pinned key must survive; the overshoot is tolerated
        // because the epoch being served needs its key resident.
        let again = registry.resolve(TenantId(1)).unwrap();
        assert!(Arc::ptr_eq(&pinned, &again), "pinned key stays resident");
        assert_eq!(registry.stats().evictions, 0);
        assert_eq!(registry.stats().resident_bytes, 2 * registry.key_bytes_per_tenant());
    }
}

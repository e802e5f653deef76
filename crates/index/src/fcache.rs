//! The cross-query feature-cache context threaded through filtering.
//!
//! Posting-fold methods (GGSX, Grapes, gIndex, Tree+Δ) spend their filter
//! stage streaming one sorted posting list per query feature into the
//! arena [`CandidateSet`]. Across a workload that hammers the same few
//! patterns the *same* posting lists are streamed over and over; this
//! module lets the service hand `filter_into_cached` a store of hot
//! per-feature bitsets so a repeated feature costs one O(universe/64)
//! block AND ([`crate::ArenaFold::apply_set`]) instead of a trie or
//! B-tree walk.
//!
//! The index crate only defines the *contract*: [`FeatureCacheStore`] is
//! object-safe storage (the serving layer implements it with a per-shard
//! LRU), and [`FilterCacheCtx`] is the per-query view that times every
//! probe so the metrics layer can report cache-probe time separately from
//! filter time. Soundness rests on two properties the implementations
//! uphold:
//!
//! 1. **Keys are index-instance-local.** A store is only ever attached to
//!    the one index instance whose posting lists it caches (per shard,
//!    per method), so a key never resolves to another shard's — or
//!    another method's — bits.
//! 2. **Cached features are immutable.** Every cached posting list is
//!    stable for the lifetime of the index: trie payloads and mined
//!    feature supports are frozen at build time, and Tree+Δ's learned Δ
//!    features are whole-dataset supports that never change once
//!    inserted. Any future dataset mutation must invalidate the store
//!    wholesale (the serving layer's cache epochs exist for exactly
//!    that).

use crate::candidates::CandidateSet;
use std::sync::Arc;
use std::time::Instant;

/// Object-safe storage for per-feature candidate bitsets, shared by the
/// workers probing one index instance. Implementations decide retention
/// (the serving layer uses an LRU) and carry their own hit/miss/eviction
/// accounting; `get`/`put` must be safe to call concurrently.
pub trait FeatureCacheStore: Send + Sync {
    /// Looks up the cached bitset for a feature key, refreshing its
    /// recency. `None` on a miss.
    fn get(&self, key: &str) -> Option<Arc<CandidateSet>>;

    /// Inserts (or refreshes) the bitset for a feature key, evicting as
    /// the implementation sees fit.
    fn put(&self, key: String, value: Arc<CandidateSet>);
}

/// The per-query cache view a [`crate::GraphIndex::filter_into_cached`]
/// override works against: it forwards to the shared store and meters the
/// wall time spent probing and inserting, so a warm cache cannot silently
/// inflate the apparent filter throughput — the serving layer subtracts
/// [`FilterCacheCtx::probe_seconds`] from the stage's wall time.
pub struct FilterCacheCtx<'a> {
    store: &'a dyn FeatureCacheStore,
    probe_s: f64,
}

impl<'a> FilterCacheCtx<'a> {
    /// Wraps a store for one query's filter stage.
    pub fn new(store: &'a dyn FeatureCacheStore) -> Self {
        FilterCacheCtx {
            store,
            probe_s: 0.0,
        }
    }

    /// Timed [`FeatureCacheStore::get`].
    pub fn get(&mut self, key: &str) -> Option<Arc<CandidateSet>> {
        let start = Instant::now();
        let hit = self.store.get(key);
        self.probe_s += start.elapsed().as_secs_f64();
        hit
    }

    /// Timed [`FeatureCacheStore::put`].
    pub fn put(&mut self, key: String, value: Arc<CandidateSet>) {
        let start = Instant::now();
        self.store.put(key, value);
        self.probe_s += start.elapsed().as_secs_f64();
    }

    /// Seconds spent inside the store so far (probes + inserts).
    pub fn probe_seconds(&self) -> f64 {
        self.probe_s
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Unbounded map store that counts the calls it serves — enough to
    /// exercise the context plumbing and to pin who probes when.
    #[derive(Default)]
    pub(crate) struct MapStore {
        entries: Mutex<HashMap<String, Arc<CandidateSet>>>,
        calls: AtomicUsize,
    }

    impl MapStore {
        /// `get` + `put` calls served so far.
        pub(crate) fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl FeatureCacheStore for MapStore {
        fn get(&self, key: &str) -> Option<Arc<CandidateSet>> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().get(key).cloned()
        }

        fn put(&self, key: String, value: Arc<CandidateSet>) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().insert(key, value);
        }
    }

    #[test]
    fn ctx_round_trips_and_times_probes() {
        let store = MapStore::default();
        let mut ctx = FilterCacheCtx::new(&store);
        assert!(ctx.get("p:1:2.3").is_none());
        let set = Arc::new(CandidateSet::from_sorted_ids(10, &[1, 4]));
        ctx.put("p:1:2.3".to_string(), Arc::clone(&set));
        let cached = ctx.get("p:1:2.3").expect("hit after put");
        assert_eq!(cached.to_sorted_vec(), vec![1, 4]);
        assert!(ctx.probe_seconds() >= 0.0);
        assert_eq!(store.calls(), 3);
    }
}

//! The cross-query caching layer: a per-shard LRU of hot per-feature
//! candidate bitsets plus an optional whole-answer memo keyed by the
//! query's canonical graph key.
//!
//! Both levels exist for the same workload shape — heavy traffic that
//! hammers the same few query patterns — and both are *sound by
//! construction* rather than by revalidation:
//!
//! * **Feature cache** ([`FeatureCache`]): one store per (shard, method)
//!   index instance, implementing
//!   [`sqbench_index::FeatureCacheStore`]. Every cached bitset is an
//!   immutable posting list of that one instance (trie payloads and mined
//!   supports are frozen at build time; Tree+Δ's learned Δ supports never
//!   change once inserted), so a hit can never be stale within one cache
//!   epoch. Binding stores per instance also makes keys shard-local —
//!   a shard never sees another shard's bits.
//! * **Answer memo** ([`AnswerMemo`]): maps a query's *exact* canonical
//!   form to its complete verified answer set. Entries are only admitted
//!   for queries small enough for exact canonicalization
//!   ([`sqbench_features::canonical::MAX_EXACT_CANON_VERTICES`]) — the
//!   Weisfeiler–Lehman fallback beyond that MAY collide and must never
//!   gate correctness — and only from [`QueryOutcome::Complete`] runs, so
//!   a hit is bit-identical to re-executing the query. Isomorphic queries
//!   share an entry by design: same canonical form, same answer set.
//!
//! # Admission (one policy, both services)
//!
//! The memo's admission policy lives here once, behind the crate-private
//! `CacheLevels::admit` and `MemoAdmission::settle`: a query whose deadline has passed is never
//! probed (it must time out in the pool exactly like the uncached path), a
//! hit reaches no executor, and only `Complete` answers are memoized.
//! [`super::QueryService`] and [`super::ShardedService`] both do
//! *admit → run only the misses through their executor → settle*.
//!
//! # Invalidation (the ingest path)
//!
//! The dataset is mutable: [`super::ShardedService::insert_graph`] and
//! [`super::ShardedService::remove_graph`] (and the typed
//! [`super::IngestOp`] mutations drained from the admission queue) change
//! what every cached entry was computed against. Both cache levels carry
//! a monotonically increasing **epoch** ([`FeatureCache::epoch`],
//! [`AnswerMemo::epoch`]), and [`FeatureCache::invalidate_all`] /
//! [`AnswerMemo::invalidate_all`] bump it and drop every entry. **Every
//! mutation entry point calls the owning service's `invalidate_caches()`
//! automatically**, so a cached answer or feature bitset can never span a
//! mutation — which is exactly what lets the answer memo stay *enabled*
//! on mutable workloads: a memo hit skips the shards entirely, and
//! without the automatic flush it would replay answers from before the
//! mutation (the stale-cache hazard pinned by the `Script::Churn` cells of
//! the root `tests/config_matrix.rs`, which remove a memo-warm answer, read,
//! insert its twin and read again, for every method).

use super::past;
use super::stages::QueryOutcome;
use crate::metrics::{CacheCounters, Stopwatch};
use sqbench_features::canonical::{graph_key, MAX_EXACT_CANON_VERTICES};
use sqbench_graph::{Graph, GraphId};
use sqbench_index::{CandidateSet, FeatureCacheStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The cache knobs of the unified [`super::ServiceOptions`] surface — the
/// *only* config surface that carries them. Capacity `0` disables a level;
/// the default disables both, so every pre-cache code path (and every
/// committed golden number) is byte-for-byte unchanged until a caller opts
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Max entries of each per-shard feature-bitset LRU (0 = disabled).
    pub feature_capacity: usize,
    /// Max entries of the whole-answer memo (0 = disabled).
    pub answer_capacity: usize,
}

impl CachePolicy {
    /// Both levels off — the default, preserving pre-cache behavior.
    pub fn disabled() -> Self {
        CachePolicy {
            feature_capacity: 0,
            answer_capacity: 0,
        }
    }

    /// Both levels on with serving-friendly capacities.
    pub fn enabled() -> Self {
        CachePolicy {
            feature_capacity: 4096,
            answer_capacity: 1024,
        }
    }

    /// `true` when neither level is enabled.
    pub fn is_disabled(&self) -> bool {
        self.feature_capacity == 0 && self.answer_capacity == 0
    }
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy::disabled()
    }
}

const NIL: usize = usize::MAX;

struct Slot<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// A string-keyed LRU map: O(1) `get`/`put` via a slot-index doubly-linked
/// recency list over a `HashMap`, with an eviction counter. Interior
/// mutability and thread safety are the wrapping cache's concern — the core
/// under [`FeatureCache`] and [`AnswerMemo`] holds one behind a `Mutex`.
pub struct Lru<V> {
    map: HashMap<String, usize>,
    slots: Vec<Slot<V>>,
    head: usize,
    tail: usize,
    capacity: usize,
    evictions: u64,
}

impl<V> Lru<V> {
    /// An empty LRU holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Lru {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Evictions performed since construction (or the last [`Lru::clear`]).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn link_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking the entry most-recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.link_front(idx);
        }
        Some(&self.slots[idx].value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn put(&mut self, key: String, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            if idx != self.head {
                self.unlink(idx);
                self.link_front(idx);
            }
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            // Reuse the evicted tail slot in place.
            let idx = self.tail;
            self.unlink(idx);
            let old_key = std::mem::replace(&mut self.slots[idx].key, key.clone());
            self.map.remove(&old_key);
            self.slots[idx].value = value;
            self.evictions += 1;
            idx
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, idx);
        self.link_front(idx);
    }

    /// Drops every entry (the eviction counter is preserved — counted
    /// evictions were capacity pressure, a clear is invalidation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// What both cache levels are underneath: an [`Lru`] of shared values
/// behind a mutex, hit/miss counters over every lookup, and an epoch that
/// counts invalidations.
struct CountedLru<V> {
    entries: Mutex<Lru<Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    epoch: AtomicU64,
}

impl<V> CountedLru<V> {
    fn new(capacity: usize) -> Self {
        CountedLru {
            entries: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<Arc<V>>> {
        // Poison-tolerant like the admission queue: a worker that panicked
        // while holding the lock cannot leave a half-written entry (puts
        // are single `HashMap`/`Vec` operations), so serving continues.
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Counted lookup, refreshing the entry's recency on a hit.
    fn get(&self, key: &str) -> Option<Arc<V>> {
        let hit = self.lock().get(key).cloned();
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn put(&self, key: String, value: Arc<V>) {
        self.lock().put(key, value);
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn evictions(&self) -> u64 {
        self.lock().evictions()
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn invalidate_all(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.lock().clear();
    }
}

/// Per-(shard, method) LRU of hot per-feature candidate bitsets — the
/// store behind [`sqbench_index::GraphIndex::filter_into_cached`]. Shared
/// by all of one shard's workers; hits and misses are counted here (across
/// every query that probed the store), evictions inside the LRU.
pub struct FeatureCache(CountedLru<CandidateSet>);

impl FeatureCache {
    /// An empty cache holding at most `capacity` feature bitsets.
    pub fn new(capacity: usize) -> Self {
        FeatureCache(CountedLru::new(capacity))
    }

    /// Feature lookups that found a cached bitset.
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }

    /// Feature lookups that missed.
    pub fn misses(&self) -> u64 {
        self.0.misses()
    }

    /// Entries evicted by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.0.evictions()
    }

    /// Current cache epoch; bumped by [`FeatureCache::invalidate_all`].
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    /// Drops every entry and bumps the epoch. Invoked automatically (via
    /// the owning service's `invalidate_caches()`) by every mutation entry
    /// point — `ShardedService::insert_graph`/`remove_graph` and drained
    /// `IngestOp` mutations — so no cached entry ever spans a mutation.
    pub fn invalidate_all(&self) {
        self.0.invalidate_all();
    }
}

impl FeatureCacheStore for FeatureCache {
    fn get(&self, key: &str) -> Option<Arc<CandidateSet>> {
        self.0.get(key)
    }

    fn put(&self, key: String, value: Arc<CandidateSet>) {
        self.0.put(key, value);
    }
}

/// What the answer memo stores for one canonical query: everything needed
/// to synthesize a [`super::stages::QueryRecord`] without touching a
/// shard, so a memo hit reports the same candidate accounting (and thus
/// the same false-positive ratio) as the run that populated it.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerEntry {
    /// The complete verified answer ids, sorted ascending.
    pub answers: Vec<GraphId>,
    /// Candidate-set size of the populating run.
    pub candidate_count: usize,
    /// Graphs pruned by the populating run's filter stage.
    pub candidates_pruned: usize,
}

/// Whole-answer memo keyed by exact canonical graph form. One per service
/// (not per shard — the memoized answer set is the merged, global one);
/// probed at admission before any shard is planned.
pub struct AnswerMemo(CountedLru<AnswerEntry>);

/// The memo key of a query, or `None` when the query is too large for
/// *exact* canonicalization. Beyond
/// [`MAX_EXACT_CANON_VERTICES`] vertices `graph_key` falls back to a
/// Weisfeiler–Lehman refinement string that MAY collide across
/// non-isomorphic graphs, and a collision here would serve one query
/// another query's answers — so such queries always take the full path.
pub fn answer_memo_key(query: &Graph) -> Option<String> {
    if query.vertex_count() <= MAX_EXACT_CANON_VERTICES {
        Some(graph_key(query).as_str().to_string())
    } else {
        None
    }
}

impl AnswerMemo {
    /// An empty memo holding at most `capacity` answer sets.
    pub fn new(capacity: usize) -> Self {
        AnswerMemo(CountedLru::new(capacity))
    }

    /// Looks up a memoized answer set by canonical key.
    pub fn lookup(&self, key: &str) -> Option<Arc<AnswerEntry>> {
        self.0.get(key)
    }

    /// Memoizes a completed query's answer set. Only [`QueryOutcome::Complete`]
    /// results may be inserted — a degraded or partial answer set must never
    /// be served as complete later (the crate's `MemoAdmission::settle`
    /// enforces this for both services).
    pub fn insert(&self, key: String, entry: AnswerEntry) {
        self.0.put(key, Arc::new(entry));
    }

    /// Memo lookups that hit.
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }

    /// Memo lookups that missed (eligible queries only — oversized queries
    /// never probe).
    pub fn misses(&self) -> u64 {
        self.0.misses()
    }

    /// Entries evicted by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.0.evictions()
    }

    /// Current memo epoch; bumped by [`AnswerMemo::invalidate_all`].
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    /// Drops every entry and bumps the epoch, on the same automatic
    /// triggers as [`FeatureCache::invalidate_all`].
    pub fn invalidate_all(&self) {
        self.0.invalidate_all();
    }
}

/// The cache levels one owner holds: a service holds both (or, sharded,
/// only the memo — its merged answers are global), a shard only its
/// feature cache. Owns what is the same for every owner: construction from
/// a [`CachePolicy`], counters, invalidation and memo admission.
pub(crate) struct CacheLevels {
    features: Option<FeatureCache>,
    answers: Option<AnswerMemo>,
}

impl CacheLevels {
    /// Builds the levels `policy` enables (capacity `0` = level absent).
    pub(crate) fn new(policy: CachePolicy) -> Self {
        CacheLevels {
            features: (policy.feature_capacity > 0)
                .then(|| FeatureCache::new(policy.feature_capacity)),
            answers: (policy.answer_capacity > 0).then(|| AnswerMemo::new(policy.answer_capacity)),
        }
    }

    /// The feature cache as the store the filter stage consults.
    pub(crate) fn feature_store(&self) -> Option<&dyn FeatureCacheStore> {
        self.features.as_ref().map(|f| f as &dyn FeatureCacheStore)
    }

    /// Adds this owner's hit/miss/eviction counts into `counters`.
    pub(crate) fn add_counters(&self, counters: &mut CacheCounters) {
        if let Some(features) = &self.features {
            counters.feature_hits += features.hits();
            counters.feature_misses += features.misses();
            counters.evictions += features.evictions();
        }
        if let Some(memo) = &self.answers {
            counters.answer_hits += memo.hits();
            counters.answer_misses += memo.misses();
            counters.evictions += memo.evictions();
        }
    }

    /// Drops every entry of every level held and bumps their epochs.
    pub(crate) fn invalidate_all(&self) {
        if let Some(features) = &self.features {
            features.invalidate_all();
        }
        if let Some(memo) = &self.answers {
            memo.invalidate_all();
        }
    }

    /// Admission-time memo probe of one batch or wave. `deadline_of(i)` is
    /// query `i`'s effective deadline: a query already [`past`] it is not
    /// probed and comes back a miss, so the executor reports it `TimedOut`
    /// exactly as the uncached path would — a memo must never change
    /// outcome semantics. Without a memo every query is a miss.
    pub(crate) fn admit(
        &self,
        queries: &[&Graph],
        deadline_of: impl Fn(usize) -> Option<Instant>,
    ) -> MemoAdmission<'_> {
        let Some(memo) = &self.answers else {
            return MemoAdmission {
                memo: None,
                keys: Vec::new(),
                hits: Vec::new(),
                misses: (0..queries.len()).collect(),
            };
        };
        let mut admission = MemoAdmission {
            memo: Some(memo),
            keys: Vec::with_capacity(queries.len()),
            hits: Vec::new(),
            misses: Vec::new(),
        };
        for (i, query) in queries.iter().enumerate() {
            let key = if past(deadline_of(i), Instant::now()) {
                None
            } else {
                answer_memo_key(query)
            };
            let probe = Stopwatch::start();
            match key.as_deref().and_then(|k| memo.lookup(k)) {
                Some(entry) => admission.hits.push((i, entry, probe.elapsed_secs())),
                None => admission.misses.push(i),
            }
            admission.keys.push(key);
        }
        admission
    }
}

/// The outcome of [`CacheLevels::admit`]: which queries the memo answered
/// and which must execute, plus the canonical keys under which the latter
/// may be memoized once they [`MemoAdmission::settle`].
pub(crate) struct MemoAdmission<'m> {
    memo: Option<&'m AnswerMemo>,
    /// Canonical key per query; `None` for expired and oversized queries.
    /// Empty when there is no memo.
    keys: Vec<Option<String>>,
    /// `(query index, memoized entry, probe seconds)` per hit, ascending.
    pub(crate) hits: Vec<(usize, Arc<AnswerEntry>, f64)>,
    /// Ascending indices of the queries that must execute.
    pub(crate) misses: Vec<usize>,
}

impl MemoAdmission<'_> {
    /// Reports how missed query `i` ended. Only `Complete` answers are
    /// memoized: a `Degraded` union is sound but incomplete, and serving it
    /// from the memo later would silently repeat the loss.
    pub(crate) fn settle(
        &self,
        i: usize,
        outcome: QueryOutcome,
        answers: &[GraphId],
        candidate_count: usize,
        candidates_pruned: usize,
    ) {
        if outcome != QueryOutcome::Complete {
            return;
        }
        if let (Some(memo), Some(Some(key))) = (self.memo, self.keys.get(i)) {
            memo.insert(
                key.clone(),
                AnswerEntry {
                    answers: answers.to_vec(),
                    candidate_count,
                    candidates_pruned,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    #[test]
    fn lru_capacity_two_evicts_lru_not_mru() {
        // The ISSUE's pinned eviction scenario: A, B, A, C — the A probe
        // refreshes A's recency, so inserting C must evict B, not A.
        let mut lru = Lru::new(2);
        lru.put("A".into(), 1);
        lru.put("B".into(), 2);
        assert_eq!(lru.get("A"), Some(&1));
        lru.put("C".into(), 3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.get("B"), None, "B was LRU and must be evicted");
        assert_eq!(lru.get("A"), Some(&1), "A was refreshed and must survive");
        assert_eq!(lru.get("C"), Some(&3));
    }

    #[test]
    fn lru_refresh_on_put_updates_value_and_recency() {
        let mut lru = Lru::new(2);
        lru.put("A".into(), 1);
        lru.put("B".into(), 2);
        lru.put("A".into(), 10); // refresh, not insert: no eviction
        assert_eq!(lru.evictions(), 0);
        lru.put("C".into(), 3); // now B is LRU
        assert_eq!(lru.get("B"), None);
        assert_eq!(lru.get("A"), Some(&10));
    }

    #[test]
    fn lru_single_slot_churns() {
        let mut lru = Lru::new(1);
        for (i, key) in ["x", "y", "z"].iter().enumerate() {
            lru.put((*key).into(), i);
            assert_eq!(lru.get(key), Some(&i));
            assert_eq!(lru.len(), 1);
        }
        assert_eq!(lru.evictions(), 2);
    }

    #[test]
    fn feature_cache_counts_and_invalidates() {
        let cache = FeatureCache::new(8);
        assert!(FeatureCacheStore::get(&cache, "k").is_none());
        FeatureCacheStore::put(&cache, "k".into(), Arc::new(CandidateSet::full(5)));
        assert_eq!(FeatureCacheStore::get(&cache, "k").expect("hit").len(), 5);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let epoch = cache.epoch();
        cache.invalidate_all();
        assert_eq!(cache.epoch(), epoch + 1);
        assert!(FeatureCacheStore::get(&cache, "k").is_none());
    }

    /// The admission invariants, once, at the core both services share:
    /// (a) an expired query is never probed, (b) only `Complete` answers
    /// are memoized, (c) isomorphic queries share a key and oversized ones
    /// have none.
    #[test]
    fn admission_core_invariants() {
        // The same triangle built with two different vertex orders: exact
        // canonicalization gives both the same memo key.
        let tri = GraphBuilder::new("q1")
            .vertices(&[1, 2, 3])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let tri_iso = GraphBuilder::new("q2")
            .vertices(&[3, 1, 2])
            .edges(&[(1, 2), (2, 0), (0, 1)])
            .build()
            .unwrap();
        assert_eq!(answer_memo_key(&tri), answer_memo_key(&tri_iso));
        // One vertex past exact canonicalization: WL-fallback keys may
        // collide and must not gate correctness, so there is no key.
        let n = MAX_EXACT_CANON_VERTICES + 1;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let big = GraphBuilder::new("big")
            .vertices(&vec![1; n])
            .edges(&edges)
            .build()
            .unwrap();
        assert!(answer_memo_key(&big).is_none());

        let caches = CacheLevels::new(CachePolicy {
            feature_capacity: 0,
            answer_capacity: 8,
        });
        let lookups = || {
            let mut c = CacheCounters::default();
            caches.add_counters(&mut c);
            c.answer_hits + c.answer_misses
        };
        // (b) every non-Complete outcome settles without memoizing.
        for outcome in [
            QueryOutcome::Degraded { shards_missing: 1 },
            QueryOutcome::Failed,
            QueryOutcome::TimedOut,
        ] {
            let admission = caches.admit(&[&tri], |_| None);
            assert_eq!(admission.misses, vec![0]);
            admission.settle(0, outcome, &[0, 2], 3, 7);
            let again = caches.admit(&[&tri], |_| None);
            assert!(again.hits.is_empty(), "{} was memoized", outcome.name());
        }
        let admission = caches.admit(&[&tri, &big], |_| None);
        assert_eq!(admission.misses, vec![0, 1]);
        admission.settle(0, QueryOutcome::Complete, &[0, 2], 3, 7);
        admission.settle(1, QueryOutcome::Complete, &[5], 1, 9);

        let now = Instant::now();
        let live = Some(now + std::time::Duration::from_secs(60));
        let expired = Some(now - std::time::Duration::from_secs(1));
        // (name, query, deadline, probed-and-hit?)
        let table: [(&str, &Graph, Option<Instant>, bool); 4] = [
            ("isomorphic query shares the entry", &tri_iso, None, true),
            ("open deadline probes", &tri, live, true),
            ("expired query is not probed", &tri, expired, false),
            ("oversized query is not probed", &big, None, false),
        ];
        for (name, query, deadline, hit) in table {
            let before = lookups();
            let admission = caches.admit(&[query], |_| deadline);
            assert_eq!(lookups() - before, hit as u64, "{name}");
            if hit {
                assert!(admission.misses.is_empty(), "{name}");
                let (i, entry, _) = &admission.hits[0];
                assert_eq!((*i, entry.answers.as_slice()), (0, &[0, 2][..]), "{name}");
                assert_eq!((entry.candidate_count, entry.candidates_pruned), (3, 7));
            } else {
                assert!(admission.hits.is_empty(), "{name}");
                assert_eq!(admission.misses, vec![0], "{name}");
            }
        }
    }
}

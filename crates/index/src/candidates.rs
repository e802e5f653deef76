//! Shared candidate-set engine for the filtering stage.
//!
//! Every filter-and-verify method spends its filtering stage intersecting
//! per-feature sets of graph ids. This module is the one engine that does
//! it:
//!
//! * [`CandidateSet`] — a dense bitset over graph ids (`u64` blocks sized to
//!   the dataset). Intersection and union are word-wise `&`/`|` sweeps,
//!   membership is popcount-free bit probing, and cardinality is a popcount
//!   sweep. One set is allocated per worker and *narrowed in place*, so the
//!   per-feature cost is `O(dataset / 64)` words with zero allocation.
//! * [`ArenaFold`] — the seed-then-narrow loop over a caller-owned arena
//!   set, and `fold_rarest_first`, the one routine GraphGrepSX, Grapes,
//!   gIndex and Tree+Δ all filter through: each method only *describes* its
//!   query's postings (the crate-private `Posting` trait), the routine sorts
//!   them rarest-first, folds them — streamed, or as cached bitsets when a
//!   [`FilterCacheCtx`] is attached — and short-circuits on empty.
//!
//! [`crate::intersect_sorted`] (the sorted-`Vec` linear merge) stays as the
//! reference the engine is property-tested against.

use crate::fcache::FilterCacheCtx;
use sqbench_graph::{Dataset, GraphId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BLOCK_BITS: usize = 64;

/// Sentinel stored in [`CandidateSet::cached_len`] when the cached
/// cardinality is stale and must be recomputed by the next `len()` call.
const LEN_DIRTY: usize = usize::MAX;

/// AND of two equal-length block slices, unrolled 4×u64 wide. The unroll
/// gives the compiler four independent scalar ops per iteration (or a
/// 256-bit vector op under autovectorization) instead of a one-word
/// dependency chain.
#[inline]
fn and_blocks_wide(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut d4 = dst.chunks_exact_mut(4);
    let mut s4 = src.chunks_exact(4);
    for (d, s) in (&mut d4).zip(&mut s4) {
        d[0] &= s[0];
        d[1] &= s[1];
        d[2] &= s[2];
        d[3] &= s[3];
    }
    for (d, s) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *d &= *s;
    }
}

/// OR of two equal-length block slices, unrolled 4×u64 wide.
#[inline]
fn or_blocks_wide(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut d4 = dst.chunks_exact_mut(4);
    let mut s4 = src.chunks_exact(4);
    for (d, s) in (&mut d4).zip(&mut s4) {
        d[0] |= s[0];
        d[1] |= s[1];
        d[2] |= s[2];
        d[3] |= s[3];
    }
    for (d, s) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *d |= *s;
    }
}

/// AND-NOT (`dst &= !mask`) unrolled 4×u64 wide. `mask` may be shorter
/// (remaining `dst` blocks are untouched) or longer (excess mask blocks
/// describe ids above `dst`'s universe and are ignored) than `dst`.
#[inline]
fn and_not_blocks_wide(dst: &mut [u64], mask: &[u64]) {
    let n = dst.len().min(mask.len());
    let (dst, mask) = (&mut dst[..n], &mask[..n]);
    let mut d4 = dst.chunks_exact_mut(4);
    let mut m4 = mask.chunks_exact(4);
    for (d, m) in (&mut d4).zip(&mut m4) {
        d[0] &= !m[0];
        d[1] &= !m[1];
        d[2] &= !m[2];
        d[3] &= !m[3];
    }
    for (d, m) in d4.into_remainder().iter_mut().zip(m4.remainder()) {
        *d &= !*m;
    }
}

/// Dense bitset over the graph ids `0..universe` of a dataset.
///
/// Cardinality is cached lazily: mutating ops mark the cache dirty (or
/// adjust it incrementally where the delta is known), so repeated `len()`
/// calls inside filter folds and admission cost modeling stop re-running
/// the popcount sweep. The cache is an [`AtomicUsize`] (not a `Cell`) so
/// the set stays `Sync` — feature caches share `Arc<CandidateSet>` values
/// across query workers.
#[derive(Debug)]
pub struct CandidateSet {
    blocks: Vec<u64>,
    universe: usize,
    /// Cached cardinality; [`LEN_DIRTY`] when stale. Interior-mutable so
    /// `len(&self)` can fill it in.
    cached_len: AtomicUsize,
}

impl Clone for CandidateSet {
    fn clone(&self) -> Self {
        CandidateSet {
            blocks: self.blocks.clone(),
            universe: self.universe,
            cached_len: AtomicUsize::new(self.cached_len.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        // The cached length is derived state: two sets with equal content
        // compare equal regardless of which has a warm cache.
        self.universe == other.universe && self.blocks == other.blocks
    }
}

impl Eq for CandidateSet {}

impl CandidateSet {
    /// The empty set over `0..universe`.
    pub fn empty(universe: usize) -> Self {
        CandidateSet {
            blocks: vec![0; universe.div_ceil(BLOCK_BITS)],
            universe,
            cached_len: AtomicUsize::new(0),
        }
    }

    /// The full set over `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut set = CandidateSet {
            blocks: vec![!0u64; universe.div_ceil(BLOCK_BITS)],
            universe,
            cached_len: AtomicUsize::new(universe),
        };
        set.mask_tail();
        set
    }

    /// Builds a set from an ascending (not necessarily strictly) id slice.
    pub fn from_sorted_ids(universe: usize, ids: &[GraphId]) -> Self {
        let mut set = CandidateSet::empty(universe);
        for &id in ids {
            set.insert(id);
        }
        set
    }

    /// Clears bits above `universe` in the last block. Does not touch the
    /// cached length — callers account for it.
    fn mask_tail(&mut self) {
        let tail = self.universe % BLOCK_BITS;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Marks the cached cardinality stale. Every mutating op whose effect
    /// on the cardinality is not tracked incrementally must call this.
    #[inline]
    fn invalidate_len(&mut self) {
        *self.cached_len.get_mut() = LEN_DIRTY;
    }

    /// Number of ids the set ranges over (the dataset size, not the
    /// cardinality).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of ids in the set. The popcount sweep runs only when the
    /// cache is stale; otherwise this is a single atomic load.
    pub fn len(&self) -> usize {
        let cached = self.cached_len.load(Ordering::Relaxed);
        if cached != LEN_DIRTY {
            return cached;
        }
        let n = self.blocks.iter().map(|b| b.count_ones() as usize).sum();
        // Relaxed is enough: the value is derived purely from `blocks`,
        // which cannot change concurrently with a shared `&self` borrow.
        self.cached_len.store(n, Ordering::Relaxed);
        n
    }

    /// `true` if no id is in the set.
    pub fn is_empty(&self) -> bool {
        let cached = self.cached_len.load(Ordering::Relaxed);
        if cached != LEN_DIRTY {
            return cached == 0;
        }
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Adds `id` to the set.
    ///
    /// Stays branchless on purpose — per-id inserts seed every filter fold
    /// and drive the CT-Index/gCode scan loops, and maintaining the length
    /// cache incrementally here (a membership branch per insert) measured
    /// ~1.8x slower on the `micro_candidate_fold` seeding path. The cache
    /// is simply marked dirty instead; the next `len()` pays one sweep.
    pub fn insert(&mut self, id: GraphId) {
        debug_assert!(
            id < self.universe,
            "id {id} outside universe {}",
            self.universe
        );
        self.blocks[id / BLOCK_BITS] |= 1u64 << (id % BLOCK_BITS);
        self.invalidate_len();
    }

    /// Removes `id` from the set. Branchless, like [`CandidateSet::insert`].
    pub fn remove(&mut self, id: GraphId) {
        debug_assert!(
            id < self.universe,
            "id {id} outside universe {}",
            self.universe
        );
        self.blocks[id / BLOCK_BITS] &= !(1u64 << (id % BLOCK_BITS));
        self.invalidate_len();
    }

    /// Membership test.
    pub fn contains(&self, id: GraphId) -> bool {
        id < self.universe && self.blocks[id / BLOCK_BITS] & (1u64 << (id % BLOCK_BITS)) != 0
    }

    /// Removes every id (keeps the allocation).
    pub fn clear(&mut self) {
        self.blocks.fill(0);
        *self.cached_len.get_mut() = 0;
    }

    /// Re-targets the set at a possibly different `universe` and empties it,
    /// reusing the block allocation. This is the arena entry point of the
    /// borrowed-set filtering contract ([`crate::GraphIndex::filter_into`]):
    /// a worker-owned set is reset per query instead of reallocated.
    pub fn reset_empty(&mut self, universe: usize) {
        let blocks = universe.div_ceil(BLOCK_BITS);
        self.blocks.truncate(blocks);
        self.blocks.fill(0);
        self.blocks.resize(blocks, 0);
        self.universe = universe;
        *self.cached_len.get_mut() = 0;
    }

    /// Re-targets the set at a possibly different `universe` and fills it
    /// (every id `0..universe` becomes a member), reusing the allocation.
    pub fn reset_full(&mut self, universe: usize) {
        let blocks = universe.div_ceil(BLOCK_BITS);
        self.blocks.truncate(blocks);
        self.blocks.fill(!0u64);
        self.blocks.resize(blocks, !0u64);
        self.universe = universe;
        self.mask_tail();
        *self.cached_len.get_mut() = universe;
    }

    /// In-place intersection: `self &= other`. Both sets must range over the
    /// same universe. Runs the 4×u64 wide kernel.
    pub fn intersect_with(&mut self, other: &CandidateSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        and_blocks_wide(&mut self.blocks, &other.blocks);
        self.invalidate_len();
    }

    /// In-place union: `self |= other`. Both sets must range over the same
    /// universe. Runs the 4×u64 wide kernel.
    pub fn union_with(&mut self, other: &CandidateSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        or_blocks_wide(&mut self.blocks, &other.blocks);
        self.invalidate_len();
    }

    /// Clears every id whose bit is set in `mask` (a block bitmask as kept
    /// by [`Tombstones`]) in one wide AND-NOT sweep. Mask blocks beyond the
    /// set's universe are ignored, matching the per-id semantics.
    pub fn clear_blocks(&mut self, mask: &[u64]) {
        and_not_blocks_wide(&mut self.blocks, mask);
        self.invalidate_len();
    }

    /// One-word-at-a-time reference implementations of the wide kernels.
    /// Kept (hidden) so the `micro_hotloops` bench and the equivalence
    /// proptests can A/B the unrolled paths against the obvious scalar
    /// loop on identical inputs.
    #[doc(hidden)]
    pub fn intersect_with_scalar(&mut self, other: &CandidateSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a &= b;
        }
        self.invalidate_len();
    }

    #[doc(hidden)]
    pub fn union_with_scalar(&mut self, other: &CandidateSet) {
        debug_assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a |= b;
        }
        self.invalidate_len();
    }

    /// In-place intersection with an **ascending** id stream, without
    /// materializing the stream as a set: blocks the stream skips are
    /// zeroed, blocks it touches are masked to the streamed bits. Runs in
    /// `O(stream + blocks)` with zero allocation — this is the hot loop of
    /// the filtering stage.
    pub fn retain_sorted<I>(&mut self, ids: I)
    where
        I: IntoIterator<Item = GraphId>,
    {
        if self.blocks.is_empty() {
            return;
        }
        self.invalidate_len();
        let mut current = 0usize;
        let mut mask = 0u64;
        for id in ids {
            debug_assert!(
                id < self.universe,
                "id {id} outside universe {}",
                self.universe
            );
            let block = id / BLOCK_BITS;
            debug_assert!(block >= current, "retain_sorted requires ascending ids");
            if block != current {
                self.blocks[current] &= mask;
                self.blocks[current + 1..block].fill(0);
                current = block;
                mask = 0;
            }
            mask |= 1u64 << (id % BLOCK_BITS);
        }
        self.blocks[current] &= mask;
        self.blocks[current + 1..].fill(0);
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = GraphId> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &block)| {
            let base = i * BLOCK_BITS;
            BlockBits { block }.map(move |bit| base + bit)
        })
    }

    /// Materializes the set as a sorted `Vec<GraphId>` — done once per
    /// query, when the filter hands its result to verification.
    pub fn to_sorted_vec(&self) -> Vec<GraphId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// Estimated heap bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.blocks.capacity() * std::mem::size_of::<u64>()
    }
}

/// Iterator over the set bit positions of a single block.
struct BlockBits {
    block: u64,
}

impl Iterator for BlockBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.block == 0 {
            return None;
        }
        let bit = self.block.trailing_zeros() as usize;
        self.block &= self.block - 1;
        Some(bit)
    }
}

/// The dead-id mask every mutable index carries: a sorted list of removed
/// graph ids over the (dense, stable) id space of its dataset.
///
/// Removal is two-phase, and both phases live in the provided methods of
/// [`crate::GraphIndex`]. `remove` records the dead id
/// ([`Tombstones::mark`]); `filter_into` ends with [`Tombstones::apply`],
/// which clears dead bits from the candidate set — this covers posting
/// payloads that still mention the id *and* the "unconstrained → full set"
/// fallbacks (Scan, folds with no indexed feature). When the mask grows past
/// [`Tombstones::should_compact`], `remove` has the index purge its payloads
/// (support `retain`, trie purge, …) — but the mask itself is
/// **kept**, because the full-set fallbacks never consult payloads at all.
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    dead: Vec<GraphId>,
    /// Eagerly maintained block bitmask over the dead ids, so
    /// [`Tombstones::apply`] is a single wide AND-NOT sweep instead of a
    /// per-id scatter of bounds-checked `remove` calls. Sized to the
    /// highest dead id, not the universe — candidate sets zip against it
    /// and ignore the (absent) tail.
    mask: Vec<u64>,
}

impl PartialEq for Tombstones {
    fn eq(&self, other: &Self) -> bool {
        // `mask` is derived from `dead`; comparing it would only re-check
        // the same information.
        self.dead == other.dead
    }
}

impl Eq for Tombstones {}

impl Tombstones {
    /// An empty mask.
    pub fn new() -> Self {
        Tombstones::default()
    }

    /// Builds the mask from an already-sorted dead id slice (the shape
    /// `Dataset::dead_ids` hands out, so an index built over a previously
    /// mutated dataset starts consistent).
    pub fn from_sorted(dead: &[GraphId]) -> Self {
        debug_assert!(
            dead.windows(2).all(|w| w[0] < w[1]),
            "dead ids must be strictly ascending"
        );
        let mut mask = Vec::new();
        for &id in dead {
            Self::set_mask_bit(&mut mask, id);
        }
        Tombstones {
            dead: dead.to_vec(),
            mask,
        }
    }

    fn set_mask_bit(mask: &mut Vec<u64>, id: GraphId) {
        let block = id / BLOCK_BITS;
        if block >= mask.len() {
            mask.resize(block + 1, 0);
        }
        mask[block] |= 1u64 << (id % BLOCK_BITS);
    }

    /// The dead ids as a block bitmask (see [`CandidateSet::clear_blocks`]).
    pub fn block_mask(&self) -> &[u64] {
        &self.mask
    }

    /// Marks `id` dead. Returns `false` when it already was.
    pub fn mark(&mut self, id: GraphId) -> bool {
        match self.dead.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.dead.insert(pos, id);
                Self::set_mask_bit(&mut self.mask, id);
                true
            }
        }
    }

    /// `true` when `id` has been removed.
    pub fn contains(&self, id: GraphId) -> bool {
        self.dead.binary_search(&id).is_ok()
    }

    /// Number of dead ids.
    pub fn len(&self) -> usize {
        self.dead.len()
    }

    /// `true` when nothing has been removed.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }

    /// The dead ids, ascending.
    pub fn ids(&self) -> &[GraphId] {
        &self.dead
    }

    /// Clears every dead bit from `out` — the closing step of
    /// [`crate::GraphIndex::filter_into`] (nothing after it may set a bit).
    /// One wide AND-NOT sweep over the maintained block mask;
    /// dead ids above `out`'s universe fall off the end of the zip.
    pub fn apply(&self, out: &mut CandidateSet) {
        if self.dead.is_empty() {
            return;
        }
        out.clear_blocks(&self.mask);
    }

    /// Per-id reference implementation of [`Tombstones::apply`], kept
    /// (hidden) for the kernel A/B bench and the equivalence proptests.
    #[doc(hidden)]
    pub fn apply_scalar(&self, out: &mut CandidateSet) {
        for &id in &self.dead {
            if id < out.universe() {
                out.remove(id);
            }
        }
    }

    /// `true` when the mask is large enough (both absolutely and relative
    /// to `universe`) that payload compaction pays for itself.
    pub fn should_compact(&self, universe: usize) -> bool {
        self.dead.len() >= 32 && self.dead.len() * 8 >= universe
    }

    /// Estimated heap bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.dead.capacity() * std::mem::size_of::<GraphId>()
            + self.mask.capacity() * std::mem::size_of::<u64>()
    }
}

/// The id space of one mutable index: how many ids were ever issued (dense
/// and stable — dead slots stay allocated) and which of them are dead. Every
/// method holds exactly one and hands it to the provided lifecycle methods of
/// [`crate::GraphIndex`] (`universe`, `insert`, `remove`, `filter_into`),
/// which are the only code that advances it.
#[derive(Debug, Clone)]
pub struct IdSpace {
    universe: usize,
    tombstones: Tombstones,
}

impl IdSpace {
    /// The id space of `dataset`: every slot it has, dead ones included, so
    /// an index built over a previously mutated dataset starts consistent.
    pub fn of(dataset: &Dataset) -> Self {
        IdSpace {
            universe: dataset.len(),
            tombstones: Tombstones::from_sorted(dataset.dead_ids()),
        }
    }

    /// Number of ids issued so far, dead ones included.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The removed ids.
    pub fn tombstones(&self) -> &Tombstones {
        &self.tombstones
    }

    /// Issues the next id.
    pub(crate) fn issue(&mut self) -> GraphId {
        self.universe += 1;
        self.universe - 1
    }

    /// Marks `id` dead. `false` when it was never issued or already is.
    pub(crate) fn retire(&mut self, id: GraphId) -> bool {
        id < self.universe && self.tombstones.mark(id)
    }

    /// The compaction policy: `true` when enough of the id space is dead
    /// that purging posting payloads pays for itself.
    pub(crate) fn should_compact(&self) -> bool {
        self.tombstones.should_compact(self.universe)
    }
}

/// The seed-then-narrow loop of the filtering stage, folding into a
/// caller-owned arena [`CandidateSet`]: the first feature applied seeds the
/// set, later ones narrow it in place, and a fold that no feature constrained
/// finishes as the full set ("no information" — the gIndex / Tree+Δ
/// semantics). A query service hands each worker's reusable arena to
/// [`crate::GraphIndex::filter_into`], so no per-query set (or
/// `Vec<GraphId>`) is ever allocated.
///
/// Dropping the fold without calling [`ArenaFold::finish`] leaves the arena
/// in whatever narrowed state it reached — the short-circuit on an empty set
/// relies on exactly that.
#[derive(Debug)]
pub struct ArenaFold<'a> {
    set: &'a mut CandidateSet,
    constrained: bool,
}

impl<'a> ArenaFold<'a> {
    /// Starts a fold over `0..universe` in the given arena. The arena is
    /// reset (and re-targeted at `universe` if it last served a different
    /// dataset); its allocation is reused.
    pub fn new(set: &'a mut CandidateSet, universe: usize) -> Self {
        set.reset_empty(universe);
        ArenaFold {
            set,
            constrained: false,
        }
    }

    /// Applies one feature's ascending id stream: the first stream seeds the
    /// set, later ones narrow it in place. Returns `false` when the set
    /// became empty (callers short-circuit).
    pub fn apply_sorted<I>(&mut self, ids: I) -> bool
    where
        I: IntoIterator<Item = GraphId>,
    {
        if self.constrained {
            self.set.retain_sorted(ids);
        } else {
            for id in ids {
                self.set.insert(id);
            }
            self.constrained = true;
        }
        !self.set.is_empty()
    }

    /// Applies one feature's already-materialized bitset (a cached posting
    /// list): the blockwise counterpart of [`ArenaFold::apply_sorted`]. The
    /// first set seeds the fold via a block copy, later ones narrow it with
    /// a block AND — both O(universe / 64) regardless of how many ids the
    /// feature posts. `other` must share the fold's universe (the cache
    /// layer guarantees this by keying entries per index instance; the
    /// blockwise ops `debug_assert` it). Returns `false` when the set
    /// became empty (callers short-circuit).
    pub fn apply_set(&mut self, other: &CandidateSet) -> bool {
        if self.constrained {
            self.set.intersect_with(other);
        } else {
            // The arena was `reset_empty` by `new`, so a union is a copy.
            self.set.union_with(other);
            self.constrained = true;
        }
        !self.set.is_empty()
    }

    /// `true` when at least one feature has been applied.
    pub fn is_constrained(&self) -> bool {
        self.constrained
    }

    /// Finishes the fold: an unconstrained fold (no feature applied) means
    /// "no information", so the arena becomes the full set.
    pub fn finish(self) {
        if !self.constrained {
            let universe = self.set.universe();
            self.set.reset_full(universe);
        }
    }

    /// Finishes the fold as the empty set — the short-circuit for a query
    /// feature that is absent from the index (no graph can match).
    pub fn prune_all(self) {
        self.set.clear();
    }

    /// Continues a fold over an arena an earlier stage already seeded: every
    /// feature narrows, and finishing never widens to the full set.
    fn resume(set: &'a mut CandidateSet) -> Self {
        ArenaFold {
            set,
            constrained: true,
        }
    }

    /// The per-query fold both entry points below run: postings sorted
    /// rarest-first (stable, so equal lengths keep arrival order), each
    /// streamed into the arena — or, with a cache attached, folded as the
    /// feature's cached bitset, materialized and published on a miss — until
    /// the set runs empty.
    fn narrow<P: Posting>(
        mut self,
        mut postings: Vec<P>,
        mut ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        postings.sort_by_key(Posting::len);
        for posting in &postings {
            let alive = match ctx.as_deref_mut() {
                None => self.apply_sorted(posting.ids()),
                Some(ctx) => {
                    let key = posting.cache_key();
                    let cached = match ctx.get(&key) {
                        Some(set) => set,
                        None => {
                            let mut set = CandidateSet::empty(self.set.universe());
                            for id in posting.ids() {
                                set.insert(id);
                            }
                            let set = Arc::new(set);
                            ctx.put(key, Arc::clone(&set));
                            set
                        }
                    };
                    self.apply_set(&cached)
                }
            };
            if !alive {
                return;
            }
        }
        self.finish();
    }
}

/// One query feature's posting list, as [`fold_rarest_first`] sees it. A
/// method's filter only describes its postings; the fold does the rest.
pub(crate) trait Posting {
    /// An upper bound on the number of posted ids, cheap to read — the
    /// rarest-first sort key.
    fn len(&self) -> usize;

    /// The posted graph ids, strictly ascending.
    fn ids(&self) -> impl Iterator<Item = GraphId> + '_;

    /// The feature's cross-query cache key, unique within one index
    /// instance (a cache store is bound to one). Only built when a cache is
    /// attached.
    fn cache_key(&self) -> String;
}

/// A posting stored as a sorted id slice under a string feature key — the
/// shape of gIndex's mined supports and Tree+Δ's tree and Δ supports. `tag`
/// keeps the key spaces of one index apart.
pub(crate) struct SlicePosting<'a> {
    pub(crate) tag: char,
    pub(crate) key: &'a str,
    pub(crate) ids: &'a [GraphId],
}

impl Posting for SlicePosting<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn ids(&self) -> impl Iterator<Item = GraphId> + '_ {
        self.ids.iter().copied()
    }

    fn cache_key(&self) -> String {
        format!("{}:{}", self.tag, self.key)
    }
}

/// The filtering stage of every posting-fold method: resets `out` to
/// `0..universe` and folds the query's postings into it rarest-first,
/// leaving exactly the graphs every posting lists (all of them when there
/// is no posting). A `None` item is a feature the index proves no graph
/// has: it prunes everything before any posting is read or any cache probed.
///
/// With `ctx` absent the postings are streamed straight from the index
/// payloads — no key is built, nothing is allocated beyond the posting
/// descriptions. With `ctx` present each feature's bitset comes from (or
/// goes into) the cross-query cache. Both arms fold in the same order and
/// leave bit-identical sets.
pub(crate) fn fold_rarest_first<P: Posting>(
    out: &mut CandidateSet,
    universe: usize,
    postings: impl IntoIterator<Item = Option<P>>,
    ctx: Option<&mut FilterCacheCtx<'_>>,
) {
    let fold = ArenaFold::new(out, universe);
    let postings = postings.into_iter();
    let mut present = Vec::with_capacity(postings.size_hint().0);
    for posting in postings {
        match posting {
            Some(posting) => present.push(posting),
            None => return fold.prune_all(),
        }
    }
    fold.narrow(present, ctx);
}

/// [`fold_rarest_first`] for a later stage of the same query: narrows what
/// an earlier fold left in `out` instead of resetting it (Tree+Δ's Δ stage).
pub(crate) fn narrow_rarest_first<P: Posting>(
    out: &mut CandidateSet,
    postings: Vec<P>,
    ctx: Option<&mut FilterCacheCtx<'_>>,
) {
    ArenaFold::resume(out).narrow(postings, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = CandidateSet::empty(130);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        let f = CandidateSet::full(130);
        assert_eq!(f.len(), 130);
        assert!(f.contains(0) && f.contains(129));
        assert!(!f.contains(130));
        assert_eq!(f.to_sorted_vec(), (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn zero_universe() {
        let mut s = CandidateSet::full(0);
        assert_eq!(s.len(), 0);
        s.retain_sorted(std::iter::empty());
        assert!(s.to_sorted_vec().is_empty());
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = CandidateSet::empty(100);
        s.insert(3);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.to_sorted_vec(), vec![3, 99]);
    }

    #[test]
    fn intersect_and_union_blockwise() {
        let a = CandidateSet::from_sorted_ids(200, &[1, 63, 64, 128, 199]);
        let b = CandidateSet::from_sorted_ids(200, &[63, 64, 65, 199]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_sorted_vec(), vec![63, 64, 199]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_sorted_vec(), vec![1, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn retain_sorted_matches_reference_intersection() {
        let base = vec![0, 5, 63, 64, 65, 127, 128, 190];
        let streams: Vec<Vec<GraphId>> = vec![
            vec![],
            vec![0],
            vec![5, 64, 128],
            vec![63, 64, 65],
            (0..191).collect(),
            vec![190],
            vec![1, 2, 3, 4],
        ];
        for stream in streams {
            let mut set = CandidateSet::from_sorted_ids(191, &base);
            set.retain_sorted(stream.iter().copied());
            assert_eq!(
                set.to_sorted_vec(),
                crate::intersect_sorted(&base, &stream),
                "stream {stream:?}"
            );
        }
    }

    #[test]
    fn retain_sorted_on_full_set() {
        let mut set = CandidateSet::full(150);
        set.retain_sorted([7usize, 64, 149]);
        assert_eq!(set.to_sorted_vec(), vec![7, 64, 149]);
    }

    #[test]
    fn iteration_is_sorted() {
        let ids = vec![2, 63, 64, 66, 120, 127, 128];
        let set = CandidateSet::from_sorted_ids(129, &ids);
        let collected: Vec<GraphId> = set.iter().collect();
        assert_eq!(collected, ids);
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn tombstones_mark_apply_and_compact() {
        let mut dead = Tombstones::new();
        assert!(dead.is_empty());
        assert!(dead.mark(5));
        assert!(dead.mark(2));
        assert!(!dead.mark(5), "double-remove is a no-op");
        assert_eq!(dead.ids(), &[2, 5]);
        assert!(dead.contains(2) && !dead.contains(3));

        // apply clears dead bits, including on the full-set fallback path.
        let mut set = CandidateSet::full(8);
        dead.apply(&mut set);
        assert_eq!(set.to_sorted_vec(), vec![0, 1, 3, 4, 6, 7]);
        // Dead ids above a smaller universe are ignored, not a panic.
        let mut small = CandidateSet::full(4);
        dead.apply(&mut small);
        assert_eq!(small.to_sorted_vec(), vec![0, 1, 3]);

        // from_sorted round-trips the dataset's dead-id slice.
        assert_eq!(Tombstones::from_sorted(&[2, 5]), dead);
    }

    #[test]
    fn tombstones_compaction_threshold() {
        let mut dead = Tombstones::new();
        for id in 0..31 {
            dead.mark(id);
        }
        assert!(!dead.should_compact(100), "below the absolute floor");
        dead.mark(31);
        assert!(dead.should_compact(100), "32 dead of 100 is worth purging");
        assert!(
            !dead.should_compact(10_000),
            "32 dead of 10k is not worth a payload sweep"
        );
    }

    #[test]
    fn wide_kernels_match_scalar_reference() {
        // 300 ids → 5 blocks: exercises both the 4-wide body and the
        // 1-block remainder of every kernel.
        let a_ids: Vec<GraphId> = (0..300).filter(|x| x % 3 != 0).collect();
        let b_ids: Vec<GraphId> = (0..300).filter(|x| x % 2 == 0).collect();
        let a = CandidateSet::from_sorted_ids(300, &a_ids);
        let b = CandidateSet::from_sorted_ids(300, &b_ids);

        let mut wide = a.clone();
        wide.intersect_with(&b);
        let mut scalar = a.clone();
        scalar.intersect_with_scalar(&b);
        assert_eq!(wide, scalar);

        let mut wide = a.clone();
        wide.union_with(&b);
        let mut scalar = a.clone();
        scalar.union_with_scalar(&b);
        assert_eq!(wide, scalar);
    }

    #[test]
    fn tombstone_apply_is_wide_and_matches_scalar() {
        let mut dead = Tombstones::new();
        for id in [0usize, 63, 64, 128, 255, 299] {
            dead.mark(id);
        }
        let live: Vec<GraphId> = (0..300).filter(|x| x % 7 != 0).collect();
        let mut wide = CandidateSet::from_sorted_ids(300, &live);
        let mut scalar = wide.clone();
        dead.apply(&mut wide);
        dead.apply_scalar(&mut scalar);
        assert_eq!(wide, scalar);
        for id in dead.ids() {
            assert!(!wide.contains(*id));
        }
        // A mask taller than the set's universe is truncated, not a panic.
        let mut small = CandidateSet::full(70);
        dead.apply(&mut small);
        assert_eq!(small.to_sorted_vec(), {
            let mut v: Vec<GraphId> = (0..70).collect();
            v.retain(|id| !dead.contains(*id));
            v
        });
    }

    #[test]
    fn cached_len_tracks_every_mutation() {
        let mut s = CandidateSet::empty(300);
        assert_eq!(s.len(), 0);
        s.insert(5);
        s.insert(5); // idempotent
        s.insert(200);
        assert_eq!(s.len(), 2);
        s.remove(5);
        s.remove(5); // idempotent
        assert_eq!(s.len(), 1);
        s.reset_full(130);
        assert_eq!(s.len(), 130);
        s.retain_sorted([0usize, 64, 129]);
        assert_eq!(s.len(), 3);
        let other = CandidateSet::from_sorted_ids(130, &[64, 129]);
        s.intersect_with(&other);
        assert_eq!(s.len(), 2);
        s.union_with(&CandidateSet::from_sorted_ids(130, &[0, 1]));
        assert_eq!(s.len(), 4);
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        // Equality ignores cache warmth.
        let cold = CandidateSet::from_sorted_ids(10, &[3]);
        let mut warm = cold.clone();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm, cold);
        warm.remove(3);
        assert_ne!(warm, cold);
    }

    #[test]
    fn reset_reuses_allocation_across_universes() {
        let mut set = CandidateSet::from_sorted_ids(200, &[0, 64, 199]);
        // Shrink to a smaller universe: old bits must not leak through.
        set.reset_empty(70);
        assert_eq!(set.universe(), 70);
        assert!(set.is_empty());
        set.insert(69);
        assert_eq!(set.to_sorted_vec(), vec![69]);
        // Grow again, full: every id present, tail masked.
        set.reset_full(130);
        assert_eq!(set.universe(), 130);
        assert_eq!(set.len(), 130);
        assert!(!set.contains(130));
        // Full reset to a smaller universe keeps the tail clean.
        set.reset_full(65);
        assert_eq!(set.len(), 65);
        assert_eq!(set.iter().last(), Some(64));
    }

    #[test]
    fn arena_fold_matches_sorted_vec_chain() {
        let lists: Vec<Vec<GraphId>> = vec![vec![1, 3, 5, 7, 64], vec![3, 5, 64], vec![5, 64, 99]];
        let reference = lists[1..].iter().fold(lists[0].clone(), |acc, list| {
            crate::intersect_sorted(&acc, list)
        });
        let mut arena = CandidateSet::full(7); // dirty, wrong universe
        let mut fold = ArenaFold::new(&mut arena, 100);
        assert!(!fold.is_constrained());
        for list in &lists {
            assert!(fold.apply_sorted(list.iter().copied()));
        }
        assert!(fold.is_constrained());
        fold.finish();
        assert_eq!(arena.to_sorted_vec(), reference);
    }

    /// The fold's contract, once, at the fold: for every shape of posting
    /// set, the streamed arm, a cold cache, a warm cache and the sorted-`Vec`
    /// reference chain leave the same bits — whatever order the postings
    /// arrive in, however dirty the arena — and the streamed arm never
    /// touches the store.
    #[test]
    fn fold_contract_streamed_cached_and_reference_agree() {
        use crate::fcache::tests::MapStore;
        const UNIVERSE: usize = 150;
        let dead = Tombstones::from_sorted(&[5, 64]);
        // (name, postings — `None` is a feature absent from the index,
        // postings the cached arm probes before it is done)
        type Row = (&'static str, Vec<Option<Vec<GraphId>>>, usize);
        let table: Vec<Row> = vec![
            ("no posting: unconstrained, full", vec![], 0),
            ("one posting", vec![Some(vec![1, 5, 64, 149])], 1),
            (
                "several postings",
                vec![
                    Some(vec![1, 3, 5, 7, 64, 99]),
                    Some(vec![5, 64, 99]),
                    Some(vec![3, 5, 64, 99, 120]),
                ],
                3,
            ),
            (
                "empty intersection short-circuits before the long posting",
                vec![
                    Some((0..UNIVERSE).collect()),
                    Some(vec![2, 70]),
                    Some(vec![4, 71]),
                ],
                2,
            ),
            (
                "absent feature prunes all before any probe",
                vec![Some(vec![1, 2, 3]), None, Some(vec![2, 3])],
                0,
            ),
        ];
        for (name, postings, probed) in table {
            let mut reference: Vec<GraphId> = if postings.iter().any(Option::is_none) {
                Vec::new()
            } else {
                postings
                    .iter()
                    .flatten()
                    .fold((0..UNIVERSE).collect(), |acc, list| {
                        crate::intersect_sorted(&acc, list)
                    })
            };
            reference.retain(|id| !dead.contains(*id));
            let keys: Vec<String> = (0..postings.len()).map(|i| i.to_string()).collect();
            let store = MapStore::default();
            for rotation in 0..postings.len().max(1) {
                let describe = || {
                    let mut arrival: Vec<Option<SlicePosting<'_>>> = postings
                        .iter()
                        .zip(&keys)
                        .map(|(ids, key)| {
                            let ids = ids.as_deref()?;
                            Some(SlicePosting { tag: 'x', key, ids })
                        })
                        .collect();
                    arrival.rotate_left(rotation);
                    arrival
                };
                let run = |ctx: Option<&mut FilterCacheCtx<'_>>| {
                    let mut arena = CandidateSet::full(7); // dirty, wrong universe
                    fold_rarest_first(&mut arena, UNIVERSE, describe(), ctx);
                    assert_eq!(arena.universe(), UNIVERSE, "{name}");
                    dead.apply(&mut arena);
                    arena.to_sorted_vec()
                };
                let calls = store.calls();
                assert_eq!(run(None), reference, "{name}: streamed");
                assert_eq!(store.calls(), calls, "{name}: streamed arm used the store");
                // The first rotation runs cold (a get and a put per probed
                // posting); every later run is warm (a get each).
                let cold = rotation == 0;
                let mut ctx = FilterCacheCtx::new(&store);
                assert_eq!(run(Some(&mut ctx)), reference, "{name}: cold {cold}");
                assert_eq!(
                    store.calls() - calls,
                    if cold { 2 * probed } else { probed },
                    "{name}: store calls, cold {cold}"
                );
                assert_eq!(run(Some(&mut ctx)), reference, "{name}: warm");
            }
        }
    }
}

//! The unified, layered service configuration surface.
//!
//! One builder describes a whole service — unsharded or sharded, with or
//! without an admission queue in front — and every layer reads the part it
//! cares about. There is no other config type: the runner's `RunOptions`
//! embeds a [`ServiceOptions`] rather than mirroring its fields.
//!
//! ```
//! use sqbench_harness::service::{CachePolicy, RoutingMode, ServiceOptions, ShardStrategy};
//!
//! let opts = ServiceOptions::new()
//!     .workers(4)
//!     .shards(4)
//!     .strategy(ShardStrategy::LabelAware)
//!     .routing(RoutingMode::Synopsis)
//!     .cache(CachePolicy::enabled());
//! assert_eq!(opts.shards, 4);
//! ```

use super::cache::CachePolicy;
use super::fault::FaultPlan;
use super::sharded::ShardStrategy;
use super::synopsis::RoutingMode;
use std::sync::Arc;

/// One description of a whole query service, unsharded or sharded. Every
/// constructor of the serving stack takes it (directly or via
/// `impl Into<ServiceOptions>`): [`super::QueryService::new`] reads
/// `workers` and `cache`, [`super::sharded::ShardedService::new`] reads
/// all of it, [`super::admission::AdmissionQueue::new`] reads
/// `queue_capacity` and `faults`.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads per pool (per shard when sharded). Clamped to ≥ 1.
    /// Under dynamic scaling this is the *floor* a shard pool never
    /// shrinks below.
    pub workers: usize,
    /// Upper bound for dynamic per-shard worker scaling: a shard executor
    /// grows its pool from the observed probe backlog, between `workers`
    /// (the floor) and this cap. Values below `workers` — including the
    /// default of 1 — are clamped up to `workers` at use, which disables
    /// scaling: the pool stays at its fixed size.
    pub workers_max: usize,
    /// Dataset shards; `1` means the plain unsharded service. Clamped to
    /// ≥ 1 by the constructors.
    pub shards: usize,
    /// How graphs are placed onto shards.
    pub strategy: ShardStrategy,
    /// Shard routing: full fan-out or synopsis-based selective probing.
    pub routing: RoutingMode,
    /// The two-level cross-query cache (disabled by default).
    pub cache: CachePolicy,
    /// Capacity of an [`super::admission::AdmissionQueue`] built from
    /// these options. Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Deterministic fault-injection plan (tests and soak harnesses only;
    /// `None` is the zero-cost production path).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 1,
            workers_max: 1,
            shards: 1,
            strategy: ShardStrategy::default(),
            routing: RoutingMode::Fanout,
            cache: CachePolicy::disabled(),
            queue_capacity: 64,
            faults: None,
        }
    }
}

impl ServiceOptions {
    /// The default options: one worker, one shard, fan-out routing,
    /// caching disabled.
    pub fn new() -> Self {
        ServiceOptions::default()
    }

    /// Sets the worker threads per pool (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the dynamic-scaling worker cap per pool (clamped to ≥ 1 here
    /// and to ≥ `workers` at use). Leaving it at the default keeps the
    /// pool at its fixed `workers` size.
    pub fn workers_max(mut self, workers_max: usize) -> Self {
        self.workers_max = workers_max.max(1);
        self
    }

    /// Sets the shard count (clamped to ≥ 1; `1` = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the shard placement strategy.
    pub fn strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the shard routing mode.
    pub fn routing(mut self, routing: RoutingMode) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the cache policy (feature cache + answer memo).
    pub fn cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the admission-queue capacity (clamped to ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Arms a deterministic fault-injection plan.
    pub fn faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_and_chains() {
        let opts = ServiceOptions::new()
            .workers(0)
            .shards(0)
            .queue_capacity(0)
            .strategy(ShardStrategy::SizeBalanced)
            .routing(RoutingMode::Synopsis)
            .cache(CachePolicy::enabled());
        assert_eq!(opts.workers, 1);
        assert_eq!(opts.shards, 1);
        assert_eq!(opts.queue_capacity, 1);
        assert_eq!(opts.strategy, ShardStrategy::SizeBalanced);
        assert_eq!(opts.routing, RoutingMode::Synopsis);
        assert!(!opts.cache.is_disabled());
    }

    #[test]
    fn default_disables_caching() {
        assert!(ServiceOptions::default().cache.is_disabled());
    }

    /// The scaling cap defaults to the floor (scaling disabled) and clamps
    /// like every other knob.
    #[test]
    fn workers_max_defaults_off_and_clamps() {
        let opts = ServiceOptions::new().workers(3);
        assert!(
            opts.workers_max <= opts.workers,
            "a default cap above the floor would silently enable scaling"
        );
        let scaled = ServiceOptions::new().workers(2).workers_max(8);
        assert_eq!(scaled.workers_max, 8);
        assert_eq!(ServiceOptions::new().workers_max(0).workers_max, 1);
    }
}

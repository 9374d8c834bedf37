//! The planning-session layer: plan caching and warm-started search across
//! training iterations.
//!
//! The online planner (§3.2) re-plans every iteration, but dynamic
//! multimodal workloads repeat shapes: the Fig. 8b rise-and-fall envelope
//! cycles through the same image-count bounds, and production traces see
//! the same packed-batch shapes again and again. A [`PlanningSession`]
//! amortises that repetition the way a JIT caches compiled byte-code:
//!
//! * every [`PlanRequest`] is keyed by a canonical [`WorkloadSignature`]
//!   derived from the per-modality token/sequence counts of its
//!   microbatches ([`dip_models::BatchWorkload::signature`]); the cache key
//!   additionally folds in the cluster-topology fingerprint
//!   ([`WorkloadSignature::with_topology`]), so plans produced for
//!   different clusters never collide;
//! * plans for already-seen signatures are served from an O(1) LRU cache in
//!   microseconds instead of re-running the MCTS ordering search and the
//!   memory ILP (the [`SessionStats`] per-tier counters make the saving
//!   observable); the hit path takes a single cache-lock acquisition;
//! * with [`SessionConfig::bucketing`] enabled, exact misses fall through
//!   to a **fuzzy tier**: the request's quantised [`CanonicalSignature`]
//!   is looked up in a bucket-keyed anchor cache, and an in-bucket
//!   neighbour's plan is **delta-replanned** — the neighbour's
//!   sub-microbatch splits and memory plan are adopted, the stage graph is
//!   expanded once for the real shape and repriced in place, and only a
//!   tiny ordering search seeded from the neighbour's best ordering runs
//!   (budgeted by [`crate::OrderingSearchConfig::delta_budget`]); no full
//!   MCTS budget and no memory ILP, so fuzzy-hit latency sits orders of
//!   magnitude below a cold plan while staying within a small simulated
//!   regret of it (the `fuzzy_replanning` proptests bound it empirically);
//! * fresh signatures are planned **single-flight**: threads stampeding on
//!   the same new shape run the planner exactly once — one leader plans
//!   while the rest wait and then serve the freshly cached plan as a hit.
//!   The in-flight table is sharded with per-key wait slots, so thousands
//!   of distinct cold keys can stampede concurrently without convoying on
//!   one lock, and waiters for one key never wake waiters for another;
//! * on a cache miss, the ordering search is **warm-started** from the
//!   previous iteration's best ordering
//!   ([`crate::ordering_from_priorities`]), so similar-but-not-identical
//!   shapes start from a good incumbent instead of cold-starting.
//!
//! # Thread safety
//!
//! [`PlanningSession::plan`] takes `&self`: the plan cache lives behind a
//! `std::sync::RwLock` and the statistics/warm-start state behind
//! mutexes, so one session can be shared across threads (e.g. behind an
//! `Arc`, or borrowed into scoped threads) and serve cache hits
//! concurrently. [`PlanningSession::plan_many`] plans a slice of
//! independent requests through a worker pool sized so that the pool width
//! times the per-plan search parallelism stays within the
//! [`PlannerConfig::num_threads`] CPU budget. Operations that invalidate
//! the cache ([`PlanningSession::offline_partition`],
//! [`PlanningSession::clear`]) take `&mut self`, so the type system rules
//! out racing them against in-flight planning.
//!
//! # Example
//!
//! ```
//! use dip_core::{PlanRequest, PlanningSession, PlannerConfig};
//! use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
//! use dip_pipeline::ParallelConfig;
//! use dip_sim::ClusterSpec;
//!
//! let spec = zoo::vlm_s();
//! let cluster = ClusterSpec::h800_cluster(2);
//! let session = PlanningSession::new(
//!     &spec,
//!     ParallelConfig::new(4, 4, 1),
//!     &cluster,
//!     PlannerConfig::fast(),
//! );
//! let request = PlanRequest::new(vec![BatchWorkload::new()
//!     .with(Modality::Text, ModalityWorkload::new(6502, 1))
//!     .with(Modality::Image, ModalityWorkload::new(1690, 10))]);
//! let first = session.plan(&request).unwrap();
//! let second = session.plan(&request).unwrap();
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(first.plan.orders, second.plan.orders);
//! ```

use crate::error::DipError;
use crate::ordering::ordering_from_priorities;
use crate::par::parallel_map_indexed;
use crate::planner::{DipPlan, DipPlanner, PlanTier, PlannerConfig};
use crate::sync::{lock, read, write};
use dip_models::{BatchWorkload, BucketingConfig, CanonicalSignature, LmmSpec};
use dip_pipeline::{ExecutionOutcome, ParallelConfig};
use dip_sim::ClusterSpec;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Canonical signature of one iteration's prefetched workload metadata.
///
/// Two requests share a signature exactly when they contain the same
/// microbatch workloads in the same order; the underlying hash is stable
/// across processes, so signatures can be logged and compared between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkloadSignature(u64);

impl WorkloadSignature {
    /// Computes the signature of an iteration's microbatches.
    pub fn of(microbatches: &[BatchWorkload]) -> Self {
        // SplitMix64-style finalisation of each batch signature folded over
        // the sequence, so microbatch order matters and batches do not
        // cancel each other out.
        let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ (microbatches.len() as u64);
        for batch in microbatches {
            let mut z = acc.wrapping_add(batch.signature());
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = z ^ (z >> 31);
        }
        Self(acc)
    }

    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Folds a cluster-topology fingerprint
    /// ([`dip_sim::ClusterTopology::fingerprint`]) into the signature,
    /// producing the plan-cache key: the same workload planned for two
    /// different clusters yields two different keys, so their plans never
    /// collide in a cache.
    pub fn with_topology(self, fingerprint: u64) -> Self {
        let mut z = self.0 ^ fingerprint.rotate_left(32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self(z ^ (z >> 31))
    }
}

impl fmt::Display for WorkloadSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One iteration's planning request: the prefetched microbatch metadata
/// (workflow step ① of §3.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanRequest {
    microbatches: Vec<BatchWorkload>,
}

impl PlanRequest {
    /// A request planning `microbatches` for the next iteration.
    pub fn new(microbatches: Vec<BatchWorkload>) -> Self {
        Self { microbatches }
    }

    /// The microbatch workloads of the request.
    pub fn microbatches(&self) -> &[BatchWorkload] {
        &self.microbatches
    }

    /// The request's canonical workload signature (the plan-cache key).
    pub fn signature(&self) -> WorkloadSignature {
        WorkloadSignature::of(&self.microbatches)
    }
}

impl From<Vec<BatchWorkload>> for PlanRequest {
    fn from(microbatches: Vec<BatchWorkload>) -> Self {
        Self::new(microbatches)
    }
}

impl From<&[BatchWorkload]> for PlanRequest {
    fn from(microbatches: &[BatchWorkload]) -> Self {
        Self::new(microbatches.to_vec())
    }
}

/// The outcome of planning one request through a [`PlanningSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The execution plan (freshly computed, delta-replanned from an
    /// in-bucket neighbour, or restored from the cache).
    pub plan: DipPlan,
    /// The request's workload signature.
    pub signature: WorkloadSignature,
    /// True when the plan was served verbatim from the session's exact
    /// cache (equivalent to `tier == PlanTier::Exact`).
    pub cache_hit: bool,
    /// Which tier of the three-tier lookup served this request.
    pub tier: PlanTier,
}

/// Configuration of a [`PlanningSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum number of cached plans (LRU eviction); `0` disables caching.
    /// The fuzzy anchor cache (when [`SessionConfig::bucketing`] is set)
    /// has the same capacity.
    pub cache_capacity: usize,
    /// Warm-start the ordering search from the previous iteration's best
    /// ordering on cache misses.
    pub warm_start: bool,
    /// Enables the fuzzy tier: exact misses whose quantised
    /// [`CanonicalSignature`] matches a cached anchor are served by delta
    /// replanning instead of a cold plan. `None` (the default) keeps the
    /// session exact-only; the bucket widths trade fuzzy hit rate against
    /// worst-case in-bucket regret.
    pub bucketing: Option<BucketingConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 64,
            warm_start: true,
            bucketing: None,
        }
    }
}

impl SessionConfig {
    /// A session with caching and warm starts disabled — every request is
    /// planned from scratch (the pre-session behaviour, useful as a
    /// baseline).
    pub fn cold() -> Self {
        Self {
            cache_capacity: 0,
            warm_start: false,
            bucketing: None,
        }
    }

    /// A session with the fuzzy tier enabled under the default
    /// [`BucketingConfig`] (on top of the default exact cache).
    pub fn fuzzy() -> Self {
        Self {
            bucketing: Some(BucketingConfig::default()),
            ..Self::default()
        }
    }
}

/// Cumulative statistics of a [`PlanningSession`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionStats {
    /// Total plan requests served.
    pub requests: u64,
    /// Requests answered verbatim from the exact-signature plan cache.
    pub exact_hits: u64,
    /// Requests answered by the fuzzy tier: an in-bucket neighbour's plan
    /// was reused via delta replanning (or served verbatim under a zero
    /// delta budget). A fuzzy hit is **not** a miss — the tier totals
    /// satisfy `exact_hits + fuzzy_hits + cache_misses == requests`.
    pub fuzzy_hits: u64,
    /// Fuzzy hits that actually re-ran the seeded ordering search (the
    /// remainder adopted the neighbour's ordering verbatim because the
    /// delta budget bought no evaluations).
    pub delta_replans: u64,
    /// Requests that required a cold plan (including requests whose cold
    /// plan failed, so `requests == exact_hits + fuzzy_hits + cache_misses`
    /// always holds).
    pub cache_misses: u64,
    /// Cold plans whose search was warm-started (delta replans are seeded
    /// by construction and tracked under `delta_replans` instead).
    pub warm_started_plans: u64,
    /// Cached plans evicted by the LRU policy.
    pub evictions: u64,
    /// Cumulative wall-clock planning time (cache hits contribute only the
    /// lookup cost).
    pub planning_time: Duration,
    /// Planning wall time spent serving exact hits (pure lookup cost) —
    /// the per-tier latency split, summed per tier.
    pub exact_hit_time: Duration,
    /// Planning wall time spent serving fuzzy hits (graph expansion +
    /// reprice + delta search).
    pub fuzzy_plan_time: Duration,
    /// Planning wall time spent on cold plans (the full pipeline).
    pub cold_plan_time: Duration,
    /// Cumulative partitioning (sub-microbatch planning) time of fresh
    /// plans.
    pub partition_time: Duration,
    /// Cumulative stage-graph construction time of fresh plans (see
    /// [`crate::PlannerStats::graph_build_time`]).
    pub graph_build_time: Duration,
    /// Cumulative schedule-search time of fresh plans.
    pub search_time: Duration,
    /// Cumulative CPU time inside the parallel search streams of fresh
    /// plans (see [`crate::PlannerStats::search_cpu_time`]).
    pub search_cpu_time: Duration,
    /// Cumulative memory-optimisation time of fresh plans.
    pub memopt_time: Duration,
}

impl SessionStats {
    /// Fraction of requests served without a cold plan (exact plus fuzzy
    /// hits).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.exact_hits + self.fuzzy_hits) as f64 / self.requests as f64
        }
    }
}

/// One entry of the [`LruCache`]: the cached plan plus its position in the
/// intrusive recency list (`prev` is one step *more* recently used, `next`
/// one step less).
#[derive(Debug)]
struct LruEntry {
    /// Shared so the hit path can hand out a cheap `Arc` clone under the
    /// lock and deep-clone the plan outside the critical section.
    plan: Arc<DipPlan>,
    prev: Option<u64>,
    next: Option<u64>,
}

/// An O(1) LRU plan cache: a hash map whose entries double as nodes of an
/// intrusive doubly-linked recency list. Lookup, touch, insert and eviction
/// are all O(1) — replacing the previous `VecDeque` recency queue, whose
/// linear scan on every touch could also hold stale duplicate keys after
/// re-insertion and skew the eviction count.
#[derive(Debug, Default)]
struct LruCache {
    entries: HashMap<u64, LruEntry>,
    /// Most recently used key.
    head: Option<u64>,
    /// Least recently used key (the eviction candidate).
    tail: Option<u64>,
}

impl LruCache {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.head = None;
        self.tail = None;
    }

    /// The cached plan for `key`, without updating recency.
    #[cfg(test)]
    fn peek(&self, key: u64) -> Option<&DipPlan> {
        self.entries.get(&key).map(|e| e.plan.as_ref())
    }

    /// The cached plan for `key`, marking it most recently used — lookup
    /// and recency update under one `&mut` borrow, so the hit path needs a
    /// single lock acquisition instead of a read-then-write pair. Returns a
    /// cheap `Arc` handle so the caller deep-clones outside the lock.
    fn get(&mut self, key: u64) -> Option<Arc<DipPlan>> {
        if self.entries.contains_key(&key) {
            self.unlink(key);
            self.link_front(key);
        }
        self.entries.get(&key).map(|e| Arc::clone(&e.plan))
    }

    /// Unlinks `key` from the recency list (the entry stays in the map).
    fn unlink(&mut self, key: u64) {
        let (prev, next) = {
            let entry = &self.entries[&key];
            (entry.prev, entry.next)
        };
        match prev {
            Some(p) => self.entries.get_mut(&p).expect("linked prev").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.entries.get_mut(&n).expect("linked next").prev = prev,
            None => self.tail = prev,
        }
    }

    /// Links `key` (already in the map, currently unlinked) as most
    /// recently used.
    fn link_front(&mut self, key: u64) {
        let old_head = self.head;
        {
            let entry = self.entries.get_mut(&key).expect("entry to link");
            entry.prev = None;
            entry.next = old_head;
        }
        if let Some(h) = old_head {
            self.entries.get_mut(&h).expect("old head").prev = Some(key);
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
    }

    /// Marks `key` most recently used; a no-op if it is not cached (it may
    /// have been evicted between a read-locked lookup and this call).
    fn touch(&mut self, key: u64) {
        if self.entries.contains_key(&key) {
            self.unlink(key);
            self.link_front(key);
        }
    }

    /// Inserts (or replaces) `key`, evicting least-recently-used entries
    /// down to `capacity`; returns how many entries were evicted.
    fn insert(&mut self, key: u64, plan: DipPlan, capacity: usize) -> u64 {
        if capacity == 0 {
            return 0;
        }
        let plan = Arc::new(plan);
        if let Some(entry) = self.entries.get_mut(&key) {
            // Re-insertion of a cached key replaces the plan and refreshes
            // recency; it never grows the cache, so nothing is evicted.
            entry.plan = plan;
            self.touch(key);
            return 0;
        }
        let mut evicted = 0;
        while self.entries.len() >= capacity {
            let Some(oldest) = self.tail else { break };
            self.unlink(oldest);
            self.entries.remove(&oldest);
            evicted += 1;
        }
        self.entries.insert(
            key,
            LruEntry {
                plan,
                prev: None,
                next: None,
            },
        );
        self.link_front(key);
        evicted
    }

    /// Checks the map/list size invariants: the recency list visits every
    /// cached key exactly once, in both directions.
    #[cfg(test)]
    fn assert_invariants(&self) {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        let mut cursor = self.head;
        let mut prev = None;
        while let Some(key) = cursor {
            assert!(seen.insert(key), "duplicate key {key:#x} in recency list");
            let entry = self.entries.get(&key).expect("listed key is cached");
            assert_eq!(entry.prev, prev, "broken back-link at {key:#x}");
            prev = Some(key);
            cursor = entry.next;
        }
        assert_eq!(self.tail, prev, "tail does not end the list");
        assert_eq!(
            seen.len(),
            self.entries.len(),
            "recency list and map disagree on size"
        );
    }
}

/// A multi-iteration planning session owning a [`DipPlanner`], a plan cache
/// and the warm-start state (see the [module docs](self)).
///
/// The session is `Sync`: share it by reference (or `Arc`) across threads
/// and call [`PlanningSession::plan`] / [`PlanningSession::plan_many`]
/// concurrently.
#[derive(Debug)]
pub struct PlanningSession<'a> {
    planner: DipPlanner<'a>,
    config: SessionConfig,
    /// Fingerprint of the planner's cluster topology, folded into every
    /// cache key so plans for different clusters never collide.
    topology_fingerprint: u64,
    cache: RwLock<LruCache>,
    /// Fuzzy anchor cache: canonical (bucketed) key → the bucket's anchor
    /// plan. The *first* cold plan of a bucket becomes its anchor and is
    /// never replaced by delta replans, so in-bucket reuse always measures
    /// one delta step from a cold plan — regret never compounds across a
    /// chain of neighbours.
    fuzzy: RwLock<LruCache>,
    /// Sharded single-flight table: cache keys currently being planned,
    /// each with its own per-key wait slot. Stampeding threads for one key
    /// sleep on that key's slot only, so distinct cold keys neither convoy
    /// on a shared lock nor wake each other's waiters.
    in_flight: Vec<InFlightShard>,
    /// Number of plan-cache lock acquisitions taken by [`PlanningSession::plan`]
    /// (hit path: exactly one per request).
    cache_lock_acquisitions: AtomicU64,
    last_best_ordering: Mutex<Option<Vec<usize>>>,
    stats: Mutex<SessionStats>,
}

/// Number of single-flight shards; a power of two so the shard of a key is
/// a mask of its low bits. Keys are already uniformly hashed, so 16 shards
/// cut contention ~16× under a many-key stampede.
const IN_FLIGHT_SHARDS: usize = 16;

/// One shard of the single-flight table: the keys in flight on this shard,
/// each mapped to its waiters' slot. The shard lock is held only for
/// slot insertion/removal/cloning — never across planning or waiting.
#[derive(Debug, Default)]
struct InFlightShard {
    slots: Mutex<HashMap<u64, Arc<WaitSlot>>>,
}

/// The per-key wait slot: waiters for a key sleep on *this* condvar, and
/// only the key's leader wakes them — a stampede on one key never disturbs
/// threads planning other keys.
#[derive(Debug, Default)]
struct WaitSlot {
    done: Mutex<bool>,
    cv: Condvar,
}

impl WaitSlot {
    /// Blocks until the key's leader marks the slot done (panic-safe via
    /// the leader's [`InFlightGuard`]).
    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Removes the leader's key from its shard and wakes the key's waiters when
/// the planning leader is done — on success, error or panic alike, so a
/// failed leader can never strand its waiters.
struct InFlightGuard<'s> {
    shard: &'s InFlightShard,
    slot: Arc<WaitSlot>,
    key: u64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut slots = lock(&self.shard.slots);
        slots.remove(&self.key);
        drop(slots);
        let mut done = lock(&self.slot.done);
        *done = true;
        self.slot.cv.notify_all();
    }
}

impl<'a> PlanningSession<'a> {
    /// Creates a session with the default [`SessionConfig`].
    pub fn new(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        cluster: &'a ClusterSpec,
        planner_config: PlannerConfig,
    ) -> Self {
        Self::with_config(
            spec,
            parallel,
            cluster,
            planner_config,
            SessionConfig::default(),
        )
    }

    /// Creates a session with an explicit [`SessionConfig`].
    pub fn with_config(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        cluster: &'a ClusterSpec,
        planner_config: PlannerConfig,
        config: SessionConfig,
    ) -> Self {
        Self::from_planner(
            DipPlanner::new(spec, parallel, cluster, planner_config),
            config,
        )
    }

    /// Wraps an existing planner into a session (the entry point for
    /// heterogeneous clusters: build the planner with
    /// [`DipPlanner::on_topology`] first).
    pub fn from_planner(planner: DipPlanner<'a>, config: SessionConfig) -> Self {
        let topology_fingerprint = planner.topology().fingerprint();
        Self {
            planner,
            config,
            topology_fingerprint,
            cache: RwLock::new(LruCache::default()),
            fuzzy: RwLock::new(LruCache::default()),
            in_flight: (0..IN_FLIGHT_SHARDS)
                .map(|_| InFlightShard::default())
                .collect(),
            cache_lock_acquisitions: AtomicU64::new(0),
            last_best_ordering: Mutex::new(None),
            stats: Mutex::new(SessionStats::default()),
        }
    }

    /// The single-flight shard responsible for `key`.
    fn in_flight_shard(&self, key: u64) -> &InFlightShard {
        &self.in_flight[(key as usize) & (IN_FLIGHT_SHARDS - 1)]
    }

    /// The plan-cache key of a request: its [`WorkloadSignature`] with the
    /// session's cluster-topology fingerprint folded in, so equal workloads
    /// planned for different clusters key differently.
    pub fn cache_key(&self, request: &PlanRequest) -> u64 {
        request
            .signature()
            .with_topology(self.topology_fingerprint)
            .as_u64()
    }

    /// The fuzzy-cache key of a request under the session's bucketing
    /// config: its quantised [`CanonicalSignature`] with the topology
    /// fingerprint folded in. `None` when the fuzzy tier is disabled.
    pub fn fuzzy_key(&self, request: &PlanRequest) -> Option<u64> {
        let bucketing = self.config.bucketing?;
        Some(
            CanonicalSignature::of(request.microbatches(), &bucketing)
                .with_topology(self.topology_fingerprint)
                .as_u64(),
        )
    }

    /// The underlying planner, for read access (timing model, partition
    /// output). To re-run the offline phase use
    /// [`PlanningSession::offline_partition`], which also invalidates the
    /// plan cache — calling [`DipPlanner::offline_partition`] through this
    /// reference instead would leave cached plans built against the old
    /// placement being served.
    pub fn planner(&self) -> &DipPlanner<'a> {
        &self.planner
    }

    /// Runs (or re-runs) the planner's offline partitioning phase against a
    /// representative microbatch, dropping every cached plan and the
    /// warm-start seed: both were produced under the previous placement.
    /// Takes `&mut self` so no concurrent [`PlanningSession::plan`] can
    /// cache a plan against the old placement while it runs.
    ///
    /// # Errors
    ///
    /// Propagates [`DipError`] from [`DipPlanner::offline_partition`].
    pub fn offline_partition(
        &mut self,
        representative: &BatchWorkload,
    ) -> Result<crate::PartitionerOutput, DipError> {
        let output = self.planner.offline_partition(representative)?;
        self.clear();
        Ok(output)
    }

    /// The session configuration.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> SessionStats {
        *lock(&self.stats)
    }

    /// Number of plans currently cached (exact tier).
    pub fn cached_plans(&self) -> usize {
        read(&self.cache).len()
    }

    /// Number of fuzzy anchor plans currently cached (one per bucket seen).
    pub fn fuzzy_anchors(&self) -> usize {
        read(&self.fuzzy).len()
    }

    /// Drops every cached plan (exact and fuzzy) and the warm-start state.
    pub fn clear(&mut self) {
        write(&self.cache).clear();
        write(&self.fuzzy).clear();
        *lock(&self.last_best_ordering) = None;
    }

    /// Plans one iteration through the three-tier lookup: exact cache hit
    /// → fuzzy hit with delta replanning (when [`SessionConfig::bucketing`]
    /// is enabled) → cold plan. Takes `&self`; see the [module docs](self)
    /// on thread safety.
    ///
    /// Fresh signatures are planned **single-flight**: when several threads
    /// miss on the same key concurrently, exactly one runs the planner and
    /// the rest sleep on that key's wait slot until its plan lands in the
    /// cache, then serve it as a hit — a repeated shape never pays the
    /// planner twice, even under a cache stampede, and stampedes on
    /// distinct keys proceed independently through the sharded in-flight
    /// table. The exact-hit path takes exactly one cache-lock acquisition
    /// (lookup and LRU touch under one write lock).
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidRequest`] for an empty request, otherwise
    /// propagates the planner's [`DipError`].
    pub fn plan(&self, request: &PlanRequest) -> Result<PlanOutcome, DipError> {
        if request.microbatches().is_empty() {
            return Err(DipError::invalid_request(
                "cannot plan an iteration with zero microbatches",
            ));
        }
        let start = Instant::now();
        let signature = request.signature();
        let key = signature.with_topology(self.topology_fingerprint).as_u64();

        if self.config.cache_capacity == 0 {
            // Caching disabled: nothing to deduplicate or anchor against.
            return self.plan_fresh(request, signature, key, None, start);
        }

        if let Some(outcome) = self.try_cached(key, signature, start) {
            return Ok(outcome);
        }

        // Single-flight on the exact key: become the planning leader, or
        // wait on the key's slot for the current leader and serve its
        // freshly cached plan. Fuzzy delta replans run under the same
        // leadership, so a stampeded near-identical shape delta-replans
        // exactly once too.
        let shard = self.in_flight_shard(key);
        let slot = loop {
            let (slot, leader) = {
                let mut slots = lock(&shard.slots);
                match slots.entry(key) {
                    Entry::Occupied(occupied) => (Arc::clone(occupied.get()), false),
                    Entry::Vacant(vacant) => {
                        let slot = Arc::new(WaitSlot::default());
                        vacant.insert(Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            if leader {
                // We inserted the slot: we are this key's leader.
                break slot;
            }
            slot.wait();
            if let Some(outcome) = self.try_cached(key, signature, start) {
                return Ok(outcome);
            }
            // The leader failed (or its plan was already evicted): try to
            // become the leader ourselves.
        };
        let _guard = InFlightGuard { shard, slot, key };
        // A previous leader may have cached the plan between our initial
        // lookup and the leadership acquisition — re-check so a late
        // arrival never replans a cached signature (this is what makes
        // "exactly one miss per stampeded signature" deterministic).
        if let Some(outcome) = self.try_cached(key, signature, start) {
            return Ok(outcome);
        }

        // Fuzzy tier: an in-bucket anchor serves the request by delta
        // replanning. A structurally incompatible anchor (different
        // segment or microbatch count can share a bucket only across
        // placement changes) falls through to a cold plan.
        let fuzzy_key = self.fuzzy_key(request);
        if let Some(fuzzy_key) = fuzzy_key {
            if let Some(anchor) = write(&self.fuzzy).get(fuzzy_key) {
                if let Ok(plan) = self
                    .planner
                    .plan_iteration_delta(request.microbatches(), &anchor)
                {
                    return Ok(self.finish_fuzzy(plan, signature, key, start));
                }
            }
        }
        self.plan_fresh(request, signature, key, fuzzy_key, start)
    }

    /// The cache hit path: lookup and LRU touch under a single cache-lock
    /// acquisition; the critical section hands out an `Arc` handle, so the
    /// deep plan clone happens outside the lock and concurrent hits do not
    /// serialize on it.
    fn try_cached(
        &self,
        key: u64,
        signature: WorkloadSignature,
        start: Instant,
    ) -> Option<PlanOutcome> {
        self.cache_lock_acquisitions
            .fetch_add(1, AtomicOrdering::Relaxed);
        let cached = write(&self.cache).get(key)?;
        let mut plan = DipPlan::clone(&cached);
        // The plan is identical to the cached original; only the
        // bookkeeping reflects the (near-zero) cost of serving it.
        plan.stats.cache_hit = true;
        plan.stats.tier = PlanTier::Exact;
        plan.stats.planning_time = start.elapsed();
        plan.stats.partition_time = Duration::ZERO;
        plan.stats.graph_build_time = Duration::ZERO;
        plan.stats.search_time = Duration::ZERO;
        plan.stats.memopt_time = Duration::ZERO;
        let mut stats = lock(&self.stats);
        stats.requests += 1;
        stats.exact_hits += 1;
        stats.planning_time += plan.stats.planning_time;
        stats.exact_hit_time += plan.stats.planning_time;
        drop(stats);
        Some(PlanOutcome {
            plan,
            signature,
            cache_hit: true,
            tier: PlanTier::Exact,
        })
    }

    /// Books a successful delta replan: the plan is cached under its exact
    /// key (tiering the shape up, so the next identical request is an exact
    /// hit), the warm-start seed advances, and the fuzzy-tier counters and
    /// latency split are updated. The bucket's anchor is deliberately left
    /// untouched — every delta replan stays one step from a cold plan.
    fn finish_fuzzy(
        &self,
        mut plan: DipPlan,
        signature: WorkloadSignature,
        key: u64,
        start: Instant,
    ) -> PlanOutcome {
        plan.stats.planning_time = start.elapsed();
        *lock(&self.last_best_ordering) = Some(ordering_from_priorities(&plan.segment_priorities));
        self.cache_lock_acquisitions
            .fetch_add(1, AtomicOrdering::Relaxed);
        let evicted = write(&self.cache).insert(key, plan.clone(), self.config.cache_capacity);

        let mut stats = lock(&self.stats);
        stats.requests += 1;
        stats.fuzzy_hits += 1;
        // A delta search always evaluates the identity and the anchor's
        // seed ordering (2+ evaluations); the verbatim zero-budget path
        // performs exactly one interleave pass.
        if plan.stats.search_evaluations > 1 {
            stats.delta_replans += 1;
        }
        stats.evictions += evicted;
        stats.planning_time += plan.stats.planning_time;
        stats.fuzzy_plan_time += plan.stats.planning_time;
        stats.partition_time += plan.stats.partition_time;
        stats.graph_build_time += plan.stats.graph_build_time;
        stats.search_time += plan.stats.search_time;
        stats.search_cpu_time += plan.stats.search_cpu_time;
        stats.memopt_time += plan.stats.memopt_time;
        drop(stats);

        PlanOutcome {
            plan,
            signature,
            cache_hit: false,
            tier: PlanTier::Fuzzy,
        }
    }

    /// Runs the planner for a fresh signature and caches the result; when
    /// the fuzzy tier is enabled and the plan's bucket has no anchor yet,
    /// the new cold plan becomes the bucket's anchor.
    fn plan_fresh(
        &self,
        request: &PlanRequest,
        signature: WorkloadSignature,
        key: u64,
        fuzzy_key: Option<u64>,
        _start: Instant,
    ) -> Result<PlanOutcome, DipError> {
        let seed = if self.config.warm_start {
            lock(&self.last_best_ordering).clone()
        } else {
            None
        };
        let planned = self
            .planner
            .plan_iteration_seeded(request.microbatches(), seed.as_deref());
        let plan = match planned {
            Ok(plan) => plan,
            Err(err) => {
                // A failed fresh plan still counts as a miss, keeping
                // `requests == exact_hits + fuzzy_hits + cache_misses`
                // exact.
                let mut stats = lock(&self.stats);
                stats.requests += 1;
                stats.cache_misses += 1;
                return Err(err);
            }
        };

        *lock(&self.last_best_ordering) = Some(ordering_from_priorities(&plan.segment_priorities));
        let evicted = if self.config.cache_capacity > 0 {
            self.cache_lock_acquisitions
                .fetch_add(1, AtomicOrdering::Relaxed);
            write(&self.cache).insert(key, plan.clone(), self.config.cache_capacity)
        } else {
            0
        };
        if let Some(fuzzy_key) = fuzzy_key {
            // First cold plan in a bucket wins as the anchor; later cold
            // plans (evictions aside) never replace it, so delta regret is
            // measured against a stable reference.
            let mut fuzzy = write(&self.fuzzy);
            if fuzzy.get(fuzzy_key).is_none() {
                fuzzy.insert(fuzzy_key, plan.clone(), self.config.cache_capacity);
            }
        }

        let mut stats = lock(&self.stats);
        stats.requests += 1;
        stats.cache_misses += 1;
        stats.evictions += evicted;
        if plan.stats.warm_started {
            stats.warm_started_plans += 1;
        }
        stats.planning_time += plan.stats.planning_time;
        stats.cold_plan_time += plan.stats.planning_time;
        stats.partition_time += plan.stats.partition_time;
        stats.graph_build_time += plan.stats.graph_build_time;
        stats.search_time += plan.stats.search_time;
        stats.search_cpu_time += plan.stats.search_cpu_time;
        stats.memopt_time += plan.stats.memopt_time;
        drop(stats);

        Ok(PlanOutcome {
            plan,
            signature,
            cache_hit: false,
            tier: PlanTier::Cold,
        })
    }

    /// Cumulative number of plan-cache lock acquisitions taken by
    /// [`PlanningSession::plan`] — exactly one per cache hit (lookup and
    /// recency update share a single acquisition; the hit path never takes
    /// a second lock), plus the miss path's failed lookup, post-leadership
    /// re-check and insert.
    pub fn cache_lock_acquisitions(&self) -> u64 {
        self.cache_lock_acquisitions.load(AtomicOrdering::Relaxed)
    }

    /// Plans a slice of independent requests concurrently through a worker
    /// pool, returning one result per request in request order. The workers
    /// share this session's plan cache, so repeated signatures within (or
    /// before) the slice hit the cache as usual.
    ///
    /// [`PlannerConfig::num_threads`] is the session's *total* CPU budget:
    /// each plan already runs `search.workers` ordering-search threads, so
    /// the pool width is `num_threads / search.workers` (at least one) and
    /// total concurrency never multiplies beyond `num_threads`. For a wide
    /// pool, set `search.workers` to 1 and `num_threads` to the core count.
    /// The pool width never changes the per-plan search configuration;
    /// plan *content* can still differ from a sequential
    /// [`PlanningSession::plan`] loop when warm starts are enabled,
    /// because the warm-start incumbent each fresh plan picks up depends
    /// on which plan finished last (cache-hit identity for repeated
    /// signatures is unaffected).
    ///
    /// A planner panic is confined to its request and reported as
    /// [`DipError::Concurrency`] in that slot instead of tearing down the
    /// whole batch.
    ///
    /// If the offline partitioning phase has not run yet, it is run once
    /// up front against the heaviest microbatch across the whole slice —
    /// so a heterogeneous batch is planned under one deterministic
    /// placement rather than racing per-worker representatives. (Call
    /// [`PlanningSession::offline_partition`] first to choose the
    /// representative yourself.)
    pub fn plan_many(&self, requests: &[PlanRequest]) -> Vec<Result<PlanOutcome, DipError>> {
        let representative = requests
            .iter()
            .flat_map(|r| r.microbatches())
            .max_by_key(|b| b.total_tokens())
            .cloned();
        if let Some(representative) = representative {
            // Compute-if-absent under a single lock hold: concurrent
            // plan_many/plan calls on a fresh session pin exactly one
            // placement instead of racing last-write-wins.
            if let Err(err) = self.planner.offline_partition_if_absent(&representative) {
                return requests.iter().map(|_| Err(err.clone())).collect();
            }
        }
        let config = self.planner.config();
        let threads = (config.num_threads.max(1) / config.search.workers.max(1))
            .max(1)
            .min(requests.len().max(1));
        let plan_caught = |request: &PlanRequest| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.plan(request)))
                .unwrap_or_else(|_| {
                    Err(DipError::concurrency(
                        "planner worker panicked while planning a request",
                    ))
                })
        };
        parallel_map_indexed(requests.len(), threads, |i| plan_caught(&requests[i]))
    }

    /// Simulates the deployment of a plan (delegates to the planner).
    ///
    /// # Errors
    ///
    /// Returns [`DipError::Pipeline`] if the plan is inconsistent.
    pub fn simulate(&self, plan: &DipPlan) -> Result<ExecutionOutcome, DipError> {
        self.planner.simulate(plan)
    }

    /// Convenience: plan one request and simulate the resulting plan.
    ///
    /// # Errors
    ///
    /// Propagates [`DipError`] from planning or simulation.
    pub fn plan_and_simulate(
        &self,
        request: &PlanRequest,
    ) -> Result<(PlanOutcome, ExecutionOutcome), DipError> {
        let outcome = self.plan(request)?;
        let execution = self.simulate(&outcome.plan)?;
        Ok((outcome, execution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use std::time::Duration;

    fn vlm_batch(images: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    fn request(counts: &[u64]) -> PlanRequest {
        PlanRequest::new(counts.iter().map(|&i| vlm_batch(i)).collect())
    }

    fn session<'a>(
        spec: &'a LmmSpec,
        cluster: &'a ClusterSpec,
        config: SessionConfig,
    ) -> PlanningSession<'a> {
        PlanningSession::with_config(
            spec,
            ParallelConfig::new(4, 4, 1),
            cluster,
            PlannerConfig::fast(),
            config,
        )
    }

    /// A stand-in plan for LRU unit tests (never simulated).
    fn dummy_plan(spec: &LmmSpec, cluster: &ClusterSpec) -> DipPlan {
        let planner = DipPlanner::new(
            spec,
            ParallelConfig::new(4, 4, 1),
            cluster,
            PlannerConfig::no_opt(),
        );
        planner.plan_iteration(&[vlm_batch(4)]).unwrap()
    }

    #[test]
    fn sessions_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanningSession<'static>>();
    }

    #[test]
    fn lru_cache_is_o1_and_keeps_its_invariants() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let plan = dummy_plan(&spec, &cluster);
        let mut lru = LruCache::default();
        lru.assert_invariants();

        // Fill to capacity 3.
        for key in [1u64, 2, 3] {
            assert_eq!(lru.insert(key, plan.clone(), 3), 0);
            lru.assert_invariants();
        }
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.head, Some(3));
        assert_eq!(lru.tail, Some(1));

        // Touch the LRU entry: it moves to the front, nothing is evicted.
        lru.touch(1);
        lru.assert_invariants();
        assert_eq!(lru.head, Some(1));
        assert_eq!(lru.tail, Some(2));

        // Inserting a fourth key evicts exactly the least recently used.
        assert_eq!(lru.insert(4, plan.clone(), 3), 1);
        lru.assert_invariants();
        assert_eq!(lru.len(), 3);
        assert!(lru.peek(2).is_none(), "2 was least recently used");
        assert!(lru.peek(1).is_some() && lru.peek(3).is_some() && lru.peek(4).is_some());

        // Re-inserting a cached key must not duplicate it in the recency
        // list or evict anything (the old VecDeque recency queue kept the
        // stale position and double-counted the key).
        assert_eq!(lru.insert(3, plan.clone(), 3), 0);
        lru.assert_invariants();
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.head, Some(3));

        // Touching an absent key is a no-op.
        lru.touch(99);
        lru.assert_invariants();
        assert_eq!(lru.len(), 3);

        lru.clear();
        lru.assert_invariants();
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.head, None);
        assert_eq!(lru.tail, None);
    }

    #[test]
    fn repeated_reinsertion_does_not_skew_evictions() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let plan = dummy_plan(&spec, &cluster);
        let mut lru = LruCache::default();
        let mut evictions = 0u64;
        // Hammer two keys into a capacity-2 cache: no eviction should ever
        // happen, and the structure must stay exactly two entries.
        for round in 0..10u64 {
            evictions += lru.insert(round % 2, plan.clone(), 2);
            lru.assert_invariants();
        }
        assert_eq!(evictions, 0);
        assert_eq!(lru.len(), 2);
        // A third key evicts exactly one entry.
        evictions += lru.insert(7, plan.clone(), 2);
        assert_eq!(evictions, 1);
        assert_eq!(lru.len(), 2);
        lru.assert_invariants();
    }

    #[test]
    fn request_signatures_track_workload_identity() {
        let a = request(&[10, 20]);
        let b = request(&[10, 20]);
        let c = request(&[20, 10]);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature(), "microbatch order matters");
        assert_ne!(
            request(&[10]).signature(),
            request(&[10, 10]).signature(),
            "length matters"
        );
        assert_eq!(format!("{}", a.signature()).len(), 16);
    }

    #[test]
    fn cache_hit_returns_an_identical_plan() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[10, 40, 2, 30]);

        let first = session.plan(&req).unwrap();
        let second = session.plan(&req).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert!(second.plan.stats.cache_hit);
        assert_eq!(first.signature, second.signature);
        assert_eq!(first.plan.orders, second.plan.orders);
        assert_eq!(
            first.plan.segment_priorities,
            second.plan.segment_priorities
        );
        assert_eq!(first.plan.memory_plan, second.plan.memory_plan);
        assert_eq!(first.plan.sub_microbatches, second.plan.sub_microbatches);

        // Identical plans simulate to identical iteration times.
        let t1 = session
            .simulate(&first.plan)
            .unwrap()
            .metrics
            .iteration_time_s;
        let t2 = session
            .simulate(&second.plan)
            .unwrap()
            .metrics
            .iteration_time_s;
        assert!((t1 - t2).abs() < 1e-12);

        let stats = session.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_shapes_plan_at_least_twice_as_fast_with_the_cache() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        // A repeated-shape trace: two distinct shapes, each seen four times.
        let trace: Vec<PlanRequest> = (0..8)
            .map(|i| request(if i % 2 == 0 { &[8, 32] } else { &[40, 4] }))
            .collect();

        let run = |config: SessionConfig| {
            let s = session(&spec, &cluster, config);
            let mut total = Duration::ZERO;
            for req in &trace {
                let outcome = s.plan(req).unwrap();
                total += outcome.plan.stats.planning_time;
            }
            (total, s.stats())
        };

        let (cold_total, cold_stats) = run(SessionConfig::cold());
        let (cached_total, cached_stats) = run(SessionConfig::default());

        assert_eq!(cold_stats.exact_hits, 0);
        assert_eq!(
            cached_stats.exact_hits, 6,
            "6 of 8 iterations repeat a shape"
        );
        assert!(
            cached_total * 2 <= cold_total,
            "cached {cached_total:?} vs cold {cold_total:?}"
        );
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let config = SessionConfig {
            cache_capacity: 1,
            ..SessionConfig::default()
        };
        let session = session(&spec, &cluster, config);
        let a = request(&[8, 32]);
        let b = request(&[40, 4]);

        assert!(!session.plan(&a).unwrap().cache_hit);
        assert!(session.plan(&a).unwrap().cache_hit);
        assert!(!session.plan(&b).unwrap().cache_hit, "b evicts a");
        assert_eq!(session.cached_plans(), 1);
        assert!(!session.plan(&a).unwrap().cache_hit, "a was evicted");
        assert_eq!(session.stats().evictions, 2);
    }

    #[test]
    fn warm_start_state_is_tracked_and_clearable() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::default());

        let first = session.plan(&request(&[8, 32])).unwrap();
        assert!(!first.plan.stats.warm_started, "nothing to warm-start from");
        let second = session.plan(&request(&[40, 4])).unwrap();
        assert!(second.plan.stats.warm_started);
        assert_eq!(session.stats().warm_started_plans, 1);

        session.clear();
        assert_eq!(session.cached_plans(), 0);
        let third = session.plan(&request(&[40, 4])).unwrap();
        assert!(!third.cache_hit);
        assert!(!third.plan.stats.warm_started, "clear() resets the seed");
    }

    #[test]
    fn re_partitioning_invalidates_the_cache() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let mut session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[10, 40]);
        assert!(!session.plan(&req).unwrap().cache_hit);
        assert!(session.plan(&req).unwrap().cache_hit);

        // Re-running the offline phase changes the placement; plans cached
        // against the old placement must not be served.
        session.offline_partition(&vlm_batch(48)).unwrap();
        assert_eq!(session.cached_plans(), 0);
        let outcome = session.plan(&req).unwrap();
        assert!(!outcome.cache_hit);
        assert!(!outcome.plan.stats.warm_started, "seed was dropped too");
    }

    #[test]
    fn empty_requests_are_rejected() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let err = session.plan(&PlanRequest::default()).unwrap_err();
        assert!(matches!(err, DipError::InvalidRequest(_)));
        assert!(err.to_string().contains("zero microbatches"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::cold());
        let req = request(&[8, 32]);
        assert!(!session.plan(&req).unwrap().cache_hit);
        assert!(!session.plan(&req).unwrap().cache_hit);
        assert_eq!(session.cached_plans(), 0);
    }

    #[test]
    fn single_flight_plans_a_stampeded_signature_once() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        // Pin the placement so the workers don't race the offline phase.
        session
            .planner()
            .offline_partition_if_absent(&vlm_batch(40))
            .unwrap();
        let req = request(&[8, 32]);
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    let outcome = session.plan(&req).unwrap();
                    assert_eq!(outcome.signature, req.signature());
                });
            }
        });
        let stats = session.stats();
        assert_eq!(stats.requests, threads as u64);
        assert_eq!(
            stats.cache_misses, 1,
            "single-flight: exactly one thread runs the planner"
        );
        assert_eq!(stats.exact_hits, threads as u64 - 1);
        assert_eq!(session.cached_plans(), 1);
    }

    /// An in-bucket neighbour of `vlm_batch(images)`: the text tokens are
    /// jittered by `dt` (well under the default 512-token bucket), so the
    /// exact signature differs but the canonical signature matches.
    fn vlm_batch_jittered(images: u64, dt: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169 + dt, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    #[test]
    fn fuzzy_hit_delta_replans_without_memory_ilp() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::fuzzy());
        let base = request(&[8, 32]);
        let neighbour = PlanRequest::new(vec![vlm_batch_jittered(8, 7), vlm_batch_jittered(32, 3)]);
        assert_ne!(base.signature(), neighbour.signature());
        assert_eq!(session.fuzzy_key(&base), session.fuzzy_key(&neighbour));

        let cold = session.plan(&base).unwrap();
        assert_eq!(cold.tier, PlanTier::Cold);
        assert_eq!(
            session.fuzzy_anchors(),
            1,
            "the cold plan anchors its bucket"
        );

        let fuzzy = session.plan(&neighbour).unwrap();
        assert_eq!(fuzzy.tier, PlanTier::Fuzzy);
        assert!(!fuzzy.cache_hit, "a fuzzy hit is not an exact hit");
        assert_eq!(fuzzy.plan.stats.tier, PlanTier::Fuzzy);
        // The delta path reuses the anchor's memory plan and splits and
        // never runs the memory ILP.
        assert_eq!(fuzzy.plan.memory_plan, cold.plan.memory_plan);
        assert_eq!(fuzzy.plan.sub_microbatches, cold.plan.sub_microbatches);
        assert!(fuzzy.plan.stats.warm_started);
        // The delta plan is priced against the *real* shape, not the
        // anchor's: the graph timings differ.
        assert!(session.simulate(&fuzzy.plan).is_ok());

        let stats = session.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_misses, 1, "a fuzzy hit is not a miss");
        assert_eq!(stats.fuzzy_hits, 1);
        assert_eq!(stats.exact_hits, 0);
        assert_eq!(stats.delta_replans, 1, "the default delta budget searches");
        assert!(stats.fuzzy_plan_time > Duration::ZERO);
        assert_eq!(
            stats.requests,
            stats.exact_hits + stats.fuzzy_hits + stats.cache_misses
        );

        // Tier-up: the delta plan was cached under its exact key, so the
        // identical request is now an exact hit.
        let repeat = session.plan(&neighbour).unwrap();
        assert_eq!(repeat.tier, PlanTier::Exact);
        assert!(repeat.cache_hit);
        assert_eq!(repeat.plan.orders, fuzzy.plan.orders);
        // The bucket's anchor is still the original cold plan.
        assert_eq!(session.fuzzy_anchors(), 1);
    }

    #[test]
    fn zero_delta_budget_serves_the_anchor_verbatim() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let mut planner_config = PlannerConfig::fast();
        planner_config.search.delta_budget = Duration::ZERO;
        let session = PlanningSession::with_config(
            &spec,
            ParallelConfig::new(4, 4, 1),
            &cluster,
            planner_config,
            SessionConfig::fuzzy(),
        );
        let base = request(&[8, 32]);
        let neighbour = PlanRequest::new(vec![vlm_batch_jittered(8, 5), vlm_batch_jittered(32, 9)]);

        let cold = session.plan(&base).unwrap();
        let fuzzy = session.plan(&neighbour).unwrap();
        assert_eq!(fuzzy.tier, PlanTier::Fuzzy);
        // Degrades gracefully: the neighbour's ordering is adopted
        // verbatim — same priorities, memory plan and splits; only the
        // graph is re-priced for the real shape.
        assert_eq!(fuzzy.plan.segment_priorities, cold.plan.segment_priorities);
        assert_eq!(fuzzy.plan.memory_plan, cold.plan.memory_plan);
        assert_eq!(fuzzy.plan.sub_microbatches, cold.plan.sub_microbatches);
        let stats = session.stats();
        assert_eq!(stats.fuzzy_hits, 1);
        assert_eq!(stats.delta_replans, 0, "no search ran under a zero budget");
    }

    #[test]
    fn incompatible_anchor_falls_back_to_a_cold_plan() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        // Bucket the microbatch *token* dimension so wide that two requests
        // with different microbatch counts still differ (count is always
        // exact), but craft a same-bucket pair whose anchor is fine — then
        // check the structural guard directly on the planner.
        let session = session(&spec, &cluster, SessionConfig::fuzzy());
        let cold = session.plan(&request(&[8, 32])).unwrap();
        // A request with a different microbatch count can never reuse the
        // anchor's splits; the planner rejects it and the session would
        // plan cold.
        let err = session
            .planner()
            .plan_iteration_delta(request(&[8, 32, 4]).microbatches(), &cold.plan)
            .unwrap_err();
        assert!(matches!(err, DipError::InvalidRequest(_)));
    }

    #[test]
    fn sharded_single_flight_plans_each_stampeded_key_once() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        // Pin the placement so the workers don't race the offline phase.
        session
            .planner()
            .offline_partition_if_absent(&vlm_batch(40))
            .unwrap();
        // Two distinct cold keys, four threads stampeding each: the
        // sharded in-flight table must plan each key exactly once, and a
        // stampede on one key must not serialize or wake the other's.
        let keys = [request(&[8, 32]), request(&[40, 4])];
        const THREADS_PER_KEY: usize = 4;
        let barrier = std::sync::Barrier::new(keys.len() * THREADS_PER_KEY);
        std::thread::scope(|scope| {
            for req in &keys {
                for _ in 0..THREADS_PER_KEY {
                    let barrier = &barrier;
                    let session = &session;
                    scope.spawn(move || {
                        barrier.wait();
                        let outcome = session.plan(req).unwrap();
                        assert_eq!(outcome.signature, req.signature());
                    });
                }
            }
        });
        let stats = session.stats();
        assert_eq!(stats.requests, (keys.len() * THREADS_PER_KEY) as u64);
        assert_eq!(
            stats.cache_misses,
            keys.len() as u64,
            "exactly-once planning per stampeded key"
        );
        assert_eq!(
            stats.exact_hits,
            (keys.len() * (THREADS_PER_KEY - 1)) as u64
        );
        assert_eq!(session.cached_plans(), keys.len());
    }

    #[test]
    fn poisoned_cache_and_stats_locks_do_not_fail_later_calls() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[8, 32]);
        assert!(!session.plan(&req).unwrap().cache_hit);

        // A thread panics while holding both locks, poisoning them.
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _cache = write(&session.cache);
                let _stats = lock(&session.stats);
                panic!("panicking while holding the cache and stats locks");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(session.cache.is_poisoned());
        assert!(session.stats.is_poisoned());

        // Every later call takes the poisoned locks over as they stand.
        assert!(session.plan(&req).unwrap().cache_hit);
        assert_eq!(session.stats().requests, 2);
        let results = session.plan_many(&[request(&[8, 32]), request(&[40, 4])]);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        let stats = session.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.exact_hits, 2);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn cache_hit_takes_exactly_one_cache_lock_acquisition() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let req = request(&[8, 32]);
        session.plan(&req).unwrap();
        let before = session.cache_lock_acquisitions();
        let outcome = session.plan(&req).unwrap();
        assert!(outcome.cache_hit);
        assert_eq!(
            session.cache_lock_acquisitions() - before,
            1,
            "the hit path must not take a second lock for the LRU touch"
        );
    }

    #[test]
    fn cache_keys_fold_in_the_topology_fingerprint() {
        let spec = zoo::vlm_s();
        let h800 = ClusterSpec::h800_cluster(2);
        let h20 = ClusterSpec::h20_cluster(2);
        let on_h800 = session(&spec, &h800, SessionConfig::default());
        let on_h800_again = session(&spec, &h800, SessionConfig::default());
        let on_h20 = session(&spec, &h20, SessionConfig::default());
        let req = request(&[8, 32]);
        // Same workload, same cluster → same key; different cluster →
        // different key, so plans for different topologies never collide.
        assert_eq!(on_h800.cache_key(&req), on_h800_again.cache_key(&req));
        assert_ne!(on_h800.cache_key(&req), on_h20.cache_key(&req));
        // The workload signature itself stays cluster-independent.
        let outcome = on_h800.plan(&req).unwrap();
        assert_eq!(outcome.signature, req.signature());
        assert_ne!(outcome.signature.as_u64(), on_h800.cache_key(&req));
    }

    #[test]
    fn plan_many_matches_sequential_planning() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let mut parallel = session(&spec, &cluster, SessionConfig::default());
        parallel.offline_partition(&vlm_batch(40)).unwrap();
        let requests: Vec<PlanRequest> = [&[8u64, 32][..], &[40, 4], &[10, 20], &[8, 32]]
            .iter()
            .map(|counts| request(counts))
            .collect();

        let outcomes = parallel.plan_many(&requests);
        assert_eq!(outcomes.len(), requests.len());
        for (i, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("plan_many result");
            assert_eq!(outcome.signature, requests[i].signature());
            assert_eq!(outcome.plan.orders.num_stages(), outcome.plan.graph.len());
        }
        // All four requests were served; the duplicate signature either hit
        // the cache or raced its twin, but is cached afterwards either way.
        let stats = parallel.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(
            stats.requests,
            stats.exact_hits + stats.fuzzy_hits + stats.cache_misses
        );
        assert!(parallel.plan(&requests[0]).unwrap().cache_hit);
    }

    #[test]
    fn plan_many_pins_one_placement_for_heterogeneous_first_batches() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        // Fresh session: no offline partition yet.
        let session = session(&spec, &cluster, SessionConfig::default());
        assert!(session.planner().partition_output().is_none());
        // Very different shapes in one slice: the partition must be pinned
        // once (from the heaviest microbatch of the slice), not raced
        // per-worker.
        let requests = vec![request(&[0, 0]), request(&[48, 48])];
        let outcomes = session.plan_many(&requests);
        assert!(outcomes.iter().all(Result::is_ok));
        let placement = session
            .planner()
            .partition_output()
            .expect("plan_many pinned the placement");
        // The pinned representative is the heaviest microbatch across the
        // whole slice, deterministically.
        let expected = session
            .planner()
            .offline_partition(&vlm_batch(48))
            .unwrap()
            .placement;
        assert_eq!(placement.placement, expected);
    }

    #[test]
    fn plan_many_reports_per_request_errors() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let session = session(&spec, &cluster, SessionConfig::default());
        let requests = vec![request(&[8, 32]), PlanRequest::default()];
        let outcomes = session.plan_many(&requests);
        assert!(outcomes[0].is_ok());
        assert!(matches!(outcomes[1], Err(DipError::InvalidRequest(_))));
    }
}

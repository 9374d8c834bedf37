//! Pipeline segment reordering (§5.1): Monte Carlo tree search over segment
//! orderings, plus the DFS and random-exploration variants used as
//! comparison points in Fig. 11.
//!
//! An *ordering* is a permutation of the placement's pipeline segments; the
//! segment at position `i` receives priority `n − i`, which the dual-queue
//! interleaver (§5.2) uses whenever several stages compete for a rank.
//! Segments of the same module within a microbatch have identical pipeline
//! structure, so (following the paper's search-space reduction) they share a
//! priority and their relative order is fixed; microbatch order is handled by
//! the interleaver's tie-breaking.
//!
//! # Parallel search and virtual-time budgets
//!
//! The MCTS and random strategies run **root-parallel** over
//! [`OrderingSearchConfig::streams`] independent search streams (§6.2):
//! every stream owns its own search tree, RNG stream and evaluation quota.
//! The streams are executed by [`OrderingSearchConfig::workers`] physical
//! CPU threads pulling from a shared queue; when all streams finish, their
//! incumbents are merged by best simulated iteration time with a stable
//! tie-break (the lowest stream index wins ties).
//!
//! The one state the streams share is a per-search **memo** from ordering
//! to makespan. An interleave pass is a pure function of (graph, base
//! [`DualQueueConfig`], ordering), and a search with few segments revisits
//! the same orderings many times (six segments allow only 720), so the MCTS
//! rollouts and the random worker look an ordering up before running its
//! pass. The memo is exact and invisible to the plan: it stores only
//! completed passes; a hit counts against the stream's quota exactly like
//! a pass; a random-worker hit counts as pruned exactly when the stored
//! makespan exceeds the cutoff (the bounded pass is exact, so it would
//! have aborted); and a hit that strictly beats the stream's incumbent
//! re-runs its pass to recover the per-rank orders. No RNG draw depends
//! on whether a lookup hit, so every stream explores the same orderings
//! and every plan and counter is bit-identical with or without the memo —
//! only *which stream* evaluated an ordering first depends on thread
//! timing, which moves [`OrderingResult::memo_hits`] and wall time only.
//! Debug builds re-run every hit and assert the stored makespan's bits.
//! DFS skips the memo: it visits each permutation once.
//!
//! Search budgets are **virtual time**, never wall clock: the
//! [`OrderingSearchConfig::time_budget`] is converted into a deterministic
//! per-stream evaluation quota through the calibrated per-evaluation cost
//! model ([`OrderingSearchConfig::eval_cost`], a [`dip_sim::CostModel`]) —
//! no worker ever consults a clock to decide whether to keep searching.
//! Because the stream count, the RNG streams and every quota are all
//! independent of the physical thread count and of the machine's speed, a
//! fixed [`OrderingSearchConfig::seed`] yields a **bit-identical plan at
//! any worker count, on any machine**: threads only change how fast the
//! fixed work gets done. (On a machine slower than the calibrated
//! reference the search simply takes longer than the nominal budget; on a
//! faster one it finishes early. Re-calibrate the cost model via
//! [`dip_sim::CostModel::fit`] to tighten the correspondence — the plan
//! only changes if the *quota* changes, never with the machine.)

use dip_pipeline::{
    dual_queue, DualQueueConfig, RankOrders, ScheduleWorkspace, StageGraph, StageId,
};
use dip_sim::{CostModel, CostSample};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Which exploration strategy drives the ordering search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Monte Carlo tree search with UCB selection (DIP's default).
    Mcts,
    /// Depth-first enumeration of permutations in lexicographic order.
    Dfs,
    /// Uniformly random permutations.
    Random,
}

/// Configuration of the ordering search.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingSearchConfig {
    /// Exploration strategy.
    pub strategy: SearchStrategy,
    /// **Virtual-time** budget for the search: converted into a
    /// deterministic per-stream evaluation quota via [`Self::eval_cost`]
    /// (see [`OrderingSearchConfig::evaluation_quota`]). No search worker
    /// ever consults a wall clock, so the same budget buys the same quota —
    /// and therefore the same plan — on any machine.
    pub time_budget: Duration,
    /// Optional explicit cap on the number of ordering evaluations **per
    /// stream**, min-combined with the virtual-time quota. Handy for
    /// benchmarks that want to fix the total search work exactly.
    pub max_evaluations: Option<u64>,
    /// **Virtual-time** budget of a *delta replan*: the tiny ordering
    /// search a [`crate::PlanningSession`] runs on a fuzzy cache hit,
    /// seeded from the cached neighbour's best ordering (the full
    /// [`Self::time_budget`] is reserved for cold plans). Like
    /// `time_budget` it is converted into a deterministic per-stream
    /// evaluation quota, so delta replans are bit-identical on any machine
    /// at any worker count. A zero budget degrades gracefully: the
    /// neighbour's ordering is adopted verbatim (one deterministic
    /// interleave pass, no search).
    pub delta_budget: Duration,
    /// Calibrated cost model of one ordering evaluation (one dual-queue
    /// interleave pass), per stage-graph item: the virtual clock rate that
    /// converts [`Self::time_budget`] into an evaluation quota. Calibrate
    /// it with [`calibrate_eval_cost`]; the default is the paper's
    /// reference-CPU model.
    pub eval_cost: CostModel,
    /// Number of independent root-parallel search streams. The stream
    /// count — not the thread count — determines which orderings get
    /// explored: stream `s` always derives its RNG from `seed` and `s` and
    /// always receives the same quota, so the plan is a pure function of
    /// (graph, seed, streams, quota).
    pub streams: usize,
    /// Physical CPU threads executing the streams (§6.2). Purely a
    /// throughput knob: any value produces bit-identical plans, more
    /// threads just finish the fixed per-stream quotas sooner (capped at
    /// `streams` useful threads).
    pub workers: usize,
    /// Rollouts performed per MCTS expansion.
    pub rollouts_per_expansion: usize,
    /// UCB exploration weight (the paper's `β`).
    pub ucb_beta: f64,
    /// Exponent applied to the exploitation term (the paper's `α`).
    pub ucb_alpha: f64,
    /// Base dual-queue configuration (memory limits etc.); the searched
    /// segment priorities override its `segment_priorities`.
    pub dual_queue: DualQueueConfig,
    /// Whether the random and DFS workers bound each evaluation by their
    /// stream's incumbent via [`dip_pipeline::schedule_bounded`], aborting
    /// an interleave pass the moment any stage end time exceeds the best
    /// time the stream has seen. The bound is exact (the makespan is a
    /// monotone max of stage end times), the incumbent is **per stream**,
    /// and a pruned evaluation still counts fully against the stream's
    /// quota — so pruning changes wall-clock time only, never which
    /// orderings are explored or which plan wins, and fixed-seed
    /// cross-worker bit-identity is preserved. MCTS ignores this knob: its
    /// backpropagation needs the true rollout value even when it is worse
    /// than the incumbent (an aborted pass yields no value to credit the
    /// tree path with, which would change how the tree grows). Disable
    /// only to measure the pruning win itself.
    pub prune_bounded_evaluations: bool,
    /// RNG seed. Stream `s` derives its RNG from `seed` and `s`; stream 0
    /// uses exactly the single-stream RNG.
    pub seed: u64,
    /// Warm start: a segment ordering to evaluate before exploring, normally
    /// the previous iteration's best (see
    /// [`ordering_from_priorities`]). MCTS additionally seeds every stream's
    /// tree with this path, so exploration starts around the incumbent
    /// instead of cold-starting. Ignored unless it is a permutation of the
    /// segment indices.
    pub seed_ordering: Option<Vec<usize>>,
}

impl Default for OrderingSearchConfig {
    fn default() -> Self {
        Self {
            strategy: SearchStrategy::Mcts,
            time_budget: Duration::from_millis(500),
            max_evaluations: None,
            delta_budget: Duration::from_millis(5),
            eval_cost: CostModel::REFERENCE_EVALUATION,
            streams: 4,
            workers: 4,
            rollouts_per_expansion: 4,
            ucb_beta: 0.5,
            ucb_alpha: 1.0,
            dual_queue: DualQueueConfig::default(),
            prune_bounded_evaluations: true,
            seed: 0,
            seed_ordering: None,
        }
    }
}

impl OrderingSearchConfig {
    /// Returns this configuration warm-started from `ordering`.
    pub fn with_seed_ordering(mut self, ordering: Vec<usize>) -> Self {
        self.seed_ordering = Some(ordering);
        self
    }

    /// The deterministic per-stream evaluation quota of this configuration
    /// for a stage graph of `graph_items` items: the virtual-time budget
    /// divided by the calibrated per-evaluation cost, min-combined with
    /// [`Self::max_evaluations`]. This number — never a wall clock — is
    /// what stops every search stream, which is why fixed-seed searches
    /// are reproducible on any machine at any worker count. It counts
    /// orderings *visited*: a memo hit (see the module docs) uses up one
    /// unit just like a pass does.
    pub fn evaluation_quota(&self, graph_items: usize) -> u64 {
        let virtual_quota = self.eval_cost.quota(self.time_budget, graph_items as u64);
        self.max_evaluations
            .map_or(virtual_quota, |cap| cap.min(virtual_quota))
    }
}

/// Measures the actual per-evaluation cost of the ordering search on
/// `graph` and fits a [`CostModel`] from the samples — the calibration hook
/// that aligns the virtual clock with the machine it runs on, exactly as
/// the simulator's efficiency factors are aligned with measured kernels
/// (§6.1 / Fig. 13).
///
/// This is an **offline** utility: it times real evaluations, so its output
/// varies with the machine — feed the fitted model into
/// [`OrderingSearchConfig::eval_cost`] *before* planning and the planning
/// itself stays deterministic (the model only scales the quota; for
/// reproducible plans across a fleet, distribute one fitted model to every
/// machine). Returns `None` when `evaluations == 0` or the measurements
/// are degenerate.
///
/// All samples share one problem size (this graph's item count), so the
/// fit goes **through the origin** ([`CostModel::fit_through_origin`]):
/// the measured mean becomes a per-item rate that extrapolates
/// proportionally to other graph sizes, rather than a constant that would
/// silently under-budget larger graphs. To recover the fixed overhead
/// too, time graphs of several sizes and hand the pooled samples to
/// [`CostModel::fit`] yourself.
pub fn calibrate_eval_cost(
    graph: &StageGraph,
    num_segments: usize,
    base: &DualQueueConfig,
    evaluations: u32,
) -> Option<CostModel> {
    let mut samples = Vec::new();
    let ordering: Vec<usize> = (0..num_segments).collect();
    // Time the steady-state kernel the search workers actually run: one
    // warmed-up workspace reused across evaluations (the first, allocating
    // pass is deliberately left out of the samples).
    let mut ctx = EvalContext::new(base);
    if evaluations > 0 {
        evaluate_into(graph, &ordering, &mut ctx);
    }
    for _ in 0..evaluations {
        let start = Instant::now();
        let _ = evaluate_into(graph, &ordering, &mut ctx);
        samples.push(CostSample {
            units: graph.len() as u64,
            seconds: start.elapsed().as_secs_f64(),
        });
    }
    CostModel::fit_through_origin(&samples)
}

/// Converts segment priorities (higher = earlier) back into the ordering
/// that produced them — the inverse of the search's priority assignment.
/// Useful for warm-starting the next search from a previous
/// [`OrderingResult::segment_priorities`].
pub fn ordering_from_priorities(priorities: &[i64]) -> Vec<usize> {
    let mut ordering: Vec<usize> = (0..priorities.len()).collect();
    ordering.sort_by_key(|&seg| std::cmp::Reverse(priorities[seg]));
    ordering
}

/// True when `ordering` is a permutation of `0..num_segments`.
fn is_permutation(ordering: &[usize], num_segments: usize) -> bool {
    if ordering.len() != num_segments {
        return false;
    }
    let mut seen = vec![false; num_segments];
    for &seg in ordering {
        if seg >= num_segments || seen[seg] {
            return false;
        }
        seen[seg] = true;
    }
    true
}

/// A point on the best-score-versus-time curve (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchProgressPoint {
    /// Elapsed search time when the improvement was found.
    pub elapsed: Duration,
    /// Best simulated iteration time found so far, in seconds.
    pub best_time_s: f64,
}

/// The outcome of an ordering search.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingResult {
    /// Priority per placement segment (higher = scheduled earlier).
    pub segment_priorities: Vec<i64>,
    /// Best simulated iteration time found, in seconds.
    pub best_time_s: f64,
    /// Number of orderings evaluated (all streams plus the incumbents).
    pub evaluations: u64,
    /// Orderings evaluated by each search stream, in stream-index order.
    /// Empty when the search was skipped (single-segment graphs).
    pub worker_evaluations: Vec<u64>,
    /// How many of `evaluations` were cut short by the incumbent bound
    /// (see [`OrderingSearchConfig::prune_bounded_evaluations`]). Pruned
    /// evaluations still count against every quota, so this is a pure
    /// wall-clock win: `pruned_evaluations / evaluations` is the fraction
    /// of interleave passes the search did not have to finish. Always 0
    /// for MCTS, whose rollouts are never bounded.
    pub pruned_evaluations: u64,
    /// How many of `evaluations` the per-search ordering memo answered
    /// without an interleave pass (see the module docs). Like pruning, a
    /// memo hit counts fully against the quota, so this is a wall-clock
    /// figure: `evaluations − memo_hits` passes actually ran (a hit that
    /// improves a stream's incumbent re-runs its pass and is still counted
    /// here). With more than one worker it depends on thread timing, so
    /// it is not part of the determinism guarantee. Always 0 for DFS.
    pub memo_hits: u64,
    /// The deterministic per-stream evaluation quota the search ran under
    /// (0 when the search was skipped).
    pub evaluation_quota: u64,
    /// Summed per-stream **task wall time** (each stream's elapsed time,
    /// added up). On unloaded cores this equals CPU time and
    /// `cpu_time / wall` approaches the worker count when the streams
    /// scale; when workers oversubscribe the physical cores a descheduled
    /// stream's wait time is included, so the ratio overstates real
    /// scaling there.
    pub cpu_time: Duration,
    /// Progress curve (monotonically decreasing best time, merged across
    /// streams).
    pub progress: Vec<SearchProgressPoint>,
    /// The per-rank orders realising the best time.
    pub orders: RankOrders,
}

impl OrderingResult {
    /// The result of *not* searching: one interleave pass of `graph` under
    /// the given `segment_priorities` over the `base` configuration — one
    /// evaluation, no streams, a zero quota.
    pub(crate) fn unsearched(
        graph: &StageGraph,
        segment_priorities: Vec<i64>,
        base: &DualQueueConfig,
    ) -> Self {
        let queue = DualQueueConfig {
            segment_priorities,
            ..base.clone()
        };
        let (orders, best_time_s) = dual_queue::schedule(graph, &queue);
        Self {
            segment_priorities: queue.segment_priorities,
            best_time_s,
            evaluations: 1,
            worker_evaluations: Vec::new(),
            pruned_evaluations: 0,
            memo_hits: 0,
            evaluation_quota: 0,
            cpu_time: Duration::ZERO,
            progress: Vec::new(),
            orders,
        }
    }
}

/// Per-stream evaluation scratch: a reusable [`ScheduleWorkspace`] plus one
/// pre-cloned [`DualQueueConfig`] whose `segment_priorities` vector is
/// rewritten in place for every ordering. Each search stream owns one, so
/// an evaluation in the hot loop performs **zero heap allocations** once
/// the workspace has warmed up on the graph's shape — the base config is
/// cloned once per stream, not once per evaluation.
struct EvalContext {
    config: DualQueueConfig,
    ws: ScheduleWorkspace,
}

impl EvalContext {
    fn new(base: &DualQueueConfig) -> Self {
        Self {
            config: base.clone(),
            ws: ScheduleWorkspace::new(),
        }
    }

    /// Writes `ordering`'s priority assignment (position `i` ⇒ priority
    /// `n − i`) into the reused config vector.
    fn set_ordering(&mut self, ordering: &[usize]) {
        let n = ordering.len();
        let priorities = &mut self.config.segment_priorities;
        priorities.clear();
        priorities.resize(n, 0);
        for (pos, &seg) in ordering.iter().enumerate() {
            priorities[seg] = (n - pos) as i64;
        }
    }

    /// The priorities written by the last [`Self::set_ordering`].
    fn priorities(&self) -> &[i64] {
        &self.config.segment_priorities
    }
}

/// Evaluates one ordering through the reusable workspace, returning the
/// estimated iteration time; the per-rank orders are left in `ctx.ws` and
/// the priorities in [`EvalContext::priorities`].
fn evaluate_into(graph: &StageGraph, ordering: &[usize], ctx: &mut EvalContext) -> f64 {
    ctx.set_ordering(ordering);
    dual_queue::schedule_into(graph, &ctx.config, &mut ctx.ws)
}

/// Like [`evaluate_into`] but aborts (returning `None`) as soon as the
/// partial schedule provably exceeds `cutoff` — see
/// [`dip_pipeline::schedule_bounded`] for why the bound is exact.
fn evaluate_bounded(
    graph: &StageGraph,
    ordering: &[usize],
    ctx: &mut EvalContext,
    cutoff: f64,
) -> Option<f64> {
    ctx.set_ordering(ordering);
    dual_queue::schedule_bounded(graph, &ctx.config, &mut ctx.ws, cutoff)
}

/// Evaluates one ordering with fresh allocations: the cold-path convenience
/// used for the identity/warm incumbents (once per search, not per stream).
fn evaluate(
    graph: &StageGraph,
    ordering: &[usize],
    base: &DualQueueConfig,
) -> (f64, RankOrders, Vec<i64>) {
    let mut ctx = EvalContext::new(base);
    let makespan = evaluate_into(graph, ordering, &mut ctx);
    let mut orders = RankOrders { orders: Vec::new() };
    ctx.ws.write_orders_into(&mut orders);
    (
        makespan,
        orders,
        std::mem::take(&mut ctx.config.segment_priorities),
    )
}

/// One stream's private best-so-far state plus its bookkeeping. Streams
/// never share this — merging happens once, deterministically, at the end.
#[derive(Clone)]
struct WorkerOutcome {
    time_s: f64,
    priorities: Vec<i64>,
    orders: RankOrders,
    progress: Vec<SearchProgressPoint>,
    evaluations: u64,
    /// How many of `evaluations` the cutoff bound aborted early. Pruned
    /// evaluations still count fully against the quota.
    pruned: u64,
    /// How many of `evaluations` the shared memo answered.
    memo_hits: u64,
    /// CPU time the stream's task took to execute (filled by the runner;
    /// informational only — never consulted by the search itself).
    cpu: Duration,
}

impl WorkerOutcome {
    fn starting_from(incumbent: &WorkerOutcome) -> Self {
        Self {
            time_s: incumbent.time_s,
            priorities: incumbent.priorities.clone(),
            orders: incumbent.orders.clone(),
            progress: Vec::new(),
            evaluations: 0,
            pruned: 0,
            memo_hits: 0,
            cpu: Duration::ZERO,
        }
    }

    fn record_if_better(
        &mut self,
        start: Instant,
        time_s: f64,
        priorities: &[i64],
        orders: &[Vec<StageId>],
    ) {
        if time_s < self.time_s {
            self.time_s = time_s;
            self.priorities.clear();
            self.priorities.extend_from_slice(priorities);
            // Copy the orders reusing the incumbent's allocations: records
            // are rare (strict improvements only) but there is no reason to
            // reallocate what is already shaped right.
            self.orders.orders.truncate(orders.len());
            while self.orders.orders.len() < orders.len() {
                self.orders.orders.push(Vec::new());
            }
            for (dst, src) in self.orders.orders.iter_mut().zip(orders) {
                dst.clear();
                dst.extend_from_slice(src);
            }
            self.progress.push(SearchProgressPoint {
                elapsed: start.elapsed(),
                best_time_s: time_s,
            });
        }
    }

    /// True when this stream's deterministic evaluation quota is exhausted.
    /// Deliberately consults **no clock**: the quota is the only stopping
    /// rule, which is what makes fixed-seed searches bit-reproducible.
    fn budget_exhausted(&self, quota: u64) -> bool {
        self.evaluations >= quota
    }
}

/// The per-search memo from ordering to makespan, shared by every stream
/// (see the module docs for why it leaves every plan bit-identical).
#[derive(Default)]
struct SearchMemo {
    makespans: Mutex<HashMap<Vec<usize>, f64>>,
}

impl SearchMemo {
    fn lock(&self) -> MutexGuard<'_, HashMap<Vec<usize>, f64>> {
        self.makespans
            .lock()
            .expect("no search stream panics while holding the memo lock")
    }

    /// Stores the makespan of a *completed* pass over `ordering`. The key is
    /// allocated only for an ordering not yet stored.
    fn insert(&self, ordering: &[usize], makespan: f64) {
        let mut makespans = self.lock();
        if !makespans.contains_key(ordering) {
            makespans.insert(ordering.to_vec(), makespan);
        }
    }

    /// One search-stream evaluation of `ordering`, bounded by `cutoff`
    /// (`f64::INFINITY` for an unbounded pass): counts it against `local`'s
    /// quota, records it if it strictly beats the stream's incumbent, and
    /// returns its makespan — or `None` when the makespan provably exceeds
    /// `cutoff` (counted as pruned). Answers from the memo when it can and
    /// runs the interleave pass otherwise.
    fn visit(
        &self,
        graph: &StageGraph,
        ordering: &[usize],
        ctx: &mut EvalContext,
        local: &mut WorkerOutcome,
        start: Instant,
        cutoff: f64,
    ) -> Option<f64> {
        local.evaluations += 1;
        let stored = self.lock().get(ordering).copied();
        let Some(makespan) = stored else {
            let Some(makespan) = evaluate_bounded(graph, ordering, ctx, cutoff) else {
                local.pruned += 1;
                return None;
            };
            self.insert(ordering, makespan);
            local.record_if_better(start, makespan, ctx.priorities(), ctx.ws.orders());
            return Some(makespan);
        };
        local.memo_hits += 1;
        // An improving hit needs the pass's per-rank orders, so it re-runs
        // (rare: strict improvements only). Debug builds re-run every hit
        // to prove the memo exact.
        if cfg!(debug_assertions) || makespan < local.time_s {
            let fresh = evaluate_into(graph, ordering, ctx);
            assert_eq!(
                fresh.to_bits(),
                makespan.to_bits(),
                "memoised makespan of {ordering:?} differs from a fresh pass"
            );
            local.record_if_better(start, fresh, ctx.priorities(), ctx.ws.orders());
        }
        if makespan > cutoff {
            local.pruned += 1;
            return None;
        }
        Some(makespan)
    }
}

/// Runs the segment-ordering search over `num_segments` segments of `graph`.
pub fn search_ordering(
    graph: &StageGraph,
    num_segments: usize,
    config: &OrderingSearchConfig,
) -> OrderingResult {
    let start = Instant::now();
    let quota = config.evaluation_quota(graph.len());
    let identity: Vec<usize> = (0..num_segments).collect();
    let (t0, o0, p0) = evaluate(graph, &identity, &config.dual_queue);
    let mut incumbent = WorkerOutcome {
        time_s: t0,
        priorities: p0,
        orders: o0,
        progress: vec![SearchProgressPoint {
            elapsed: start.elapsed(),
            best_time_s: t0,
        }],
        evaluations: 1,
        pruned: 0,
        memo_hits: 0,
        cpu: Duration::ZERO,
    };
    let memo = SearchMemo::default();
    memo.insert(&identity, t0);

    // Warm start: evaluate the seeded ordering (typically the previous
    // iteration's best) so the incumbent is at least as good as last time.
    let warm = config
        .seed_ordering
        .as_deref()
        .filter(|seed| is_permutation(seed, num_segments));
    let mut warm_time = None;
    if let Some(seed) = warm {
        let (t, o, p) = evaluate(graph, seed, &config.dual_queue);
        incumbent.evaluations += 1;
        incumbent.record_if_better(start, t, &p, &o.orders);
        memo.insert(seed, t);
        warm_time = Some(t);
    }

    let mut outcomes: Vec<WorkerOutcome> = Vec::new();
    if num_segments > 1 {
        match config.strategy {
            SearchStrategy::Mcts => {
                outcomes = run_streams(config, |stream| {
                    let mut local = WorkerOutcome::starting_from(&incumbent);
                    mcts_worker(
                        graph,
                        num_segments,
                        config,
                        quota,
                        warm.zip(warm_time),
                        &memo,
                        &mut local,
                        start,
                        stream,
                    );
                    local
                });
            }
            SearchStrategy::Random => {
                outcomes = run_streams(config, |stream| {
                    let mut local = WorkerOutcome::starting_from(&incumbent);
                    random_worker(
                        graph,
                        num_segments,
                        config,
                        quota,
                        &memo,
                        &mut local,
                        start,
                        stream,
                    );
                    local
                });
            }
            SearchStrategy::Dfs => {
                // DFS is a deterministic lexicographic enumeration; it runs
                // as a single stream regardless of the configured count.
                let dfs_start = Instant::now();
                let mut local = WorkerOutcome::starting_from(&incumbent);
                dfs_search(graph, num_segments, config, quota, &mut local, start);
                local.cpu = dfs_start.elapsed();
                outcomes = vec![local];
            }
        }
    }

    merge_outcomes(incumbent, outcomes, quota)
}

/// Executes the configured number of independent search streams on
/// `config.workers` physical threads (via the shared work-stealing
/// fork-join helper) and returns the outcomes in stream-index order.
/// Every stream's work is a pure function of its index, so the returned
/// vector is identical no matter which thread ran which stream.
fn run_streams<F>(config: &OrderingSearchConfig, work: F) -> Vec<WorkerOutcome>
where
    F: Fn(usize) -> WorkerOutcome + Sync + Send,
{
    let streams = config.streams.max(1);
    crate::par::parallel_map_indexed(streams, config.workers, |stream| {
        let task_start = Instant::now();
        let mut outcome = work(stream);
        outcome.cpu = task_start.elapsed();
        outcome
    })
}

/// Merges the incumbent and every stream outcome into the final result.
///
/// Streams are visited in index order and only a *strictly* better time
/// replaces the current best, so ties resolve to the lowest stream index —
/// the stable tie-break that keeps fixed-seed searches deterministic.
fn merge_outcomes(
    incumbent: WorkerOutcome,
    outcomes: Vec<WorkerOutcome>,
    quota: u64,
) -> OrderingResult {
    let mut evaluations = incumbent.evaluations;
    let mut worker_evaluations = Vec::with_capacity(outcomes.len());
    let mut pruned_evaluations = 0u64;
    let mut memo_hits = 0u64;
    let mut progress = incumbent.progress.clone();
    let mut best_time = incumbent.time_s;
    let mut best_priorities = incumbent.priorities;
    let mut best_orders = incumbent.orders;
    let mut cpu_time = Duration::ZERO;
    for outcome in &outcomes {
        evaluations += outcome.evaluations;
        worker_evaluations.push(outcome.evaluations);
        pruned_evaluations += outcome.pruned;
        memo_hits += outcome.memo_hits;
        progress.extend(outcome.progress.iter().copied());
        cpu_time += outcome.cpu;
        if outcome.time_s < best_time {
            best_time = outcome.time_s;
            best_priorities = outcome.priorities.clone();
            best_orders = outcome.orders.clone();
        }
    }
    // Merge the per-worker curves into one monotone best-so-far curve.
    progress.sort_by(|a, b| {
        a.elapsed.cmp(&b.elapsed).then(
            a.best_time_s
                .partial_cmp(&b.best_time_s)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    let mut merged = Vec::with_capacity(progress.len());
    let mut current = f64::INFINITY;
    for point in progress {
        if point.best_time_s < current {
            current = point.best_time_s;
            merged.push(point);
        }
    }
    OrderingResult {
        segment_priorities: best_priorities,
        best_time_s: best_time,
        evaluations,
        worker_evaluations,
        pruned_evaluations,
        memo_hits,
        evaluation_quota: if outcomes.is_empty() { 0 } else { quota },
        cpu_time,
        progress: merged,
        orders: best_orders,
    }
}

/// The RNG of stream `s`; stream 0 replays the single-stream RNG.
fn worker_rng(seed: u64, stream: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0xA5A5_A5A5))
}

// ---------------------------------------------------------------------------
// Random exploration
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn random_worker(
    graph: &StageGraph,
    num_segments: usize,
    config: &OrderingSearchConfig,
    quota: u64,
    memo: &SearchMemo,
    local: &mut WorkerOutcome,
    start: Instant,
    stream: usize,
) {
    let mut rng = worker_rng(config.seed, stream);
    let mut ctx = EvalContext::new(&config.dual_queue);
    let mut ordering: Vec<usize> = (0..num_segments).collect();
    while !local.budget_exhausted(quota) {
        ordering.shuffle(&mut rng);
        // Only strictly-better-than-incumbent results matter here, so the
        // evaluation is bounded by this stream's own best time: exact
        // pruning with per-stream incumbents keeps fixed-seed cross-worker
        // bit-identity (streams never observe each other's incumbents).
        // A pruned evaluation is provably worse than the incumbent and
        // counts against the quota exactly like a finished one.
        let cutoff = if config.prune_bounded_evaluations {
            local.time_s
        } else {
            f64::INFINITY
        };
        memo.visit(graph, &ordering, &mut ctx, local, start, cutoff);
    }
}

// ---------------------------------------------------------------------------
// DFS enumeration
// ---------------------------------------------------------------------------

fn dfs_search(
    graph: &StageGraph,
    num_segments: usize,
    config: &OrderingSearchConfig,
    quota: u64,
    local: &mut WorkerOutcome,
    start: Instant,
) {
    // Lexicographic enumeration of permutations via recursion with an
    // explicit prefix stack, stopping at the quota.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        graph: &StageGraph,
        config: &OrderingSearchConfig,
        quota: u64,
        local: &mut WorkerOutcome,
        ctx: &mut EvalContext,
        start: Instant,
        prefix: &mut Vec<usize>,
        remaining: &mut Vec<usize>,
    ) {
        if local.budget_exhausted(quota) {
            return;
        }
        if remaining.is_empty() {
            // DFS only reports its single best ordering, so (like the
            // random worker) each leaf evaluation is bounded by the
            // incumbent — exact pruning, identical best plan.
            let cutoff = if config.prune_bounded_evaluations {
                local.time_s
            } else {
                f64::INFINITY
            };
            local.evaluations += 1;
            match evaluate_bounded(graph, prefix, ctx, cutoff) {
                Some(t) => local.record_if_better(start, t, ctx.priorities(), ctx.ws.orders()),
                None => local.pruned += 1,
            }
            return;
        }
        for i in 0..remaining.len() {
            let seg = remaining.remove(i);
            prefix.push(seg);
            recurse(graph, config, quota, local, ctx, start, prefix, remaining);
            prefix.pop();
            remaining.insert(i, seg);
        }
    }
    let mut ctx = EvalContext::new(&config.dual_queue);
    let mut prefix = Vec::new();
    let mut remaining: Vec<usize> = (0..num_segments).collect();
    recurse(
        graph,
        config,
        quota,
        local,
        &mut ctx,
        start,
        &mut prefix,
        &mut remaining,
    );
}

// ---------------------------------------------------------------------------
// MCTS
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct MctsNode {
    visits: u64,
    /// Best (lowest) iteration time observed among descendants.
    best_time: f64,
}

impl MctsNode {
    fn new() -> Self {
        Self {
            visits: 0,
            best_time: f64::INFINITY,
        }
    }
}

#[derive(Debug)]
struct MctsTree {
    nodes: Vec<MctsNode>,
    /// Dense child table, one row of `num_segments` entries per node: the
    /// child of node `i` for segment `s` is `children[i * num_segments +
    /// s]`, and 0 marks a missing child (the root, node 0, is nobody's
    /// child). Growing the tree only extends this vector, so tree growth
    /// allocates amortised O(log nodes) times.
    children: Vec<usize>,
    num_segments: usize,
}

impl MctsTree {
    fn new(num_segments: usize) -> Self {
        Self {
            nodes: vec![MctsNode::new()],
            children: vec![0; num_segments],
            num_segments,
        }
    }

    /// The child of `node` for segment `seg`, if it has been expanded.
    fn child(&self, node: usize, seg: usize) -> Option<usize> {
        let idx = self.children[node * self.num_segments + seg];
        (idx != 0).then_some(idx)
    }

    /// Appends a fresh node as `node`'s child for `seg`; returns its index.
    fn add_child(&mut self, node: usize, seg: usize) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(MctsNode::new());
        self.children
            .resize(self.children.len() + self.num_segments, 0);
        self.children[node * self.num_segments + seg] = idx;
        idx
    }

    /// Credits `node` with one visit at `time_s`.
    fn credit(&mut self, node: usize, time_s: f64) {
        let node = &mut self.nodes[node];
        node.visits += 1;
        if time_s < node.best_time {
            node.best_time = time_s;
        }
    }

    /// Warm start: materialise `ordering` as a path from the root, crediting
    /// every node on it with one visit at the ordering's observed time. UCB
    /// then treats the previous best as an already-explored promising branch
    /// instead of starting from an empty tree.
    fn seed_path(&mut self, ordering: &[usize], time_s: f64) {
        let mut node_idx = 0usize;
        for &seg in ordering {
            self.credit(node_idx, time_s);
            node_idx = match self.child(node_idx, seg) {
                Some(idx) => idx,
                None => self.add_child(node_idx, seg),
            };
        }
        self.credit(node_idx, time_s);
    }
}

/// One root-parallel MCTS stream: owns its tree, RNG and scratch buffers
/// outright, so the select/expand/rollout/backpropagate loop takes no lock
/// except the memo's and allocates nothing but memo inserts and tree
/// growth. `missing` and `rest` are built in ascending segment order, which
/// fixes the RNG draws for a given seed.
#[allow(clippy::too_many_arguments)]
fn mcts_worker(
    graph: &StageGraph,
    num_segments: usize,
    config: &OrderingSearchConfig,
    quota: u64,
    warm: Option<(&[usize], f64)>,
    memo: &SearchMemo,
    local: &mut WorkerOutcome,
    start: Instant,
    stream: usize,
) {
    let mut rng = worker_rng(config.seed, stream);
    let mut ctx = EvalContext::new(&config.dual_queue);
    let mut tree = MctsTree::new(num_segments);
    if let Some((seed, time_s)) = warm {
        tree.seed_path(seed, time_s);
    }
    let mut path: Vec<usize> = Vec::with_capacity(num_segments + 1);
    let mut prefix: Vec<usize> = Vec::with_capacity(num_segments);
    let mut used = vec![false; num_segments];
    let mut unused: Vec<usize> = Vec::with_capacity(num_segments);
    let mut missing: Vec<usize> = Vec::with_capacity(num_segments);
    let mut ordering: Vec<usize> = Vec::with_capacity(num_segments);
    let mut rest: Vec<usize> = Vec::with_capacity(num_segments);
    while !local.budget_exhausted(quota) {
        // --- Selection + expansion. ---
        let mut node_idx = 0usize;
        path.clear();
        path.push(0);
        prefix.clear();
        used.fill(false);
        loop {
            if prefix.len() == num_segments {
                break;
            }
            unused.clear();
            unused.extend((0..num_segments).filter(|&s| !used[s]));
            // Expand if some child is missing.
            missing.clear();
            missing.extend(
                unused
                    .iter()
                    .copied()
                    .filter(|&s| tree.child(node_idx, s).is_none()),
            );
            if !missing.is_empty() {
                let pick = missing[rng.gen_range(0..missing.len())];
                let new_idx = tree.add_child(node_idx, pick);
                prefix.push(pick);
                used[pick] = true;
                path.push(new_idx);
                break;
            }
            // UCB selection among existing children.
            let parent_visits = tree.nodes[node_idx].visits.max(1);
            let incumbent = local.time_s;
            let mut best_child = None;
            let mut best_ucb = f64::NEG_INFINITY;
            for &seg in &unused {
                let child_idx = tree
                    .child(node_idx, seg)
                    .expect("no child is missing after expansion");
                let child = &tree.nodes[child_idx];
                let exploit = if child.best_time.is_finite() {
                    (incumbent / child.best_time).powf(config.ucb_alpha)
                } else {
                    0.5
                };
                let explore = config.ucb_beta
                    * ((parent_visits as f64).ln() / (child.visits.max(1) as f64)).sqrt();
                let ucb = exploit + explore;
                if ucb > best_ucb {
                    best_ucb = ucb;
                    best_child = Some((seg, child_idx));
                }
            }
            let Some((seg, child_idx)) = best_child else {
                break;
            };
            prefix.push(seg);
            used[seg] = true;
            node_idx = child_idx;
            path.push(child_idx);
        }

        // --- Rollouts. ---
        let mut local_best = f64::INFINITY;
        for _ in 0..config.rollouts_per_expansion.max(1) {
            if local.budget_exhausted(quota) {
                break;
            }
            ordering.clear();
            ordering.extend_from_slice(&prefix);
            rest.clear();
            rest.extend((0..num_segments).filter(|&s| !used[s]));
            rest.shuffle(&mut rng);
            ordering.extend_from_slice(&rest);
            // Deliberately unbounded: backpropagation must credit the tree
            // path with the rollout's *true* time even when it is worse
            // than the incumbent — a cutoff-aborted rollout would yield no
            // value and change how the tree grows.
            let t = memo
                .visit(graph, &ordering, &mut ctx, local, start, f64::INFINITY)
                .expect("an unbounded evaluation is never pruned");
            local_best = local_best.min(t);
        }

        // --- Backpropagation. ---
        if local_best.is_finite() {
            for &idx in &path {
                tree.credit(idx, local_best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_pipeline::{separated_placement, ParallelConfig, StageGraphBuilder, SubMicrobatchPlan};
    use dip_sim::ClusterSpec;
    use std::collections::BTreeMap;

    fn vlm_graph(num_microbatches: usize) -> (StageGraph, usize) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 2usize);
        let placement = separated_placement(&spec, parallel, &k);
        let cluster = ClusterSpec::h800_cluster(2);
        let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6502, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10));
        let batches = vec![batch; num_microbatches];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();
        let n = placement.segments.len();
        (graph, n)
    }

    fn quick_config(strategy: SearchStrategy) -> OrderingSearchConfig {
        OrderingSearchConfig {
            strategy,
            // Virtual time: ~50 ms worth of evaluations per stream under
            // the reference cost model, regardless of the machine.
            time_budget: Duration::from_millis(50),
            streams: 2,
            workers: 2,
            rollouts_per_expansion: 2,
            ..OrderingSearchConfig::default()
        }
    }

    #[test]
    fn mcts_search_returns_a_complete_schedule() {
        let (graph, n) = vlm_graph(4);
        let result = search_ordering(&graph, n, &quick_config(SearchStrategy::Mcts));
        assert_eq!(result.segment_priorities.len(), n);
        assert!(result.best_time_s.is_finite() && result.best_time_s > 0.0);
        assert!(result.evaluations >= 1);
        assert_eq!(result.orders.num_stages(), graph.len());
        // Progress is monotonically decreasing after the merge.
        for w in result.progress.windows(2) {
            assert!(w[1].best_time_s < w[0].best_time_s);
        }
    }

    #[test]
    fn search_improves_or_matches_the_identity_ordering() {
        let (graph, n) = vlm_graph(6);
        let identity: Vec<usize> = (0..n).collect();
        let (identity_time, _, _) = evaluate(&graph, &identity, &DualQueueConfig::default());
        for strategy in [
            SearchStrategy::Mcts,
            SearchStrategy::Random,
            SearchStrategy::Dfs,
        ] {
            let result = search_ordering(&graph, n, &quick_config(strategy));
            assert!(
                result.best_time_s <= identity_time + 1e-9,
                "{strategy:?}: {} vs identity {}",
                result.best_time_s,
                identity_time
            );
        }
    }

    #[test]
    fn all_strategies_count_evaluations() {
        let (graph, n) = vlm_graph(2);
        for strategy in [
            SearchStrategy::Mcts,
            SearchStrategy::Random,
            SearchStrategy::Dfs,
        ] {
            let result = search_ordering(&graph, n, &quick_config(strategy));
            assert!(result.evaluations >= 1, "{strategy:?}");
            let worker_total: u64 = result.worker_evaluations.iter().sum();
            assert!(
                result.evaluations > worker_total,
                "{strategy:?}: the incumbent evaluations are counted too"
            );
        }
    }

    #[test]
    fn the_memo_answers_every_revisited_ordering() {
        let (graph, n) = vlm_graph(2);
        let distinct: u64 = (1..=n as u64).product();
        for strategy in [
            SearchStrategy::Mcts,
            SearchStrategy::Random,
            SearchStrategy::Dfs,
        ] {
            let config = OrderingSearchConfig {
                time_budget: Duration::from_secs(3600),
                max_evaluations: Some(60),
                ..quick_config(strategy)
            };
            let result = search_ordering(&graph, n, &config);
            let visits: u64 = result.worker_evaluations.iter().sum();
            assert!(result.memo_hits <= visits, "{strategy:?}");
            match strategy {
                SearchStrategy::Dfs => {
                    assert_eq!(result.memo_hits, 0, "DFS never revisits an ordering");
                }
                // Unbounded rollouts always complete, so once each of the
                // `distinct` orderings has run, every visit is a hit (debug
                // builds re-run each one and assert the stored bits).
                SearchStrategy::Mcts => assert!(
                    result.memo_hits + distinct >= visits,
                    "{} hits over {visits} visits",
                    result.memo_hits
                ),
                // Pruned passes store nothing, so only revisits of
                // completed orderings hit.
                SearchStrategy::Random => assert!(result.memo_hits > 0),
            }
        }
    }

    #[test]
    fn ordering_from_priorities_inverts_priority_assignment() {
        let ordering = vec![2usize, 0, 3, 1];
        let n = ordering.len();
        let mut priorities = vec![0i64; n];
        for (pos, &seg) in ordering.iter().enumerate() {
            priorities[seg] = (n - pos) as i64;
        }
        assert_eq!(ordering_from_priorities(&priorities), ordering);
    }

    #[test]
    fn warm_start_is_at_least_as_good_as_the_seeded_ordering() {
        let (graph, n) = vlm_graph(4);
        // Cold search finds some best ordering.
        let cold = search_ordering(&graph, n, &quick_config(SearchStrategy::Mcts));
        let seed = ordering_from_priorities(&cold.segment_priorities);
        let (seed_time, _, _) = evaluate(&graph, &seed, &DualQueueConfig::default());
        // Warm search with zero exploration budget still holds the incumbent.
        let config = OrderingSearchConfig {
            time_budget: Duration::ZERO,
            seed_ordering: Some(seed),
            ..quick_config(SearchStrategy::Mcts)
        };
        let warm = search_ordering(&graph, n, &config);
        assert!(
            warm.best_time_s <= seed_time + 1e-9,
            "warm {} vs seeded {}",
            warm.best_time_s,
            seed_time
        );
        // Identity + seed were both evaluated.
        assert_eq!(warm.evaluations, 2);
    }

    #[test]
    fn invalid_seed_orderings_are_ignored() {
        let (graph, n) = vlm_graph(2);
        for bad in [
            vec![0usize; n],
            vec![0usize],
            (0..n + 1).collect::<Vec<_>>(),
        ] {
            let config = OrderingSearchConfig {
                time_budget: Duration::ZERO,
                seed_ordering: Some(bad),
                ..quick_config(SearchStrategy::Mcts)
            };
            let result = search_ordering(&graph, n, &config);
            assert_eq!(result.evaluations, 1, "only the identity is evaluated");
        }
    }

    /// Fixed search space (4 streams × an explicit per-stream quota); only
    /// the physical worker count varies.
    fn bounded_config(workers: usize, per_stream_evaluations: u64) -> OrderingSearchConfig {
        OrderingSearchConfig {
            strategy: SearchStrategy::Mcts,
            time_budget: Duration::from_secs(3600),
            max_evaluations: Some(per_stream_evaluations),
            streams: 4,
            workers,
            rollouts_per_expansion: 2,
            seed: 7,
            ..OrderingSearchConfig::default()
        }
    }

    #[test]
    fn warm_started_search_is_deterministic_for_a_fixed_seed() {
        let (graph, n) = vlm_graph(4);
        let run = || {
            let config = OrderingSearchConfig {
                seed_ordering: Some((0..n).rev().collect()),
                ..bounded_config(1, 40)
            };
            search_ordering(&graph, n, &config)
        };
        let a = run();
        let b = run();
        assert_eq!(a.segment_priorities, b.segment_priorities);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.orders, b.orders);
        assert!((a.best_time_s - b.best_time_s).abs() < 1e-12);
    }

    /// The headline guarantee of the virtual-time schedule: the physical
    /// worker count is a pure throughput knob — every count produces the
    /// bit-identical result, because the stream set and each stream's
    /// quota never depend on it.
    #[test]
    fn plans_are_bit_identical_across_worker_counts() {
        let (graph, n) = vlm_graph(4);
        let reference = search_ordering(&graph, n, &bounded_config(1, 30));
        assert_eq!(reference.worker_evaluations.len(), 4, "4 streams");
        for workers in [2usize, 4, 8] {
            let parallel = search_ordering(&graph, n, &bounded_config(workers, 30));
            assert_eq!(
                parallel.segment_priorities, reference.segment_priorities,
                "{workers} workers"
            );
            assert_eq!(parallel.orders, reference.orders, "{workers} workers");
            assert_eq!(parallel.evaluations, reference.evaluations);
            assert_eq!(parallel.worker_evaluations, reference.worker_evaluations);
            assert_eq!(
                parallel.best_time_s.to_bits(),
                reference.best_time_s.to_bits(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn virtual_time_budgets_are_deterministic_without_an_evaluation_cap() {
        let (graph, n) = vlm_graph(4);
        // A pure time budget (no max_evaluations): the quota comes from the
        // calibrated cost model, so repeated runs and different worker
        // counts still agree bit-for-bit.
        let config = |workers: usize| OrderingSearchConfig {
            strategy: SearchStrategy::Mcts,
            time_budget: Duration::from_millis(25),
            streams: 3,
            workers,
            seed: 11,
            ..OrderingSearchConfig::default()
        };
        let a = search_ordering(&graph, n, &config(1));
        let b = search_ordering(&graph, n, &config(4));
        let c = search_ordering(&graph, n, &config(1));
        assert!(a.evaluation_quota > 0, "a 25 ms budget buys evaluations");
        assert_eq!(a.segment_priorities, b.segment_priorities);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best_time_s.to_bits(), b.best_time_s.to_bits());
        assert_eq!(a.orders, c.orders);
        assert_eq!(a.evaluations, c.evaluations);
    }

    #[test]
    fn adding_streams_never_degrades_the_plan_for_a_fixed_seed() {
        let (graph, n) = vlm_graph(4);
        // Stream s explores the same orderings no matter how many other
        // streams exist, so a larger stream set explores a superset and the
        // merged best can only improve.
        let small = search_ordering(
            &graph,
            n,
            &OrderingSearchConfig {
                streams: 1,
                ..bounded_config(4, 30)
            },
        );
        for streams in [2usize, 4, 8] {
            let wide = search_ordering(
                &graph,
                n,
                &OrderingSearchConfig {
                    streams,
                    ..bounded_config(4, 30)
                },
            );
            assert!(
                wide.best_time_s <= small.best_time_s + 1e-12,
                "{streams} streams: {} vs single-stream {}",
                wide.best_time_s,
                small.best_time_s
            );
        }
    }

    #[test]
    fn max_evaluations_caps_each_stream() {
        let (graph, n) = vlm_graph(3);
        for strategy in [
            SearchStrategy::Mcts,
            SearchStrategy::Random,
            SearchStrategy::Dfs,
        ] {
            for workers in [1usize, 3] {
                let config = OrderingSearchConfig {
                    time_budget: Duration::from_secs(3600),
                    max_evaluations: Some(10),
                    streams: 3,
                    workers,
                    rollouts_per_expansion: 1,
                    ..quick_config(strategy)
                };
                let result = search_ordering(&graph, n, &config);
                assert_eq!(result.evaluation_quota, 10, "{strategy:?}/{workers}");
                assert!(
                    result.worker_evaluations.iter().all(|&e| e <= 10),
                    "{strategy:?}/{workers}: per-stream counts {:?}",
                    result.worker_evaluations
                );
                let cap = 1 + 10 * result.worker_evaluations.len() as u64;
                assert!(
                    result.evaluations <= cap,
                    "{strategy:?}/{workers} ran {} evaluations (cap {cap})",
                    result.evaluations
                );
            }
        }
    }

    #[test]
    fn evaluation_quota_follows_budget_and_graph_size() {
        let config = OrderingSearchConfig::default();
        // Bigger budgets buy more evaluations; bigger graphs fewer.
        let small_graph = config.evaluation_quota(50);
        let large_graph = config.evaluation_quota(5000);
        assert!(small_graph > large_graph);
        let short = OrderingSearchConfig {
            time_budget: Duration::from_millis(10),
            ..config.clone()
        };
        assert!(short.evaluation_quota(50) < small_graph);
        // An explicit cap min-combines with the virtual quota.
        let capped = OrderingSearchConfig {
            max_evaluations: Some(3),
            ..config.clone()
        };
        assert_eq!(capped.evaluation_quota(50), 3);
        // A zero budget buys nothing, whatever the cap says.
        let zero = OrderingSearchConfig {
            time_budget: Duration::ZERO,
            max_evaluations: Some(100),
            ..config
        };
        assert_eq!(zero.evaluation_quota(50), 0);
    }

    #[test]
    fn calibrate_eval_cost_fits_a_usable_model() {
        let (graph, n) = vlm_graph(2);
        let model = calibrate_eval_cost(&graph, n, &DualQueueConfig::default(), 8)
            .expect("calibration succeeds on a real graph");
        assert!(model.seconds(graph.len() as u64) > 0.0);
        // The fitted model converts budgets into finite quotas.
        let quota = model.quota(Duration::from_millis(100), graph.len() as u64);
        assert!(quota > 0 && quota < u64::MAX);
    }

    #[test]
    fn single_segment_graph_needs_no_search() {
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, 2, 1);
        let placement = dip_pipeline::balanced_param_placement(&spec, parallel, 1);
        let cluster = ClusterSpec::h800_cluster(1);
        let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
        let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(4096));
        let plan = SubMicrobatchPlan::uniform(1, 1);
        let graph = builder.build(&[batch], &plan).unwrap();
        let result = search_ordering(&graph, 1, &quick_config(SearchStrategy::Mcts));
        assert_eq!(result.evaluations, 1);
        assert_eq!(result.segment_priorities.len(), 1);
        assert!(result.worker_evaluations.is_empty());
    }
}

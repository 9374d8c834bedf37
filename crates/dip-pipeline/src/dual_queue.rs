//! The greedy dual-queue stage interleaver (§5.2).
//!
//! Given a [`StageGraph`] and per-segment scheduling priorities, the
//! interleaver decides the order in which each pipeline rank executes its
//! forward and backward stages. It mimics Megatron-LM's memory-efficient
//! "one-forward-one-backward" alternation whenever both kinds of stages are
//! schedulable, and otherwise greedily fills bubbles with whatever stage can
//! start earliest. Per-rank memory is tracked throughout; a rank whose
//! projected memory exceeds the capacity has its forward queue temporarily
//! disabled (§5.2 "Memory Constraints").
//!
//! The baselines reuse this scheduler with their own priorities: with a
//! single mixed segment and microbatch-index priorities it reproduces plain
//! 1F1B; with "encoders before backbone" priorities it reproduces Optimus'
//! coarse-grained schedule; DIP feeds it MCTS-derived segment priorities.

use crate::graph::{Direction, StageGraph, StageId};
use std::collections::BinaryHeap;

/// Configuration of the dual-queue interleaver.
#[derive(Debug, Clone, PartialEq)]
pub struct DualQueueConfig {
    /// Scheduling priority per pipeline segment (higher = scheduled earlier
    /// when several stages are ready). Missing entries default to zero, in
    /// which case stages are ordered by microbatch index (classic 1F1B).
    pub segment_priorities: Vec<i64>,
    /// Per-rank activation-memory budget in bytes (GPU capacity minus static
    /// memory). `None` disables the memory constraint.
    pub memory_limit: Option<Vec<u64>>,
    /// Cap on the number of in-flight (forward executed, backward not yet)
    /// stage pairs per rank. Megatron-style 1F1B uses the pipeline depth.
    pub max_inflight: Option<usize>,
    /// Whether to alternate forward/backward when both are available
    /// (the 1F1B pattern). Disabling it yields an all-forward-first
    /// (GPipe-like) order.
    pub one_f_one_b: bool,
}

impl Default for DualQueueConfig {
    fn default() -> Self {
        Self {
            segment_priorities: Vec::new(),
            memory_limit: None,
            max_inflight: None,
            one_f_one_b: true,
        }
    }
}

/// The per-rank stage execution orders produced by a scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankOrders {
    /// `orders[rank]` is the ordered list of stage ids rank `rank` executes.
    pub orders: Vec<Vec<StageId>>,
}

impl RankOrders {
    /// Total number of scheduled stages.
    pub fn num_stages(&self) -> usize {
        self.orders.iter().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    priority: i64,
    microbatch: usize,
    sub_microbatch: usize,
    ready_time: f64,
    id: StageId,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on priority, then earlier microbatch/sub-microbatch first,
        // then earlier ready time. Ready times are compared with
        // `f64::total_cmp`, so the order is total by construction — a NaN
        // (impossible for well-formed graphs, but heap invariants should
        // never rest on that) sorts deterministically instead of silently
        // comparing equal to everything.
        self.priority
            .cmp(&other.priority)
            .then(other.microbatch.cmp(&self.microbatch))
            .then(other.sub_microbatch.cmp(&self.sub_microbatch))
            .then(other.ready_time.total_cmp(&self.ready_time))
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable scratch state for [`schedule_into`] / [`schedule_bounded`]:
/// every heap and vector one interleave pass needs, hoisted out of the call
/// so a search worker evaluating thousands of orderings performs **zero
/// heap allocations after warm-up**. The reset is clear-don't-drop —
/// vectors are `clear()`ed and refilled, heaps keep their buffers — so
/// capacities only ever grow to the graph's high-water mark and then stay
/// put (the capacity-stability test below asserts exactly that).
///
/// A workspace is not tied to one graph: it resizes itself to whatever
/// graph it is handed. Reusing one workspace across the evaluations of a
/// single search stream (the intended pattern — see
/// `dip-core`'s ordering search) is what removes the per-evaluation
/// allocation traffic that used to dominate the kernel.
#[derive(Debug, Clone, Default)]
pub struct ScheduleWorkspace {
    /// Unsatisfied dependency count per item.
    remaining_deps: Vec<usize>,
    /// Earliest data-ready time per item (updated as producers finish).
    ready_time: Vec<f64>,
    /// Finish time per item of the most recent pass.
    finish_time: Vec<f64>,
    /// Whether each item has been scheduled in the most recent pass.
    scheduled: Vec<bool>,
    /// Per-rank forward-stage queues.
    fwd_queues: Vec<BinaryHeap<QueueEntry>>,
    /// Per-rank backward-stage queues.
    bwd_queues: Vec<BinaryHeap<QueueEntry>>,
    /// Per-rank time the rank becomes free.
    t_last: Vec<f64>,
    /// Per-rank direction of the last executed stage.
    last_dir: Vec<Option<Direction>>,
    /// Per-rank live activation bytes.
    mem_used: Vec<u64>,
    /// Per-rank in-flight (forward done, backward pending) stage pairs.
    inflight: Vec<usize>,
    /// Per-rank execution orders of the most recent pass.
    orders: Vec<Vec<StageId>>,
}

impl ScheduleWorkspace {
    /// An empty workspace. Capacities grow on first use and then stabilise.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-rank execution orders produced by the most recent
    /// [`schedule_into`] / [`schedule_bounded`] pass (empty before the
    /// first pass; partial after an aborted bounded pass).
    pub fn orders(&self) -> &[Vec<StageId>] {
        &self.orders
    }

    /// Copies the most recent pass's per-rank orders into `out`, reusing
    /// `out`'s existing allocations (no allocation when `out` has already
    /// held orders of the same shape).
    pub fn write_orders_into(&self, out: &mut RankOrders) {
        out.orders.truncate(self.orders.len());
        while out.orders.len() < self.orders.len() {
            out.orders.push(Vec::new());
        }
        for (dst, src) in out.orders.iter_mut().zip(&self.orders) {
            dst.clear();
            dst.extend_from_slice(src);
        }
    }

    /// Clear-don't-drop reset for a graph of `n` items over `num_ranks`
    /// ranks: every vector is cleared and refilled in place, every heap
    /// keeps its buffer.
    fn reset(&mut self, n: usize, num_ranks: usize) {
        self.remaining_deps.clear();
        self.ready_time.clear();
        self.ready_time.resize(n, 0.0);
        self.finish_time.clear();
        self.finish_time.resize(n, 0.0);
        self.scheduled.clear();
        self.scheduled.resize(n, false);
        self.fwd_queues.resize_with(num_ranks, BinaryHeap::new);
        self.bwd_queues.resize_with(num_ranks, BinaryHeap::new);
        for q in &mut self.fwd_queues {
            q.clear();
        }
        for q in &mut self.bwd_queues {
            q.clear();
        }
        self.t_last.clear();
        self.t_last.resize(num_ranks, 0.0);
        self.last_dir.clear();
        self.last_dir.resize(num_ranks, None);
        self.mem_used.clear();
        self.mem_used.resize(num_ranks, 0);
        self.inflight.clear();
        self.inflight.resize(num_ranks, 0);
        self.orders.resize_with(num_ranks, Vec::new);
        for order in &mut self.orders {
            order.clear();
        }
    }

    /// The capacity of every owned buffer, in a fixed order — the witness
    /// the zero-allocation test compares across repeated passes.
    #[cfg(test)]
    fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.remaining_deps.capacity(),
            self.ready_time.capacity(),
            self.finish_time.capacity(),
            self.scheduled.capacity(),
            self.fwd_queues.capacity(),
            self.bwd_queues.capacity(),
            self.t_last.capacity(),
            self.last_dir.capacity(),
            self.mem_used.capacity(),
            self.inflight.capacity(),
            self.orders.capacity(),
        ];
        sig.extend(self.fwd_queues.iter().map(BinaryHeap::capacity));
        sig.extend(self.bwd_queues.iter().map(BinaryHeap::capacity));
        sig.extend(self.orders.iter().map(Vec::capacity));
        sig
    }
}

/// Enqueues item `idx` on its rank's direction queue.
fn push_entry(
    graph: &StageGraph,
    priorities: &[i64],
    fwd_queues: &mut [BinaryHeap<QueueEntry>],
    bwd_queues: &mut [BinaryHeap<QueueEntry>],
    ready: &[f64],
    idx: usize,
) {
    let item = graph.item(StageId(idx));
    let entry = QueueEntry {
        priority: priorities.get(item.segment).copied().unwrap_or(0),
        microbatch: item.microbatch,
        sub_microbatch: item.sub_microbatch,
        ready_time: ready[idx],
        id: item.id,
    };
    match item.direction {
        Direction::Forward => fwd_queues[item.rank].push(entry),
        Direction::Backward => bwd_queues[item.rank].push(entry),
    }
}

/// Runs the dual-queue interleaver over a stage graph, returning the per-rank
/// execution orders together with the scheduler's own makespan estimate.
///
/// This is the allocating convenience wrapper around [`schedule_into`]: it
/// builds a fresh [`ScheduleWorkspace`] per call. Hot paths that evaluate
/// many orderings (the planner's search workers) hold a workspace and call
/// [`schedule_into`] / [`schedule_bounded`] directly.
pub fn schedule(graph: &StageGraph, config: &DualQueueConfig) -> (RankOrders, f64) {
    let mut ws = ScheduleWorkspace::new();
    let makespan = schedule_into(graph, config, &mut ws);
    (
        RankOrders {
            orders: std::mem::take(&mut ws.orders),
        },
        makespan,
    )
}

/// Runs the dual-queue interleaver using `ws` as scratch state, returning
/// the makespan; the per-rank orders are left in [`ScheduleWorkspace::orders`].
/// Bit-identical to [`schedule`] (the wrapper delegates here), but performs
/// zero heap allocations once the workspace has warmed up on the graph's
/// shape.
pub fn schedule_into(
    graph: &StageGraph,
    config: &DualQueueConfig,
    ws: &mut ScheduleWorkspace,
) -> f64 {
    schedule_core(graph, config, ws, f64::INFINITY).expect("an infinite cutoff never aborts")
}

/// Like [`schedule_into`], but aborts as soon as any scheduled stage's end
/// time exceeds `cutoff`, returning `None`. The bound is **exact**, never
/// heuristic: the makespan is the monotone maximum of all stage end times,
/// so the first end time past the cutoff proves the final makespan would
/// exceed it too — `None` means exactly "this ordering's makespan is
/// `> cutoff`", and `Some(m)` always satisfies `m <= cutoff`. Callers that
/// only care about better-than-incumbent orderings (the random and DFS
/// search workers) pass their incumbent as the cutoff and skip the tail of
/// every losing evaluation.
pub fn schedule_bounded(
    graph: &StageGraph,
    config: &DualQueueConfig,
    ws: &mut ScheduleWorkspace,
    cutoff: f64,
) -> Option<f64> {
    schedule_core(graph, config, ws, cutoff)
}

/// The shared kernel behind [`schedule_into`] and [`schedule_bounded`].
fn schedule_core(
    graph: &StageGraph,
    config: &DualQueueConfig,
    ws: &mut ScheduleWorkspace,
    cutoff: f64,
) -> Option<f64> {
    let n = graph.len();
    let num_ranks = graph.num_ranks;
    ws.reset(n, num_ranks);
    let priorities = config.segment_priorities.as_slice();

    // Dependency bookkeeping: counts from the forward CSR, release edges
    // from the graph's cached reverse CSR (`StageGraph::dependents_of`) —
    // nothing is re-derived per evaluation.
    for (idx, item) in graph.items().iter().enumerate() {
        debug_assert_eq!(item.id.0, idx);
        ws.remaining_deps.push(graph.deps_of(item.id).len());
    }

    // Seed with stages that have no dependencies.
    for idx in 0..n {
        if ws.remaining_deps[idx] == 0 {
            push_entry(
                graph,
                priorities,
                &mut ws.fwd_queues,
                &mut ws.bwd_queues,
                &ws.ready_time,
                idx,
            );
        }
    }

    let mut scheduled_count = 0usize;
    let mut makespan = 0.0f64;

    while scheduled_count < n {
        // Pick, for each rank, the stage it would run next under the policy,
        // then execute the one that can start earliest overall.
        let mut best: Option<(f64, usize, StageId, bool)> = None; // (start, rank, id, relaxed)
        for rank in 0..num_ranks {
            let fwd_allowed =
                forward_allowed(rank, &ws.mem_used, &ws.inflight, config, &ws.fwd_queues);
            let choice = pick_for_rank(
                &ws.fwd_queues[rank],
                &ws.bwd_queues[rank],
                ws.t_last[rank],
                ws.last_dir[rank],
                fwd_allowed,
                config.one_f_one_b,
            );
            if let Some(entry) = choice {
                let start = entry.ready_time.max(ws.t_last[rank]);
                if best.is_none_or(|(s, ..)| start < s) {
                    best = Some((start, rank, entry.id, false));
                }
            }
        }
        // Deadlock avoidance: if every rank is blocked by the memory/inflight
        // constraint, relax it for the rank with the earliest-ready forward.
        if best.is_none() {
            for rank in 0..num_ranks {
                if let Some(entry) = ws.fwd_queues[rank].peek() {
                    let start = entry.ready_time.max(ws.t_last[rank]);
                    if best.is_none_or(|(s, ..)| start < s) {
                        best = Some((start, rank, entry.id, true));
                    }
                }
            }
        }
        let Some((start, rank, id, _relaxed)) = best else {
            // Nothing is ready anywhere: the graph has unsatisfiable
            // dependencies (should be impossible for a well-formed graph).
            break;
        };

        // Dequeue the chosen entry. Both the policy pick and the relaxed
        // fallback select the *peeked top* of one queue, so the chosen
        // entry is by construction that queue's maximum — pop it directly.
        let item = graph.item(id);
        let queue = match item.direction {
            Direction::Forward => &mut ws.fwd_queues[rank],
            Direction::Backward => &mut ws.bwd_queues[rank],
        };
        let popped = queue
            .pop()
            .expect("the chosen entry was peeked from this queue");
        debug_assert_eq!(popped.id, id, "the chosen entry is its queue's top");

        // Execute it.
        let end = start + item.duration;
        if end > cutoff {
            // The makespan is a monotone max over stage end times: one end
            // past the cutoff proves the full schedule would be too. The
            // workspace holds a partial pass; the next reset wipes it.
            return None;
        }
        debug_assert!(!ws.scheduled[id.0], "stage scheduled twice");
        ws.finish_time[id.0] = end;
        ws.scheduled[id.0] = true;
        scheduled_count += 1;
        ws.t_last[rank] = end;
        ws.last_dir[rank] = Some(item.direction);
        makespan = makespan.max(end);
        ws.orders[rank].push(id);
        match item.direction {
            Direction::Forward => {
                ws.mem_used[rank] = ws.mem_used[rank].saturating_add(item.activation_bytes);
                ws.inflight[rank] += 1;
            }
            Direction::Backward => {
                ws.mem_used[rank] = ws.mem_used[rank].saturating_sub(item.activation_bytes);
                ws.inflight[rank] = ws.inflight[rank].saturating_sub(1);
            }
        }

        // Release dependents via the cached reverse CSR.
        for &(dependent, lag) in graph.dependents_of(id) {
            let d = dependent.0;
            ws.ready_time[d] = ws.ready_time[d].max(end + lag);
            ws.remaining_deps[d] -= 1;
            if ws.remaining_deps[d] == 0 {
                push_entry(
                    graph,
                    priorities,
                    &mut ws.fwd_queues,
                    &mut ws.bwd_queues,
                    &ws.ready_time,
                    d,
                );
            }
        }
    }

    Some(makespan)
}

fn forward_allowed(
    rank: usize,
    mem_used: &[u64],
    inflight: &[usize],
    config: &DualQueueConfig,
    fwd_queues: &[BinaryHeap<QueueEntry>],
) -> bool {
    if fwd_queues[rank].is_empty() {
        return false;
    }
    if let Some(cap) = config.max_inflight {
        if inflight[rank] >= cap {
            return false;
        }
    }
    if let Some(limits) = &config.memory_limit {
        if let Some(&limit) = limits.get(rank) {
            if mem_used[rank] >= limit {
                return false;
            }
        }
    }
    true
}

fn pick_for_rank(
    fwd: &BinaryHeap<QueueEntry>,
    bwd: &BinaryHeap<QueueEntry>,
    t_last: f64,
    last_dir: Option<Direction>,
    fwd_allowed: bool,
    one_f_one_b: bool,
) -> Option<QueueEntry> {
    let f = if fwd_allowed { fwd.peek() } else { None };
    let b = bwd.peek();
    match (f, b) {
        (None, None) => None,
        (Some(e), None) => Some(*e),
        (None, Some(e)) => Some(*e),
        (Some(fe), Some(be)) => {
            // When both could already have started (the rank is the
            // bottleneck), alternate forward/backward to bound memory
            // (the 1F1B pattern). Otherwise pick the stage that can start
            // earliest to minimise the bubble.
            if one_f_one_b && fe.ready_time <= t_last && be.ready_time <= t_last {
                match last_dir {
                    Some(Direction::Forward) => Some(*be),
                    Some(Direction::Backward) => Some(*fe),
                    None => Some(*fe),
                }
            } else if fe.ready_time <= be.ready_time {
                Some(*fe)
            } else {
                Some(*be)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{StageGraphBuilder, SubMicrobatchPlan};
    use crate::partition::balanced_param_placement;
    use crate::placement::ParallelConfig;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_sim::ClusterSpec;

    fn lm_graph(num_microbatches: usize, pp: usize) -> StageGraph {
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, pp, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        let cluster = ClusterSpec::h800_cluster(1);
        let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
        let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(8192));
        let batches = vec![batch; num_microbatches];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        builder.build(&batches, &plan).unwrap()
    }

    #[test]
    fn schedules_every_stage_exactly_once() {
        let graph = lm_graph(6, 4);
        let (orders, makespan) = schedule(&graph, &DualQueueConfig::default());
        assert_eq!(orders.num_stages(), graph.len());
        assert!(makespan > 0.0);
        let mut seen = vec![false; graph.len()];
        for rank_order in &orders.orders {
            for id in rank_order {
                assert!(!seen[id.0], "stage {id:?} scheduled twice");
                seen[id.0] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stages_land_on_their_own_rank() {
        let graph = lm_graph(4, 4);
        let (orders, _) = schedule(&graph, &DualQueueConfig::default());
        for (rank, order) in orders.orders.iter().enumerate() {
            for id in order {
                assert_eq!(graph.item(*id).rank, rank);
            }
        }
    }

    #[test]
    fn one_f_one_b_keeps_fewer_activations_in_flight_than_all_forward() {
        let graph = lm_graph(8, 4);
        let inflight_peak = |orders: &RankOrders| -> usize {
            let mut peak = 0usize;
            for order in &orders.orders {
                let mut live = 0usize;
                let mut local_peak = 0usize;
                for id in order {
                    match graph.item(*id).direction {
                        Direction::Forward => live += 1,
                        Direction::Backward => live = live.saturating_sub(1),
                    }
                    local_peak = local_peak.max(live);
                }
                peak = peak.max(local_peak);
            }
            peak
        };
        let (ofb, _) = schedule(
            &graph,
            &DualQueueConfig {
                max_inflight: Some(4),
                ..DualQueueConfig::default()
            },
        );
        let (gpipe, _) = schedule(
            &graph,
            &DualQueueConfig {
                one_f_one_b: false,
                ..DualQueueConfig::default()
            },
        );
        assert!(inflight_peak(&ofb) <= 4);
        assert!(inflight_peak(&ofb) <= inflight_peak(&gpipe));
    }

    #[test]
    fn memory_limit_defers_forwards_without_deadlocking() {
        let graph = lm_graph(6, 2);
        // An absurdly small budget forces the deadlock-avoidance path.
        let config = DualQueueConfig {
            memory_limit: Some(vec![1, 1]),
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = schedule(&graph, &config);
        assert_eq!(orders.num_stages(), graph.len());
        assert!(makespan.is_finite());
    }

    #[test]
    fn priorities_bias_segment_order() {
        // Two-segment placement (VPP): giving segment 1 higher priority makes
        // its stages appear earlier on rank 0 than with default priorities.
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, 2, 1);
        let placement = balanced_param_placement(&spec, parallel, 2);
        let cluster = ClusterSpec::h800_cluster(1);
        let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
        let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(8192));
        let batches = vec![batch; 4];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();

        let first_pos_of_segment = |orders: &RankOrders, segment: usize| -> usize {
            orders.orders[0]
                .iter()
                .position(|id| graph.item(*id).segment == segment)
                .unwrap_or(usize::MAX)
        };
        let (default_orders, _) = schedule(&graph, &DualQueueConfig::default());
        let (boosted_orders, _) = schedule(
            &graph,
            &DualQueueConfig {
                segment_priorities: vec![0, 100],
                ..DualQueueConfig::default()
            },
        );
        // Data dependencies still force segment 0 of a microbatch before
        // segment 1, but boosting segment 1 should not *delay* it.
        assert!(
            first_pos_of_segment(&boosted_orders, 1) <= first_pos_of_segment(&default_orders, 1)
        );
    }

    #[test]
    fn reused_workspace_matches_fresh_schedule_bit_for_bit() {
        let graph = lm_graph(6, 4);
        let mut ws = ScheduleWorkspace::new();
        // Dirty the workspace on a different graph shape first.
        let other = lm_graph(3, 2);
        schedule_into(&other, &DualQueueConfig::default(), &mut ws);
        for priorities in [vec![], vec![5], vec![0, 100], vec![-3, 7, 1]] {
            let config = DualQueueConfig {
                segment_priorities: priorities,
                ..DualQueueConfig::default()
            };
            let (orders, makespan) = schedule(&graph, &config);
            let ws_makespan = schedule_into(&graph, &config, &mut ws);
            assert_eq!(makespan.to_bits(), ws_makespan.to_bits());
            assert_eq!(orders.orders.as_slice(), ws.orders());
        }
    }

    #[test]
    fn workspace_capacities_are_stable_after_warmup() {
        let graph = lm_graph(8, 4);
        let mut ws = ScheduleWorkspace::new();
        // Warm-up pass: buffers grow to the graph's high-water mark.
        schedule_into(&graph, &DualQueueConfig::default(), &mut ws);
        let signature = ws.capacity_signature();
        // Steady state: repeated passes (including under varying priorities
        // and an aborted bounded pass) must not allocate — every capacity
        // stays exactly at the warm-up signature.
        for round in 0..10 {
            let config = DualQueueConfig {
                segment_priorities: vec![round as i64, -(round as i64)],
                ..DualQueueConfig::default()
            };
            schedule_into(&graph, &config, &mut ws);
            assert_eq!(
                signature,
                ws.capacity_signature(),
                "round {round} allocated"
            );
            assert!(schedule_bounded(&graph, &config, &mut ws, 1e-9).is_none());
            assert_eq!(
                signature,
                ws.capacity_signature(),
                "bounded round {round} allocated"
            );
        }
    }

    #[test]
    fn direct_pop_matches_on_the_relaxed_deadlock_path() {
        // A tiny per-rank memory limit forces every forward past the first to
        // go through the relaxed (deadlock-avoidance) branch. The direct-pop
        // dequeue must behave identically to the old stash loop there:
        // reused-workspace and fresh-wrapper runs agree bit for bit, and the
        // debug assertion (popped id == chosen id) holds throughout.
        let graph = lm_graph(6, 2);
        let config = DualQueueConfig {
            memory_limit: Some(vec![1, 1]),
            max_inflight: Some(1),
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = schedule(&graph, &config);
        assert_eq!(orders.num_stages(), graph.len());
        let mut ws = ScheduleWorkspace::new();
        let ws_makespan = schedule_into(&graph, &config, &mut ws);
        assert_eq!(makespan.to_bits(), ws_makespan.to_bits());
        assert_eq!(orders.orders.as_slice(), ws.orders());
    }

    #[test]
    fn bounded_with_infinite_cutoff_matches_schedule_into() {
        let graph = lm_graph(5, 4);
        let config = DualQueueConfig::default();
        let mut ws = ScheduleWorkspace::new();
        let makespan = schedule_into(&graph, &config, &mut ws);
        let orders: Vec<Vec<StageId>> = ws.orders().to_vec();
        let bounded = schedule_bounded(&graph, &config, &mut ws, f64::INFINITY)
            .expect("infinite cutoff never aborts");
        assert_eq!(makespan.to_bits(), bounded.to_bits());
        assert_eq!(orders.as_slice(), ws.orders());
    }

    #[test]
    fn bound_is_exact_at_the_makespan_boundary() {
        let graph = lm_graph(5, 4);
        let config = DualQueueConfig::default();
        let mut ws = ScheduleWorkspace::new();
        let makespan = schedule_into(&graph, &config, &mut ws);
        // Cutoff exactly at the makespan: the pass completes (end > cutoff
        // is strict) and returns the same bits.
        let at = schedule_bounded(&graph, &config, &mut ws, makespan)
            .expect("cutoff == makespan must complete");
        assert_eq!(at.to_bits(), makespan.to_bits());
        // Cutoff just below: the pass must abort.
        let below = makespan * (1.0 - 1e-12);
        assert!(below < makespan);
        assert!(schedule_bounded(&graph, &config, &mut ws, below).is_none());
    }

    #[test]
    fn write_orders_into_reuses_allocations() {
        let graph = lm_graph(4, 4);
        let mut ws = ScheduleWorkspace::new();
        schedule_into(&graph, &DualQueueConfig::default(), &mut ws);
        let mut out = RankOrders { orders: Vec::new() };
        ws.write_orders_into(&mut out);
        assert_eq!(out.orders.as_slice(), ws.orders());
        // A second write into the now-shaped target must not reallocate.
        let caps: Vec<usize> = out.orders.iter().map(Vec::capacity).collect();
        ws.write_orders_into(&mut out);
        assert_eq!(out.orders.as_slice(), ws.orders());
        assert_eq!(
            caps,
            out.orders.iter().map(Vec::capacity).collect::<Vec<_>>()
        );
    }
}

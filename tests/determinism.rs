//! Virtual-time determinism properties: the budgets that bound every
//! planner search are counted (evaluation quotas, ILP node budgets), never
//! clocked, so a fixed-seed, *time-budgeted* `plan()` must be bit-identical
//! across physical worker counts and across repeated runs — the guarantee
//! the bench-JSON CI gate's determinism metrics rely on. Golden tables pin
//! the ordering search, the stage-graph build and the memory optimiser.

use dip_core::memopt::estimated_peak_activation;
use dip_core::{
    optimize_memory, search_ordering, DipPlan, DipPlanner, MemoryOptConfig, OrderingSearchConfig,
    PlanRequest, PlannerConfig, PlanningSession, SearchStrategy, SessionConfig,
};
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
use dip_pipeline::{
    dual_queue, separated_placement, DualQueueConfig, MemoryPlan, MemoryStrategy, ParallelConfig,
    StageGraphBuilder, SubMicrobatchPlan,
};
use dip_sim::{ClusterSpec, ClusterTopology};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

fn vlm_batch(images: u64) -> BatchWorkload {
    let images = images.min(48);
    BatchWorkload::new()
        .with(
            Modality::Text,
            ModalityWorkload::new(8192 - images * 169, 1),
        )
        .with(Modality::Image, ModalityWorkload::new(images * 169, images))
}

/// A planner configuration with a pure **time** budget (no evaluation cap):
/// determinism must come from the virtual-time schedule alone.
fn time_budgeted_config(workers: usize, budget_ms: u64, seed: u64) -> PlannerConfig {
    let mut config = PlannerConfig::default().with_num_threads(workers);
    config.search.time_budget = Duration::from_millis(budget_ms);
    config.search.max_evaluations = None;
    config.search.streams = 4;
    config.search.seed = seed;
    config
}

fn assert_plans_bit_identical(a: &DipPlan, b: &DipPlan, what: &str) {
    assert_eq!(a.graph, b.graph, "{what}: stage graphs differ");
    assert_eq!(a.orders, b.orders, "{what}: rank orders differ");
    assert_eq!(
        a.segment_priorities, b.segment_priorities,
        "{what}: priorities differ"
    );
    assert_eq!(a.memory_plan, b.memory_plan, "{what}: memory plans differ");
    assert_eq!(
        a.sub_microbatches, b.sub_microbatches,
        "{what}: sub-microbatch plans differ"
    );
    assert_eq!(
        a.stats.search_evaluations, b.stats.search_evaluations,
        "{what}: evaluation counts differ"
    );
    assert_eq!(
        a.stats.search_worker_evaluations, b.stats.search_worker_evaluations,
        "{what}: per-stream evaluation counts differ"
    );
    assert_eq!(
        a.stats.planned_time_s.to_bits(),
        b.stats.planned_time_s.to_bits(),
        "{what}: planned times differ bit-wise"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Fixed seed + time budget ⇒ the same plan at 1, 2, 4 and 8 workers
    /// and across repeated runs, for arbitrary workload shapes and
    /// budgets. This is the tentpole guarantee: wall clocks are out of the
    /// planning loop entirely. The `workers` knob drives the one parallel
    /// phase of a plan, the ordering-search streams.
    #[test]
    fn time_budgeted_plans_are_bit_identical_across_worker_counts(
        images_a in 0u64..49,
        images_b in 0u64..49,
        microbatches in 2usize..6,
        budget_ms in 5u64..40,
        seed in 0u64..1000,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let batches: Vec<BatchWorkload> = (0..microbatches)
            .map(|i| vlm_batch(if i % 2 == 0 { images_a } else { images_b }))
            .collect();

        let plan_at = |workers: usize| {
            let planner = DipPlanner::new(
                &spec,
                parallel,
                &cluster,
                time_budgeted_config(workers, budget_ms, seed),
            );
            planner.plan_iteration(&batches).expect("plans")
        };

        let reference = plan_at(1);
        for workers in [2usize, 4, 8] {
            let plan = plan_at(workers);
            assert_plans_bit_identical(&reference, &plan, &format!("{workers} workers"));
        }
        // Repeated run at the same worker count: bit-identical too.
        let again = plan_at(4);
        assert_plans_bit_identical(&reference, &again, "repeated run");
    }

    /// The session layer preserves the guarantee end to end (warm starts,
    /// cache keys and all): two sessions over the same request stream
    /// produce bit-identical plans at different pool widths.
    #[test]
    fn sessions_replay_identically_at_any_width(
        images in 0u64..49,
        seed in 0u64..1000,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let requests = [
            PlanRequest::new(vec![vlm_batch(images), vlm_batch(images / 2)]),
            PlanRequest::new(vec![vlm_batch(48 - images), vlm_batch(images)]),
        ];
        let run = |workers: usize| -> Vec<DipPlan> {
            let session = PlanningSession::with_config(
                &spec,
                parallel,
                &cluster,
                time_budgeted_config(workers, 10, seed),
                SessionConfig::default(),
            );
            requests
                .iter()
                .map(|r| session.plan(r).expect("plans").plan)
                .collect()
        };
        let narrow = run(1);
        let wide = run(8);
        for (a, b) in narrow.iter().zip(&wide) {
            assert_plans_bit_identical(a, b, "session width");
        }
    }

    /// `StageGraph::reprice` is bit-identical to rebuilding the graph with
    /// the memory plan baked in — items, dependencies, durations — and the
    /// repriced graph schedules to the bit-same makespan, over random
    /// workloads and random per-pair strategy assignments.
    #[test]
    fn reprice_equals_full_rebuild_to_the_bit(
        images in 0u64..49,
        microbatches in 1usize..6,
        ladder_len in 2usize..7,
        stride in 1usize..5,
        gap in 0usize..4,
    ) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        let batches: Vec<BatchWorkload> =
            (0..microbatches).map(|i| vlm_batch(images + 2 * i as u64)).collect();
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let base = StageGraphBuilder::new(&spec, &placement, &cluster)
            .build(&batches, &plan)
            .expect("builds");

        // A deterministic pseudo-random memory plan: walk the strategy
        // ladder with the sampled stride, leaving every (gap+1)-th pair on
        // the default keep-everything strategy.
        let ladder = MemoryStrategy::ladder(ladder_len);
        let mut memory_plan = MemoryPlan::new();
        for pair in 0..base.num_stage_pairs {
            if gap == 0 || pair % (gap + 1) != 0 {
                memory_plan.set(pair, ladder[(pair * stride) % ladder.len()]);
            }
        }

        let rebuilt = StageGraphBuilder::new(&spec, &placement, &cluster)
            .with_memory_plan(memory_plan.clone())
            .build(&batches, &plan)
            .expect("builds");
        let mut repriced = base.clone();
        repriced.reprice(&memory_plan);
        prop_assert_eq!(&repriced, &rebuilt);

        // Scheduling the repriced and rebuilt graphs is bit-identical too.
        let queue = DualQueueConfig::default();
        let (orders_a, makespan_a) = dual_queue::schedule(&repriced, &queue);
        let (orders_b, makespan_b) = dual_queue::schedule(&rebuilt, &queue);
        prop_assert_eq!(orders_a, orders_b);
        prop_assert_eq!(makespan_a.to_bits(), makespan_b.to_bits());
    }
}

/// The determinism guarantee is documented as machine-independent; CI runs
/// this same binary under both debug and release profiles, so any
/// profile-dependent divergence (overflow checks, debug asserts, float
/// contraction) in the planning path would surface as a difference in the
/// session's own deterministic counters.
#[test]
fn deterministic_counters_are_profile_stable() {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let cluster = ClusterSpec::h800_cluster(2);
    let planner = DipPlanner::new(&spec, parallel, &cluster, time_budgeted_config(2, 15, 42));
    let batches = vec![vlm_batch(12), vlm_batch(30), vlm_batch(3)];
    let a = planner.plan_iteration(&batches).expect("plans");
    let b = planner.plan_iteration(&batches).expect("plans");
    assert_plans_bit_identical(&a, &b, "repeated plan_iteration");
    // The quota is the only stopping rule: every stream either hit it
    // exactly or (DFS-like corner cases aside) stopped at it.
    assert!(a
        .stats
        .search_worker_evaluations
        .iter()
        .all(|&e| e > 0 || a.stats.search_evaluations >= 1));
}

/// The pinned outcome of one ordering search: everything a caller can see
/// of the plan and of the deterministic counters.
#[derive(Debug, PartialEq, Eq)]
struct SearchOutcome {
    segment_priorities: Vec<i64>,
    best_time_bits: u64,
    evaluations: u64,
    worker_evaluations: Vec<u64>,
    pruned_evaluations: u64,
    orders_hash: u64,
}

/// FNV-1a 64-bit accumulator: a stable fingerprint that, unlike
/// `DefaultHasher`, cannot change with the toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the per-rank orders (rank count, each rank's length and
/// stage ids).
fn orders_hash(orders: &dip_pipeline::RankOrders) -> u64 {
    let mut h = Fnv::new();
    h.mix(orders.orders.len() as u64);
    for rank in &orders.orders {
        h.mix(rank.len() as u64);
        for stage in rank {
            h.mix(stage.0 as u64);
        }
    }
    h.0
}

/// One ordering search over a six-segment VLM-S graph (four microbatches)
/// under a fixed per-stream cap of 120 evaluations and four streams.
fn golden_search(strategy: SearchStrategy, seed: u64, warm: bool, workers: usize) -> SearchOutcome {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let mut k = BTreeMap::new();
    k.insert(spec.backbone_id().unwrap(), 4usize);
    let placement = separated_placement(&spec, parallel, &k);
    let cluster = ClusterSpec::h800_cluster(2);
    let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
    let batches = vec![vlm_batch(10), vlm_batch(30), vlm_batch(3), vlm_batch(20)];
    let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    let graph = builder.build(&batches, &plan).unwrap();
    let num_segments = placement.segments.len();
    assert_eq!(num_segments, 6, "VLM-S at PP4 has six placement segments");
    let config = OrderingSearchConfig {
        strategy,
        time_budget: Duration::from_secs(3600),
        max_evaluations: Some(120),
        streams: 4,
        workers,
        seed,
        seed_ordering: warm.then(|| (0..num_segments).rev().collect()),
        ..OrderingSearchConfig::default()
    };
    let result = search_ordering(&graph, num_segments, &config);
    SearchOutcome {
        segment_priorities: result.segment_priorities,
        best_time_bits: result.best_time_s.to_bits(),
        evaluations: result.evaluations,
        worker_evaluations: result.worker_evaluations,
        pruned_evaluations: result.pruned_evaluations,
        orders_hash: orders_hash(&result.orders),
    }
}

/// The pinned outcomes, captured on the code *before* the per-search
/// ordering memo existed: the memo may only change wall time, so every
/// plan and every deterministic counter must still match this table, at
/// one worker and at four.
fn golden_table() -> Vec<(SearchStrategy, u64, bool, SearchOutcome)> {
    vec![
        (
            SearchStrategy::Mcts,
            1,
            false,
            SearchOutcome {
                segment_priorities: vec![2, 5, 1, 4, 3, 6],
                best_time_bits: 0x3fdc6e9dffe0a74a,
                evaluations: 481,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 0,
                orders_hash: 0xf8791698694dfc81,
            },
        ),
        (
            SearchStrategy::Mcts,
            2,
            false,
            SearchOutcome {
                segment_priorities: vec![1, 4, 2, 3, 6, 5],
                best_time_bits: 0x3fdc5a64d769cc4c,
                evaluations: 481,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 0,
                orders_hash: 0x558cf281335c0f21,
            },
        ),
        (
            SearchStrategy::Mcts,
            3,
            false,
            SearchOutcome {
                segment_priorities: vec![1, 4, 2, 3, 6, 5],
                best_time_bits: 0x3fdc5a64d769cc4c,
                evaluations: 481,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 0,
                orders_hash: 0x558cf281335c0f21,
            },
        ),
        (
            SearchStrategy::Mcts,
            1,
            true,
            SearchOutcome {
                segment_priorities: vec![2, 5, 1, 4, 3, 6],
                best_time_bits: 0x3fdc6e9dffe0a74a,
                evaluations: 482,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 0,
                orders_hash: 0xf8791698694dfc81,
            },
        ),
        (
            SearchStrategy::Random,
            1,
            false,
            SearchOutcome {
                segment_priorities: vec![1, 6, 2, 3, 5, 4],
                best_time_bits: 0x3fdc5a64d769cc4c,
                evaluations: 481,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 454,
                orders_hash: 0x558cf281335c0f21,
            },
        ),
        (
            SearchStrategy::Random,
            2,
            false,
            SearchOutcome {
                segment_priorities: vec![4, 5, 1, 2, 6, 3],
                best_time_bits: 0x3fdcb3fde568371f,
                evaluations: 481,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 456,
                orders_hash: 0xb64a71d26772e7a1,
            },
        ),
        (
            SearchStrategy::Random,
            3,
            false,
            SearchOutcome {
                segment_priorities: vec![1, 6, 2, 3, 5, 4],
                best_time_bits: 0x3fdc5a64d769cc4c,
                evaluations: 481,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 469,
                orders_hash: 0x558cf281335c0f21,
            },
        ),
        (
            SearchStrategy::Random,
            1,
            true,
            SearchOutcome {
                segment_priorities: vec![1, 6, 2, 3, 5, 4],
                best_time_bits: 0x3fdc5a64d769cc4c,
                evaluations: 482,
                worker_evaluations: vec![120, 120, 120, 120],
                pruned_evaluations: 454,
                orders_hash: 0x558cf281335c0f21,
            },
        ),
        (
            SearchStrategy::Dfs,
            1,
            false,
            SearchOutcome {
                segment_priorities: vec![6, 2, 1, 3, 5, 4],
                best_time_bits: 0x3fdd4a238e19b20d,
                evaluations: 121,
                worker_evaluations: vec![120],
                pruned_evaluations: 111,
                orders_hash: 0x58f79c450aa757e1,
            },
        ),
        (
            SearchStrategy::Dfs,
            2,
            false,
            SearchOutcome {
                segment_priorities: vec![6, 2, 1, 3, 5, 4],
                best_time_bits: 0x3fdd4a238e19b20d,
                evaluations: 121,
                worker_evaluations: vec![120],
                pruned_evaluations: 111,
                orders_hash: 0x58f79c450aa757e1,
            },
        ),
        (
            SearchStrategy::Dfs,
            3,
            false,
            SearchOutcome {
                segment_priorities: vec![6, 2, 1, 3, 5, 4],
                best_time_bits: 0x3fdd4a238e19b20d,
                evaluations: 121,
                worker_evaluations: vec![120],
                pruned_evaluations: 111,
                orders_hash: 0x58f79c450aa757e1,
            },
        ),
        (
            SearchStrategy::Dfs,
            1,
            true,
            SearchOutcome {
                segment_priorities: vec![6, 2, 1, 3, 5, 4],
                best_time_bits: 0x3fdd4a238e19b20d,
                evaluations: 122,
                worker_evaluations: vec![120],
                pruned_evaluations: 111,
                orders_hash: 0x58f79c450aa757e1,
            },
        ),
    ]
}

/// Memoising ordering evaluations is exact: the MCTS, random and DFS
/// searches return the same priorities, best time (to the bit), per-rank
/// orders and evaluation/pruning counters as before the memo, cold and
/// warm-started, at 1 and 4 workers.
#[test]
fn search_outcomes_match_the_golden_table() {
    for (strategy, seed, warm, expected) in golden_table() {
        for workers in [1usize, 4] {
            assert_eq!(
                golden_search(strategy, seed, warm, workers),
                expected,
                "{strategy:?}, seed {seed}, warm {warm}, {workers} workers"
            );
        }
    }
}

/// FNV-1a over everything a stage graph holds: the per-rank totals, every
/// item's fields, every item's `(dependency id, lag bits)` pairs in CSR
/// order and every item's `(dependent id, lag bits)` pairs in reverse-CSR
/// order.
fn graph_hash(graph: &dip_pipeline::StageGraph) -> u64 {
    let mut h = Fnv::new();
    h.mix(graph.num_ranks as u64);
    h.mix(graph.num_stage_pairs as u64);
    h.mix(graph.model_flops.to_bits());
    for &bytes in graph
        .static_memory
        .iter()
        .chain(&graph.param_bytes_per_rank)
    {
        h.mix(bytes);
    }
    h.mix(graph.len() as u64);
    for item in graph.items() {
        h.mix(item.id.0 as u64);
        h.mix(item.segment as u64);
        h.mix(item.microbatch as u64);
        h.mix(item.sub_microbatch as u64);
        h.mix(item.rank as u64);
        h.mix(u64::from(
            item.direction == dip_pipeline::Direction::Backward,
        ));
        h.mix(item.duration.to_bits());
        h.mix(item.activation_bytes);
        h.mix(item.p2p_bytes);
        h.mix(item.stage_pair as u64);
    }
    for adjacency in [
        dip_pipeline::StageGraph::deps_of,
        dip_pipeline::StageGraph::dependents_of,
    ] {
        for item in graph.items() {
            let edges = adjacency(graph, item.id);
            h.mix(edges.len() as u64);
            for &(other, lag) in edges {
                h.mix(other.0 as u64);
                h.mix(lag.to_bits());
            }
        }
    }
    h.0
}

/// FNV-1a over a memory plan: its explicit-choice count and the strategy
/// (both fractions' bits) of every stage pair of the graph.
fn memory_plan_hash(plan: &MemoryPlan, stage_pairs: usize) -> u64 {
    let mut h = Fnv::new();
    h.mix(plan.len() as u64);
    for pair in 0..stage_pairs {
        let strategy = plan.get(pair);
        h.mix(strategy.recompute_fraction.to_bits());
        h.mix(strategy.offload_fraction.to_bits());
    }
    h.0
}

/// One golden build shape: VLM-S at PP4/TP4 with the backbone split into
/// two segments (encoder, adapter, backbone, backbone).
struct BuildShape {
    name: &'static str,
    mixed: bool,
    /// Sub-microbatch count of the encoder segment, per microbatch.
    encoder_splits: &'static [usize],
    /// Sub-microbatch count of both backbone segments, per microbatch.
    backbone_splits: &'static [usize],
}

const BUILD_SHAPES: [BuildShape; 4] = [
    BuildShape {
        name: "homogeneous, uniform",
        mixed: false,
        encoder_splits: &[1, 1, 1],
        backbone_splits: &[1, 1, 1],
    },
    BuildShape {
        name: "homogeneous, non-uniform encoder splits",
        mixed: false,
        encoder_splits: &[3, 1, 2],
        backbone_splits: &[1, 1, 1],
    },
    BuildShape {
        name: "mixed H800/H20, uniform",
        mixed: true,
        encoder_splits: &[1, 1, 1],
        backbone_splits: &[1, 1, 1],
    },
    BuildShape {
        name: "mixed H800/H20, split encoder feeding a split backbone",
        mixed: true,
        encoder_splits: &[2, 3, 1],
        backbone_splits: &[2, 1, 3],
    },
];

/// Builds the shape's stage graph.
fn golden_graph(shape: &BuildShape) -> dip_pipeline::StageGraph {
    let spec = zoo::vlm_s();
    let parallel = ParallelConfig::new(4, 4, 1);
    let topology = if shape.mixed {
        ClusterTopology::mixed_h800_h20(1, 1)
    } else {
        ClusterSpec::h800_cluster(2).topology()
    };
    let mut k = BTreeMap::new();
    k.insert(spec.backbone_id().unwrap(), 2usize);
    let placement = separated_placement(&spec, parallel, &k);
    assert_eq!(
        placement.segments.len(),
        4,
        "encoder, adapter, 2 × backbone"
    );
    let batches = vec![vlm_batch(10), vlm_batch(30), vlm_batch(3)];
    let mut plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
    for m in 0..batches.len() {
        plan.set(0, m, shape.encoder_splits[m]);
        plan.set(2, m, shape.backbone_splits[m]);
        plan.set(3, m, shape.backbone_splits[m]);
    }
    StageGraphBuilder::new_on(&spec, &placement, &topology)
        .build(&batches, &plan)
        .expect("builds")
}

/// Schedules the shape's graph with the default dual-queue configuration
/// and solves memopt under a binding budget (a third of each rank's
/// unconstrained activation peak), returning the memory plan's hash.
fn golden_memory_plan_hash(shape: &BuildShape) -> u64 {
    let graph = golden_graph(shape);
    let (orders, _) = dual_queue::schedule(&graph, &DualQueueConfig::default());
    let unconstrained = MemoryPlan::new();
    let budget: Vec<u64> = orders
        .orders
        .iter()
        .map(|order| estimated_peak_activation(&graph, order, &unconstrained) / 3 + 1)
        .collect();
    let memory_plan = optimize_memory(&graph, &orders, &budget, &MemoryOptConfig::default())
        .expect("memopt solves");
    assert!(!memory_plan.is_empty(), "{}: the budget binds", shape.name);
    memory_plan_hash(&memory_plan, graph.num_stage_pairs)
}

/// The stage-graph build reproduces the fingerprints the block-parallel
/// build produced on every shape: every item field and every dependency
/// and dependent with its lag bits. The values were captured on the
/// parallel build before it became one serial pass, so the serial build
/// must match the parallel one bit for bit.
#[test]
fn parallel_graph_build_is_byte_identical_to_serial() {
    let expected: [u64; 4] = [
        0xcb710f687ece2349,
        0xc94c1dfd4ac351f6,
        0xbd5733cd3bf90064,
        0x6f9a4ca82e474a07,
    ];
    for (shape, expected) in BUILD_SHAPES.iter().zip(expected) {
        assert_eq!(graph_hash(&golden_graph(shape)), expected, "{}", shape.name);
    }
}

/// The memory optimiser reproduces the memory plans the rank-parallel
/// memopt chose on every shape. The values were captured on the parallel
/// memopt before the per-rank ILPs were solved serially, so the serial
/// path must match the parallel one bit for bit.
#[test]
fn parallel_memopt_is_byte_identical_to_serial() {
    let expected: [u64; 4] = [
        0x5cfa8d2be35c08a7,
        0xe418a8631d9533b3,
        0x9a7b0dc62681f0d4,
        0x8ff83c138eee66de,
    ];
    for (shape, expected) in BUILD_SHAPES.iter().zip(expected) {
        assert_eq!(golden_memory_plan_hash(shape), expected, "{}", shape.name);
    }
}

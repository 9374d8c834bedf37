//! Partitioning algorithms that map an LMM onto pipeline ranks.

use crate::placement::{ChunkPiece, ModelChunk, ParallelConfig, Placement, Segment};
use dip_models::{BatchWorkload, LmmSpec, ModuleId};
use dip_sim::{ClusterTopology, EfficiencyModel, TimingModel};
use std::collections::BTreeMap;

/// How DIP's separated placement distributes a module's layers across the
/// pipeline ranks.
///
/// ```
/// use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
/// use dip_pipeline::{capacity_aware_separated_placement,
///                    latency_balanced_separated_placement, ParallelConfig};
/// use dip_sim::{ClusterTopology, EfficiencyModel};
/// use std::collections::BTreeMap;
///
/// let spec = zoo::vlm_s();
/// let parallel = ParallelConfig::new(4, 4, 1);
/// let workload = BatchWorkload::new()
///     .with(Modality::Text, ModalityWorkload::new(6502, 1))
///     .with(Modality::Image, ModalityWorkload::new(1690, 10));
///
/// // On a uniform cluster every mode produces the same equal split …
/// let uniform = ClusterTopology::mixed_h800_h20(2, 0);
/// let aware = capacity_aware_separated_placement(&spec, parallel, &BTreeMap::new(), &uniform);
/// let balanced = latency_balanced_separated_placement(
///     &spec, parallel, &BTreeMap::new(), &uniform, EfficiencyModel::default(), &workload);
/// assert_eq!(aware, balanced);
///
/// // … on a mixed cluster they diverge, and both still cover the model.
/// let mixed = ClusterTopology::mixed_h800_h20(1, 1);
/// let balanced = latency_balanced_separated_placement(
///     &spec, parallel, &BTreeMap::new(), &mixed, EfficiencyModel::default(), &workload);
/// balanced.validate(&spec).unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementMode {
    /// Equal layer counts per rank, ignoring the devices backing them (the
    /// only sensible choice on a homogeneous cluster, and the pre-topology
    /// behaviour everywhere).
    RoundRobin,
    /// Layer counts proportional to the hosting device's capability:
    /// FLOP-heavy backbone stages follow per-rank peak FLOP/s (more LLM
    /// layers on H800 ranks), memory-heavy modality stages follow per-rank
    /// HBM capacity (encoders/decoders lean towards H20 ranks). On a uniform
    /// topology this reduces bit-exactly to [`PlacementMode::RoundRobin`].
    #[default]
    CapacityAware,
    /// Layer counts chosen by an nnScaler-style dynamic program that
    /// minimises the maximum *simulated* per-stage latency, pricing every
    /// layer via the hosting rank's own timing model
    /// ([`dip_sim::ClusterTopology::rank_timing`]). Unlike
    /// [`PlacementMode::CapacityAware`] — which weighs layers by static
    /// spec-sheet capability (peak FLOP/s or HBM capacity) — this mode sees
    /// memory-bound layers and small-kernel efficiency roll-off, because the
    /// weights come from the same analytical latency model the simulator
    /// uses. Segment counts `K_i` are also priced on the hosting ranks
    /// instead of the reference device. On any uniform topology this mode
    /// reduces bit-exactly to [`PlacementMode::CapacityAware`] (and hence to
    /// the equal split).
    LatencyBalanced,
}

/// A single model layer in the global (cross-module) execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GlobalLayer {
    module: ModuleId,
    layer: usize,
}

fn flatten_layers(spec: &LmmSpec) -> Vec<GlobalLayer> {
    let mut out = Vec::new();
    for (id, module) in spec.iter() {
        for layer in 0..module.num_layers() {
            out.push(GlobalLayer { module: id, layer });
        }
    }
    out
}

/// Converts a contiguous run of global layers into a chunk (grouping
/// consecutive layers of the same module into pieces).
fn chunk_from_layers(layers: &[GlobalLayer]) -> ModelChunk {
    let mut pieces: Vec<ChunkPiece> = Vec::new();
    for gl in layers {
        match pieces.last_mut() {
            Some(last) if last.module == gl.module && last.layers.end == gl.layer => {
                last.layers.end += 1;
            }
            _ => pieces.push(ChunkPiece::new(gl.module, gl.layer..gl.layer + 1)),
        }
    }
    ModelChunk { pieces }
}

/// Splits `n` layers into `parts` contiguous chunks minimising the maximum
/// chunk cost, where the cost of chunk `c` (0-based) covering layers `j..i`
/// is `chunk_cost(c, j, i)` — `f64::INFINITY` marks an infeasible chunk.
/// Returns the chunk boundaries (length `parts + 1`, starting at 0 and
/// ending at `n`; chunks may be empty when there are fewer layers than
/// parts), or `None` when no feasible split exists.
fn min_max_split(
    n: usize,
    parts: usize,
    chunk_cost: impl Fn(usize, usize, usize) -> f64,
) -> Option<Vec<usize>> {
    let parts = parts.max(1);
    if n == 0 {
        return Some(vec![0; parts + 1]);
    }
    // dp[k][i] = minimal possible maximum chunk cost placing the first i
    // layers into the first k chunks.
    const INF: f64 = f64::INFINITY;
    let mut dp = vec![vec![INF; n + 1]; parts + 1];
    let mut cut = vec![vec![0usize; n + 1]; parts + 1];
    dp[0][0] = 0.0;
    for k in 1..=parts {
        for i in 0..=n {
            // Chunk k-1 covers layers j..i.
            for j in 0..=i {
                if dp[k - 1][j] == INF {
                    continue;
                }
                let candidate = dp[k - 1][j].max(chunk_cost(k - 1, j, i));
                if candidate < dp[k][i] {
                    dp[k][i] = candidate;
                    cut[k][i] = j;
                }
            }
        }
    }
    if dp[parts][n] == INF {
        return None;
    }
    // Reconstruct boundaries.
    let mut bounds = vec![0usize; parts + 1];
    bounds[parts] = n;
    let mut i = n;
    for k in (1..=parts).rev() {
        let j = cut[k][i];
        bounds[k - 1] = j;
        i = j;
    }
    Some(bounds)
}

/// Splits `weights` (one entry per global layer) into `parts` contiguous
/// groups minimising the maximum group weight, returning the boundary
/// indices (length `parts + 1`, starting at 0 and ending at `weights.len()`).
/// Groups may be empty when there are fewer layers than parts.
fn min_max_contiguous_split(weights: &[f64], parts: usize) -> Vec<usize> {
    let n = weights.len();
    let mut prefix = vec![0.0f64; n + 1];
    for (i, w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    min_max_split(n, parts, |_, j, i| prefix[i] - prefix[j])
        .expect("uniform-cost min-max split always has a solution")
}

/// Builds a placement from global-layer chunk boundaries, arranging the
/// chunks into `virtual_chunks` interleaved segments (Megatron VPP): chunk
/// `c` (0-based, in layer order) is executed by rank `c % pp` as part of
/// segment `c / pp`.
fn placement_from_boundaries(
    layers: &[GlobalLayer],
    boundaries: &[usize],
    parallel: ParallelConfig,
    virtual_chunks: usize,
) -> Placement {
    let pp = parallel.pp;
    let mut segments = Vec::with_capacity(virtual_chunks);
    for v in 0..virtual_chunks {
        let mut chunks = Vec::with_capacity(pp);
        for r in 0..pp {
            let c = v * pp + r;
            let chunk = chunk_from_layers(&layers[boundaries[c]..boundaries[c + 1]]);
            chunks.push(chunk);
        }
        // A segment is "single module" only if all its chunks touch at most
        // one module and they agree.
        let mut modules: Vec<ModuleId> = Vec::new();
        for c in &chunks {
            for m in c.modules() {
                if !modules.contains(&m) {
                    modules.push(m);
                }
            }
        }
        let module = if modules.len() == 1 {
            Some(modules[0])
        } else {
            None
        };
        segments.push(Segment { chunks, module });
    }
    Placement { parallel, segments }
}

/// Megatron-LM's default placement: contiguous layer groups with
/// approximately balanced *parameter counts*, optionally interleaved into
/// `virtual_chunks` virtual-pipeline segments. Modality modules may end up
/// co-located in the same chunk (the intra-segment imbalance of Fig. 5a).
pub fn balanced_param_placement(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    virtual_chunks: usize,
) -> Placement {
    let layers = flatten_layers(spec);
    let weights: Vec<f64> = layers
        .iter()
        .map(|gl| spec.module(gl.module).layers()[gl.layer].param_count() as f64)
        .collect();
    let virtual_chunks = virtual_chunks.max(1);
    let boundaries = min_max_contiguous_split(&weights, parallel.pp * virtual_chunks);
    placement_from_boundaries(&layers, &boundaries, parallel, virtual_chunks)
}

/// nnScaler*-style placement: contiguous layer groups balanced on
/// *simulated stage latency* for a representative workload, found by exact
/// dynamic programming over all contiguous splits (this is also the
/// "exhaustive enumeration of all possible layer splits" of §2.3).
pub fn balanced_latency_placement(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    virtual_chunks: usize,
    representative: &BatchWorkload,
    timing: &TimingModel,
) -> Placement {
    let layers = flatten_layers(spec);
    let workloads: BTreeMap<ModuleId, _> =
        spec.module_workloads(representative).into_iter().collect();
    let weights: Vec<f64> = layers
        .iter()
        .map(|gl| {
            let wl = workloads.get(&gl.module).copied().unwrap_or_default();
            let cost =
                spec.module(gl.module)
                    .cost_of_layers(gl.layer..gl.layer + 1, &wl, parallel.tp);
            timing.forward_latency(&cost) + timing.backward_latency(&cost)
        })
        .collect();
    let virtual_chunks = virtual_chunks.max(1);
    let boundaries = min_max_contiguous_split(&weights, parallel.pp * virtual_chunks);
    placement_from_boundaries(&layers, &boundaries, parallel, virtual_chunks)
}

/// DIP's separated, modality-aware placement (§4): each module is split into
/// `pp * K_i` equal chunks forming `K_i` dedicated pipeline segments, where
/// `K_i` is the module's entry in `segments_per_module` (modules absent from
/// the map get one segment).
pub fn separated_placement(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    segments_per_module: &BTreeMap<ModuleId, usize>,
) -> Placement {
    separated_placement_weighted(spec, parallel, segments_per_module, |_, _| 1)
}

/// DIP's separated placement over a heterogeneous cluster
/// ([`PlacementMode::CapacityAware`]): each module is still split into
/// `pp * K_i` contiguous chunks forming `K_i` dedicated segments, but the
/// per-rank layer counts follow the capability of the device hosting the
/// rank — peak FLOP/s for the FLOP-heavy backbone, HBM capacity for the
/// memory-heavy modality modules (encoders, decoders, adapters). Equal
/// capabilities reduce bit-exactly to [`separated_placement`].
pub fn capacity_aware_separated_placement(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    segments_per_module: &BTreeMap<ModuleId, usize>,
    topology: &ClusterTopology,
) -> Placement {
    separated_placement_weighted(spec, parallel, segments_per_module, |module, rank| {
        let device = topology.rank_device(rank, parallel.tp);
        let weight = if spec.module(module).role().is_memory_heavy() {
            device.mem_capacity
        } else {
            device.peak_flops as u64
        };
        weight.max(1)
    })
}

/// DIP's separated placement over a heterogeneous cluster, balanced on
/// *simulated latency* ([`PlacementMode::LatencyBalanced`]): each module is
/// still split into `pp * K_i` contiguous chunks forming `K_i` dedicated
/// segments, but the chunk boundaries come from an nnScaler-style dynamic
/// program that minimises the maximum per-chunk latency, where chunk
/// `c = seg*pp + r` is priced via rank `r`'s own timing model
/// ([`ClusterTopology::rank_timing`]). Because every rank executes exactly
/// `K_i` chunks of the module, balancing chunk latency balances per-rank
/// latency; and because the weights are simulated latencies rather than
/// spec-sheet peaks, memory-bound layers and small-kernel efficiency
/// roll-off shift layers exactly like they will at execution time.
///
/// A chunk whose parameter state alone would overflow the hosting device's
/// usable memory is infeasible for the DP; if no feasible split exists the
/// constraint is dropped (the memory planner deals with the overflow
/// downstream) rather than failing placement.
///
/// On a uniform topology every rank prices layers identically and the DP
/// would merely re-derive a latency-balanced equal split with
/// floating-point tie-breaks; to keep uniform clusters bit-identical across
/// all placement modes (a property the plan cache and the topology-identity
/// proptests rely on), this function short-circuits to
/// [`capacity_aware_separated_placement`] — itself bit-identical to the
/// equal split — whenever [`ClusterTopology::is_uniform`] holds.
pub fn latency_balanced_separated_placement(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    segments_per_module: &BTreeMap<ModuleId, usize>,
    topology: &ClusterTopology,
    efficiency: EfficiencyModel,
    representative: &BatchWorkload,
) -> Placement {
    if topology.is_uniform() {
        return capacity_aware_separated_placement(spec, parallel, segments_per_module, topology);
    }
    let pp = parallel.pp;
    let tp = parallel.tp;
    let timings: Vec<TimingModel> = (0..pp)
        .map(|r| topology.rank_timing(r, tp, efficiency))
        .collect();
    let budgets: Vec<u64> = (0..pp)
        .map(|r| topology.rank_device(r, tp).usable_memory())
        .collect();
    let workloads: BTreeMap<ModuleId, _> =
        spec.module_workloads(representative).into_iter().collect();

    let mut segments = Vec::new();
    for (id, module) in spec.iter() {
        let k = segments_per_module.get(&id).copied().unwrap_or(1).max(1);
        let n = module.num_layers();
        let wl = workloads.get(&id).copied().unwrap_or_default();
        // Layer costs are rank-independent; only the pricing is per device.
        let costs: Vec<_> = (0..n)
            .map(|l| module.cost_of_layers(l..l + 1, &wl, tp))
            .collect();
        // Per-rank per-layer fwd+bwd latency, priced on each rank's device.
        let latencies: Vec<Vec<f64>> = timings
            .iter()
            .map(|t| {
                costs
                    .iter()
                    .map(|cost| t.forward_latency(cost) + t.backward_latency(cost))
                    .collect()
            })
            .collect();
        // Per-layer parameter counts for the memory-feasibility guard; the
        // guard prices whole chunks with the exact
        // [`Placement::static_memory_per_rank`] accounting.
        let param_counts: Vec<u64> = (0..n).map(|l| module.layers()[l].param_count()).collect();
        let bounds = min_max_rank_aware_split(&latencies, &param_counts, &budgets, pp, k, tp);
        segments.extend(segments_from_bounds(id, &bounds, pp, k));
    }
    Placement { parallel, segments }
}

/// Assembles the `k` segments of one module from its `pp * k + 1` chunk
/// boundaries: chunk `c = seg*pp + r` is executed by rank `r = c % pp`.
/// Shared by every separated placement so the chunk→rank mapping convention
/// cannot diverge between placement modes.
fn segments_from_bounds(id: ModuleId, bounds: &[usize], pp: usize, k: usize) -> Vec<Segment> {
    (0..k)
        .map(|seg| {
            let chunks: Vec<ModelChunk> = (0..pp)
                .map(|r| {
                    let c = seg * pp + r;
                    ModelChunk::single(id, bounds[c]..bounds[c + 1])
                })
                .collect();
            Segment {
                chunks,
                module: Some(id),
            }
        })
        .collect()
}

/// Splits `n` layers into `pp * k` contiguous chunks minimising the maximum
/// chunk latency, where chunk `c` is priced with `latencies[c % pp]` (the
/// hosting rank's per-layer latency table). A chunk whose optimizer state
/// (priced from `param_counts` with the exact
/// [`Placement::static_memory_per_rank`] accounting) exceeds the hosting
/// rank's budget is infeasible; if that leaves no feasible split at all,
/// the guard is dropped and the DP reruns unconstrained. Returns the chunk
/// boundaries (length `pp * k + 1`).
fn min_max_rank_aware_split(
    latencies: &[Vec<f64>],
    param_counts: &[u64],
    budgets: &[u64],
    pp: usize,
    k: usize,
    tp: usize,
) -> Vec<usize> {
    let n = param_counts.len();
    let parts = (pp * k).max(1);
    // Per-rank latency prefix sums and the shared parameter-count prefix.
    let lat_prefix: Vec<Vec<f64>> = latencies
        .iter()
        .map(|per_layer| {
            let mut p = vec![0.0f64; n + 1];
            for (i, w) in per_layer.iter().enumerate() {
                p[i + 1] = p[i] + w;
            }
            p
        })
        .collect();
    let mut param_prefix = vec![0u64; n + 1];
    for (i, p) in param_counts.iter().enumerate() {
        param_prefix[i + 1] = param_prefix[i] + p;
    }
    // Whole-chunk pricing, dividing by tp once per chunk exactly like
    // `Placement::static_memory_per_rank` does.
    let chunk_bytes = |j: usize, i: usize| {
        (param_prefix[i] - param_prefix[j]) * crate::placement::OPTIMIZER_STATE_BYTES_PER_PARAM
            / tp.max(1) as u64
    };

    let solve = |enforce_memory: bool| {
        min_max_split(n, parts, |c, j, i| {
            let rank = c % pp;
            if enforce_memory && chunk_bytes(j, i) > budgets[rank] {
                return f64::INFINITY;
            }
            lat_prefix[rank][i] - lat_prefix[rank][j]
        })
    };
    solve(true)
        .or_else(|| solve(false))
        .expect("unconstrained min-max split always has a solution")
}

/// Shared core of the separated placements: split each module's `n` layers
/// into `pp * K_i` contiguous chunks whose sizes follow the per-rank weight
/// function (uniform weights give the equal `(c*n)/total` split).
fn separated_placement_weighted(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    segments_per_module: &BTreeMap<ModuleId, usize>,
    rank_weight: impl Fn(ModuleId, usize) -> u64,
) -> Placement {
    let pp = parallel.pp;
    let mut segments = Vec::new();
    for (id, module) in spec.iter() {
        let k = segments_per_module.get(&id).copied().unwrap_or(1).max(1);
        let n = module.num_layers();
        // Chunk c = seg*pp + r is executed by rank r = c % pp; its share of
        // the module's layers follows the rank's weight. Exact u128 integer
        // math keeps uniform weights bit-identical to the `(c*n)/total`
        // equal split.
        let weights: Vec<u128> = (0..pp).map(|r| rank_weight(id, r).max(1) as u128).collect();
        let total_weight: u128 = weights.iter().sum::<u128>() * k as u128;
        let mut bounds = Vec::with_capacity(pp * k + 1);
        bounds.push(0usize);
        let mut prefix = 0u128;
        for c in 0..pp * k {
            prefix += weights[c % pp];
            bounds.push(((prefix * n as u128) / total_weight) as usize);
        }
        segments.extend(segments_from_bounds(id, &bounds, pp, k));
    }
    Placement { parallel, segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_sim::{EfficiencyModel, GpuGeneration, GpuSpec};

    fn timing() -> TimingModel {
        TimingModel::new(
            GpuSpec::preset(GpuGeneration::H800),
            EfficiencyModel::default(),
        )
    }

    fn vlm_workload() -> BatchWorkload {
        BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6500, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10))
    }

    #[test]
    fn min_max_split_balances_uniform_weights() {
        let weights = vec![1.0; 12];
        let bounds = min_max_contiguous_split(&weights, 4);
        assert_eq!(bounds, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn min_max_split_handles_fewer_layers_than_parts() {
        let weights = vec![1.0, 1.0];
        let bounds = min_max_contiguous_split(&weights, 4);
        assert_eq!(bounds.len(), 5);
        assert_eq!(*bounds.last().unwrap(), 2);
        // Boundaries are non-decreasing.
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn balanced_param_placement_covers_model_and_balances_params() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        placement.validate(&spec).unwrap();
        assert_eq!(placement.segments.len(), 1);
        let params: Vec<u64> = placement.segments[0]
            .chunks
            .iter()
            .map(|c| c.param_count(&spec))
            .collect();
        let max = *params.iter().max().unwrap() as f64;
        let min = *params.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "params {params:?}");
    }

    #[test]
    fn vpp_interleaving_produces_multiple_segments() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = balanced_param_placement(&spec, parallel, 2);
        placement.validate(&spec).unwrap();
        assert_eq!(placement.segments.len(), 2);
    }

    #[test]
    fn balanced_latency_placement_is_more_balanced_in_time() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let wl = vlm_workload();
        let t = timing();
        let by_latency = balanced_latency_placement(&spec, parallel, 1, &wl, &t);
        by_latency.validate(&spec).unwrap();

        let spread = |p: &Placement| {
            let workloads: BTreeMap<ModuleId, _> = spec.module_workloads(&wl).into_iter().collect();
            let times: Vec<f64> = p.segments[0]
                .chunks
                .iter()
                .map(|c| {
                    let cost = c.cost(&spec, &workloads, parallel.tp);
                    t.forward_latency(&cost) + t.backward_latency(&cost)
                })
                .collect();
            let max = times.iter().cloned().fold(0.0, f64::max);
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            max / min.max(1e-12)
        };
        let by_param = balanced_param_placement(&spec, parallel, 1);
        assert!(spread(&by_latency) <= spread(&by_param) + 1e-9);
    }

    #[test]
    fn separated_placement_dedicates_segments_per_module() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        let backbone = spec.backbone_id().unwrap();
        k.insert(backbone, 2usize);
        let placement = separated_placement(&spec, parallel, &k);
        placement.validate(&spec).unwrap();
        // ViT: 1 segment, adapter: 1, backbone: 2 → 4 segments.
        assert_eq!(placement.segments.len(), 4);
        assert_eq!(placement.segments_of_module(backbone).len(), 2);
        for seg in &placement.segments {
            assert!(seg.module.is_some());
            assert_eq!(seg.chunks.len(), 4);
        }
    }

    #[test]
    fn capacity_aware_placement_reduces_to_round_robin_on_uniform_clusters() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let mut k = BTreeMap::new();
        k.insert(spec.backbone_id().unwrap(), 3usize);
        let topo = dip_sim::ClusterSpec::h800_cluster(2).topology();
        let equal = separated_placement(&spec, parallel, &k);
        let aware = capacity_aware_separated_placement(&spec, parallel, &k, &topo);
        assert_eq!(equal, aware);
    }

    #[test]
    fn capacity_aware_placement_biases_backbone_layers_to_high_compute_ranks() {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        // 1 node × 8 H800 + 1 node × 8 H20 at TP=4: ranks 0,1 on H800
        // (6.7× the compute), ranks 2,3 on H20 (1.2× the memory).
        let topo = dip_sim::ClusterTopology::mixed_h800_h20(1, 1);
        let mut k = BTreeMap::new();
        let backbone = spec.backbone_id().unwrap();
        k.insert(backbone, 2usize);
        let placement = capacity_aware_separated_placement(&spec, parallel, &k, &topo);
        placement.validate(&spec).unwrap();
        for &s in &placement.segments_of_module(backbone) {
            let layers: Vec<usize> = placement.segments[s]
                .chunks
                .iter()
                .map(ModelChunk::num_layers)
                .collect();
            // FLOP-heavy backbone: H800 ranks carry strictly more layers.
            assert!(
                layers[0] > layers[2] && layers[1] > layers[3],
                "backbone layers {layers:?}"
            );
        }
        // Memory-heavy encoder: H20 ranks carry at least as many layers.
        let (encoder, _) = spec.encoders().next().unwrap();
        for &s in &placement.segments_of_module(encoder) {
            let layers: Vec<usize> = placement.segments[s]
                .chunks
                .iter()
                .map(ModelChunk::num_layers)
                .collect();
            assert!(
                layers[2] + layers[3] >= layers[0] + layers[1],
                "encoder layers {layers:?}"
            );
        }
    }

    #[test]
    fn separated_placement_handles_tiny_modules() {
        // The 1-layer adapter cannot fill 4 ranks; empty chunks are allowed
        // but coverage must still be exact.
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        placement.validate(&spec).unwrap();
        assert_eq!(placement.total_params(&spec), spec.param_count());
    }
}

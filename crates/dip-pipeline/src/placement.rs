//! Model chunks, pipeline segments and their placement on pipeline ranks.

use dip_models::{LayerCost, LmmSpec, ModalityWorkload, ModuleId};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Bytes of persistent optimizer state per model parameter: bf16 weight +
/// bf16 gradient + fp32 master weight + two fp32 Adam moments. Shared by
/// [`Placement::static_memory_per_rank`] and the latency-balanced
/// placement's memory-feasibility guard so the two accountings can never
/// diverge.
pub(crate) const OPTIMIZER_STATE_BYTES_PER_PARAM: u64 = 2 + 2 + 4 + 4 + 4;

/// The 3D parallelism configuration of a training job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Tensor-parallel group size.
    pub tp: usize,
    /// Pipeline-parallel size (number of pipeline ranks).
    pub pp: usize,
    /// Data-parallel size.
    pub dp: usize,
}

impl ParallelConfig {
    /// Creates a configuration.
    pub fn new(tp: usize, pp: usize, dp: usize) -> Self {
        Self { tp, pp, dp }
    }

    /// Total GPUs used (`tp * pp * dp`).
    pub fn num_gpus(&self) -> usize {
        self.tp * self.pp * self.dp
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TP{} PP{} DP{}", self.tp, self.pp, self.dp)
    }
}

/// Errors produced while constructing or validating placements and schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The placement leaves some layers of a module unassigned or assigns
    /// them more than once.
    IncompleteCoverage {
        /// The module with incorrect coverage.
        module: ModuleId,
        /// Layers covered (may contain duplicates).
        covered: usize,
        /// Layers the module actually has.
        expected: usize,
    },
    /// A segment does not provide exactly one chunk per pipeline rank.
    MalformedSegment {
        /// Index of the offending segment.
        segment: usize,
    },
    /// The number of sub-microbatches differs between two consecutive
    /// segments of the same module.
    InconsistentSubMicrobatches {
        /// Index of the offending segment.
        segment: usize,
    },
    /// The requested parallelism does not fit the cluster or model.
    InvalidConfig(String),
    /// The simulated plan was rejected by the event engine.
    Simulation(String),
    /// An internal accounting invariant was violated (e.g. the engine
    /// produced an inconsistent report): a bug in this crate or below, not
    /// in the caller's input. The planner surfaces it as
    /// `DipError::Internal` instead of debug-asserting it away in release
    /// builds.
    Internal(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::IncompleteCoverage {
                module,
                covered,
                expected,
            } => write!(
                f,
                "module {module} covered by {covered} layers, expected {expected}"
            ),
            PipelineError::MalformedSegment { segment } => {
                write!(f, "segment {segment} does not have one chunk per rank")
            }
            PipelineError::InconsistentSubMicrobatches { segment } => {
                write!(
                    f,
                    "segment {segment} has a different sub-microbatch count than its predecessor"
                )
            }
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::Simulation(msg) => write!(f, "simulation failed: {msg}"),
            PipelineError::Internal(msg) => {
                write!(f, "internal invariant violated: {msg}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A contiguous slice of one module's layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPiece {
    /// The module the layers belong to.
    pub module: ModuleId,
    /// The layer indices within the module.
    pub layers: Range<usize>,
}

impl ChunkPiece {
    /// Creates a piece.
    pub fn new(module: ModuleId, layers: Range<usize>) -> Self {
        Self { module, layers }
    }

    /// Number of layers in the piece.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// A model chunk: the unit of model placement on one pipeline rank. Mixed
/// (non-modality-aware) partitionings may put pieces of several modules into
/// the same chunk; DIP's separated partitioning uses single-module chunks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelChunk {
    /// The pieces executed by this chunk, in execution order.
    pub pieces: Vec<ChunkPiece>,
}

impl ModelChunk {
    /// A chunk over a single module slice.
    pub fn single(module: ModuleId, layers: Range<usize>) -> Self {
        Self {
            pieces: vec![ChunkPiece::new(module, layers)],
        }
    }

    /// True when the chunk holds no layers.
    pub fn is_empty(&self) -> bool {
        self.pieces.iter().all(|p| p.layers.is_empty())
    }

    /// Number of layers in the chunk.
    pub fn num_layers(&self) -> usize {
        self.pieces.iter().map(ChunkPiece::num_layers).sum()
    }

    /// The modules this chunk touches.
    pub fn modules(&self) -> Vec<ModuleId> {
        let mut m: Vec<ModuleId> = self.pieces.iter().map(|p| p.module).collect();
        m.dedup();
        m
    }

    /// Parameter count of the chunk.
    pub fn param_count(&self, spec: &LmmSpec) -> u64 {
        self.pieces
            .iter()
            .map(|p| {
                spec.module(p.module).layers()[p.layers.clone()]
                    .iter()
                    .map(|l| l.param_count())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Per-GPU analytical cost of running this chunk, given each module's
    /// workload (modules not present in `workloads` contribute nothing).
    pub fn cost(
        &self,
        spec: &LmmSpec,
        workloads: &BTreeMap<ModuleId, ModalityWorkload>,
        tp: usize,
    ) -> LayerCost {
        self.pieces
            .iter()
            .map(|p| {
                let wl = workloads.get(&p.module).copied().unwrap_or_default();
                spec.module(p.module)
                    .cost_of_layers(p.layers.clone(), &wl, tp)
            })
            .sum()
    }

    /// The hidden width of the chunk's output activation (the last
    /// non-empty piece's last layer), used to size P2P transfers.
    pub fn output_dim(&self, spec: &LmmSpec) -> usize {
        self.pieces
            .iter()
            .rev()
            .find(|p| !p.layers.is_empty())
            .map(|p| spec.module(p.module).layers()[p.layers.end - 1].output_dim())
            .unwrap_or(0)
    }
}

/// A pipeline segment: one complete forward (or backward) pass across all
/// pipeline ranks (§3.1). `chunks[r]` is executed by rank `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// One chunk per pipeline rank, in rank order.
    pub chunks: Vec<ModelChunk>,
    /// The module this segment belongs to when it is modality-separated;
    /// `None` for mixed segments that interleave several modules.
    pub module: Option<ModuleId>,
}

impl Segment {
    /// The modules touched by this segment.
    pub fn modules(&self) -> Vec<ModuleId> {
        let mut out = Vec::new();
        for c in &self.chunks {
            for m in c.modules() {
                if !out.contains(&m) {
                    out.push(m);
                }
            }
        }
        out
    }
}

/// A complete placement: the ordered list of pipeline segments whose chunks
/// jointly cover the whole model, plus the parallelism configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The parallelism configuration.
    pub parallel: ParallelConfig,
    /// Pipeline segments in forward execution order.
    pub segments: Vec<Segment>,
}

impl Placement {
    /// Number of pipeline ranks.
    pub fn num_ranks(&self) -> usize {
        self.parallel.pp
    }

    /// Validates that every segment has one chunk per rank and that every
    /// module layer is covered exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::MalformedSegment`] or
    /// [`PipelineError::IncompleteCoverage`] accordingly.
    pub fn validate(&self, spec: &LmmSpec) -> Result<(), PipelineError> {
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.chunks.len() != self.parallel.pp {
                return Err(PipelineError::MalformedSegment { segment: i });
            }
        }
        for (id, module) in spec.iter() {
            let mut covered = vec![0usize; module.num_layers()];
            for seg in &self.segments {
                for chunk in &seg.chunks {
                    for piece in &chunk.pieces {
                        if piece.module == id {
                            for l in piece.layers.clone() {
                                if l < covered.len() {
                                    covered[l] += 1;
                                }
                            }
                        }
                    }
                }
            }
            let total: usize = covered.iter().sum();
            if covered.iter().any(|&c| c != 1) {
                return Err(PipelineError::IncompleteCoverage {
                    module: id,
                    covered: total,
                    expected: module.num_layers(),
                });
            }
        }
        Ok(())
    }

    /// Static memory per rank: bf16 parameters + gradients + optimizer state
    /// of every chunk placed on the rank, divided across the TP group.
    pub fn static_memory_per_rank(&self, spec: &LmmSpec) -> Vec<u64> {
        let tp = self.parallel.tp.max(1) as u64;
        let mut per_rank = vec![0u64; self.parallel.pp];
        for seg in &self.segments {
            for (rank, chunk) in seg.chunks.iter().enumerate() {
                let params = chunk.param_count(spec);
                let bytes = params * OPTIMIZER_STATE_BYTES_PER_PARAM;
                per_rank[rank] += bytes / tp;
            }
        }
        per_rank
    }

    /// Total parameter count covered by the placement (sanity checks).
    pub fn total_params(&self, spec: &LmmSpec) -> u64 {
        self.segments
            .iter()
            .flat_map(|s| s.chunks.iter())
            .map(|c| c.param_count(spec))
            .sum()
    }

    /// The segments (by index) that belong to `module`.
    pub fn segments_of_module(&self, module: ModuleId) -> Vec<usize> {
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.module == Some(module))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::zoo;

    #[test]
    fn parallel_config_counts_gpus() {
        let p = ParallelConfig::new(4, 4, 2);
        assert_eq!(p.num_gpus(), 32);
        assert_eq!(p.to_string(), "TP4 PP4 DP2");
    }

    #[test]
    fn chunk_cost_and_params_follow_pieces() {
        let spec = zoo::vlm_s();
        let backbone = spec.backbone_id().unwrap();
        let chunk = ModelChunk::single(backbone, 1..9);
        assert_eq!(chunk.num_layers(), 8);
        assert!(chunk.param_count(&spec) > 0);
        let mut workloads = BTreeMap::new();
        workloads.insert(backbone, ModalityWorkload::from_tokens(8192));
        let cost = chunk.cost(&spec, &workloads, 4);
        assert!(cost.fwd_flops > 0.0);
        assert_eq!(chunk.output_dim(&spec), 4096);
    }

    #[test]
    fn chunk_with_missing_workload_costs_nothing() {
        let spec = zoo::vlm_s();
        let backbone = spec.backbone_id().unwrap();
        let chunk = ModelChunk::single(backbone, 1..9);
        let cost = chunk.cost(&spec, &BTreeMap::new(), 1);
        assert_eq!(cost.fwd_flops, 0.0);
    }

    #[test]
    fn validate_catches_missing_and_duplicate_coverage() {
        let spec = zoo::lm_7b();
        let module = spec.backbone_id().unwrap();
        let layers = spec.module(module).num_layers();
        let parallel = ParallelConfig::new(1, 2, 1);

        // Correct coverage: two chunks covering everything once.
        let good = Placement {
            parallel,
            segments: vec![Segment {
                chunks: vec![
                    ModelChunk::single(module, 0..layers / 2),
                    ModelChunk::single(module, layers / 2..layers),
                ],
                module: Some(module),
            }],
        };
        assert!(good.validate(&spec).is_ok());
        assert_eq!(good.total_params(&spec), spec.param_count());

        // Missing layers.
        let missing = Placement {
            parallel,
            segments: vec![Segment {
                chunks: vec![
                    ModelChunk::single(module, 0..4),
                    ModelChunk::single(module, 4..8),
                ],
                module: Some(module),
            }],
        };
        assert!(matches!(
            missing.validate(&spec),
            Err(PipelineError::IncompleteCoverage { .. })
        ));

        // Wrong chunk count per segment.
        let malformed = Placement {
            parallel,
            segments: vec![Segment {
                chunks: vec![ModelChunk::single(module, 0..layers)],
                module: Some(module),
            }],
        };
        assert!(matches!(
            malformed.validate(&spec),
            Err(PipelineError::MalformedSegment { .. })
        ));
    }

    #[test]
    fn static_memory_is_divided_by_tp() {
        let spec = zoo::lm_7b();
        let module = spec.backbone_id().unwrap();
        let layers = spec.module(module).num_layers();
        let make = |tp| Placement {
            parallel: ParallelConfig::new(tp, 2, 1),
            segments: vec![Segment {
                chunks: vec![
                    ModelChunk::single(module, 0..layers / 2),
                    ModelChunk::single(module, layers / 2..layers),
                ],
                module: Some(module),
            }],
        };
        let tp1 = make(1).static_memory_per_rank(&spec);
        let tp4 = make(4).static_memory_per_rank(&spec);
        assert_eq!(tp1.len(), 2);
        assert!(tp4[0] * 3 < tp1[0]);
    }
}

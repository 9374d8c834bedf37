//! GPU and cluster hardware specifications.

use crate::topology::ClusterTopology;

/// The GPU generations used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuGeneration {
    /// NVIDIA H800 80 GB (main 64-GPU testbed).
    H800,
    /// NVIDIA H20 96 GB (16-GPU comparison cluster for Table 4).
    H20,
    /// NVIDIA H100 80 GB (large-scale simulation, §7.5).
    H100,
}

/// Capabilities of a single GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Peak dense bf16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// HBM capacity in bytes.
    pub mem_capacity: u64,
    /// Intra-node (NVLink) bandwidth in bytes/s per GPU.
    pub nvlink_bandwidth: f64,
    /// Inter-node network bandwidth in bytes/s per GPU.
    pub net_bandwidth: f64,
}

impl GpuSpec {
    /// Preset for a GPU generation.
    pub fn preset(generation: GpuGeneration) -> Self {
        match generation {
            // H800: Hopper compute, 80 GB HBM3, 200 GB/s NVLink (paper's
            // cluster description), 8×200 Gbps RoCE per node → 25 GB/s/GPU.
            GpuGeneration::H800 => GpuSpec {
                peak_flops: 989e12,
                mem_bandwidth: 3.35e12,
                mem_capacity: 80 * (1 << 30),
                nvlink_bandwidth: 200e9,
                net_bandwidth: 25e9,
            },
            // H20: much lower compute, higher memory capacity/bandwidth.
            GpuGeneration::H20 => GpuSpec {
                peak_flops: 148e12,
                mem_bandwidth: 4.0e12,
                mem_capacity: 96 * (1 << 30),
                nvlink_bandwidth: 450e9,
                net_bandwidth: 25e9,
            },
            // H100 SXM.
            GpuGeneration::H100 => GpuSpec {
                peak_flops: 989e12,
                mem_bandwidth: 3.35e12,
                mem_capacity: 80 * (1 << 30),
                nvlink_bandwidth: 450e9,
                net_bandwidth: 50e9,
            },
        }
    }

    /// Memory capacity usable for training after reserving space for the
    /// framework, NCCL buffers and fragmentation.
    pub fn usable_memory(&self) -> u64 {
        (self.mem_capacity as f64 * 0.92) as u64
    }

    /// A stable 64-bit key identifying this *device kind* — a splitmix-style
    /// fold over all five spec fields (timing fields by `f64` bit pattern).
    /// Two `GpuSpec`s share a key exactly when they are byte-identical, so
    /// the calibration registry can match artifact entries to the devices of
    /// a [`ClusterTopology`] without naming GPU generations.
    pub fn device_key(&self) -> u64 {
        let mut acc = 0x5851_F42D_4C95_7F2Du64;
        let mut mix = |value: u64| {
            let mut z = acc.wrapping_add(value).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = z ^ (z >> 31);
        };
        mix(self.peak_flops.to_bits());
        mix(self.mem_bandwidth.to_bits());
        mix(self.mem_capacity);
        mix(self.nvlink_bandwidth.to_bits());
        mix(self.net_bandwidth.to_bits());
        acc
    }
}

/// A homogeneous GPU cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// The GPU model installed in every node.
    pub gpu: GpuSpec,
    /// Number of nodes.
    pub num_nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// CPU cores per node available for the planner (§6.2: DIP may use at
    /// most half of them).
    pub cpu_cores_per_node: usize,
}

impl ClusterSpec {
    /// The paper's main testbed: 8 nodes × 8 H800, 128 CPU cores per node.
    pub fn h800_cluster(num_nodes: usize) -> Self {
        Self {
            gpu: GpuSpec::preset(GpuGeneration::H800),
            num_nodes,
            gpus_per_node: 8,
            cpu_cores_per_node: 128,
        }
    }

    /// The comparison testbed: 2 nodes × 8 H20.
    pub fn h20_cluster(num_nodes: usize) -> Self {
        Self {
            gpu: GpuSpec::preset(GpuGeneration::H20),
            num_nodes,
            gpus_per_node: 8,
            cpu_cores_per_node: 128,
        }
    }

    /// A large-scale H100 cluster (§7.5).
    pub fn h100_cluster(num_nodes: usize) -> Self {
        Self {
            gpu: GpuSpec::preset(GpuGeneration::H100),
            num_nodes,
            gpus_per_node: 8,
            cpu_cores_per_node: 128,
        }
    }

    /// Total GPUs in the cluster.
    pub fn num_gpus(&self) -> usize {
        self.num_nodes * self.gpus_per_node
    }

    /// Aggregate peak FLOP/s of the cluster (used for MFU).
    pub fn peak_flops(&self) -> f64 {
        self.gpu.peak_flops * self.num_gpus() as f64
    }

    /// CPU cores the planner is allowed to use (at most 50% of each node's
    /// cores, §6.2).
    pub fn planner_cores(&self) -> usize {
        (self.cpu_cores_per_node / 2).max(1)
    }

    /// Effective bandwidth between two pipeline-adjacent GPUs, assuming the
    /// rail-optimised placement the paper describes: adjacent pipeline ranks
    /// of the same tensor-parallel group sit in the same node when
    /// `ranks_per_node > 1`, otherwise traffic crosses the network.
    ///
    /// This is a coarse whole-cluster classification; per-edge pricing
    /// should use [`ClusterSpec::link_bandwidth`], which resolves the actual
    /// node boundary between two ranks.
    pub fn p2p_bandwidth(&self, same_node: bool) -> f64 {
        if same_node {
            self.gpu.nvlink_bandwidth
        } else {
            self.gpu.net_bandwidth
        }
    }

    /// The uniform [`ClusterTopology`] equivalent to this spec. All
    /// topology-aware entry points accept a `&ClusterSpec` through this
    /// conversion and produce identical plans.
    pub fn topology(&self) -> ClusterTopology {
        ClusterTopology::uniform(self)
    }

    /// Whether pipeline ranks `rank_a` and `rank_b` (tensor-parallel degree
    /// `tp`) live in the same node, resolving the actual node boundary: rank
    /// `r` occupies GPUs `r*tp .. (r+1)*tp`, and two ranks share a node
    /// exactly when their first GPUs fall into the same `gpus_per_node`
    /// block (indices wrap modulo the cluster size). Delegates to the
    /// topology-level rank mapping so the two can never drift apart.
    pub fn same_node(&self, rank_a: usize, rank_b: usize, tp: usize) -> bool {
        self.topology().ranks_share_node(rank_a, rank_b, tp)
    }

    /// Effective point-to-point bandwidth between two pipeline ranks: NVLink
    /// when [`ClusterSpec::same_node`] holds, the inter-node network
    /// otherwise. Unlike [`ClusterSpec::p2p_bandwidth`], the intra-node vs
    /// inter-node decision is made per edge, so an edge crossing a node
    /// boundary is charged at network bandwidth even when most edges of the
    /// pipeline stay on NVLink.
    pub fn link_bandwidth(&self, rank_a: usize, rank_b: usize, tp: usize) -> f64 {
        self.p2p_bandwidth(self.same_node(rank_a, rank_b, tp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sensible_orderings() {
        let h800 = GpuSpec::preset(GpuGeneration::H800);
        let h20 = GpuSpec::preset(GpuGeneration::H20);
        let h100 = GpuSpec::preset(GpuGeneration::H100);
        assert!(h800.peak_flops > h20.peak_flops);
        assert!(h20.mem_capacity > h800.mem_capacity);
        assert!(h100.nvlink_bandwidth >= h800.nvlink_bandwidth);
        assert!(h800.usable_memory() < h800.mem_capacity);
    }

    #[test]
    fn cluster_aggregates() {
        let c = ClusterSpec::h800_cluster(8);
        assert_eq!(c.num_gpus(), 64);
        assert!((c.peak_flops() - 64.0 * 989e12).abs() < 1e9);
        assert_eq!(c.planner_cores(), 64);
        assert!(c.p2p_bandwidth(true) > c.p2p_bandwidth(false));
    }

    #[test]
    fn h20_cluster_matches_table4_testbed() {
        let c = ClusterSpec::h20_cluster(2);
        assert_eq!(c.num_gpus(), 16);
        assert_eq!(c.gpu.mem_capacity, 96 * (1 << 30));
    }

    #[test]
    fn link_bandwidth_resolves_the_node_boundary_per_edge() {
        // 2 nodes × 8 GPUs at TP=4: ranks 0,1 → node 0; ranks 2,3 → node 1.
        // The legacy whole-cluster heuristic (`tp*2 <= gpus_per_node`) would
        // have classified *every* adjacent pair as intra-node; the per-edge
        // query prices the boundary edge (1→2) at network bandwidth.
        let c = ClusterSpec::h800_cluster(2);
        assert!(c.same_node(0, 1, 4));
        assert!(!c.same_node(1, 2, 4));
        assert!(c.same_node(2, 3, 4));
        assert_eq!(c.link_bandwidth(0, 1, 4), c.gpu.nvlink_bandwidth);
        assert_eq!(c.link_bandwidth(1, 2, 4), c.gpu.net_bandwidth);
        assert_eq!(c.link_bandwidth(2, 3, 4), c.gpu.nvlink_bandwidth);
        // TP=8: every rank owns a full node, every edge crosses nodes.
        assert_eq!(c.link_bandwidth(0, 1, 8), c.gpu.net_bandwidth);
        // Consistent with the topology-level link model.
        let topo = c.topology();
        for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
            assert_eq!(c.link_bandwidth(a, b, 4), topo.link_bandwidth(a, b, 4));
        }
    }
}

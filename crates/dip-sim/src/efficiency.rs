//! Efficiency scaling factors and the kernel-utilisation curve.

/// Efficiency scaling factors of the analytical cost model (§6.1) plus a
/// saturation model for small kernels.
///
/// The operator latency formula is
/// `max(α_fop·N_fop/F, α_mem·N_mem/B_mem, α_net·N_net/B_net)`.
/// The α factors capture how far real kernels sit from peak throughput.
/// In addition, very small kernels do not saturate the GPU at all: the
/// achievable fraction of `α_fop`-scaled peak grows with the amount of work
/// in the kernel. That roll-off is what makes excessively small
/// sub-microbatches wasteful (Fig. 9) and is modelled by
/// [`EfficiencyModel::utilisation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyModel {
    /// Compute efficiency factor (fraction of peak FLOP/s attainable by
    /// large GEMMs); `alpha_fop` in the paper, expressed as a divisor ≥ 1
    /// applied to ideal time, i.e. latency = N_fop / (F * compute_efficiency).
    pub compute_efficiency: f64,
    /// Memory-bandwidth efficiency factor (fraction of peak attainable).
    pub memory_efficiency: f64,
    /// Network/interconnect efficiency factor (fraction of peak attainable).
    pub network_efficiency: f64,
    /// Work (in FLOPs) at which a kernel reaches half of its asymptotic
    /// utilisation; controls the small-kernel roll-off.
    pub half_utilisation_flops: f64,
    /// Fixed per-stage launch/framework overhead in seconds.
    pub stage_overhead_s: f64,
    /// Fixed point-to-point link latency in seconds, added to every
    /// non-empty inter-rank transfer (cable + NIC + software stack).
    /// Calibrated from the fleet artifact; defaults to 15 µs.
    pub link_latency_s: f64,
    /// Fixed base latency of a collective (ring all-reduce setup) in
    /// seconds. Calibrated from the fleet artifact; defaults to 50 µs.
    pub collective_latency_s: f64,
}

impl Default for EfficiencyModel {
    fn default() -> Self {
        Self {
            compute_efficiency: 0.50,
            memory_efficiency: 0.80,
            network_efficiency: 0.85,
            half_utilisation_flops: 2.0e11,
            stage_overhead_s: 200e-6,
            link_latency_s: 15e-6,
            collective_latency_s: 50e-6,
        }
    }
}

/// The three separately saturating resource times of one operator under the
/// ECM-style roofline, plus the fixed stage overhead. Units are seconds.
///
/// The operator's latency is
/// `max(compute_s, memory_s, network_s) + overhead_s`
/// ([`RooflineBreakdown::total_s`]); whichever term wins the `max` is the
/// operator's *bound* ([`RooflineBreakdown::bound`]). The breakdown exists so
/// callers (placement heuristics, `fig13_calibration`) can see *why* a layer
/// is slow — a memory-bound layer gains nothing from a faster device with the
/// same memory system, which is exactly the distinction that makes
/// latency-balanced placement beat capacity-aware placement on mixed
/// H800+H20 fleets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflineBreakdown {
    /// Time the operator would take if only compute saturated (s):
    /// `N_fop / (F · α_fop · utilisation)`.
    pub compute_s: f64,
    /// Time if only memory bandwidth saturated (s): `N_mem / (B_mem · α_mem)`.
    pub memory_s: f64,
    /// Time if only the interconnect saturated (s): `N_net / (B_net · α_net)`.
    pub network_s: f64,
    /// Fixed launch/framework overhead (s), added outside the `max`.
    pub overhead_s: f64,
}

impl RooflineBreakdown {
    /// The operator latency: `max(compute, memory, network) + overhead`.
    /// Bit-identical to [`EfficiencyModel::op_latency`].
    pub fn total_s(&self) -> f64 {
        self.compute_s.max(self.memory_s).max(self.network_s) + self.overhead_s
    }

    /// Which resource the operator saturates (ties resolve in the order
    /// compute > memory > network, matching the `max` chain).
    pub fn bound(&self) -> RooflineBound {
        let m = self.compute_s.max(self.memory_s).max(self.network_s);
        if self.compute_s >= m {
            RooflineBound::Compute
        } else if self.memory_s >= m {
            RooflineBound::Memory
        } else {
            RooflineBound::Network
        }
    }
}

/// The saturating resource of an operator under the roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RooflineBound {
    /// Limited by FLOP throughput (arithmetic intensity above the ridge).
    Compute,
    /// Limited by GPU memory bandwidth (intensity below the ridge).
    Memory,
    /// Limited by the interconnect (TP all-reduce volume dominates).
    Network,
}

impl std::fmt::Display for RooflineBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RooflineBound::Compute => write!(f, "compute"),
            RooflineBound::Memory => write!(f, "memory"),
            RooflineBound::Network => write!(f, "network"),
        }
    }
}

impl EfficiencyModel {
    /// The "uncalibrated" defaults used before offline microbenchmarks:
    /// optimistic compute efficiency, which Fig. 13 shows leads to ~10%
    /// relative error against real executions.
    pub fn uncalibrated() -> Self {
        Self {
            compute_efficiency: 0.62,
            memory_efficiency: 0.90,
            network_efficiency: 0.95,
            ..Self::default()
        }
    }

    /// The fraction of `compute_efficiency`-scaled peak a kernel of
    /// `work_flops` achieves. Approaches 1 for large kernels and rolls off
    /// smoothly for small ones (a Michaelis–Menten-style saturation curve).
    pub fn utilisation(&self, work_flops: f64) -> f64 {
        if work_flops <= 0.0 {
            return 0.0;
        }
        work_flops / (work_flops + self.half_utilisation_flops)
    }

    /// Effective compute throughput (FLOP/s) for a kernel of `work_flops`
    /// on a device with `peak_flops`.
    pub fn effective_flops(&self, peak_flops: f64, work_flops: f64) -> f64 {
        peak_flops * self.compute_efficiency * self.utilisation(work_flops).max(1e-6)
    }

    /// Per-resource roofline decomposition of one operator.
    ///
    /// Computes the three ECM terms — `T_comp = N_fop / (F·α_fop·u(N_fop))`,
    /// `T_mem = N_mem / (B_mem·α_mem)`, `T_net = N_net / (B_net·α_net)` —
    /// without taking the `max`, so callers can classify the operator.
    /// Units: `peak_flops` in FLOP/s, bandwidths in B/s, `work_flops` in
    /// FLOP, byte counts in B; every returned term is in seconds.
    pub fn op_breakdown(
        &self,
        peak_flops: f64,
        mem_bandwidth: f64,
        net_bandwidth: f64,
        work_flops: f64,
        mem_bytes: f64,
        net_bytes: f64,
    ) -> RooflineBreakdown {
        let compute_s = if work_flops > 0.0 {
            work_flops / self.effective_flops(peak_flops, work_flops)
        } else {
            0.0
        };
        let memory_s = if mem_bytes > 0.0 {
            mem_bytes / (mem_bandwidth * self.memory_efficiency)
        } else {
            0.0
        };
        let network_s = if net_bytes > 0.0 {
            net_bytes / (net_bandwidth * self.network_efficiency)
        } else {
            0.0
        };
        RooflineBreakdown {
            compute_s,
            memory_s,
            network_s,
            overhead_s: self.stage_overhead_s,
        }
    }

    /// Latency of a compute-, memory- and network-bound operator, i.e. the
    /// paper's `max(...)` formula plus the fixed stage overhead:
    /// `max(T_comp, T_mem, T_net) + T_overhead` (all in seconds). Equal to
    /// [`EfficiencyModel::op_breakdown`]`.total_s()` bit for bit.
    pub fn op_latency(
        &self,
        peak_flops: f64,
        mem_bandwidth: f64,
        net_bandwidth: f64,
        work_flops: f64,
        mem_bytes: f64,
        net_bytes: f64,
    ) -> f64 {
        self.op_breakdown(
            peak_flops,
            mem_bandwidth,
            net_bandwidth,
            work_flops,
            mem_bytes,
            net_bytes,
        )
        .total_s()
    }

    /// The machine balance (ridge point) of a device under this model:
    /// the arithmetic intensity in FLOP/B at which an asymptotically large
    /// kernel transitions from memory-bound to compute-bound,
    /// `(F·α_fop) / (B_mem·α_mem)`. Layers whose
    /// [`dip_models::LayerCost::fwd_arithmetic_intensity`] sits below this
    /// value are priced by the memory term of the roofline.
    pub fn machine_balance(&self, peak_flops: f64, mem_bandwidth: f64) -> f64 {
        (peak_flops * self.compute_efficiency) / (mem_bandwidth * self.memory_efficiency)
    }

    /// The smallest amount of work (FLOPs) that achieves at least `target`
    /// (e.g. 0.95) of the asymptotic utilisation — the quantity behind the
    /// paper's 95%-of-peak sub-microbatch sizing rule (§4).
    pub fn work_for_utilisation(&self, target: f64) -> f64 {
        let target = target.clamp(0.0, 0.999_999);
        // u = w / (w + h)  =>  w = h * u / (1 - u)
        self.half_utilisation_flops * target / (1.0 - target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_is_monotonic_and_bounded() {
        let m = EfficiencyModel::default();
        let mut prev = 0.0;
        for exp in 8..16 {
            let w = 10f64.powi(exp);
            let u = m.utilisation(w);
            assert!(u >= prev);
            assert!(u < 1.0);
            prev = u;
        }
        assert_eq!(m.utilisation(0.0), 0.0);
    }

    #[test]
    fn op_latency_takes_the_max_of_bounds() {
        let m = EfficiencyModel {
            stage_overhead_s: 0.0,
            ..EfficiencyModel::default()
        };
        let peak = 1e15;
        let bw = 1e12;
        let net = 1e11;
        // Heavily network-bound operator.
        let lat = m.op_latency(peak, bw, net, 1e9, 1e6, 1e10);
        let net_time = 1e10 / (net * m.network_efficiency);
        assert!((lat - net_time).abs() / net_time < 1e-9);
        // Compute-bound operator.
        let lat = m.op_latency(peak, bw, net, 1e15, 1e6, 0.0);
        assert!(lat > 1.0 / m.compute_efficiency * 0.9);
    }

    #[test]
    fn work_for_utilisation_inverts_the_curve() {
        let m = EfficiencyModel::default();
        for target in [0.5, 0.9, 0.95, 0.99] {
            let w = m.work_for_utilisation(target);
            let u = m.utilisation(w);
            assert!((u - target).abs() < 1e-9, "target {target}, got {u}");
        }
    }

    #[test]
    fn small_kernels_are_less_efficient() {
        let m = EfficiencyModel::default();
        let peak = 1e15;
        // Same total work split into 1 vs 16 kernels: many small kernels
        // must take longer in aggregate.
        let total = 1.6e12;
        let one = m.op_latency(peak, 1e12, 1e11, total, 0.0, 0.0);
        let sixteen = 16.0 * m.op_latency(peak, 1e12, 1e11, total / 16.0, 0.0, 0.0);
        assert!(sixteen > one);
    }

    #[test]
    fn uncalibrated_model_is_more_optimistic() {
        let cal = EfficiencyModel::default();
        let raw = EfficiencyModel::uncalibrated();
        assert!(raw.compute_efficiency > cal.compute_efficiency);
    }
}

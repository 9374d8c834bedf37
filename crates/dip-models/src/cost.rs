use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Analytical cost of executing one or more layers over a workload,
/// normalised to a single GPU of a tensor-parallel group.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerCost {
    /// Forward floating-point operations.
    pub fwd_flops: f64,
    /// Backward floating-point operations.
    pub bwd_flops: f64,
    /// Bytes of bf16 parameters resident on the GPU.
    pub param_bytes: u64,
    /// Bytes of gradient buffers (bf16, same shape as parameters).
    pub grad_bytes: u64,
    /// Bytes of optimizer state (fp32 master weights + Adam moments).
    pub optimizer_bytes: u64,
    /// Bytes of activations held between forward and backward.
    pub activation_bytes: u64,
    /// Bytes moved over GPU memory during forward (roofline estimate).
    pub fwd_mem_bytes: u64,
    /// Bytes that must cross the tensor-parallel interconnect per forward
    /// pass (all-reduce volume), zero when TP = 1.
    pub tp_comm_bytes: u64,
}

impl LayerCost {
    /// Total forward + backward FLOPs.
    pub fn total_flops(&self) -> f64 {
        self.fwd_flops + self.bwd_flops
    }

    /// Static (workload-independent) memory: parameters, gradients and
    /// optimizer state.
    pub fn static_bytes(&self) -> u64 {
        self.param_bytes + self.grad_bytes + self.optimizer_bytes
    }

    /// Memory moved during the backward pass (roofline estimate:
    /// parameters re-read plus activations re-read and gradients written).
    pub fn bwd_mem_bytes(&self) -> u64 {
        self.param_bytes + 2 * self.activation_bytes + self.grad_bytes
    }

    /// Arithmetic intensity of the forward pass in FLOP per byte of GPU
    /// memory traffic (`fwd_flops / fwd_mem_bytes`). Comparing this against
    /// a device's machine balance (FLOP/B ridge point) tells whether the
    /// layer is compute- or memory-bound there. Returns `f64::INFINITY`
    /// when the layer moves no memory.
    pub fn fwd_arithmetic_intensity(&self) -> f64 {
        if self.fwd_mem_bytes == 0 {
            return f64::INFINITY;
        }
        self.fwd_flops / self.fwd_mem_bytes as f64
    }

    /// Arithmetic intensity of the backward pass in FLOP/B
    /// (`bwd_flops / bwd_mem_bytes()`); see
    /// [`LayerCost::fwd_arithmetic_intensity`].
    pub fn bwd_arithmetic_intensity(&self) -> f64 {
        let mem = self.bwd_mem_bytes();
        if mem == 0 {
            return f64::INFINITY;
        }
        self.bwd_flops / mem as f64
    }

    /// Scales every extensive quantity by `factor` (used when a workload is
    /// split into sub-microbatches while the parameters stay resident).
    pub fn scale_activations(&self, factor: f64) -> LayerCost {
        LayerCost {
            fwd_flops: self.fwd_flops * factor,
            bwd_flops: self.bwd_flops * factor,
            activation_bytes: (self.activation_bytes as f64 * factor) as u64,
            fwd_mem_bytes: (self.fwd_mem_bytes as f64 * factor) as u64,
            tp_comm_bytes: (self.tp_comm_bytes as f64 * factor) as u64,
            ..*self
        }
    }
}

impl Add for LayerCost {
    type Output = LayerCost;

    fn add(self, rhs: LayerCost) -> LayerCost {
        LayerCost {
            fwd_flops: self.fwd_flops + rhs.fwd_flops,
            bwd_flops: self.bwd_flops + rhs.bwd_flops,
            param_bytes: self.param_bytes + rhs.param_bytes,
            grad_bytes: self.grad_bytes + rhs.grad_bytes,
            optimizer_bytes: self.optimizer_bytes + rhs.optimizer_bytes,
            activation_bytes: self.activation_bytes + rhs.activation_bytes,
            fwd_mem_bytes: self.fwd_mem_bytes + rhs.fwd_mem_bytes,
            tp_comm_bytes: self.tp_comm_bytes + rhs.tp_comm_bytes,
        }
    }
}

impl AddAssign for LayerCost {
    fn add_assign(&mut self, rhs: LayerCost) {
        *self = *self + rhs;
    }
}

impl Sum for LayerCost {
    fn sum<I: Iterator<Item = LayerCost>>(iter: I) -> LayerCost {
        iter.fold(LayerCost::default(), Add::add)
    }
}

/// The cost of a (forward, backward) stage pair for one model chunk and one
/// sub-microbatch — the unit of work the DIP scheduler arranges.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StagePairCost {
    /// Cost aggregated over the chunk's layers.
    pub cost: LayerCost,
    /// Number of layers in the chunk.
    pub num_layers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_every_field() {
        let a = LayerCost {
            fwd_flops: 1.0,
            bwd_flops: 2.0,
            param_bytes: 3,
            grad_bytes: 4,
            optimizer_bytes: 5,
            activation_bytes: 6,
            fwd_mem_bytes: 7,
            tp_comm_bytes: 8,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.fwd_flops, 2.0);
        assert_eq!(c.param_bytes, 6);
        assert_eq!(c.tp_comm_bytes, 16);
        assert_eq!(c.total_flops(), 6.0);
    }

    #[test]
    fn sum_of_empty_iterator_is_default() {
        let total: LayerCost = std::iter::empty().sum();
        assert_eq!(total, LayerCost::default());
    }

    #[test]
    fn scale_activations_leaves_static_memory_alone() {
        let a = LayerCost {
            fwd_flops: 10.0,
            bwd_flops: 20.0,
            param_bytes: 100,
            grad_bytes: 100,
            optimizer_bytes: 600,
            activation_bytes: 50,
            fwd_mem_bytes: 40,
            tp_comm_bytes: 8,
        };
        let half = a.scale_activations(0.5);
        assert_eq!(half.param_bytes, 100);
        assert_eq!(half.optimizer_bytes, 600);
        assert_eq!(half.activation_bytes, 25);
        assert_eq!(half.fwd_flops, 5.0);
    }

    #[test]
    fn static_bytes_sums_weights_grads_and_optimizer() {
        let a = LayerCost {
            param_bytes: 10,
            grad_bytes: 10,
            optimizer_bytes: 60,
            ..LayerCost::default()
        };
        assert_eq!(a.static_bytes(), 80);
    }
}

use crate::{ModalityWorkload, ModelError, ADAM_STATE_BYTES_PER_PARAM, BF16_BYTES};

/// High-level family of a transformer layer.
///
/// The family determines attention masking (causal vs bidirectional), whether
/// the MLP is gated (SwiGLU) and whether the block carries extra conditioning
/// parameters (adaLN modulation for diffusion transformers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformerKind {
    /// Causal decoder block of a modern large language model (gated SwiGLU MLP).
    CausalLm,
    /// Causal decoder block of a GPT-3-style language model (non-gated GELU MLP).
    GptBlock,
    /// Bidirectional vision-transformer encoder block (non-gated GELU MLP).
    VitEncoder,
    /// Diffusion-transformer block with adaLN conditioning (non-gated MLP).
    DitBlock,
}

impl TransformerKind {
    /// Whether the MLP uses a gated (SwiGLU-style) projection, i.e. three
    /// weight matrices instead of two.
    pub fn gated_mlp(self) -> bool {
        matches!(self, TransformerKind::CausalLm)
    }

    /// Whether attention is causal (roughly halves score/value FLOPs).
    pub fn causal(self) -> bool {
        matches!(self, TransformerKind::CausalLm | TransformerKind::GptBlock)
    }

    /// Extra per-layer parameters for conditioning (adaLN modulation), as a
    /// multiple of `embed_dim * embed_dim`.
    fn conditioning_param_factor(self) -> f64 {
        match self {
            // DiT blocks regress 6 modulation vectors from the conditioning
            // embedding: shift/scale/gate for both attention and MLP.
            TransformerKind::DitBlock => 6.0,
            _ => 0.0,
        }
    }
}

/// A standard pre-norm transformer block (attention + MLP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransformerLayer {
    /// Model (embedding) dimension.
    pub embed_dim: usize,
    /// Hidden dimension of the feed-forward network.
    pub ffn_hidden_dim: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Number of key/value groups (grouped-query attention); equal to
    /// `num_heads` for full multi-head attention.
    pub num_kv_groups: usize,
    /// The layer family.
    pub kind: TransformerKind,
}

impl TransformerLayer {
    /// Creates a new transformer layer spec, validating the head configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidHeads`] if `num_heads` is zero, if the
    /// embedding dimension is not divisible by the head count, or if the
    /// key/value groups do not divide the head count.
    pub fn new(
        embed_dim: usize,
        ffn_hidden_dim: usize,
        num_heads: usize,
        num_kv_groups: usize,
        kind: TransformerKind,
    ) -> Result<Self, ModelError> {
        let invalid = num_heads == 0
            || num_kv_groups == 0
            || embed_dim == 0
            || !embed_dim.is_multiple_of(num_heads)
            || !num_heads.is_multiple_of(num_kv_groups);
        if invalid {
            return Err(ModelError::InvalidHeads {
                embed_dim,
                num_heads,
                num_kv_groups,
            });
        }
        Ok(Self {
            embed_dim,
            ffn_hidden_dim,
            num_heads,
            num_kv_groups,
            kind,
        })
    }

    /// Dimension of a single attention head.
    pub fn head_dim(&self) -> usize {
        self.embed_dim / self.num_heads
    }

    /// Total key/value projection width (`num_kv_groups * head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.num_kv_groups * self.head_dim()
    }

    /// Number of parameters in this layer.
    pub fn param_count(&self) -> u64 {
        let d = self.embed_dim as f64;
        let ffn = self.ffn_hidden_dim as f64;
        let kv = self.kv_dim() as f64;
        // Attention: Q (d*d), K (d*kv), V (d*kv), O (d*d).
        let attn = 2.0 * d * d + 2.0 * d * kv;
        // MLP: gated = 3 matrices, non-gated = 2 matrices.
        let mlp_mats = if self.kind.gated_mlp() { 3.0 } else { 2.0 };
        let mlp = mlp_mats * d * ffn;
        // Two RMS/layer norms.
        let norms = 2.0 * d;
        let conditioning = self.kind.conditioning_param_factor() * d * d;
        (attn + mlp + norms + conditioning).round() as u64
    }

    /// Forward FLOPs for processing `tokens` tokens spread over `sequences`
    /// packed sequences (attention cost is quadratic per sequence).
    pub fn fwd_flops(&self, tokens: u64, sequences: u64) -> f64 {
        if tokens == 0 {
            return 0.0;
        }
        let d = self.embed_dim as f64;
        let ffn = self.ffn_hidden_dim as f64;
        let kv = self.kv_dim() as f64;
        let t = tokens as f64;
        let seqs = sequences.max(1) as f64;
        let seq_len = t / seqs;

        // Linear projections: 2 * tokens * in * out per matmul.
        let qkv = 2.0 * t * d * (d + 2.0 * kv);
        let out_proj = 2.0 * t * d * d;
        // Attention scores + weighted values: 2 * 2 * s^2 * d per sequence,
        // halved for causal masks.
        let attn_factor = if self.kind.causal() { 0.5 } else { 1.0 };
        let attn = attn_factor * 4.0 * seqs * seq_len * seq_len * d;
        // MLP.
        let mlp_mats = if self.kind.gated_mlp() { 3.0 } else { 2.0 };
        let mlp = 2.0 * t * d * ffn * mlp_mats;
        // adaLN conditioning projections for DiT.
        let conditioning = 2.0 * t * d * d * self.kind.conditioning_param_factor() / 6.0;

        qkv + out_proj + attn + mlp + conditioning
    }

    /// Activation bytes that must be kept alive between the forward and the
    /// backward pass of this layer (bf16, no recomputation), following the
    /// Megatron activation-memory model with flash attention.
    pub fn activation_bytes(&self, tokens: u64) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let d = self.embed_dim as u64;
        let ffn = self.ffn_hidden_dim as u64;
        let kv = self.kv_dim() as u64;
        // Inputs to: attention block (d), Q/K/V (d + 2kv), attention output (d),
        // MLP input (d), MLP hidden (ffn or 2*ffn if gated), plus norm inputs (2d).
        let mlp_hidden = if self.kind.gated_mlp() { 2 * ffn } else { ffn };
        let per_token = 6 * d + 2 * kv + mlp_hidden;
        tokens * per_token * BF16_BYTES
    }
}

/// Converts raw images/video into patch tokens via a strided convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatchEmbedLayer {
    /// Output embedding dimension.
    pub embed_dim: usize,
    /// Patch size in pixels (e.g. 14).
    pub patch_size: usize,
    /// Number of input channels (3 for RGB).
    pub in_channels: usize,
}

impl PatchEmbedLayer {
    /// Number of parameters (convolution kernel + bias).
    pub fn param_count(&self) -> u64 {
        (self.in_channels * self.patch_size * self.patch_size * self.embed_dim + self.embed_dim)
            as u64
    }

    /// Forward FLOPs for `tokens` output patch tokens.
    pub fn fwd_flops(&self, tokens: u64) -> f64 {
        2.0 * tokens as f64
            * (self.in_channels * self.patch_size * self.patch_size) as f64
            * self.embed_dim as f64
    }
}

/// Token embedding table of a language model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EmbeddingLayer {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Embedding dimension.
    pub embed_dim: usize,
}

impl EmbeddingLayer {
    /// Number of parameters.
    pub fn param_count(&self) -> u64 {
        (self.vocab_size * self.embed_dim) as u64
    }
}

/// Output projection (LM head) of a language model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LmHeadLayer {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Embedding dimension.
    pub embed_dim: usize,
}

impl LmHeadLayer {
    /// Number of parameters.
    pub fn param_count(&self) -> u64 {
        (self.vocab_size * self.embed_dim) as u64
    }

    /// Forward FLOPs over `tokens` tokens.
    pub fn fwd_flops(&self, tokens: u64) -> f64 {
        2.0 * tokens as f64 * self.vocab_size as f64 * self.embed_dim as f64
    }
}

/// A modality adapter (MLP projector) between an encoder/decoder and the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdapterLayer {
    /// Input dimension (encoder embedding dimension).
    pub in_dim: usize,
    /// Output dimension (backbone embedding dimension).
    pub out_dim: usize,
    /// Hidden dimension of the projector MLP.
    pub hidden_dim: usize,
}

impl AdapterLayer {
    /// Number of parameters.
    pub fn param_count(&self) -> u64 {
        (self.in_dim * self.hidden_dim + self.hidden_dim * self.out_dim) as u64
    }

    /// Forward FLOPs over `tokens` tokens.
    pub fn fwd_flops(&self, tokens: u64) -> f64 {
        2.0 * tokens as f64
            * (self.in_dim * self.hidden_dim + self.hidden_dim * self.out_dim) as f64
    }
}

/// Coarse category of a [`LayerSpec`], used when grouping layers for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Transformer block.
    Transformer,
    /// Patch embedding.
    PatchEmbed,
    /// Token embedding table.
    Embedding,
    /// LM output head.
    LmHead,
    /// Modality adapter.
    Adapter,
}

/// A single model layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerSpec {
    /// A transformer block.
    Transformer(TransformerLayer),
    /// A convolutional patch embedding.
    PatchEmbed(PatchEmbedLayer),
    /// A token-embedding table.
    Embedding(EmbeddingLayer),
    /// An LM output head.
    LmHead(LmHeadLayer),
    /// A modality adapter.
    Adapter(AdapterLayer),
}

impl LayerSpec {
    /// The coarse category of this layer.
    pub fn kind(&self) -> LayerKind {
        match self {
            LayerSpec::Transformer(_) => LayerKind::Transformer,
            LayerSpec::PatchEmbed(_) => LayerKind::PatchEmbed,
            LayerSpec::Embedding(_) => LayerKind::Embedding,
            LayerSpec::LmHead(_) => LayerKind::LmHead,
            LayerSpec::Adapter(_) => LayerKind::Adapter,
        }
    }

    /// Number of parameters in this layer.
    pub fn param_count(&self) -> u64 {
        match self {
            LayerSpec::Transformer(l) => l.param_count(),
            LayerSpec::PatchEmbed(l) => l.param_count(),
            LayerSpec::Embedding(l) => l.param_count(),
            LayerSpec::LmHead(l) => l.param_count(),
            LayerSpec::Adapter(l) => l.param_count(),
        }
    }

    /// Parameter bytes (bf16 weights only, excluding optimizer state).
    pub fn param_bytes(&self) -> u64 {
        self.param_count() * BF16_BYTES
    }

    /// Bytes of optimizer state (fp32 master weights + Adam moments).
    pub fn optimizer_bytes(&self) -> u64 {
        self.param_count() * ADAM_STATE_BYTES_PER_PARAM
    }

    /// Forward FLOPs over the given workload.
    pub fn fwd_flops(&self, workload: &ModalityWorkload) -> f64 {
        match self {
            LayerSpec::Transformer(l) => l.fwd_flops(workload.tokens, workload.sequences),
            LayerSpec::PatchEmbed(l) => l.fwd_flops(workload.tokens),
            // Embedding lookups are memory-bound; FLOPs negligible.
            LayerSpec::Embedding(_) => 0.0,
            LayerSpec::LmHead(l) => l.fwd_flops(workload.tokens),
            LayerSpec::Adapter(l) => l.fwd_flops(workload.tokens),
        }
    }

    /// Backward FLOPs (the usual 2x-forward approximation for GEMM-dominated layers).
    pub fn bwd_flops(&self, workload: &ModalityWorkload) -> f64 {
        2.0 * self.fwd_flops(workload)
    }

    /// Activation bytes held between forward and backward for this layer.
    pub fn activation_bytes(&self, workload: &ModalityWorkload) -> u64 {
        match self {
            LayerSpec::Transformer(l) => l.activation_bytes(workload.tokens),
            LayerSpec::PatchEmbed(l) => workload.tokens * l.embed_dim as u64 * BF16_BYTES,
            LayerSpec::Embedding(l) => workload.tokens * l.embed_dim as u64 * BF16_BYTES,
            LayerSpec::LmHead(l) => {
                // Logits are large: tokens * vocab in bf16 plus the input.
                workload.tokens * (l.vocab_size as u64 + l.embed_dim as u64) * BF16_BYTES
            }
            LayerSpec::Adapter(l) => {
                workload.tokens * (l.in_dim + l.hidden_dim + l.out_dim) as u64 * BF16_BYTES
            }
        }
    }

    /// Bytes read + written from GPU memory during the forward pass
    /// (a coarse roofline estimate: weights once + activations in/out).
    pub fn fwd_mem_bytes(&self, workload: &ModalityWorkload) -> u64 {
        self.param_bytes() + 2 * self.activation_bytes(workload)
    }

    /// The width (hidden dimension) of the layer's output activation, used to
    /// size point-to-point transfers between pipeline stages.
    pub fn output_dim(&self) -> usize {
        match self {
            LayerSpec::Transformer(l) => l.embed_dim,
            LayerSpec::PatchEmbed(l) => l.embed_dim,
            LayerSpec::Embedding(l) => l.embed_dim,
            LayerSpec::LmHead(l) => l.vocab_size,
            LayerSpec::Adapter(l) => l.out_dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama_layer() -> TransformerLayer {
        TransformerLayer::new(4096, 14336, 32, 8, TransformerKind::CausalLm).unwrap()
    }

    #[test]
    fn rejects_invalid_head_configs() {
        assert!(TransformerLayer::new(4096, 14336, 0, 1, TransformerKind::CausalLm).is_err());
        assert!(TransformerLayer::new(4096, 14336, 3, 2, TransformerKind::CausalLm).is_err());
        assert!(TransformerLayer::new(4095, 14336, 32, 8, TransformerKind::CausalLm).is_err());
        assert!(TransformerLayer::new(4096, 14336, 32, 5, TransformerKind::CausalLm).is_err());
    }

    #[test]
    fn llama3_8b_layer_param_count_is_plausible() {
        // Llama3 8B: ~218M parameters per transformer layer.
        let p = llama_layer().param_count() as f64;
        assert!((1.9e8..2.4e8).contains(&p), "got {p}");
    }

    #[test]
    fn gqa_reduces_parameters() {
        let mha = TransformerLayer::new(4096, 14336, 32, 32, TransformerKind::CausalLm).unwrap();
        let gqa = llama_layer();
        assert!(gqa.param_count() < mha.param_count());
    }

    #[test]
    fn flops_scale_roughly_linearly_in_tokens_for_short_sequences() {
        let l = llama_layer();
        let f1 = l.fwd_flops(1024, 1);
        let f2 = l.fwd_flops(2048, 2);
        let ratio = f2 / f1;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn attention_is_quadratic_within_one_sequence() {
        let l = llama_layer();
        // Same token count: one long sequence costs more than two short ones.
        let long = l.fwd_flops(8192, 1);
        let short = l.fwd_flops(8192, 2);
        assert!(long > short);
    }

    #[test]
    fn causal_attention_halves_score_flops() {
        let causal = TransformerLayer::new(4096, 14336, 32, 32, TransformerKind::CausalLm).unwrap();
        let bidir =
            TransformerLayer::new(4096, 14336, 32, 32, TransformerKind::VitEncoder).unwrap();
        // The bidirectional ViT layer has a non-gated MLP, so compare only the
        // attention term indirectly: with very long sequences the quadratic
        // term dominates and the causal layer must be cheaper.
        let t = 64 * 1024;
        assert!(causal.fwd_flops(t, 1) < bidir.fwd_flops(t, 1));
    }

    #[test]
    fn backward_is_twice_forward() {
        let layer = LayerSpec::Transformer(llama_layer());
        let wl = ModalityWorkload::from_tokens(4096);
        assert_eq!(layer.bwd_flops(&wl), 2.0 * layer.fwd_flops(&wl));
    }

    #[test]
    fn zero_tokens_cost_nothing() {
        let layer = LayerSpec::Transformer(llama_layer());
        let wl = ModalityWorkload::from_tokens(0);
        assert_eq!(layer.fwd_flops(&wl), 0.0);
        assert_eq!(layer.activation_bytes(&wl), 0);
    }

    #[test]
    fn embedding_and_head_param_counts() {
        let e = EmbeddingLayer {
            vocab_size: 128_256,
            embed_dim: 4096,
        };
        assert_eq!(e.param_count(), 128_256 * 4096);
        let h = LmHeadLayer {
            vocab_size: 128_256,
            embed_dim: 4096,
        };
        assert_eq!(h.param_count(), 128_256 * 4096);
        assert!(h.fwd_flops(10) > 0.0);
    }

    #[test]
    fn dit_block_has_conditioning_parameters() {
        let dit = TransformerLayer::new(3584, 10240, 28, 28, TransformerKind::DitBlock).unwrap();
        let plain = TransformerLayer::new(3584, 10240, 28, 28, TransformerKind::CausalLm).unwrap();
        assert!(dit.param_count() > plain.param_count());
    }
}

//! Canonical (bucketed) workload signatures for fuzzy plan reuse.
//!
//! Exact [`BatchWorkload::signature`](crate::BatchWorkload::signature) keys
//! recognise *identical* shapes only; real dynamic traffic produces
//! near-identical shapes that differ by a handful of tokens and would miss
//! an exact-keyed plan cache. A [`CanonicalSignature`] quantises the
//! sequence-length-like workload dimensions (tokens, sequence counts) into
//! configurable buckets so that every workload inside a bucket maps to the
//! same key and a plan computed for one in-bucket shape can be *reused* for
//! another — the planner layer re-prices the reused plan against the real
//! shape, so the reuse is bounded-regret rather than approximate.
//!
//! The microbatch count and modality set are folded exactly by default:
//! plans are structurally tied to both (the stage graph has one work item
//! per `(segment, microbatch)` block), so bucketing them would make reuse
//! structurally unsound rather than merely suboptimal.

use crate::workload::fnv1a_fold;
use crate::{BatchWorkload, Modality, ModalityWorkload};

/// Seed distinguishing canonical signatures from exact workload signatures.
const CANONICAL_SEED: u64 = 0xb0c4_e7ab_u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);

/// How aggressively workload dimensions are quantised before hashing.
///
/// Every dimension uses *bucket index* quantisation: value `v` with bucket
/// width `b` maps to `v / b` (integer division), so `[0, b)`, `[b, 2b)`, …
/// are the buckets. A width of 1 keeps the dimension exact. Wider buckets
/// raise the fuzzy hit rate and the worst-case in-bucket regret together;
/// the regret bound is checked empirically by the `fuzzy_replanning`
/// proptest suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketingConfig {
    /// Bucket width for per-modality token counts (1 = exact).
    pub token_bucket: u64,
    /// Bucket width for per-modality sequence counts (1 = exact).
    pub sequence_bucket: u64,
}

impl BucketingConfig {
    /// Exact matching: every bucket has width 1, so the canonical signature
    /// collides exactly when the exact signature does.
    pub fn exact() -> Self {
        Self {
            token_bucket: 1,
            sequence_bucket: 1,
        }
    }

    /// True when no dimension is actually quantised.
    pub fn is_exact(&self) -> bool {
        self.token_bucket <= 1 && self.sequence_bucket <= 1
    }

    /// Bucket index of a token count under this config.
    pub fn token_bin(&self, tokens: u64) -> u64 {
        tokens / self.token_bucket.max(1)
    }

    /// Bucket index of a sequence count under this config.
    pub fn sequence_bin(&self, sequences: u64) -> u64 {
        sequences / self.sequence_bucket.max(1)
    }

    /// The canonical bucket of one modality workload: the pair of bucket
    /// indices that decide fuzzy equality for this modality.
    pub fn bucket_of(&self, workload: &ModalityWorkload) -> (u64, u64) {
        (
            self.token_bin(workload.tokens),
            self.sequence_bin(workload.sequences),
        )
    }
}

impl Default for BucketingConfig {
    /// Moderate default buckets: 512-token and 4-sequence bins. Small
    /// enough that the shapes of the bundled benches stay distinguishable,
    /// wide enough that a ±few-% token jitter around a hot shape lands in
    /// the hot shape's bucket.
    fn default() -> Self {
        Self {
            token_bucket: 512,
            sequence_bucket: 4,
        }
    }
}

/// A quantised, cross-process-stable signature of a workload sequence.
///
/// Two microbatch sequences share a canonical signature exactly when they
/// have the same microbatch count and, per microbatch, the same non-empty
/// modality set with every modality's `(token, sequence)` counts falling in
/// the same [`BucketingConfig`] buckets. The hash is FNV-1a over the bucket
/// indices, so — like the exact signature — it is stable across processes
/// and suitable as a persistent cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalSignature(u64);

impl CanonicalSignature {
    /// Canonical signature of a microbatch sequence under `config`.
    pub fn of(microbatches: &[BatchWorkload], config: &BucketingConfig) -> Self {
        let mut acc = fnv1a_fold(CANONICAL_SEED, microbatches.len() as u64);
        acc = fnv1a_fold(acc, config.token_bucket.max(1));
        acc = fnv1a_fold(acc, config.sequence_bucket.max(1));
        for batch in microbatches {
            acc = fnv1a_fold(acc, 0x6d6d_6261); // per-microbatch separator
            for (modality, workload) in batch.iter() {
                let index = Modality::ALL
                    .iter()
                    .position(|m| *m == modality)
                    .expect("modality listed in Modality::ALL") as u64;
                let (token_bin, sequence_bin) = config.bucket_of(&workload);
                acc = fnv1a_fold(acc, index);
                acc = fnv1a_fold(acc, token_bin);
                acc = fnv1a_fold(acc, sequence_bin);
            }
        }
        Self(acc)
    }

    /// Folds a topology fingerprint into the signature, so plans for the
    /// same bucketed shape on different clusters never alias.
    pub fn with_topology(self, fingerprint: u64) -> Self {
        Self(fnv1a_fold(self.0, fingerprint))
    }

    /// The raw 64-bit key.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn text(tokens: u64, sequences: u64) -> BatchWorkload {
        BatchWorkload::new().with(Modality::Text, ModalityWorkload::new(tokens, sequences))
    }

    #[test]
    fn exact_config_matches_exact_equality() {
        let config = BucketingConfig::exact();
        assert!(config.is_exact());
        let a = CanonicalSignature::of(&[text(1000, 2)], &config);
        let b = CanonicalSignature::of(&[text(1000, 2)], &config);
        let c = CanonicalSignature::of(&[text(1001, 2)], &config);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn in_bucket_neighbours_collide_and_cross_bucket_shapes_do_not() {
        let config = BucketingConfig {
            token_bucket: 512,
            sequence_bucket: 4,
        };
        // 8192 and 8191+ up to 8703 share the [8192, 8704) token bucket.
        let base = CanonicalSignature::of(&[text(8192, 2)], &config);
        assert_eq!(CanonicalSignature::of(&[text(8200, 2)], &config), base);
        assert_eq!(CanonicalSignature::of(&[text(8703, 3)], &config), base);
        assert_ne!(CanonicalSignature::of(&[text(8704, 2)], &config), base);
        assert_ne!(CanonicalSignature::of(&[text(8191, 2)], &config), base);
        assert_ne!(CanonicalSignature::of(&[text(8192, 4)], &config), base);
    }

    #[test]
    fn microbatch_count_and_modality_set_stay_exact() {
        let config = BucketingConfig::default();
        let one = CanonicalSignature::of(&[text(8192, 1)], &config);
        let two = CanonicalSignature::of(&[text(8192, 1), text(8192, 1)], &config);
        assert_ne!(one, two);

        let with_image = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(8192, 1))
            .with(Modality::Image, ModalityWorkload::new(169, 1));
        assert_ne!(
            CanonicalSignature::of(&[with_image], &config),
            CanonicalSignature::of(&[text(8192, 1)], &config)
        );
    }

    #[test]
    fn bucket_widths_are_part_of_the_key() {
        let narrow = BucketingConfig {
            token_bucket: 64,
            sequence_bucket: 1,
        };
        let wide = BucketingConfig {
            token_bucket: 4096,
            sequence_bucket: 1,
        };
        assert_ne!(
            CanonicalSignature::of(&[text(8192, 1)], &narrow),
            CanonicalSignature::of(&[text(8192, 1)], &wide)
        );
    }

    #[test]
    fn topology_fingerprint_separates_clusters() {
        let config = BucketingConfig::default();
        let sig = CanonicalSignature::of(&[text(8192, 1)], &config);
        assert_ne!(sig.with_topology(1), sig.with_topology(2));
        assert_ne!(sig.with_topology(1), sig);
    }

    proptest! {
        /// Bucketed equality is exactly bucket-index equality: any two
        /// workloads whose per-modality bucket indices agree collide, and
        /// any bucket-index difference separates them.
        #[test]
        fn collision_iff_same_buckets(
            tokens_a in 1u64..100_000,
            tokens_b in 1u64..100_000,
            seqs_a in 1u64..64,
            seqs_b in 1u64..64,
            token_bucket in 1u64..2048,
            sequence_bucket in 1u64..16,
        ) {
            let config = BucketingConfig { token_bucket, sequence_bucket };
            let a = CanonicalSignature::of(&[text(tokens_a, seqs_a)], &config);
            let b = CanonicalSignature::of(&[text(tokens_b, seqs_b)], &config);
            let same_bucket = config.token_bin(tokens_a) == config.token_bin(tokens_b)
                && config.sequence_bin(seqs_a) == config.sequence_bin(seqs_b);
            prop_assert_eq!(a == b, same_bucket);
        }
    }
}

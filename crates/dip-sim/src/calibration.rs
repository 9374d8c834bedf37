//! Calibration of the efficiency scaling factors against reference
//! ("measured") executions, as in the paper's Fig. 13 study: the default
//! simulator settings exhibit relative errors of up to ~10%; after aligning
//! the efficiency factors with offline microbenchmarks the simulator reaches
//! ~97.6% average accuracy.

use crate::efficiency::EfficiencyModel;
use std::time::Duration;

/// A calibrated linear cost model `seconds = base_s + units · per_unit_s`
/// for planner-side work items: one ordering evaluation of a stage graph
/// with `units` stage items, or one branch-and-bound node of a memory ILP
/// with `units` groups.
///
/// The planner's **virtual-time budgets** are built on this model: instead
/// of racing a wall clock (whose outcome depends on the machine, the load
/// and the thread count), a time budget is divided by the model's predicted
/// per-item cost to obtain a deterministic work quota — same seed + same
/// budget ⇒ same plan, on any machine at any worker count. The model is the
/// *virtual clock rate*; calibrating it (see [`CostModel::fit`]) changes how
/// much work a budget buys, never which plan a given quota produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-item overhead, in seconds.
    pub base_s: f64,
    /// Marginal cost per problem unit (stage item, ILP group, ...), seconds.
    pub per_unit_s: f64,
}

impl CostModel {
    /// A model with the given fixed and marginal costs.
    pub const fn new(base_s: f64, per_unit_s: f64) -> Self {
        Self { base_s, per_unit_s }
    }

    /// Reference cost of one segment-ordering evaluation (one dual-queue
    /// interleave pass) per stage-graph item, measured on the paper's
    /// reference CPU. Deliberately on the slow side: over-estimating the
    /// per-evaluation cost shrinks the quota a budget buys, so a virtual
    /// budget never runs far past its wall-clock namesake on the reference
    /// machine.
    pub const REFERENCE_EVALUATION: Self = Self::new(60e-6, 1.5e-6);

    /// Reference cost of one branch-and-bound node of the per-rank memory
    /// ILP, per constraint group.
    pub const REFERENCE_ILP_NODE: Self = Self::new(0.3e-6, 6e-9);

    /// Predicted cost, in seconds, of one work item of `units` units.
    pub fn seconds(&self, units: u64) -> f64 {
        self.base_s + units as f64 * self.per_unit_s
    }

    /// The deterministic work quota a time budget buys: how many items of
    /// `units` units fit into `budget` under this model. Returns `0` for a
    /// zero budget and `u64::MAX` for a degenerate (free) model, so a
    /// caller can combine the quota with an explicit cap via `min`.
    pub fn quota(&self, budget: Duration, units: u64) -> u64 {
        let per_item = self.seconds(units);
        if per_item <= 0.0 {
            return u64::MAX;
        }
        let quota = budget.as_secs_f64() / per_item;
        if quota >= u64::MAX as f64 {
            u64::MAX
        } else {
            quota as u64
        }
    }

    /// Least-squares fit of a cost model from measured `(units, seconds)`
    /// samples — the calibration hook: measure a handful of representative
    /// work items offline, fit, and hand the result to the planner as its
    /// virtual clock rate. Negative fitted coefficients (possible under
    /// measurement noise) are clamped to zero; returns `None` when the
    /// samples are empty or degenerate (non-positive total cost).
    pub fn fit(samples: &[CostSample]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean_x = samples.iter().map(|s| s.units as f64).sum::<f64>() / n;
        let mean_y = samples.iter().map(|s| s.seconds).sum::<f64>() / n;
        let var: f64 = samples
            .iter()
            .map(|s| (s.units as f64 - mean_x).powi(2))
            .sum();
        let cov: f64 = samples
            .iter()
            .map(|s| (s.units as f64 - mean_x) * (s.seconds - mean_y))
            .sum();
        let per_unit_s = if var > 0.0 { (cov / var).max(0.0) } else { 0.0 };
        let base_s = (mean_y - per_unit_s * mean_x).max(0.0);
        let model = Self { base_s, per_unit_s };
        if model.seconds(1) > 0.0 {
            Some(model)
        } else {
            None
        }
    }
}

impl CostModel {
    /// Least-squares fit **through the origin** (`base_s = 0`): the
    /// per-unit rate is `Σ(units·seconds) / Σ(units²)`. Unlike
    /// [`CostModel::fit`], this stays identifiable when every sample
    /// shares one problem size (the common case: timing evaluations of a
    /// single stage graph) and extrapolates proportionally to other
    /// sizes — at the price of folding any fixed overhead into the rate.
    /// Returns `None` on empty or non-positive measurements.
    pub fn fit_through_origin(samples: &[CostSample]) -> Option<Self> {
        let weighted: f64 = samples.iter().map(|s| s.units as f64 * s.seconds).sum();
        let squares: f64 = samples.iter().map(|s| (s.units as f64).powi(2)).sum();
        if squares <= 0.0 || weighted <= 0.0 {
            return None;
        }
        Some(Self {
            base_s: 0.0,
            per_unit_s: weighted / squares,
        })
    }
}

/// One calibration measurement for [`CostModel::fit`]: a work item of
/// `units` units took `seconds` of wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSample {
    /// Problem size of the measured work item.
    pub units: u64,
    /// Measured wall-clock cost, in seconds.
    pub seconds: f64,
}

/// One calibration observation: the simulator's predicted latency for some
/// configuration versus the latency actually measured on hardware (here: the
/// fine-grained reference simulator standing in for real GPU runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Latency predicted with the *uncalibrated* model, in seconds.
    pub predicted_s: f64,
    /// Ground-truth latency, in seconds.
    pub measured_s: f64,
}

impl CalibrationSample {
    /// Relative error of the prediction against the measurement.
    pub fn relative_error(&self) -> f64 {
        if self.measured_s <= 0.0 {
            return 0.0;
        }
        (self.predicted_s - self.measured_s).abs() / self.measured_s
    }
}

/// Mean relative accuracy (1 − mean relative error) over a set of samples.
pub fn mean_accuracy(samples: &[CalibrationSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mean_err: f64 = samples
        .iter()
        .map(CalibrationSample::relative_error)
        .sum::<f64>()
        / samples.len() as f64;
    (1.0 - mean_err).max(0.0)
}

/// Calibrates an efficiency model against reference measurements.
///
/// The dominant error source in the analytical model is the compute
/// efficiency factor (GEMM throughput): latency scales inversely with it, so
/// the least-squares fit in log space is the geometric mean of
/// `measured / predicted` ratios applied as a correction. The same ratio is
/// applied to the network efficiency, mirroring the paper's "align efficiency
/// scaling factors for matrix multiplications and collective communication"
/// procedure.
pub fn calibrate(model: &EfficiencyModel, samples: &[CalibrationSample]) -> EfficiencyModel {
    if samples.is_empty() {
        return *model;
    }
    let mut log_ratio_sum = 0.0;
    let mut count = 0usize;
    for s in samples {
        if s.measured_s > 0.0 && s.predicted_s > 0.0 {
            log_ratio_sum += (s.measured_s / s.predicted_s).ln();
            count += 1;
        }
    }
    if count == 0 {
        return *model;
    }
    let ratio = (log_ratio_sum / count as f64).exp();
    // measured = predicted * ratio  =>  effective throughput must shrink by
    // `ratio`, i.e. the efficiency factor is divided by it.
    let clamp = |x: f64| x.clamp(0.05, 1.0);
    EfficiencyModel {
        compute_efficiency: clamp(model.compute_efficiency / ratio),
        network_efficiency: clamp(model.network_efficiency / ratio),
        ..*model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_corrects_a_systematic_bias() {
        let raw = EfficiencyModel::uncalibrated();
        // The reference runs are uniformly 10% slower than predicted.
        let samples: Vec<CalibrationSample> = (1..=10)
            .map(|i| CalibrationSample {
                predicted_s: i as f64,
                measured_s: i as f64 * 1.10,
            })
            .collect();
        let calibrated = calibrate(&raw, &samples);
        assert!(calibrated.compute_efficiency < raw.compute_efficiency);
        let expected = raw.compute_efficiency / 1.10;
        assert!((calibrated.compute_efficiency - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_or_degenerate_samples_leave_the_model_unchanged() {
        let raw = EfficiencyModel::default();
        assert_eq!(calibrate(&raw, &[]), raw);
        let degenerate = [CalibrationSample {
            predicted_s: 0.0,
            measured_s: 0.0,
        }];
        assert_eq!(calibrate(&raw, &degenerate), raw);
    }

    #[test]
    fn accuracy_improves_after_calibration() {
        let raw = EfficiencyModel::uncalibrated();
        let truth_factor = 1.12; // reference is 12% slower than raw prediction
        let raw_samples: Vec<CalibrationSample> = (1..=20)
            .map(|i| CalibrationSample {
                predicted_s: i as f64 * 0.1,
                measured_s: i as f64 * 0.1 * truth_factor,
            })
            .collect();
        let before = mean_accuracy(&raw_samples);

        let calibrated = calibrate(&raw, &raw_samples);
        // Recompute predictions with the calibrated model: latency scales
        // with 1/compute_efficiency.
        let scale = raw.compute_efficiency / calibrated.compute_efficiency;
        let after_samples: Vec<CalibrationSample> = raw_samples
            .iter()
            .map(|s| CalibrationSample {
                predicted_s: s.predicted_s * scale,
                measured_s: s.measured_s,
            })
            .collect();
        let after = mean_accuracy(&after_samples);
        assert!(after > before);
        assert!(after > 0.97, "accuracy {after}");
    }

    #[test]
    fn cost_model_quota_is_deterministic_and_monotone() {
        let model = CostModel::new(50e-6, 1e-6);
        // 100-item evaluations cost 150 µs each; 300 ms buys exactly 2000.
        assert_eq!(model.quota(Duration::from_millis(300), 100), 2000);
        // A zero budget buys nothing; a bigger budget never buys less.
        assert_eq!(model.quota(Duration::ZERO, 100), 0);
        assert!(
            model.quota(Duration::from_millis(600), 100)
                >= model.quota(Duration::from_millis(300), 100)
        );
        // Larger problems get smaller quotas from the same budget.
        assert!(
            model.quota(Duration::from_millis(300), 1000)
                < model.quota(Duration::from_millis(300), 100)
        );
        // A degenerate free model yields an unbounded quota (callers `min`
        // it with their explicit caps).
        assert_eq!(
            CostModel::new(0.0, 0.0).quota(Duration::from_millis(1), 10),
            u64::MAX
        );
    }

    #[test]
    fn cost_model_fit_recovers_a_linear_law() {
        let truth = CostModel::new(40e-6, 2e-6);
        let samples: Vec<CostSample> = [10u64, 50, 100, 200, 400]
            .iter()
            .map(|&units| CostSample {
                units,
                seconds: truth.seconds(units),
            })
            .collect();
        let fitted = CostModel::fit(&samples).expect("fit succeeds");
        assert!((fitted.base_s - truth.base_s).abs() < 1e-9);
        assert!((fitted.per_unit_s - truth.per_unit_s).abs() < 1e-12);
        // Degenerate inputs: no samples, or all-zero measurements.
        assert_eq!(CostModel::fit(&[]), None);
        assert_eq!(
            CostModel::fit(&[CostSample {
                units: 10,
                seconds: 0.0
            }]),
            None
        );
        // A single sample fits a constant model.
        let one = CostModel::fit(&[CostSample {
            units: 64,
            seconds: 1e-3,
        }])
        .unwrap();
        assert_eq!(one.per_unit_s, 0.0);
        assert!((one.base_s - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn fit_through_origin_is_identifiable_at_a_single_size() {
        // Every sample at one problem size: the plain fit collapses to a
        // constant (slope unidentifiable), but the through-origin fit
        // recovers a rate that extrapolates to other sizes.
        let samples: Vec<CostSample> = (0..5)
            .map(|_| CostSample {
                units: 200,
                seconds: 400e-6,
            })
            .collect();
        let plain = CostModel::fit(&samples).unwrap();
        assert_eq!(plain.per_unit_s, 0.0, "slope unidentifiable");
        let origin = CostModel::fit_through_origin(&samples).unwrap();
        assert_eq!(origin.base_s, 0.0);
        assert!((origin.per_unit_s - 2e-6).abs() < 1e-12);
        // 10× the graph ⇒ 10× the predicted cost ⇒ a tenth of the quota.
        assert!(
            (origin.seconds(2000) - 10.0 * origin.seconds(200)).abs() < 1e-12,
            "through-origin extrapolates proportionally"
        );
        assert_eq!(CostModel::fit_through_origin(&[]), None);
        assert_eq!(
            CostModel::fit_through_origin(&[CostSample {
                units: 10,
                seconds: 0.0
            }]),
            None
        );
    }

    #[test]
    fn relative_error_handles_zero_measurement() {
        let s = CalibrationSample {
            predicted_s: 1.0,
            measured_s: 0.0,
        };
        assert_eq!(s.relative_error(), 0.0);
    }
}

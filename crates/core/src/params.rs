//! Derivation and validation of the algorithm's parameters.
//!
//! The relaxed greedy algorithm is controlled by a family of constants the
//! paper's proofs constrain:
//!
//! * the stretch target `t = 1 + ε > 1`,
//! * an intermediate stretch `t1` with `1 < t1 < t` (used by the
//!   mutually-redundant-edge test, Section 2.2.5),
//! * the cluster-radius fraction `δ` with `0 < δ ≤ (t − t1)/4` (Theorem
//!   10) and `δ < (t − 1)/(6 + 2t)` (Theorem 13); we additionally require
//!   `δ < (t1 − 1)/(6 + 2 t1)` so that `t_δ = t1(1−2δ)/(1+6δ) > 1`, which
//!   Theorem 13 needs for a feasible `r` to exist,
//! * the bin-growth factor `r` with `1 < r < (t_δ + 1)/2` (Theorem 13);
//!   bins are `W_i = r^i · α/n`,
//! * the cone half-angle `θ` with `0 < θ < π/4` and
//!   `t ≥ 1/(cos θ − sin θ)` (the Czumaj–Zhao condition, Lemma 3).
//!
//! [`SpannerParams::for_epsilon`] derives a valid assignment from `ε`
//! alone; [`SpannerParams::validate`] re-checks every constraint so
//! hand-tuned parameter sets are caught early.

use serde::Serialize;
use std::fmt;

/// Error returned when a parameter set violates one of the proofs'
/// preconditions.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// `t` must exceed 1.
    StretchTooSmall {
        /// The offending value of `t`.
        t: f64,
    },
    /// `t1` must satisfy `1 < t1 < t`.
    IntermediateStretchOutOfRange {
        /// The offending value of `t1`.
        t1: f64,
        /// The stretch target `t`.
        t: f64,
    },
    /// `δ` violates one of its upper bounds.
    DeltaOutOfRange {
        /// The offending value of `δ`.
        delta: f64,
        /// The binding upper bound.
        bound: f64,
    },
    /// `r` must satisfy `1 < r < (t_δ + 1)/2`.
    BinGrowthOutOfRange {
        /// The offending value of `r`.
        r: f64,
        /// The upper bound `(t_δ + 1)/2`.
        bound: f64,
    },
    /// `θ` must satisfy `0 < θ < π/4` and `cos θ − sin θ ≥ 1/t`.
    ThetaOutOfRange {
        /// The offending value of `θ`.
        theta: f64,
    },
    /// `α` must lie in `(0, 1]`.
    AlphaOutOfRange {
        /// The offending value of `α`.
        alpha: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::StretchTooSmall { t } => {
                write!(f, "stretch target t = {t} must be greater than 1")
            }
            ParamError::IntermediateStretchOutOfRange { t1, t } => {
                write!(
                    f,
                    "intermediate stretch t1 = {t1} must lie strictly between 1 and t = {t}"
                )
            }
            ParamError::DeltaOutOfRange { delta, bound } => {
                write!(
                    f,
                    "cluster radius fraction delta = {delta} must lie in (0, {bound})"
                )
            }
            ParamError::BinGrowthOutOfRange { r, bound } => {
                write!(f, "bin growth factor r = {r} must lie in (1, {bound})")
            }
            ParamError::ThetaOutOfRange { theta } => {
                write!(
                    f,
                    "cone angle theta = {theta} must lie in (0, pi/4) and satisfy cos(theta) - sin(theta) >= 1/t"
                )
            }
            ParamError::AlphaOutOfRange { alpha } => {
                write!(f, "alpha = {alpha} must lie in (0, 1]")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// A complete, validated parameter assignment for the relaxed greedy
/// algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpannerParams {
    /// Stretch target `t = 1 + ε`.
    pub t: f64,
    /// Intermediate stretch `t1 ∈ (1, t)` used by redundant-edge removal.
    pub t1: f64,
    /// Cluster-radius fraction `δ` (cluster covers have radius `δ·W_{i-1}`).
    pub delta: f64,
    /// Bin growth factor `r` (bins are `W_i = r^i·α/n`).
    pub r: f64,
    /// Cone half-angle `θ` of the covered-edge test.
    pub theta: f64,
    /// The α of the α-UBG being processed.
    pub alpha: f64,
}

impl SpannerParams {
    /// Derives a valid parameter set for stretch `t = 1 + ε` on an α-UBG.
    ///
    /// The derivation follows the constraints listed in the module
    /// documentation, placing each constant at a conservative fraction of
    /// its allowed range:
    /// `t1 = 1 + ε/2`,
    /// `δ = 0.9·min{(t−1)/(6+2t), (t−t1)/4, (t1−1)/(6+2t1)}`,
    /// `r` at the midpoint of `(1, (t_δ+1)/2)`, and
    /// `θ = 0.95·θ_max` where `θ_max` solves `cos θ − sin θ = 1/t`.
    ///
    /// # Errors
    ///
    /// Returns an error if `epsilon ≤ 0` or `alpha ∉ (0, 1]`.
    pub fn for_epsilon(epsilon: f64, alpha: f64) -> Result<Self, ParamError> {
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(ParamError::StretchTooSmall { t: 1.0 + epsilon });
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ParamError::AlphaOutOfRange { alpha });
        }
        let t = 1.0 + epsilon;
        let t1 = 1.0 + epsilon / 2.0;
        let delta_bound = Self::delta_bound(t, t1);
        let delta = 0.9 * delta_bound;
        let t_delta = t1 * (1.0 - 2.0 * delta) / (1.0 + 6.0 * delta);
        let r_bound = (t_delta + 1.0) / 2.0;
        let r = (1.0 + r_bound) / 2.0;
        let theta = 0.95 * Self::theta_max(t);
        let params = Self {
            t,
            t1,
            delta,
            r,
            theta,
            alpha,
        };
        params.validate()?;
        Ok(params)
    }

    /// The joint upper bound on `δ` implied by Theorems 10 and 13 plus the
    /// feasibility of `r`.
    pub fn delta_bound(t: f64, t1: f64) -> f64 {
        let b1 = (t - 1.0) / (6.0 + 2.0 * t);
        let b2 = (t - t1) / 4.0;
        let b3 = (t1 - 1.0) / (6.0 + 2.0 * t1);
        b1.min(b2).min(b3)
    }

    /// The largest cone angle `θ < π/4` with `cos θ − sin θ ≥ 1/t`,
    /// i.e. `θ_max = acos(1/(t·√2)) − π/4`.
    pub fn theta_max(t: f64) -> f64 {
        let x = (1.0 / (t * std::f64::consts::SQRT_2)).clamp(-1.0, 1.0);
        (x.acos() - std::f64::consts::FRAC_PI_4).max(0.0)
    }

    /// `t_δ = t1·(1 − 2δ)/(1 + 6δ)`, the effective stretch after the
    /// cluster-graph approximation (Lemma 7).
    pub fn t_delta(&self) -> f64 {
        self.t1 * (1.0 - 2.0 * self.delta) / (1.0 + 6.0 * self.delta)
    }

    /// The stretch target as `ε = t − 1`.
    pub fn epsilon(&self) -> f64 {
        self.t - 1.0
    }

    /// Overrides the bin growth factor `r`. Values above the proof bound
    /// `(t_δ+1)/2` make the weight guarantee of Theorem 13 inapplicable
    /// but speed the construction up considerably (fewer, coarser bins);
    /// the ablation experiment quantifies the effect.
    ///
    /// # Panics
    ///
    /// Panics if `r ≤ 1`.
    pub fn with_bin_growth(mut self, r: f64) -> Self {
        assert!(r > 1.0, "the bin growth factor must exceed 1");
        self.r = r;
        self
    }

    /// Checks every constraint the proofs impose. `with_bin_growth`
    /// overrides are permitted (the bound on `r` is only checked upward
    /// against 1), everything else is strict.
    // The negated comparisons are deliberate: a NaN parameter must fail
    // validation, and `!(x > bound)` rejects NaN where `x <= bound` would not.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(self.t > 1.0) {
            return Err(ParamError::StretchTooSmall { t: self.t });
        }
        if !(self.t1 > 1.0 && self.t1 < self.t) {
            return Err(ParamError::IntermediateStretchOutOfRange {
                t1: self.t1,
                t: self.t,
            });
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(ParamError::AlphaOutOfRange { alpha: self.alpha });
        }
        let bound = Self::delta_bound(self.t, self.t1);
        if !(self.delta > 0.0 && self.delta <= bound) {
            return Err(ParamError::DeltaOutOfRange {
                delta: self.delta,
                bound,
            });
        }
        if !(self.r > 1.0) {
            let r_bound = (self.t_delta() + 1.0) / 2.0;
            return Err(ParamError::BinGrowthOutOfRange {
                r: self.r,
                bound: r_bound,
            });
        }
        let cos_minus_sin = self.theta.cos() - self.theta.sin();
        if !(self.theta > 0.0
            && self.theta < std::f64::consts::FRAC_PI_4
            && cos_minus_sin * self.t >= 1.0 - 1e-12)
        {
            return Err(ParamError::ThetaOutOfRange { theta: self.theta });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn derived_parameters_satisfy_all_constraints() {
        for &eps in &[0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0] {
            for &alpha in &[0.3, 0.5, 0.75, 1.0] {
                let p = SpannerParams::for_epsilon(eps, alpha).unwrap();
                assert!(p.validate().is_ok(), "eps={eps} alpha={alpha}");
                assert!(p.t_delta() > 1.0, "eps={eps} alpha={alpha}");
                assert!(p.r > 1.0 && p.r < (p.t_delta() + 1.0) / 2.0);
                assert!(p.theta > 0.0 && p.theta < std::f64::consts::FRAC_PI_4);
                assert!((p.theta.cos() - p.theta.sin()) * p.t >= 1.0 - 1e-9);
                assert!((p.epsilon() - eps).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(matches!(
            SpannerParams::for_epsilon(0.0, 0.5),
            Err(ParamError::StretchTooSmall { .. })
        ));
        assert!(matches!(
            SpannerParams::for_epsilon(-1.0, 0.5),
            Err(ParamError::StretchTooSmall { .. })
        ));
        assert!(matches!(
            SpannerParams::for_epsilon(0.5, 0.0),
            Err(ParamError::AlphaOutOfRange { .. })
        ));
        assert!(matches!(
            SpannerParams::for_epsilon(0.5, 1.5),
            Err(ParamError::AlphaOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_catches_corrupted_fields() {
        let good = SpannerParams::for_epsilon(0.5, 0.75).unwrap();
        let mut bad = good;
        bad.t1 = good.t + 1.0;
        assert!(matches!(
            bad.validate(),
            Err(ParamError::IntermediateStretchOutOfRange { .. })
        ));
        let mut bad = good;
        bad.delta = 0.5;
        assert!(matches!(
            bad.validate(),
            Err(ParamError::DeltaOutOfRange { .. })
        ));
        let mut bad = good;
        bad.r = 0.5;
        assert!(matches!(
            bad.validate(),
            Err(ParamError::BinGrowthOutOfRange { .. })
        ));
        let mut bad = good;
        bad.theta = 1.0;
        assert!(matches!(
            bad.validate(),
            Err(ParamError::ThetaOutOfRange { .. })
        ));
        let mut bad = good;
        bad.alpha = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ParamError::AlphaOutOfRange { .. })
        ));
    }

    #[test]
    fn theta_max_is_monotone_in_t() {
        let a = SpannerParams::theta_max(1.1);
        let b = SpannerParams::theta_max(1.5);
        let c = SpannerParams::theta_max(3.0);
        assert!(a < b && b < c);
        assert!(c < std::f64::consts::FRAC_PI_4);
        assert!(SpannerParams::theta_max(1.0).abs() < 1e-9);
    }

    #[test]
    fn with_bin_growth_allows_practical_overrides() {
        let p = SpannerParams::for_epsilon(0.5, 0.75)
            .unwrap()
            .with_bin_growth(2.0);
        assert_eq!(p.r, 2.0);
        assert!(p.validate().is_ok());
        // The override leaves Theorem 13's bound `r < (t_δ+1)/2`.
        assert!(p.r >= (p.t_delta() + 1.0) / 2.0);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn bin_growth_override_must_exceed_one() {
        let _ = SpannerParams::for_epsilon(0.5, 0.75)
            .unwrap()
            .with_bin_growth(1.0);
    }

    #[test]
    fn error_messages_are_informative() {
        let msgs = [
            ParamError::StretchTooSmall { t: 1.0 }.to_string(),
            ParamError::IntermediateStretchOutOfRange { t1: 3.0, t: 2.0 }.to_string(),
            ParamError::DeltaOutOfRange {
                delta: 0.5,
                bound: 0.1,
            }
            .to_string(),
            ParamError::BinGrowthOutOfRange { r: 0.9, bound: 1.1 }.to_string(),
            ParamError::ThetaOutOfRange { theta: 1.0 }.to_string(),
            ParamError::AlphaOutOfRange { alpha: 2.0 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    proptest! {
        #[test]
        fn derivation_is_valid_for_random_inputs(eps in 0.01f64..4.0, alpha in 0.05f64..1.0) {
            let p = SpannerParams::for_epsilon(eps, alpha).unwrap();
            prop_assert!(p.validate().is_ok());
            prop_assert!(p.t_delta() > 1.0);
            prop_assert!(p.r < (p.t_delta() + 1.0) / 2.0);
        }
    }
}

//! CohortNet hyper-parameters.

use cohortnet_ehr::record::EhrDataset;
use cohortnet_ehr::standardize::Standardizer;

/// All hyper-parameters of the CohortNet pipeline.
///
/// Defaults follow the paper where stated (k = 7 and n = 2 maximise AUC-PR
/// in Fig. 7; Adam at 1e-3) and use CPU-friendly widths elsewhere.
#[derive(Debug, Clone)]
pub struct CohortNetConfig {
    /// Feature-embedding width `d_e` (BiEL output, Eq. 1).
    pub d_embed: usize,
    /// Feature-trend width `d_t` (lGRU hidden, Eq. 3).
    pub d_trend: usize,
    /// Fused feature representation width `d_o` (Eq. 4) — deliberately small
    /// ("reduced dimensionality, facilitating computations for the following
    /// cohort discovery").
    pub d_fused: usize,
    /// Channel representation width `d_h` (gGRU hidden, Eq. 5).
    pub d_hidden: usize,
    /// Per-feature compressed width inside FeaAgg (Eq. 6).
    pub d_agg: usize,
    /// Cohort-attention key/query width (Eq. 11).
    pub d_att: usize,
    /// Cohort-attention value width (Eq. 13).
    pub d_value: usize,
    /// Number of feature states `k` (Eq. 7). State 0 is reserved for
    /// missingness, so `k` clusters are learned for observed values.
    pub k_states: usize,
    /// Number of interacting features `n` in the pattern mask (Eq. 8);
    /// each pattern involves `n + 1` features.
    pub n_top: usize,
    /// Minimum (patient, time-step) occurrences for a pattern to become a
    /// cohort — the sample-frequency filter of §3.5.
    pub min_frequency: usize,
    /// Minimum distinct patients backing a cohort.
    pub min_patients: usize,
    /// Cap on cohorts kept per feature (most frequent first), bounding CEM
    /// attention cost.
    pub max_cohorts_per_feature: usize,
    /// Max `(patient, time)` vectors sampled per feature when fitting the
    /// state clustering (Appendix C.2 samples time steps the same way).
    pub state_fit_samples: usize,
    /// Number of output labels (1 for mortality).
    pub n_labels: usize,
    /// Per-feature standardised BiEL bounds `(a, b)`.
    pub bounds: Vec<(f32, f32)>,
    /// Epochs for Step 1 (representation pre-training, also the `w/o c`
    /// ablation's full budget).
    pub epochs_pretrain: usize,
    /// Epochs for Step 4 (joint training with cohort exploitation).
    pub epochs_exploit: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Training seed.
    pub seed: u64,
    /// Print progress to stderr.
    pub verbose: bool,
    /// Enable the Feature Interaction Learning mechanism (Eq. 2). Disabled
    /// only by the MFLM ablation bench; interactions then contribute a zero
    /// vector and attention is uniform.
    pub use_interactions: bool,
    /// Enable the Feature Trend Learning mechanism (Eq. 3). Disabled only by
    /// the MFLM ablation bench; trends then contribute a zero vector.
    pub use_trends: bool,
    /// Adaptive per-feature state counts (the paper's §Discussions: "the
    /// selection of k can be improved by considering feature characteristics
    /// such as missing rates and value ranges"). When enabled, features with
    /// more observed mass get up to `k_states` states while sparse features
    /// get fewer; `k_states` becomes the ceiling.
    pub adaptive_k: bool,
    /// Attention-threshold mask selection (§Discussions: "employing
    /// thresholds on α shows promise for automatically selecting n"). When
    /// set, a feature's mask includes every partner whose mean attention
    /// exceeds `threshold × uniform`, capped at `n_top` partners; `None`
    /// keeps the paper's fixed top-N rule.
    pub mask_threshold: Option<f32>,
    /// Worker threads for the discovery pipeline (state fitting, inference
    /// passes, pattern mining, K-Means assignment) AND for training (Steps 1
    /// and 4 shard each minibatch across threads). `0` selects the machine's
    /// available parallelism; `1` reproduces fully sequential execution.
    /// Results — including the training loss trajectory — are bit-identical
    /// for every value; see `cohortnet-parallel` and the trainer docs.
    pub n_threads: usize,
}

impl CohortNetConfig {
    /// Builds a config for a standardised dataset: BiEL bounds are the
    /// catalog's plausible bounds mapped through the fitted standardiser and
    /// clamped to ±4σ of the observed data — catalog extremes (e.g. PCO₂ up
    /// to 130 mmHg) would otherwise compress the observed range into a tiny
    /// slice of the embedding's interpolation interval and starve the
    /// feature-state clustering of value resolution.
    pub fn for_dataset(ds: &EhrDataset, scaler: &Standardizer) -> Self {
        let bounds = (0..ds.n_features())
            .map(|f| {
                let def = ds.feature_def(f);
                let a = ((def.bound_lo - scaler.mean[f]) / scaler.std[f]).max(-4.0);
                let b = ((def.bound_hi - scaler.mean[f]) / scaler.std[f]).min(4.0);
                (a, b.max(a + 1e-3))
            })
            .collect();
        CohortNetConfig {
            n_labels: ds.task.n_labels(),
            bounds,
            ..Self::default_dims()
        }
    }

    /// Default dimensions with placeholder bounds (tests on raw matrices).
    pub fn default_dims() -> Self {
        CohortNetConfig {
            d_embed: 8,
            d_trend: 8,
            d_fused: 6,
            d_hidden: 16,
            d_agg: 8,
            d_att: 16,
            d_value: 8,
            k_states: 7,
            n_top: 2,
            min_frequency: 24,
            min_patients: 8,
            max_cohorts_per_feature: 64,
            state_fit_samples: 20_000,
            n_labels: 1,
            bounds: Vec::new(),
            epochs_pretrain: 6,
            epochs_exploit: 4,
            batch_size: 64,
            lr: 1e-3,
            seed: 7,
            verbose: false,
            use_interactions: true,
            use_trends: true,
            adaptive_k: false,
            mask_threshold: None,
            n_threads: 0,
        }
    }

    /// Validates the invariants the pattern-key encoding depends on.
    ///
    /// [`pattern_key`](crate::cdm::pattern_key) packs one state per involved
    /// feature into 4 bits of a `u64` and one mask bit per feature into a
    /// 16-slot nibble layout, so `k_states` must leave state ids below 16
    /// (state 0 is the missingness state, learned states are `1..=k_states`)
    /// and a pattern may involve at most 16 features (`n_top + 1`). In
    /// release builds these used to be guarded only by `debug_assert!` —
    /// silently aliasing distinct patterns onto one key; now any violating
    /// config is rejected loudly before discovery starts.
    ///
    /// # Errors
    /// Returns a human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.k_states == 0 {
            return Err("k_states must be at least 1".into());
        }
        if self.k_states > 15 {
            return Err(format!(
                "k_states = {} but the 4-bit pattern-key encoding supports at most 15 \
                 learned states per feature (state ids 1..=15; 0 is missingness)",
                self.k_states
            ));
        }
        if self.n_top + 1 > 16 {
            return Err(format!(
                "n_top = {} implies patterns over {} features, but the pattern-key \
                 encoding packs at most 16 features into a u64",
                self.n_top,
                self.n_top + 1
            ));
        }
        // BiEL (Eq. 1) clamps every value into its feature's bounds:
        // `f32::clamp` panics on `lo > hi` or a NaN bound, and an infinite
        // bound turns the interpolation weights into NaN.
        for (f, &(lo, hi)) in self.bounds.iter().enumerate() {
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(format!(
                    "bounds[{f}] = ({lo}, {hi}): feature bounds must be finite with lo <= hi"
                ));
            }
        }
        Ok(())
    }

    /// Number of features implied by the bounds table.
    pub fn n_features(&self) -> usize {
        self.bounds.len()
    }

    /// Width of a cohort representation: mean channel representation plus
    /// the label-distribution block (per-label positive rates, log-frequency,
    /// patient share — the "task-relevant and task-irrelevant labels" of
    /// Eq. 9).
    pub fn cohort_repr_dim(&self) -> usize {
        self.d_hidden + self.n_labels + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohortnet_ehr::{profiles, synth::generate};

    #[test]
    fn paper_defaults() {
        let c = CohortNetConfig::default_dims();
        assert_eq!(c.k_states, 7);
        assert_eq!(c.n_top, 2);
        assert!((c.lr - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn bounds_standardised() {
        let mut cfg = profiles::mimic3_like(0.05);
        cfg.n_patients = 60;
        cfg.time_steps = 4;
        let mut ds = generate(&cfg);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        let c = CohortNetConfig::for_dataset(&ds, &scaler);
        assert_eq!(c.n_features(), 20);
        assert_eq!(c.n_labels, 1);
        for &(a, b) in &c.bounds {
            assert!(a < b, "bounds must be ordered");
        }
    }

    #[test]
    fn cohort_repr_dim_includes_labels() {
        let mut c = CohortNetConfig::default_dims();
        c.n_labels = 25;
        assert_eq!(c.cohort_repr_dim(), 16 + 25 + 2);
    }

    #[test]
    fn validate_rejects_pattern_key_overflow() {
        let mut c = CohortNetConfig::default_dims();
        assert!(c.validate().is_ok(), "paper defaults must validate");

        c.k_states = 15;
        assert!(
            c.validate().is_ok(),
            "k_states = 15 is the encoding's ceiling"
        );
        c.k_states = 16;
        let err = c.validate().unwrap_err();
        assert!(err.contains("k_states"), "unexpected message: {err}");

        c.k_states = 7;
        c.n_top = 16;
        let err = c.validate().unwrap_err();
        assert!(err.contains("n_top"), "unexpected message: {err}");
        c.n_top = 15; // 16 involved features exactly fills the 16-slot layout
        assert!(c.validate().is_ok());

        c.n_top = 2;
        c.k_states = 0;
        assert!(c.validate().is_err(), "zero states is meaningless");
    }
}

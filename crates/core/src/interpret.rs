//! Top-down interpretability (§5.2 and Appendix A).
//!
//! Four views, mirroring the paper's case study:
//!
//! * **Feature-state interpretation** (Fig. 10): state-wise average raw
//!   values, state-transition pathways, and state coexistence;
//! * **Cohort interpretation** (Table 2): per-cohort frequency, patient
//!   count, positive rate, and the pretty-printed pattern
//!   (`RR(S3↓); HCO3(S3↑); PCO2(S7↑)`);
//! * **Personalised cohort analytics** (Fig. 9c/d): the calibration score
//!   `z = w^c·ĥ` decomposed into feature-level (Eq. 16) and cohort-level
//!   (Eq. 17) scores for one patient;
//! * **Feature-level interaction interpretation** (Fig. 9e): the FIL
//!   attention `α` over time for one patient.

use crate::cdm::state_at;
use crate::model::CohortNetModel;
use cohortnet_ehr::features::FeatureDef;
use cohortnet_ehr::record::EhrDataset;
use cohortnet_ehr::standardize::Standardizer;
use cohortnet_models::data::{make_batch, Prepared};
use cohortnet_tensor::exec::{Eval, Weights};
use cohortnet_tensor::{Matrix, ParamStore, Tape};

/// The state grid of every patient in a dataset.
#[derive(Debug, Clone)]
pub struct StateTensor {
    /// `data[p * T * F + t * F + f]` — the state of feature `f` for patient
    /// `p` at time `t`.
    pub data: Vec<u8>,
    /// Number of patients.
    pub n_patients: usize,
    /// Time steps.
    pub t_steps: usize,
    /// Features.
    pub n_features: usize,
    /// Total states including the missing state.
    pub n_states: usize,
}

impl StateTensor {
    /// State of `(patient, time, feature)`.
    pub fn state(&self, p: usize, t: usize, f: usize) -> u8 {
        state_at(&self.data, self.t_steps, self.n_features, p, t, f)
    }

    /// Transition counts of feature `f`: `out[a][b]` = number of `t -> t+1`
    /// moves from state `a` to state `b` across all patients (Fig. 10b).
    pub fn transitions(&self, f: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![0usize; self.n_states]; self.n_states];
        for p in 0..self.n_patients {
            for t in 0..self.t_steps.saturating_sub(1) {
                let a = self.state(p, t, f) as usize;
                let b = self.state(p, t + 1, f) as usize;
                out[a][b] += 1;
            }
        }
        out
    }

    /// Coexistence counts of features `f` and `g`: `out[a][b]` = number of
    /// `(p, t)` where `f` is in state `a` while `g` is in state `b`
    /// (Fig. 10c).
    pub fn coexistence(&self, f: usize, g: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![0usize; self.n_states]; self.n_states];
        for p in 0..self.n_patients {
            for t in 0..self.t_steps {
                out[self.state(p, t, f) as usize][self.state(p, t, g) as usize] += 1;
            }
        }
        out
    }

    /// Occupancy counts per state of feature `f`.
    pub fn state_counts(&self, f: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_states];
        for p in 0..self.n_patients {
            for t in 0..self.t_steps {
                counts[self.state(p, t, f) as usize] += 1;
            }
        }
        counts
    }
}

/// Per-feature state summary: mean raw value and occupancy of each state.
#[derive(Debug, Clone)]
pub struct StateSummary {
    /// Mean *raw-unit* value per state (`None` for the missing state and for
    /// states never occupied) — Fig. 10a.
    pub mean_raw: Vec<Option<f32>>,
    /// Occupancy per state.
    pub counts: Vec<usize>,
}

/// Everything needed to render the interpretability figures for a dataset.
pub struct InterpretationContext {
    /// States of every `(patient, t, feature)`.
    pub states: StateTensor,
    /// Per-feature state summaries.
    pub summaries: Vec<StateSummary>,
}

/// Computes the state tensor of a prepared dataset under a trained model.
///
/// # Panics
/// Panics if the model has no discovery artefacts yet.
pub fn compute_states(model: &CohortNetModel, ps: &ParamStore, prep: &Prepared) -> StateTensor {
    let d = model
        .discovery
        .as_ref()
        .expect("run discovery before interpretation");
    let nf = prep.n_features;
    let t_steps = prep.time_steps;
    let n = prep.patients.len();
    let mut data = vec![0u8; n * t_steps * nf];
    let indices: Vec<usize> = (0..n).collect();
    // Values only: the non-recording executor, bit-identical to the tape.
    let weights = Weights::from_store(ps);
    for chunk in indices.chunks(64) {
        let batch = make_batch(prep, chunk);
        let trace = model.mflm.forward(
            &mut Eval,
            &weights,
            &batch.steps,
            &batch.mask,
            Some(&d.states),
            false,
        );
        let bs = trace.states.expect("state model given");
        for (r, &p) in chunk.iter().enumerate() {
            data[p * t_steps * nf..(p + 1) * t_steps * nf]
                .copy_from_slice(&bs[r * t_steps * nf..(r + 1) * t_steps * nf]);
        }
    }
    StateTensor {
        data,
        n_patients: n,
        t_steps,
        n_features: nf,
        n_states: d.states.n_states(),
    }
}

/// Builds the full interpretation context (states + raw-value summaries).
pub fn build_context(
    model: &CohortNetModel,
    ps: &ParamStore,
    prep: &Prepared,
    scaler: &Standardizer,
) -> InterpretationContext {
    let states = compute_states(model, ps, prep);
    let nf = states.n_features;
    let mut summaries = Vec::with_capacity(nf);
    for f in 0..nf {
        let mut sums = vec![0.0f64; states.n_states];
        let counts = states.state_counts(f);
        for (p, patient) in prep.patients.iter().enumerate() {
            for t in 0..states.t_steps {
                let s = states.state(p, t, f) as usize;
                sums[s] += patient.x[t * nf + f] as f64;
            }
        }
        let mean_raw = (0..states.n_states)
            .map(|s| {
                if s == 0 || counts[s] == 0 {
                    None
                } else {
                    Some(scaler.destandardize(f, (sums[s] / counts[s] as f64) as f32))
                }
            })
            .collect();
        summaries.push(StateSummary { mean_raw, counts });
    }
    InterpretationContext { states, summaries }
}

/// Direction arrow of a state relative to the feature's normal range:
/// `↑` above, `↓` below, `-` within, `?` unknown (missing state).
pub fn state_direction(def: &FeatureDef, mean_raw: Option<f32>) -> char {
    match mean_raw {
        Some(v) if v > def.normal_hi => '↑',
        Some(v) if v < def.normal_lo => '↓',
        Some(_) => '-',
        None => '?',
    }
}

/// Pretty-prints a cohort pattern in the paper's Table 2 notation, e.g.
/// `RR(S3↓); HCO3(S3↑); PCO2(S7↑)`.
pub fn pattern_string(
    pattern: &[(usize, u8)],
    ds: &EhrDataset,
    summaries: &[StateSummary],
) -> String {
    pattern
        .iter()
        .map(|&(f, s)| {
            let def = ds.feature_def(f);
            let dir = state_direction(def, summaries[f].mean_raw[s as usize]);
            format!("{}(S{}{})", def.code, s, dir)
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// One row of a Table-2-style cohort report.
#[derive(Debug, Clone)]
pub struct CohortRow {
    /// Cohort index within the feature's pool.
    pub cohort: usize,
    /// (patient, time-step) occurrences in training data ("Frequency").
    pub frequency: usize,
    /// Distinct patients ("Patients").
    pub n_patients: usize,
    /// First-label positive rate ("Pos-Rate").
    pub pos_rate: f32,
    /// Pretty-printed pattern, e.g. `RR(S3↓); HCO3(S3↑); PCO2(S7↑)`.
    pub pattern: String,
}

/// Builds the Table-2 report for every cohort anchored on `feature`,
/// ordered by first-label positive rate (highest risk first).
pub fn cohort_table(
    pool: &crate::crlm::CohortPool,
    feature: usize,
    ds: &EhrDataset,
    summaries: &[StateSummary],
) -> Vec<CohortRow> {
    let mut rows: Vec<CohortRow> = pool.per_feature[feature]
        .iter()
        .enumerate()
        .map(|(q, c)| CohortRow {
            cohort: q,
            frequency: c.frequency,
            n_patients: c.n_patients,
            pos_rate: c.pos_rate.first().copied().unwrap_or(0.0),
            pattern: pattern_string(&c.pattern, ds, summaries),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.pos_rate
            .partial_cmp(&a.pos_rate)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// One relevant cohort of a patient, with its Eq. 17 calibration score.
#[derive(Debug, Clone)]
pub struct CohortContribution {
    /// Anchor feature index.
    pub feature: usize,
    /// Cohort index within the feature's pool.
    pub cohort: usize,
    /// Attention weight `β` (Eq. 12).
    pub beta: f32,
    /// Cohort-level calibration score (Eq. 17, first label).
    pub score: f32,
    /// Time steps at which the patient matched the pattern (Eq. 10).
    pub matched_steps: Vec<usize>,
}

/// The personalised explanation of one patient (Fig. 9).
#[derive(Debug, Clone)]
pub struct PatientExplanation {
    /// Risk from the individual path alone: `σ(w^p·h̃ + b^p)` (the "47%" of
    /// the paper's Fig. 9b).
    pub base_prob: Vec<f32>,
    /// Calibrated risk (Eq. 14, the "61%").
    pub full_prob: Vec<f32>,
    /// Feature-level calibration scores (Eq. 16, first label) — Fig. 9c.
    pub feature_scores: Vec<f32>,
    /// Relevant cohorts with cohort-level scores (Eq. 17) — Fig. 9d.
    pub cohorts: Vec<CohortContribution>,
    /// FIL attention per time step (`F x F` each) — Fig. 9e.
    pub attention: Vec<Matrix>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Explains one patient of a prepared dataset.
///
/// # Panics
/// Panics if discovery has not been run.
pub fn explain_patient(
    model: &CohortNetModel,
    ps: &ParamStore,
    prep: &Prepared,
    patient: usize,
) -> PatientExplanation {
    let d = model
        .discovery
        .as_ref()
        .expect("run discovery before interpretation");
    let batch = make_batch(prep, &[patient]);
    let mut tape = Tape::new();
    let trace = model.forward_trace(&mut tape, ps, &batch, true);
    let cem_trace = trace.cem.as_ref().expect("cohorts active");
    let states = trace.states.as_ref().unwrap();

    let base_prob: Vec<f32> = tape
        .value(trace.mflm.logits)
        .row(0)
        .iter()
        .map(|&z| sigmoid(z))
        .collect();
    let full_prob: Vec<f32> = tape
        .value(trace.logits)
        .row(0)
        .iter()
        .map(|&z| sigmoid(z))
        .collect();

    // w^c slices per feature (first label column).
    let wc = ps.value(model.cem.head().weight());
    let d_v = model.cem.d_value;
    let nf = prep.n_features;
    let mut feature_scores = Vec::with_capacity(nf);
    for i in 0..nf {
        let ctx = tape.value(cem_trace.contexts[i]);
        let mut score = 0.0f32;
        for j in 0..d_v {
            score += ctx[(0, j)] * wc[(i * d_v + j, 0)];
        }
        feature_scores.push(score);
    }

    // Cohort-level decomposition (Eq. 17): score_q = β_q · (w^c_i · (W_V C_q + b_V)).
    let (_, _, wv) = model.cem.projections();
    let wv_w = ps.value(wv.weight());
    let wv_b = ps.value(wv.bias().expect("W_V is a biased projection"));
    let mut cohorts = Vec::new();
    for i in 0..nf {
        let Some(beta_var) = cem_trace.attention[i] else {
            continue;
        };
        let beta = tape.value(beta_var);
        let grid = states; // single patient
        let bits = d.pool.bitmap(i, grid, prep.time_steps, nf);
        for (q, &relevant) in bits.iter().enumerate() {
            if !relevant {
                continue;
            }
            let c_repr = &d.pool.per_feature[i][q].repr;
            // v_q = C_q W_V + b_V
            let mut v_q = vec![0.0f32; d_v];
            for (col, v) in v_q.iter_mut().enumerate() {
                let mut s = wv_b[(0, col)];
                for (row, &c) in c_repr.iter().enumerate() {
                    s += c * wv_w[(row, col)];
                }
                *v = s;
            }
            let mut dot = 0.0f32;
            for j in 0..d_v {
                dot += v_q[j] * wc[(i * d_v + j, 0)];
            }
            let b = beta[(0, q)];
            cohorts.push(CohortContribution {
                feature: i,
                cohort: q,
                beta: b,
                score: b * dot,
                matched_steps: d.pool.matching_steps(i, q, grid, prep.time_steps, nf),
            });
        }
    }
    cohorts.sort_by(|a, b| b.score.abs().total_cmp(&a.score.abs()));

    PatientExplanation {
        base_prob,
        full_prob,
        feature_scores,
        cohorts,
        attention: trace.mflm.attn_per_step.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CohortNetConfig;
    use crate::train::train_cohortnet;
    use cohortnet_ehr::{profiles, synth::generate};
    use cohortnet_models::data::prepare;

    fn trained() -> (
        crate::train::TrainedCohortNet,
        Prepared,
        Standardizer,
        EhrDataset,
    ) {
        let mut c = profiles::mimic3_like(0.05);
        c.n_patients = 100;
        c.time_steps = 6;
        c.healthy_rate = 0.5;
        let mut ds = generate(&c);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
        cfg.k_states = 4;
        cfg.min_frequency = 3;
        cfg.min_patients = 2;
        cfg.state_fit_samples = 2000;
        cfg.epochs_pretrain = 2;
        cfg.epochs_exploit = 1;
        cfg.batch_size = 32;
        let prep = prepare(&ds);
        (train_cohortnet(&prep, &cfg), prep, scaler, ds)
    }

    #[test]
    fn interpretation_pipeline_end_to_end() {
        let (trained, prep, scaler, ds) = trained();
        let ctx = build_context(&trained.model, &trained.params, &prep, &scaler);

        // State tensor shape and contents.
        assert_eq!(ctx.states.n_patients, 100);
        assert_eq!(ctx.states.n_states, 5);
        let rr = ds.feature_column("RR");
        let counts = ctx.states.state_counts(rr);
        assert_eq!(counts.iter().sum::<usize>(), 100 * 6);

        // Transitions conserve mass: total = patients * (T-1).
        let trans = ctx.states.transitions(rr);
        let total: usize = trans.iter().flatten().sum();
        assert_eq!(total, 100 * 5);

        // Coexistence conserves mass.
        let pco2 = ds.feature_column("PCO2");
        let co = ctx.states.coexistence(rr, pco2);
        assert_eq!(co.iter().flatten().sum::<usize>(), 100 * 6);

        // Raw state means are in physiologic bounds for occupied states.
        let def = ds.feature_def(rr);
        for m in ctx.summaries[rr].mean_raw.iter().flatten() {
            assert!(*m >= def.bound_lo - 10.0 && *m <= def.bound_hi + 10.0);
        }

        // Pattern strings render.
        let pool = &trained.model.discovery.as_ref().unwrap().pool;
        if let Some(c) = pool.per_feature.iter().flatten().next() {
            let s = pattern_string(&c.pattern, &ds, &ctx.summaries);
            assert!(s.contains("(S"), "pattern string: {s}");
        }
    }

    #[test]
    fn explanation_is_consistent() {
        let (trained, prep, _, _) = trained();
        let exp = explain_patient(&trained.model, &trained.params, &prep, 0);
        assert_eq!(exp.base_prob.len(), 1);
        assert!(exp.base_prob[0] > 0.0 && exp.base_prob[0] < 1.0);
        assert!(exp.full_prob[0] > 0.0 && exp.full_prob[0] < 1.0);
        assert_eq!(exp.feature_scores.len(), prep.n_features);
        assert_eq!(exp.attention.len(), prep.time_steps);
        // Every contribution's matched steps are real matches.
        for c in &exp.cohorts {
            assert!(
                !c.matched_steps.is_empty(),
                "relevant cohort with no matching step"
            );
            assert!(c.beta >= 0.0 && c.beta <= 1.0 + 1e-5);
        }
        // Feature scores should roughly aggregate the cohort scores
        // (both decompose z; Eq. 16 vs 17).
        let z_feat: f32 = exp.feature_scores.iter().sum();
        let z_cohort: f32 = exp.cohorts.iter().map(|c| c.score).sum();
        assert!(
            (z_feat - z_cohort).abs() < 0.15 * z_feat.abs().max(0.15),
            "feature {z_feat} vs cohort {z_cohort} decomposition mismatch"
        );
    }

    #[test]
    fn cohort_table_ordered_by_risk() {
        let (trained, prep, scaler, ds) = trained();
        let ctx = build_context(&trained.model, &trained.params, &prep, &scaler);
        let pool = &trained.model.discovery.as_ref().unwrap().pool;
        let rr = ds.feature_column("RR");
        let rows = cohort_table(pool, rr, &ds, &ctx.summaries);
        assert_eq!(rows.len(), pool.per_feature[rr].len());
        for pair in rows.windows(2) {
            assert!(
                pair[0].pos_rate >= pair[1].pos_rate,
                "rows not risk-ordered"
            );
        }
        for r in &rows {
            assert!(r.frequency >= r.n_patients.min(r.frequency));
            assert!(
                r.pattern.contains("(S"),
                "pattern missing state tags: {}",
                r.pattern
            );
        }
    }

    #[test]
    fn direction_arrows() {
        let def = &cohortnet_ehr::features::CATALOG[0]; // RR, normal 12-20
        assert_eq!(state_direction(def, Some(25.0)), '↑');
        assert_eq!(state_direction(def, Some(8.0)), '↓');
        assert_eq!(state_direction(def, Some(16.0)), '-');
        assert_eq!(state_direction(def, None), '?');
    }
}

//! Multi-channel Feature Learning Module (§3.3).
//!
//! One channel per medical feature. Each channel embeds the feature's raw
//! value with Bi-directional Embedding Learning (Eq. 1), models explicit
//! pairwise feature interactions with attention (FIL, Eq. 2), tracks the
//! feature's temporal trend with a local GRU (FTL, Eq. 3), fuses the three
//! views (FeaFus, Eq. 4), and summarises the fused sequence with a global
//! GRU (Eq. 5). FeaAgg (Eq. 6) compresses and concatenates the channels into
//! the patient-level representation `h̃`.
//!
//! FIL is reconstructed from its interface (the ELDA paper's internals are
//! not reproduced in the CohortNet text): bilinear scaled-dot attention
//! `α_ij = softmax_j((W_q e_i)·(W_k e_j))`, `u_i = Σ_j α_ij (W_v e_j)` —
//! see DESIGN.md §1.

use crate::cdm::FeatureStates;
use crate::config::CohortNetConfig;
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{Exec, Matrix, ParamId, ParamStore};
use rand::rngs::StdRng;

/// The Multi-channel Feature Learning Module.
///
/// The forward runs every layer once per time step for all `F` channels
/// over *feature-stacked* values: an `(F·B x d)` matrix whose row group
/// `f` (rows `f·B .. f·B+B`) is channel `f`'s `(B x d)` value. Shared
/// layers (FIL projections, FeaFus, FeaAgg) are tiled over the groups;
/// per-channel ones (BiEL, the trend and channel GRUs) hold one parameter
/// per group. See DESIGN.md §5d.
#[derive(Debug, Clone)]
pub struct Mflm {
    /// BiEL `v_a`, `v_b` and `v_m` (Eq. 1), one per channel.
    biel_a: Vec<ParamId>,
    biel_b: Vec<ParamId>,
    biel_m: Vec<ParamId>,
    /// BiEL bounds `(a, b)` per channel.
    bounds: Vec<(f32, f32)>,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    lgru: GruCell,
    feafus: Linear,
    ggru: GruCell,
    agg: Linear,
    head: Linear,
    /// Embedding width.
    pub d_embed: usize,
    /// Fused width `d_o`.
    pub d_fused: usize,
    /// Channel width `d_h`.
    pub d_hidden: usize,
    /// FeaAgg per-channel width.
    pub d_agg: usize,
    /// Trend width `d_t`.
    pub d_trend: usize,
    use_interactions: bool,
    use_trends: bool,
}

/// Everything a forward pass exposes to the rest of the pipeline. `V` is the
/// executor's value handle: [`Var`](cohortnet_tensor::Var) on the tape.
pub struct MflmTrace<V = cohortnet_tensor::Var> {
    /// Prediction logits from `h̃` alone (`w^p · h̃ + b^p` of Eq. 14).
    pub logits: V,
    /// Patient-level representation `h̃` (`batch x F*d_agg`).
    pub tilde_h: V,
    /// Fused feature representations per time step, feature-stacked
    /// (`F·batch x d_o`: row `f·batch + r` is `o[t][f]` of batch row `r`)
    /// — the vectors the Cohort Discovery Module clusters into states.
    /// Recorded only when the forward is given no state model: discovery
    /// fits the model on them, and once one exists the forward assigns
    /// states inline instead of keeping `T` values alive.
    pub o: Vec<V>,
    /// Feature-state grid, row-major `(batch x (T x F))` — per patient,
    /// `T*F` states — when the forward is given a state model.
    pub states: Option<Vec<u8>>,
    /// Final channel representations `h_i^T` (`batch x d_h` each) — used by
    /// cohort representation learning (Eq. 9) and CEM queries (Eq. 11).
    pub h_final: Vec<V>,
    /// Attention mass `Σ α_i[j]` accumulated over the batch and all time
    /// steps (`F x F`, row = query feature). Divide by `attn_count` for the
    /// mean — CDM's pattern mask (Eq. 8) ranks features by this.
    pub attn_sum: Matrix,
    /// Number of (sample, time-step) contributions in `attn_sum`.
    pub attn_count: usize,
    /// Per-time-step attention matrices, recorded only when requested
    /// (single-patient interpretation, Fig. 9e).
    pub attn_per_step: Option<Vec<Matrix>>,
}

impl Mflm {
    /// Builds the module, registering all channel parameters.
    pub fn new(ps: &mut ParamStore, rng: &mut StdRng, cfg: &CohortNetConfig) -> Self {
        let nf = cfg.n_features();
        assert!(
            nf > 0,
            "config has no feature bounds — use CohortNetConfig::for_dataset"
        );
        let (mut biel_a, mut biel_b, mut biel_m) = (Vec::new(), Vec::new(), Vec::new());
        for f in 0..nf {
            let mut register = |part: &str| {
                ps.register(
                    format!("mflm.biel{f}.{part}"),
                    cohortnet_tensor::init::uniform(rng, 1, cfg.d_embed, 0.3),
                )
            };
            biel_a.push(register("a"));
            biel_b.push(register("b"));
            biel_m.push(register("m"));
        }
        let lgru: Vec<GruCell> = (0..nf)
            .map(|f| GruCell::new(ps, rng, &format!("mflm.lgru{f}"), cfg.d_embed, cfg.d_trend))
            .collect();
        let ggru: Vec<GruCell> = (0..nf)
            .map(|f| GruCell::new(ps, rng, &format!("mflm.ggru{f}"), cfg.d_fused, cfg.d_hidden))
            .collect();
        let d = cfg.d_embed;
        let mut tiled = |name: &str, in_dim: usize, out_dim: usize| {
            Linear::new(ps, rng, name, in_dim, out_dim).tile(nf)
        };
        Mflm {
            biel_a,
            biel_b,
            biel_m,
            bounds: cfg.bounds[..nf].to_vec(),
            wq: tiled("mflm.fil.wq", d, d),
            wk: tiled("mflm.fil.wk", d, d),
            wv: tiled("mflm.fil.wv", d, d),
            feafus: tiled("mflm.feafus", 2 * d + cfg.d_trend, cfg.d_fused),
            agg: tiled("mflm.agg", cfg.d_hidden, cfg.d_agg),
            head: Linear::new(ps, rng, "mflm.head", nf * cfg.d_agg, cfg.n_labels),
            lgru: GruCell::stack(&lgru),
            ggru: GruCell::stack(&ggru),
            d_embed: cfg.d_embed,
            d_fused: cfg.d_fused,
            d_hidden: cfg.d_hidden,
            d_agg: cfg.d_agg,
            d_trend: cfg.d_trend,
            use_interactions: cfg.use_interactions,
            use_trends: cfg.use_trends,
        }
    }

    /// Number of channels.
    pub fn n_features(&self) -> usize {
        self.bounds.len()
    }

    /// The trunk weights the int8 serving path quantizes (every hot `x · W`
    /// of the forward: FIL projections, FeaFus, FeaAgg, head, and the six
    /// weight matrices of each trend and channel GRU), under the stable
    /// names the snapshot `quant` section stores them by.
    pub(crate) fn quant_trunk(&self) -> Vec<(String, ParamId)> {
        let mut out: Vec<(String, ParamId)> = vec![
            ("mflm.fil.q".into(), self.wq.weight()),
            ("mflm.fil.k".into(), self.wk.weight()),
            ("mflm.fil.v".into(), self.wv.weight()),
            ("mflm.feafus".into(), self.feafus.weight()),
            ("mflm.agg".into(), self.agg.weight()),
            ("mflm.head".into(), self.head.weight()),
        ];
        for f in 0..self.n_features() {
            for (cell, kind) in [(&self.lgru, "lgru"), (&self.ggru, "ggru")] {
                for (suffix, id) in cell.weights(f) {
                    out.push((format!("mflm.{kind}.{f}.{suffix}"), id));
                }
            }
        }
        out
    }

    /// BiEL embeddings (Eq. 1) for all features at one time step, stacked
    /// `(F·batch x d_embed)`. `on`/`off` are the stacked `(F·batch x 1)`
    /// presence indicators.
    fn embed_step<E: Exec>(
        &self,
        e: &mut E,
        ps: &E::Params,
        step: &Matrix,
        on: &E::V,
        off: &E::V,
    ) -> E::V {
        let batch = step.rows();
        let rows = self.n_features() * batch;
        // Interpolation weights are pure data — no gradient flows through
        // the raw values, matching Eq. 1.
        let mut w_a = Matrix::zeros(rows, 1);
        let mut w_b = Matrix::zeros(rows, 1);
        for (f, &(lo, hi)) in self.bounds.iter().enumerate() {
            let range = (hi - lo).max(1e-4);
            for r in 0..batch {
                let x = step[(r, f)].clamp(lo, hi);
                w_a[(f * batch + r, 0)] = (x - lo) / range;
                w_b[(f * batch + r, 0)] = (hi - x) / range;
            }
        }
        let wa = e.constant(w_a);
        let wb = e.constant(w_b);
        let ea = e.matmul_w(ps, &wa, &self.biel_a);
        let eb = e.matmul_w(ps, &wb, &self.biel_b);
        let e_present = e.add(&ea, &eb);
        let e_masked = e.mul_col_broadcast(&e_present, on);
        let em = e.matmul_w(ps, off, &self.biel_m);
        e.add(&e_masked, &em)
    }

    /// Full forward pass over a batch: `steps` holds one `(batch x F)`
    /// matrix per time step, `mask` the `(batch x F)` presence mask. With
    /// a state model, each fused representation is assigned its feature
    /// state (Eq. 7) as soon as it is computed (see [`MflmTrace::states`]).
    ///
    /// Each layer issues a fixed number of ops per time step, for all `F`
    /// channels at once (see [`Mflm`]).
    ///
    /// `record_attention_steps` additionally stores each step's full
    /// attention matrix (use for single-patient interpretation only — it is
    /// `T` matrices of `F x F`).
    pub fn forward<E: Exec>(
        &self,
        e: &mut E,
        ps: &E::Params,
        steps: &[Matrix],
        mask: &Matrix,
        states: Option<&FeatureStates>,
        record_attention_steps: bool,
    ) -> MflmTrace<E::V> {
        let nf = self.n_features();
        let (size, t_steps) = (mask.rows(), steps.len());
        let rows = nf * size;
        let mut grid = states.map(|_| vec![0u8; size * t_steps * nf]);
        let mut on = Matrix::zeros(rows, 1);
        let mut off = Matrix::zeros(rows, 1);
        for f in 0..nf {
            for r in 0..size {
                let present = mask[(r, f)] > 0.5;
                on[(f * size + r, 0)] = f32::from(present);
                off[(f * size + r, 0)] = f32::from(!present);
            }
        }
        let on = e.constant(on);
        let off = e.constant(off);
        let mut lstate = self.lgru.init_state(e, rows);
        let mut gstate = self.ggru.init_state(e, rows);
        // Ablations: zero trends; zero interaction vectors and uniform
        // attention.
        let zero_trend = (!self.use_trends).then(|| e.constant(Matrix::zeros(rows, self.d_trend)));
        let no_fil = (!self.use_interactions).then(|| {
            (
                e.constant(Matrix::zeros(rows, self.d_embed)),
                e.constant(Matrix::full(rows, nf, 1.0 / nf as f32)),
            )
        });
        let scale = 1.0 / (self.d_embed as f32).sqrt();
        let mut o_all: Vec<E::V> = Vec::with_capacity(steps.len());
        let mut attn_sum = Matrix::zeros(nf, nf);
        let mut attn_count = 0usize;
        let mut attn_per_step = if record_attention_steps {
            Some(Vec::with_capacity(steps.len()))
        } else {
            None
        };

        for (t, step) in steps.iter().enumerate() {
            let es = self.embed_step(e, ps, step, &on, &off);
            let fil;
            let (us, alphas) = match &no_fil {
                Some((u, a)) => (u, a),
                None => {
                    let q = self.wq.forward(e, ps, &es);
                    let k = self.wk.forward(e, ps, &es);
                    let v = self.wv.forward(e, ps, &es);
                    fil = e.fil_attention(&q, &k, &v, nf, scale);
                    (&fil.0, &fil.1)
                }
            };
            // Accumulate attention mass for CDM's pattern mask.
            let mut step_attn = Matrix::zeros(nf, nf);
            let av = e.value(alphas);
            for i in 0..nf {
                let acc = step_attn.row_mut(i);
                for r in 0..size {
                    for (s, &x) in acc.iter_mut().zip(av.row(i * size + r)) {
                        *s += x;
                    }
                }
            }
            attn_count += size;
            attn_sum.add_assign(&step_attn);
            if let Some(rec) = attn_per_step.as_mut() {
                rec.push(step_attn.scale(1.0 / size as f32));
            }
            // Trend, fusion, global channel update.
            if zero_trend.is_none() {
                lstate = self.lgru.step(e, ps, &es, &lstate);
            }
            let trend = zero_trend.as_ref().unwrap_or(&lstate);
            let joined = e.concat_cols(&[&es, us, trend]);
            let fused_pre = self.feafus.forward(e, ps, &joined);
            let o = e.tanh(&fused_pre);
            gstate = self.ggru.step(e, ps, &o, &gstate);
            match (states, grid.as_mut()) {
                (Some(fs), Some(grid)) => {
                    let values = e.value(&o);
                    for f in 0..nf {
                        for r in 0..size {
                            let present = mask[(r, f)] > 0.5;
                            grid[r * t_steps * nf + t * nf + f] =
                                fs.assign(f, values.row(f * size + r), present);
                        }
                    }
                }
                _ => o_all.push(o),
            }
        }

        // FeaAgg: compress each final channel state and concatenate.
        let c_pre = self.agg.forward(e, ps, &gstate);
        let compressed = e.tanh(&c_pre);
        let parts = e.split_rows(&compressed, nf);
        let tilde_h = e.concat_cols(&parts.iter().collect::<Vec<_>>());
        let logits = self.head.forward(e, ps, &tilde_h);
        let h_final = e.split_rows(&gstate, nf);

        MflmTrace {
            logits,
            tilde_h,
            o: o_all,
            states: grid,
            h_final,
            attn_sum,
            attn_count,
            attn_per_step,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
    use cohortnet_models::data::{make_batch, prepare};
    use cohortnet_tensor::Tape;
    use rand::SeedableRng;

    fn setup() -> (CohortNetConfig, cohortnet_models::data::Prepared) {
        let mut c = profiles::mimic3_like(0.05);
        c.n_patients = 40;
        c.time_steps = 4;
        let mut ds = generate(&c);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        let cfg = CohortNetConfig::for_dataset(&ds, &scaler);
        (cfg, prepare(&ds))
    }

    #[test]
    fn trace_shapes() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1, 2]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch.steps, &batch.mask, None, false);
        assert_eq!(tape.value(trace.logits).shape(), (3, 1));
        assert_eq!(tape.value(trace.tilde_h).shape(), (3, 20 * cfg.d_agg));
        assert_eq!(trace.o.len(), 4);
        assert_eq!(tape.value(trace.o[0]).shape(), (20 * 3, cfg.d_fused));
        assert_eq!(trace.h_final.len(), 20);
        assert_eq!(tape.value(trace.h_final[0]).shape(), (3, cfg.d_hidden));
        assert_eq!(trace.attn_sum.shape(), (20, 20));
        assert_eq!(trace.attn_count, 3 * 4);
        assert!(trace.attn_per_step.is_none());
    }

    #[test]
    fn attention_rows_sum_to_count() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch.steps, &batch.mask, None, true);
        // Each row of attn_sum accumulated batch*T softmax rows (each sums 1).
        for i in 0..20 {
            let row_sum: f32 = trace.attn_sum.row(i).iter().sum();
            assert!(
                (row_sum - trace.attn_count as f32).abs() < 1e-2,
                "row {i}: {row_sum}"
            );
        }
        assert_eq!(trace.attn_per_step.unwrap().len(), 4);
    }

    #[test]
    fn fused_representations_are_bounded() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1, 2, 3]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch.steps, &batch.mask, None, false);
        for &o in &trace.o {
            assert!(tape.value(o).as_slice().iter().all(|&v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn ablation_flags_disable_mechanisms() {
        let (mut cfg, prep) = setup();
        cfg.use_interactions = false;
        cfg.use_trends = false;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch.steps, &batch.mask, None, false);
        // Attention is uniform when FIL is off.
        let nf = 20.0f32;
        for i in 0..20 {
            for j in 0..20 {
                let a = trace.attn_sum[(i, j)] / trace.attn_count as f32;
                assert!((a - 1.0 / nf).abs() < 1e-6, "attention not uniform: {a}");
            }
        }
        // Still trainable end-to-end.
        let loss = tape.bce_with_logits(trace.logits, batch.labels.clone());
        tape.backward(loss);
        tape.flush_grads(&mut ps);
        assert!(ps.grad_norm() > 0.0);
        // No gradient reaches the (unused) lGRU or FIL parameters.
        let unused: f32 = ps
            .entries()
            .filter(|e| e.name.starts_with("mflm.lgru") || e.name.starts_with("mflm.fil"))
            .map(|e| e.grad.norm())
            .sum();
        assert_eq!(unused, 0.0, "gradient leaked into disabled mechanisms");
    }

    #[test]
    fn gradients_reach_biel_params() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch.steps, &batch.mask, None, false);
        let loss = tape.bce_with_logits(trace.logits, batch.labels.clone());
        tape.backward(loss);
        tape.flush_grads(&mut ps);
        // Some BiEL parameter received gradient signal.
        let total: f32 = ps.entries().map(|e| e.grad.norm()).sum();
        assert!(total > 0.0);
        let biel_grad: f32 = ps
            .entries()
            .filter(|e| e.name.starts_with("mflm.biel"))
            .map(|e| e.grad.norm())
            .sum();
        assert!(biel_grad > 0.0, "no gradient reached BiEL embeddings");
    }
}

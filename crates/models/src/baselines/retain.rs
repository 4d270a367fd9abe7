//! RETAIN baseline (Choi et al., 2016).
//!
//! "utilizes two levels of GRU in the reverse time order to differentiate
//! the importance of visits and variables": a visit-level attention `α`
//! (scalar per time step) and a variable-level attention `β` (vector per
//! time step), both produced by GRUs running backwards in time, combined as
//! `c = Σ_t α_t · (β_t ⊙ v_t)` over visit embeddings `v_t`.

use crate::data::Batch;
use crate::traits::SequenceModel;
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// RETAIN: reverse-time two-level attention model.
#[derive(Debug, Clone)]
pub struct RetainModel {
    embed: Linear,
    alpha_rnn: GruCell,
    alpha_out: Linear,
    beta_rnn: GruCell,
    beta_out: Linear,
    head: Linear,
    embed_dim: usize,
}

impl RetainModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
    ) -> Self {
        let embed_dim = hidden;
        RetainModel {
            embed: Linear::new(ps, rng, "retain.embed", n_features, embed_dim),
            alpha_rnn: GruCell::new(ps, rng, "retain.alpha_rnn", embed_dim, hidden),
            alpha_out: Linear::new(ps, rng, "retain.alpha_out", hidden, 1),
            beta_rnn: GruCell::new(ps, rng, "retain.beta_rnn", embed_dim, hidden),
            beta_out: Linear::new(ps, rng, "retain.beta_out", hidden, embed_dim),
            head: Linear::new(ps, rng, "retain.head", embed_dim, n_labels),
            embed_dim,
        }
    }

    /// Visit-level attention weights `α` for interpretation: `(batch x T)`
    /// after softmax. Exposed because RETAIN's selling point is attention
    /// interpretability.
    pub fn visit_attention(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let (alpha, _, _) = self.attention_parts(t, ps, batch);
        alpha
    }

    fn attention_parts(
        &self,
        t: &mut Tape,
        ps: &ParamStore,
        batch: &Batch,
    ) -> (Var, Vec<Var>, Vec<Var>) {
        let steps = batch.steps.len();
        // Visit embeddings v_t.
        let vs: Vec<Var> = batch
            .steps
            .iter()
            .map(|m| {
                let x = t.constant(m.clone());
                self.embed.forward(t, ps, &x)
            })
            .collect();
        // Reverse-time GRUs.
        let mut ga = self.alpha_rnn.init_state(t, batch.size);
        let mut gb = self.beta_rnn.init_state(t, batch.size);
        let mut alpha_scores = vec![None; steps];
        let mut betas = vec![None; steps];
        for i in (0..steps).rev() {
            ga = self.alpha_rnn.step(t, ps, &vs[i], &ga);
            gb = self.beta_rnn.step(t, ps, &vs[i], &gb);
            alpha_scores[i] = Some(self.alpha_out.forward(t, ps, &ga));
            let b_pre = self.beta_out.forward(t, ps, &gb);
            betas[i] = Some(t.tanh(b_pre));
        }
        let scores: Vec<Var> = alpha_scores.into_iter().map(Option::unwrap).collect();
        let betas: Vec<Var> = betas.into_iter().map(Option::unwrap).collect();
        let concat = t.concat_cols(&scores);
        let alpha = t.softmax_rows(concat);
        (alpha, betas, vs)
    }
}

impl SequenceModel for RetainModel {
    fn name(&self) -> &'static str {
        "RETAIN"
    }

    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let (alpha, betas, vs) = self.attention_parts(t, ps, batch);
        // Context c = Σ_t α_t (β_t ⊙ v_t).
        let mut ctx: Option<Var> = None;
        for (i, (&b, &v)) in betas.iter().zip(vs.iter()).enumerate() {
            let bv = t.mul(b, v);
            let a_i = t.slice_cols(alpha, i, i + 1);
            let weighted = t.mul_col_broadcast(bv, a_i);
            ctx = Some(match ctx {
                Some(c) => t.add(c, weighted),
                None => weighted,
            });
        }
        let _ = self.embed_dim;
        self.head.forward(t, ps, &ctx.expect("at least one step"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::make_batch;
    use crate::testutil::{assert_learns, tiny_prep};

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        let mut model = RetainModel::new(&mut ps, &mut rng, prep.n_features, 1, 12);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn visit_attention_is_simplex() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(6);
        let model = RetainModel::new(&mut ps, &mut rng, prep.n_features, 1, 12);
        let batch = make_batch(&prep, &[0, 1, 2, 3]);
        let mut tape = Tape::new();
        let alpha = model.visit_attention(&mut tape, &ps, &batch);
        let a = tape.value(alpha);
        assert_eq!(a.shape(), (4, prep.time_steps));
        for r in 0..4 {
            let sum: f32 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }
}

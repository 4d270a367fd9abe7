//! Dipole baseline (Ma et al., 2017).
//!
//! "adopts a bidirectional GRU and devises attention mechanisms to calculate
//! the relationships among time steps": forward and backward GRU passes are
//! concatenated per step, a location-based attention scores every step, and
//! the attention-weighted context is combined with the final state.

use crate::data::Batch;
use crate::traits::SequenceModel;
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// Dipole: bidirectional GRU with location-based temporal attention.
#[derive(Debug, Clone)]
pub struct DipoleModel {
    fwd: GruCell,
    bwd: GruCell,
    attn: Linear,
    head: Linear,
}

impl DipoleModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
    ) -> Self {
        DipoleModel {
            fwd: GruCell::new(ps, rng, "dipole.fwd", n_features, hidden),
            bwd: GruCell::new(ps, rng, "dipole.bwd", n_features, hidden),
            attn: Linear::new(ps, rng, "dipole.attn", 2 * hidden, 1),
            head: Linear::new(ps, rng, "dipole.head", 4 * hidden, n_labels),
        }
    }
}

impl SequenceModel for DipoleModel {
    fn name(&self) -> &'static str {
        "Dipole"
    }

    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let steps = batch.steps.len();
        let xs: Vec<Var> = batch.steps.iter().map(|m| t.constant(m.clone())).collect();
        // Forward pass.
        let mut hf = self.fwd.init_state(t, batch.size);
        let mut fwd_states = Vec::with_capacity(steps);
        for &x in &xs {
            hf = self.fwd.step(t, ps, &x, &hf);
            fwd_states.push(hf);
        }
        // Backward pass.
        let mut hb = self.bwd.init_state(t, batch.size);
        let mut bwd_states = vec![None; steps];
        for i in (0..steps).rev() {
            hb = self.bwd.step(t, ps, &xs[i], &hb);
            bwd_states[i] = Some(hb);
        }
        // Per-step bidirectional states and location-based attention scores.
        let mut h_bi = Vec::with_capacity(steps);
        let mut scores = Vec::with_capacity(steps);
        for i in 0..steps {
            let h = t.concat_cols(&[fwd_states[i], bwd_states[i].unwrap()]);
            scores.push(self.attn.forward(t, ps, &h));
            h_bi.push(h);
        }
        let score_mat = t.concat_cols(&scores);
        let alpha = t.softmax_rows(score_mat);
        let mut ctx: Option<Var> = None;
        for (i, &h) in h_bi.iter().enumerate() {
            let a_i = t.slice_cols(alpha, i, i + 1);
            let w = t.mul_col_broadcast(h, a_i);
            ctx = Some(match ctx {
                Some(c) => t.add(c, w),
                None => w,
            });
        }
        // Combine context with the final bidirectional state.
        let last = h_bi[steps - 1];
        let joined = t.concat_cols(&[ctx.expect("non-empty sequence"), last]);
        self.head.forward(t, ps, &joined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let mut model = DipoleModel::new(&mut ps, &mut rng, prep.n_features, 1, 12);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn logits_shape() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(8);
        let model = DipoleModel::new(&mut ps, &mut rng, prep.n_features, 1, 12);
        let batch = crate::data::make_batch(&prep, &[0, 4]);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &batch);
        assert_eq!(tape.value(logits).shape(), (2, 1));
    }
}

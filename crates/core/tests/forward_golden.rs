//! Pins the bits of the serving forward pass.
//!
//! A seeded, randomly initialised CohortNet with cohorts discovered (Steps 2
//! and 3) but no training is scored at two shapes (F=20,T=4 and F=32,T=6),
//! with FIL on and off, at batch 1 and 5, through the f32 and the int8
//! (`--quant`) inferencers. Every parameter is shifted by seeded noise
//! first, so the zero-initialised biases and calibration head reach the
//! output too. The `to_bits()` of every base, CEM and final
//! logit must equal the committed table `forward_golden.txt`, so a change
//! that moves one output bit of the forward fails here even when the tape
//! and the evaluator move together.
//!
//! The table was written by `print_table` (run it with
//! `cargo test -p cohortnet --test forward_golden -- --ignored --nocapture`)
//! before the forward was stacked over features. Regenerate it only for a
//! change that means to move the forward's bits, and say so in the change.

use cohortnet::config::CohortNetConfig;
use cohortnet::infer::{Inferencer, ScoreOutput, ScoreRequest};
use cohortnet::model::CohortNetModel;
use cohortnet::quant::{QuantInferencer, QuantTable};
use cohortnet_ehr::features::CATALOG;
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_models::data::prepare;
use cohortnet_tensor::{Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: &str = include_str!("forward_golden.txt");

/// One table line per shape, FIL setting, precision and batch:
/// `<case> <part>=<hex bits of every row>,...`.
fn table() -> Vec<String> {
    let mut lines = Vec::new();
    for (nf, t_steps) in [(20, 4), (32, 6)] {
        for interactions in [true, false] {
            let mut c = profiles::mimic3_like(0.05);
            c.n_patients = 24;
            c.time_steps = t_steps;
            c.feature_codes = CATALOG.iter().take(nf).map(|d| d.code).collect();
            let mut ds = generate(&c);
            let scaler = Standardizer::fit(&ds);
            scaler.apply(&mut ds);
            let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
            cfg.use_interactions = interactions;
            cfg.k_states = 4;
            cfg.min_frequency = 3;
            cfg.min_patients = 2;
            cfg.state_fit_samples = 1000;
            let prep = prepare(&ds);
            assert_eq!(prep.n_features, nf);
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(31);
            let mut model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
            for entry in ps.entries_mut() {
                for v in entry.value.as_mut_slice() {
                    *v += rng.gen_range(-0.2f32..0.2);
                }
            }
            let pool = &model.run_discovery(&ps, &prep, &mut rng).pool;
            assert!(
                pool.total_cohorts() > 0,
                "F={nf}: the fixture must discover cohorts"
            );

            let f32_inf = Inferencer::compile(&model, &ps, t_steps);
            let table = QuantTable::build(&model, &ps);
            let quant = QuantInferencer::compile(&model, &ps, t_steps, &table);
            let fil = if interactions { "on" } else { "off" };
            for (batch, first) in [(1, 7), (5, 2)] {
                let reqs: Vec<ScoreRequest> = (first..first + batch)
                    .map(|i| ScoreRequest {
                        x: prep.patients[i].x.clone(),
                        mask: prep.patients[i].mask.clone(),
                    })
                    .collect();
                for (precision, out) in [
                    ("f32", f32_inf.score_requests(&reqs)),
                    ("int8", quant.score_requests(&reqs)),
                ] {
                    lines.push(format!(
                        "F{nf}T{t_steps} fil={fil} {precision} b{batch} {}",
                        render(&out)
                    ));
                }
            }
        }
    }
    lines
}

fn render(out: &ScoreOutput) -> String {
    let bits = |m: &Matrix| -> String {
        m.as_slice()
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    };
    let cem = out.cem_logits.as_ref().expect("the fixture has cohorts");
    format!(
        "base={} cem={} logits={}",
        bits(&out.base_logits),
        bits(cem),
        bits(&out.logits)
    )
}

#[test]
fn forward_bits_match_the_committed_table() {
    let got = table();
    let want: Vec<&str> = TABLE.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(got.len(), want.len(), "table has the wrong number of lines");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "forward bits drifted from the committed table");
    }
}

/// Prints the table in the committed format.
#[test]
#[ignore]
fn print_table() {
    for line in table() {
        println!("{line}");
    }
}

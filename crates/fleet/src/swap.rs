//! Zero-downtime snapshot hot-swap: `POST /admin/reload`.
//!
//! Reload protocol, in order — every step before the flip happens off the
//! serving path, so a failing reload never disturbs live traffic:
//!
//! 1. **Serialize.** One reload at a time (`409` if one is in progress).
//! 2. **Read.** Load the artifact text from `path`; the chaos site
//!    [`CHAOS_CORRUPT_SITE`] may flip a byte here, modelling a torn or
//!    corrupted artifact.
//! 3. **Verify.** [`cohortnet::snapshot::load_snapshot`] re-derives every
//!    section checksum; any mismatch is a typed `422` and the old model
//!    keeps serving.
//! 4. **Canary.** Check that every canary (one of the first requests that
//!    scored on live traffic) fits the candidate's `T x F` shape — a
//!    typed `422` if not — then score the canary set through the
//!    candidate scorer via the *same* row-extraction
//!    and JSON-rendering path the engines use. Out-of-range or non-finite
//!    probabilities reject the artifact. With `require_identical: true`
//!    the rendered canary bytes must equal the live model's — the
//!    bit-identity contract for config-only or re-saved artifacts.
//! 5. **Flip.** Replica by replica: start a fresh engine on the new
//!    shared scorer, swap it in behind the replica's `RwLock`, then drain
//!    the old engine ([`cohortnet_serve::Engine::shutdown`] finishes
//!    queued requests). Requests that race a drain re-dispatch
//!    ([`crate::app`]); clients never see the swap.
//!
//! The request body: `{"path": "...", "quant": bool?, "require_identical":
//! bool?}` — `quant` defaults to the currently serving scheme.

use std::sync::Arc;

use cohortnet::snapshot::load_snapshot;
use cohortnet_obs::obs_info;
use cohortnet_serve::json::{self, obj, Json};
use cohortnet_serve::server::{error_body, score_rows_response};
use cohortnet_serve::{Engine, EngineError, RowScore};

use crate::app::{FleetApp, ModelState, LOG};
use crate::health::HealthState;

/// Chaos site: corrupt the reload artifact between read and parse. The
/// reload must fail with a clean `422` while the old model keeps serving.
pub const CHAOS_CORRUPT_SITE: &str = "fleet.reload.corrupt";

impl FleetApp {
    /// `POST /admin/reload` — see the module docs for the protocol.
    pub(crate) fn handle_reload(&self, body: &str) -> (u16, String) {
        let Ok(_guard) = self.reload_lock.try_lock() else {
            return (409, error_body("a reload is already in progress"));
        };
        let parsed = match json::parse(body) {
            Ok(v) => v,
            Err(e) => return (400, error_body(&format!("invalid json: {e}"))),
        };
        let Some(path) = parsed.get("path").and_then(Json::as_str) else {
            return (400, error_body("reload body needs a string field \"path\""));
        };
        let live = self.model();
        let quant = parsed
            .get("quant")
            .and_then(Json::as_bool)
            .unwrap_or(live.quant);
        let require_identical = parsed
            .get("require_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false);

        let mut text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return (400, error_body(&format!("cannot read {path}: {e}"))),
        };
        if let Some(corrupted) = cohortnet_chaos::corrupt_if_fires(CHAOS_CORRUPT_SITE, &text) {
            text = corrupted;
        }
        let loaded = match load_snapshot(&text) {
            Ok(l) => l,
            Err(e) => return (422, error_body(&format!("snapshot rejected: {e}"))),
        };
        let scorer = Arc::new(loaded.scorer(quant));

        // Canary: candidate scores must be sane, and — when demanded —
        // bit-identical to the serving model's rendered responses.
        let canaries = self
            .canaries
            .lock()
            .expect("fleet canaries poisoned")
            .clone();
        let inf = scorer.inferencer();
        let (t_steps, nf) = (inf.time_steps(), inf.n_features());
        if let Some((i, bad)) = canaries
            .iter()
            .enumerate()
            .find(|(_, c)| c.x.len() != t_steps * nf || c.mask.len() != nf)
        {
            let why = format!(
                "canary shape mismatch: canary {i} has {} values and {} mask entries, \
                 the snapshot expects T*F = {} and F = {nf}",
                bad.x.len(),
                bad.mask.len(),
                t_steps * nf
            );
            return (422, error_body(&why));
        }
        if !canaries.is_empty() {
            let rows = render_rows(&scorer, &canaries);
            for row in &rows {
                let Ok(score) = row else { unreachable!() };
                if score
                    .prob
                    .iter()
                    .any(|p| !p.is_finite() || !(0.0..=1.0).contains(p))
                {
                    return (
                        422,
                        error_body("canary check failed: out-of-range probability"),
                    );
                }
            }
            if require_identical {
                let (_, new_body) = score_rows_response(&rows);
                let (_, live_body) = score_rows_response(&render_rows(&live.scorer, &canaries));
                if new_body != live_body {
                    return (
                        409,
                        error_body(
                            "canary mismatch: new snapshot is not bit-identical to the serving model",
                        ),
                    );
                }
            }
        }

        // Flip, replica by replica. The new engine is installed before the
        // old one drains, so the replica never has a gap with no engine.
        let fingerprint = loaded.fingerprint;
        let mut swapped = 0usize;
        for replica in self.pool.replicas() {
            if replica.health_state() == HealthState::Dead {
                continue;
            }
            let fresh = Arc::new(Engine::start_shared(
                Arc::clone(&scorer),
                self.engine_cfg,
                Arc::clone(&replica.metrics),
            ));
            let old = replica.swap_engine(fresh);
            old.shutdown();
            replica.set_fingerprint(fingerprint);
            swapped += 1;
        }
        let fingerprint_hex = loaded.fingerprint_hex();
        *self.model.write().expect("fleet model poisoned") = Arc::new(ModelState {
            loaded,
            scorer,
            quant,
        });
        self.reloads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        obs_info!(
            target: LOG,
            "snapshot reloaded",
            fingerprint = fingerprint_hex,
            quant = quant,
            replicas_swapped = swapped,
            canary_requests = canaries.len(),
        );
        (
            200,
            json::render(&obj(vec![
                ("status", Json::Str("reloaded".into())),
                ("snapshot_fingerprint", Json::Str(fingerprint_hex)),
                ("quant", Json::Bool(quant)),
                ("require_identical", Json::Bool(require_identical)),
                ("canary_requests", Json::Num(canaries.len() as f64)),
                ("replicas_swapped", Json::Num(swapped as f64)),
            ])),
        )
    }
}

/// Scores `reqs` through a bare scorer and wraps each row exactly as the
/// engines do, so [`score_rows_response`] renders comparable bytes.
fn render_rows(
    scorer: &cohortnet::quant::Scorer,
    reqs: &[cohortnet::infer::ScoreRequest],
) -> Vec<Result<RowScore, EngineError>> {
    let out = scorer.score_requests_parallel(reqs, 1);
    (0..reqs.len())
        .map(|r| Ok(RowScore::from_output(&out, r)))
        .collect()
}

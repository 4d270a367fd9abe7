//! The three workloads: their model recipes, the seeded inputs and arrival
//! schedules they send, and the output checks run on what came back.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cohortnet::config::CohortNetConfig;
use cohortnet::infer::ScoreRequest;
use cohortnet::quant::Scorer;
use cohortnet::snapshot::{load_snapshot, save_snapshot, LoadedModel};
use cohortnet::stream::{batch_reference, StreamConfig, StreamEvent, DEFAULT_HORIZON_HOURS};
use cohortnet::train::{train_cohortnet, PipelineTiming};
use cohortnet_ehr::features::CATALOG;
use cohortnet_ehr::{
    generate_event_streams, profiles, standardize::Standardizer, synth, EventStreamConfig,
};
use cohortnet_models::data::prepare;
use cohortnet_serve::json::{self, num_arr, obj, Json};
use cohortnet_serve::server::{parse_score_instances, score_rows_response};
use cohortnet_serve::{serve_stream, RowScore, Server, ServerConfig, StreamOptions};

use crate::client::{self, Planned, RunResult};

/// Patients in a ward re-score request.
pub const WARD: usize = 16;
/// Distinct patients the `/score` requests are drawn from.
pub const POOL: usize = 64;

/// Model and data shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Features per time step.
    pub f: usize,
    /// Hourly bins.
    pub t: usize,
    /// Training admissions.
    pub patients: usize,
    /// Step 1 (pre-training) epochs.
    pub epochs_pretrain: usize,
    /// Step 4 (exploitation) epochs.
    pub epochs_exploit: usize,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Model and data shape.
    pub shape: Shape,
    /// Nominal rate of one-patient `/score` requests, per second.
    pub nominal_rps: f64,
    /// Rate of 16-patient ward reads, per second.
    pub read_rps: f64,
    /// Tail-latency limit of the rate ladder, ms.
    pub limit_ms: f64,
    /// Rate of the first ladder rung above the nominal phase, per second.
    pub ladder_start: f64,
    /// Ratio between consecutive ladder rates.
    pub ladder_step: f64,
    /// Most ladder rungs run after the nominal phase.
    pub ladder_rungs: usize,
    /// Set-ups per untraced run; `setup_s` and `train_s` are their medians.
    pub setups: usize,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "score_demo",
        shape: Shape {
            f: 20,
            t: 4,
            patients: 50,
            epochs_pretrain: 2,
            epochs_exploit: 1,
        },
        nominal_rps: 100.0,
        read_rps: 20.0,
        limit_ms: 40.0,
        ladder_start: 300.0,
        ladder_step: 1.2,
        ladder_rungs: 7,
        setups: 15,
    },
    Workload {
        name: "score_t48",
        shape: Shape {
            f: 32,
            t: 48,
            patients: 16,
            epochs_pretrain: 1,
            epochs_exploit: 1,
        },
        nominal_rps: 14.0,
        read_rps: 4.0,
        limit_ms: 300.0,
        ladder_start: 20.0,
        ladder_step: 1.2,
        ladder_rungs: 7,
        setups: 7,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A small seeded generator (SplitMix64) for schedules and choices.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Arrival times of a Poisson process at `rate` per second over
    /// `span`, conditioned on its expected count: `round(rate * span)`
    /// uniform times, sorted. Every seed then offers exactly the nominal
    /// load and yields the same sample count.
    pub fn arrivals(&mut self, rate: f64, span: Duration) -> Vec<Duration> {
        let n = (rate * span.as_secs_f64()).round() as usize;
        let mut t: Vec<f64> = (0..n).map(|_| self.unit() * span.as_secs_f64()).collect();
        t.sort_by(f64::total_cmp);
        t.into_iter().map(Duration::from_secs_f64).collect()
    }
}

/// A trained, served model plus what the set-up measured.
pub struct Setup {
    /// The running streaming server (it answers `/score` too).
    pub server: Server,
    /// The snapshot text the server loaded.
    pub snapshot: String,
    /// The training scaler.
    pub scaler: Standardizer,
    /// Seconds from the start of data generation until the server accepted.
    pub setup_s: f64,
    /// Seconds of the `train_cohortnet` call.
    pub train_s: f64,
    /// What `train_cohortnet` reported.
    pub timing: PipelineTiming,
    /// Cohorts discovered.
    pub cohorts: usize,
    /// Final epoch losses of Steps 1 and 4.
    pub final_losses: (f32, f32),
}

fn synth_config(shape: &Shape, n: usize, seed: u64) -> synth::SynthConfig {
    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = n;
    c.time_steps = shape.t;
    c.feature_codes = CATALOG.iter().take(shape.f).map(|d| d.code).collect();
    c.seed = seed;
    c
}

/// Generates the training data, trains (Steps 1–4), snapshots, loads,
/// compiles and serves; the discovery knobs follow the serving demo's
/// recipe. Returns once the server has answered `/healthz`.
pub fn setup(w: &Workload) -> Setup {
    let t0 = Instant::now();
    let mut ds = synth::generate(&synth_config(&w.shape, w.shape.patients, 1003));
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.k_states = 4;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 1000;
    cfg.epochs_pretrain = w.shape.epochs_pretrain;
    cfg.epochs_exploit = w.shape.epochs_exploit;
    cfg.batch_size = 16;
    let prep = prepare(&ds);
    let t_train = Instant::now();
    let trained = train_cohortnet(&prep, &cfg);
    let train_s = t_train.elapsed().as_secs_f64();
    let snapshot = save_snapshot(&trained.model, &trained.params, &scaler, prep.time_steps);
    let loaded = load_snapshot(&snapshot).expect("fresh snapshot loads");
    let server = serve_stream(
        loaded,
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
        StreamOptions::default(),
    )
    .expect("bind the benchmark server");
    let (status, _) = client::call(server.addr(), "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200, "server not healthy after set-up");
    let setup_s = t0.elapsed().as_secs_f64();
    let last = |v: &[f32]| v.last().copied().unwrap_or(f32::NAN);
    Setup {
        server,
        snapshot,
        scaler,
        setup_s,
        train_s,
        cohorts: trained
            .model
            .discovery
            .as_ref()
            .map_or(0, |d| d.pool.total_cohorts()),
        final_losses: (
            last(&trained.timing.step1.epoch_losses),
            last(&trained.timing.step4.epoch_losses),
        ),
        timing: trained.timing,
    }
}

/// Renders a `/score` body with `reqs` as its instances.
fn score_body(reqs: &[&ScoreRequest]) -> String {
    let inst: Vec<String> = reqs
        .iter()
        .map(|r| {
            let x: Vec<String> = r.x.iter().map(f32::to_string).collect();
            let m: Vec<String> = r.mask.iter().map(f32::to_string).collect();
            format!("{{\"x\":[{}],\"mask\":[{}]}}", x.join(","), m.join(","))
        })
        .collect();
    format!("{{\"instances\":[{}]}}", inst.join(","))
}

/// Renders one prediction row exactly as the server does.
pub fn render_row(row: &RowScore) -> String {
    let mut pairs = vec![
        ("prob", num_arr(&row.prob)),
        ("logit", num_arr(&row.logit)),
        ("base_logit", num_arr(&row.base_logit)),
    ];
    if let Some(cem) = &row.cem_logit {
        pairs.push(("cem_logit", num_arr(cem)));
    }
    json::render(&obj(pairs))
}

/// Everything a workload sends, generated from the seed, plus the
/// in-process reference outputs the responses are checked against.
pub struct Inputs {
    /// One-patient `/score` bodies, one per pool patient.
    pub single: Vec<Rc<str>>,
    /// Expected response body per entry of `single`.
    pub single_expect: Vec<String>,
    /// Ward-read bodies: 16 consecutive pool patients from each start.
    pub ward: Vec<Rc<str>>,
    /// Expected response body per entry of `ward`.
    pub ward_expect: Vec<String>,
    /// Event streams, one per session, in arrival order.
    pub streams: Vec<Vec<StreamEvent>>,
    /// The instances the server decodes from `single` (for in-process
    /// layer timing on the same inputs).
    pub requests: Vec<ScoreRequest>,
}

impl Inputs {
    /// Generates the seeded patients and event streams and scores the
    /// pool in-process with a scorer compiled from the served snapshot.
    pub fn generate(w: &Workload, seed: u64, s: &Setup, scorer: &Scorer) -> Inputs {
        let mut ds = synth::generate(&synth_config(&w.shape, POOL, seed ^ 0x5c0e));
        s.scaler.apply(&mut ds);
        let prep = prepare(&ds);
        let raw: Vec<ScoreRequest> = prep
            .patients
            .iter()
            .map(|p| ScoreRequest {
                x: p.x.clone(),
                mask: p.mask.clone(),
            })
            .collect();
        let single: Vec<Rc<str>> = raw.iter().map(|r| score_body(&[r]).into()).collect();
        // The server only sees the bodies: check against what it decodes.
        let requests: Vec<ScoreRequest> = single
            .iter()
            .map(|b| parse_score_instances(b).expect("own body parses").remove(0))
            .collect();
        let rows: Vec<RowScore> = requests
            .chunks(WARD)
            .flat_map(|c| {
                let out = scorer.score_requests_parallel(c, 0);
                (0..c.len()).map(move |r| RowScore::from_output(&out, r))
            })
            .collect();
        let single_expect = rows
            .iter()
            .map(|row| score_rows_response(&[Ok(row.clone())]).1)
            .collect();
        let window = |start: usize| (0..WARD).map(move |k| (start + k) % POOL);
        let ward = (0..POOL)
            .map(|st| score_body(&window(st).map(|i| &raw[i]).collect::<Vec<_>>()).into())
            .collect();
        let ward_expect = (0..POOL)
            .map(|st| {
                let r: Vec<_> = window(st).map(|i| Ok(rows[i].clone())).collect();
                score_rows_response(&r).1
            })
            .collect();
        let streams = event_streams(w.shape.f, 4, seed);
        Inputs {
            single,
            single_expect,
            ward,
            ward_expect,
            streams,
            requests,
        }
    }
}

/// `n` seeded admissions with the generator's default missingness,
/// disorder and duplicates.
fn event_streams(f: usize, n: usize, seed: u64) -> Vec<Vec<StreamEvent>> {
    generate_event_streams(&EventStreamConfig {
        n_admissions: n,
        n_features: f,
        seed: seed ^ 0xe7e7,
        ..EventStreamConfig::default()
    })
    .into_iter()
    .map(|s| {
        s.events
            .iter()
            .map(|e| StreamEvent {
                feature: e.feature,
                ts: e.ts,
                value: e.value,
            })
            .collect()
    })
    .collect()
}

fn ingest_body(session: &str, ev: &StreamEvent) -> String {
    format!(
        "{{\"session\":\"{session}\",\"events\":[{{\"f\":{},\"t\":{},\"v\":{}}}],\"score\":true}}",
        ev.feature, ev.ts, ev.value
    )
}

/// The event a body carries, decoded the way the server decodes it.
fn decoded_event(body: &str) -> StreamEvent {
    let v = json::parse(body).expect("own body parses");
    let ev = &v.get("events").and_then(Json::as_arr).expect("events")[0];
    let num = |k| ev.get(k).and_then(Json::as_f64).expect("numeric field");
    StreamEvent {
        feature: num("f") as usize,
        ts: num("t") as f32,
        value: num("v") as f32,
    }
}

/// What a scheduled request is, for checking its response.
#[derive(Debug, Clone, Copy)]
pub enum Tag {
    /// One-patient `/score` of pool patient `i`.
    Single(usize),
    /// Ward read starting at pool patient `i`.
    Ward(usize),
    /// `/ingest` of event `k` of stream `s`.
    Ingest { s: usize, k: usize },
}

/// A schedule plus what each request is.
#[derive(Default)]
pub struct Plan {
    /// The requests, sorted by arrival.
    pub requests: Vec<Planned>,
    /// The kind of each request.
    pub tags: Vec<Tag>,
}

impl Plan {
    /// Indices of the primary requests: one-patient `/score`.
    pub fn primary(&self) -> Vec<usize> {
        (0..self.tags.len())
            .filter(|&i| matches!(self.tags[i], Tag::Single(_)))
            .collect()
    }

    /// Indices of ward reads.
    pub fn reads(&self) -> Vec<usize> {
        (0..self.tags.len())
            .filter(|&i| matches!(self.tags[i], Tag::Ward(_)))
            .collect()
    }

    /// The first `n` requests only.
    pub fn truncate(&mut self, n: usize) {
        self.requests.truncate(n);
        self.tags.truncate(n);
    }
}

/// Builds one phase's schedule: one-patient `/score` requests at
/// `primary_rps` (none when 0) merged with ward reads at `read_rps`, over
/// `span`. `phase` selects the random stream.
pub fn schedule(
    inp: &Inputs,
    seed: u64,
    phase: u64,
    primary_rps: f64,
    read_rps: f64,
    span: Duration,
) -> Plan {
    let mut rng = Rng::new(seed, phase);
    let mut items: Vec<(Duration, Tag, &Rc<str>)> = Vec::new();
    if primary_rps > 0.0 {
        for t in rng.arrivals(primary_rps, span) {
            let p = rng.below(POOL);
            items.push((t, Tag::Single(p), &inp.single[p]));
        }
    }
    if read_rps > 0.0 {
        for t in rng.arrivals(read_rps, span) {
            let p = rng.below(POOL);
            items.push((t, Tag::Ward(p), &inp.ward[p]));
        }
    }
    items.sort_by_key(|(t, _, _)| *t);
    let mut plan = Plan::default();
    for (due, tag, body) in items {
        plan.requests.push(Planned {
            due,
            path: "/score",
            body: Rc::clone(body),
            session: None,
            keep_body: true,
        });
        plan.tags.push(tag);
    }
    plan
}

/// A short trickle of `/ingest` writes (score on) so a `/score`
/// workload's traced run sees the server's staleness histogram fill.
pub fn schedule_ingest_trickle(inp: &Inputs, seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 90);
    let mut plan = Plan::default();
    let mut next = vec![0usize; inp.streams.len()];
    for (j, due) in rng
        .arrivals(12.0, Duration::from_secs(2))
        .into_iter()
        .enumerate()
    {
        let s = j % inp.streams.len();
        let Some(ev) = inp.streams[s].get(next[s]) else {
            continue;
        };
        plan.requests.push(Planned {
            due,
            path: "/ingest",
            body: ingest_body(&format!("p90-s{s}"), ev).into(),
            session: Some(s),
            keep_body: true,
        });
        plan.tags.push(Tag::Ingest { s, k: next[s] });
        next[s] += 1;
    }
    plan
}

/// Result of checking a run's responses.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Requests scheduled.
    pub attempted: usize,
    /// Non-2xx, refused, dropped or unsent requests.
    pub failed: usize,
    /// Answered requests whose output differs from the reference.
    pub mismatched: usize,
    /// Responses compared against the reference.
    pub compared: usize,
}

/// Checks every kept response of a run: `/score` bodies byte for byte
/// against the in-process scorer, sampled `/ingest` predictions against
/// the batch oracle over the same event prefix.
/// With `shed_ok`, requests a ladder rung never sent are the rung's
/// verdict, not failures.
pub fn check(
    plan: &Plan,
    res: &RunResult,
    inp: &Inputs,
    model: &LoadedModel,
    shed_ok: bool,
) -> Checked {
    let mut c = Checked {
        attempted: plan.requests.len(),
        ..Checked::default()
    };
    let inf = model.inferencer();
    let stream_cfg = StreamConfig::for_inferencer(&inf, DEFAULT_HORIZON_HOURS);
    let mut oracle: Vec<(usize, ScoreRequest)> = Vec::new();
    for (i, o) in res.outcomes.iter().enumerate() {
        if !o.ok() {
            c.failed += usize::from(!(shed_ok && o.sent.is_none()));
            continue;
        }
        let Some(body) = &o.body else { continue };
        match plan.tags[i] {
            Tag::Single(p) => {
                c.compared += 1;
                c.mismatched += usize::from(*body != inp.single_expect[p]);
            }
            Tag::Ward(p) => {
                c.compared += 1;
                c.mismatched += usize::from(*body != inp.ward_expect[p]);
            }
            Tag::Ingest { s: st, k } => {
                let prefix: Vec<StreamEvent> = plan.requests[..=i]
                    .iter()
                    .zip(&plan.tags[..=i])
                    .filter(|(_, t)| matches!(t, Tag::Ingest { s, .. } if *s == st))
                    .map(|(r, _)| decoded_event(&r.body))
                    .collect();
                debug_assert_eq!(prefix.len(), k + 1);
                oracle.push((i, batch_reference(&prefix, &stream_cfg, &model.scaler)));
            }
        }
    }
    if !oracle.is_empty() {
        for chunk in oracle.chunks(WARD) {
            let reqs: Vec<ScoreRequest> = chunk.iter().map(|(_, r)| r.clone()).collect();
            let out = inf.score_requests_parallel(&reqs, 0);
            for (row, (i, _)) in chunk.iter().enumerate() {
                let want = format!(
                    "\"prediction\":{}",
                    render_row(&RowScore::from_output(&out, row))
                );
                let body = res.outcomes[*i].body.as_deref().unwrap_or_default();
                c.compared += 1;
                c.mismatched += usize::from(!embeds_value(body, &want));
            }
        }
    }
    c
}

/// Whether `body` holds `member` (a rendered `"key":value`) as a whole
/// object member.
fn embeds_value(body: &str, member: &str) -> bool {
    body.match_indices(member).any(|(at, _)| {
        let before = body[..at].ends_with(['{', ',']);
        let after = body[at + member.len()..].starts_with([',', '}']);
        before && after
    })
}

/// A scorer compiled from the served snapshot, for the reference outputs
/// and in-process timing.
pub fn reference_model(s: &Setup) -> (LoadedModel, Arc<Scorer>) {
    let loaded = load_snapshot(&s.snapshot).expect("snapshot reloads");
    let scorer = Arc::new(loaded.scorer(false));
    (loaded, scorer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_match_is_exact() {
        let body = r#"{"a":1,"prediction":{"p":[0.5]},"z":2}"#;
        assert!(embeds_value(body, r#""prediction":{"p":[0.5]}"#));
        assert!(!embeds_value(body, r#""prediction":{"p":[0.50]}"#));
        assert!(!embeds_value(
            r#"{"xprediction":{"p":[0.5]}}"#,
            r#""prediction":{"p":[0.5]}"#
        ));
    }

    #[test]
    fn arrivals_are_seeded_and_exact_in_count() {
        let a = Rng::new(7, 1).arrivals(50.0, Duration::from_secs(2));
        let b = Rng::new(7, 1).arrivals(50.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, Rng::new(8, 1).arrivals(50.0, Duration::from_secs(2)));
    }
}

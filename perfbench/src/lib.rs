//! Open-loop end-to-end benchmark and per-layer ledger for the CohortNet
//! reproduction.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! trains the workload's model, serves it in this process, drives it with
//! a single-threaded open-loop generator, checks every response it keeps
//! against an in-process reference, and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` (the `perfbench-traced` binary, which counts allocations)
//! reports the per-layer ledger.

pub mod client;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod workload;

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use cohortnet_serve::json::{self, Json};

use crate::client::{Planned, RunResult};
use crate::layers::AllocCounter;
use crate::spans::Recorder;
use crate::stats::{mean, percentile, sorted, tail_reportable, Rung, TAIL};
use crate::workload::{Checked, Inputs, Plan, Setup, Workload};

/// End-to-end metrics of an untraced run, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 4] = ["setup_s", "train_s", "p50_ms", "peak_rss_mb"];

/// Per-layer metrics of a traced run, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 37] = [
    "snapshot.load_ms",
    "infer.compile_ms",
    "json.parse_score_us",
    "infer.b1_us",
    "infer.b16_us_per_row",
    "infer.allocs_per_row",
    "infer.alloc_bytes_per_row",
    "index.probe_us",
    "stream.ingest_us",
    "stream.score_us",
    "stream.probe_reuse_ratio",
    "stream.stale_frac",
    "tensor.gemm_b1_ns",
    "tensor.gemm_b16_ns",
    "train.step1_s",
    "train.collect_s",
    "train.fit_s",
    "train.assign_s",
    "train.mine_s",
    "train.represent_s",
    "train.step4_s",
    "train.sec_per_batch",
    "discovery.cohorts",
    "train.unattributed_s",
    "serve.accept_us",
    "serve.queue_us",
    "serve.batch_wait_us",
    "serve.compute_us",
    "serve.render_us",
    "serve.write_us",
    "serve.batch_size",
    "serve.handler_us",
    "trace.unattributed_ms",
    "trace.overhead_ms",
    "client.conn_wait_ms_p50",
    "client.gen_lag_ms_p99",
    "stream.staleness_us_p99",
];

/// Keep-alive connections the generator may hold: never more than the
/// host's cores.
pub fn conns() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A run is invalid when generator lag p90 exceeds this share of the
/// workload's latency limit: the generator is not keeping up. (A stall of
/// the whole host shows in the lag p99, but latency is timed from the
/// schedule, so such a run still measures what a client would see.)
pub const GEN_LAG_SHARE: f64 = 0.5;
/// Most requests in a traced phase, so `/debug/requests` (1024 slots) is
/// read before its ring wraps.
pub const TRACE_CAP: usize = 900;
/// The unattributed remainder may be at most this share of mean latency;
/// on `score_t48`, `infer.b1_us` and `serve.compute_us` must agree within it.
pub const ATTRIBUTION_BOUND: f64 = 0.25;

/// Share of `--seconds` for the ward-read phase of an untraced run; the
/// nominal-rate windows take the rest.
const READ_SHARE: f64 = 0.25;
/// Share of `--seconds` for each of the two phases of a traced run.
const TRACED_SHARE: f64 = 0.3;
/// Windows of each traced phase; a block of in-process batch-1 timings
/// follows each.
const TRACE_WINDOWS: usize = 3;
/// Length of one block of in-process batch-1 timings.
const B1_BLOCK: Duration = Duration::from_millis(600);
/// Share of `--seconds` for each ladder rung of a traced run.
const RUNG_SHARE: f64 = 0.06;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer (traced) run.
    pub trace: bool,
}

/// Parses `--workload --seed --seconds --trace`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => a.seconds = val.parse().map_err(bad)?,
            "--trace" => a.trace = val.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload::by_name(&a.workload).is_none() {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A metric as measured.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed and the run is valid.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed (including wrong outputs).
    pub failed: usize,
    /// The metrics the contract asks for.
    pub metrics: Vec<Metric>,
    /// Further context: validity figures, ladder rungs, the stamp.
    pub context: Vec<(String, Json)>,
    /// Why the run is not correct.
    pub problems: Vec<String>,
}

impl Report {
    fn problem(&mut self, why: String) {
        eprintln!("[perfbench] FAIL: {why}");
        self.problems.push(why);
    }

    fn ctx(&mut self, k: &str, v: Json) {
        self.context.push((k.into(), v));
    }

    fn count(&mut self, c: Checked, what: &str) {
        self.attempted += c.attempted;
        self.failed += c.failed + c.mismatched;
        if c.failed > 0 {
            self.problem(format!(
                "{what}: {} of {} requests failed",
                c.failed, c.attempted
            ));
        }
        if c.mismatched > 0 {
            self.problem(format!(
                "{what}: {} of {} checked outputs differ from the reference",
                c.mismatched, c.compared
            ));
        }
    }

    /// The contract's last line.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let _ = write!(
                m,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }

    /// Metrics, context and problems as one JSON object.
    pub fn full_json(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|x| {
                    (
                        x.name.to_string(),
                        json::obj(vec![
                            ("value", Json::Num(x.value)),
                            ("unit", Json::Str(x.unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        let mut pairs = vec![("metrics".to_string(), metrics)];
        pairs.extend(self.context.iter().cloned());
        pairs.push((
            "problems".into(),
            Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ));
        json::render(&Json::Obj(pairs.into_iter().collect()))
    }
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over the program's sources, so a result names the code it
/// measured even where no git metadata exists.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.toml")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The checkout's git revision, or `none` when the working directory is
/// not the top of a git work tree.
fn git_revision() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let mut lines = text.lines();
            let top = lines.next().and_then(|t| std::fs::canonicalize(t).ok());
            match (top, lines.next()) {
                (Some(top), Some(rev)) if Some(&top) == here.as_ref() => rev.to_string(),
                _ => "none".into(),
            }
        }
        _ => "none".into(),
    }
}

fn stamp(w: &Workload, a: &Args) -> Json {
    use Json::{Num, Str};
    let s = w.shape;
    json::obj(vec![
        ("workload", Str(w.name.into())),
        ("git_rev", Str(git_revision())),
        ("source_fnv", Str(source_fingerprint())),
        ("nproc", Num(nproc() as f64)),
        ("conns", Num(conns() as f64)),
        (
            "simd_backend",
            Str(cohortnet_tensor::simd::active().name().into()),
        ),
        ("f", Num(s.f as f64)),
        ("t", Num(s.t as f64)),
        ("patients", Num(s.patients as f64)),
        ("epochs_pretrain", Num(s.epochs_pretrain as f64)),
        ("epochs_exploit", Num(s.epochs_exploit as f64)),
        ("seed", Num(a.seed as f64)),
        ("seconds", Num(a.seconds as f64)),
        ("trace", Json::Bool(a.trace)),
        ("nominal_rps", Num(w.nominal_rps)),
        ("read_rps", Num(w.read_rps)),
        ("limit_ms", Num(w.limit_ms)),
        ("ladder_start", Num(w.ladder_start)),
        ("ladder_step", Num(w.ladder_step)),
        ("ladder_rungs", Num(w.ladder_rungs as f64)),
        ("setups", Num(w.setups as f64)),
    ])
}

/// Latencies (ms) of the requests at `idx`; failures are infinite.
fn latencies(plan: &Plan, res: &RunResult, idx: &[usize]) -> Vec<f64> {
    sorted(
        &idx.iter()
            .map(|&i| res.latency_ms(&plan.requests, i))
            .collect::<Vec<_>>(),
    )
}

fn secs(a: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(a.seconds as f64 * share)
}

fn drive(addr: SocketAddr, plan: &Plan, drain: Duration) -> RunResult {
    client::run(addr, &plan.requests, conns(), drain)
}

/// Drives `plan`, which spans `span`, in `n` consecutive windows of equal
/// length and calls `between(k)` after window `k`. Each window drains
/// before the next starts, so a session's requests keep their order.
/// Outcomes are shifted back onto the plan's clock, so the result reads as
/// one run of `plan`.
fn drive_in_windows(
    addr: SocketAddr,
    plan: &Plan,
    span: Duration,
    n: usize,
    drain: Duration,
    mut between: impl FnMut(usize),
) -> RunResult {
    let width = span / n as u32;
    let mut all = RunResult::default();
    let mut lo = 0;
    for k in 0..n {
        let offset = width * k as u32;
        let hi = if k + 1 == n {
            plan.requests.len()
        } else {
            lo + plan.requests[lo..].partition_point(|p| p.due < offset + width)
        };
        let window: Vec<Planned> = plan.requests[lo..hi]
            .iter()
            .map(|p| Planned {
                due: p.due - offset,
                ..p.clone()
            })
            .collect();
        let mut res = client::run(addr, &window, conns(), drain);
        for o in &mut res.outcomes {
            o.sent = o.sent.map(|t| t + offset);
            o.done = o.done.map(|t| t + offset);
        }
        all.outcomes.append(&mut res.outcomes);
        all.gen_lag_ms.append(&mut res.gen_lag_ms);
        all.backlog.append(&mut res.backlog);
        all.unsent += res.unsent;
        between(k);
        lo = hi;
    }
    all
}

/// A phase's client figures: generator lag p90 and p99, connection wait p50.
fn client_figures(plan: &[Planned], res: &RunResult) -> (f64, f64, f64) {
    let at = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&sorted(v), p)
        }
    };
    let waits: Vec<f64> = (0..plan.len())
        .filter_map(|i| res.conn_wait_ms(plan, i))
        .collect();
    (
        at(&res.gen_lag_ms, 90.0),
        at(&res.gen_lag_ms, 99.0),
        at(&waits, 50.0),
    )
}

/// Runs one workload and returns its report.
pub fn run(a: &Args, allocs: Option<AllocCounter>) -> Report {
    let w = workload::by_name(&a.workload).expect("validated by parse_args");
    let mut rep = Report::default();
    rep.ctx("stamp", stamp(&w, a));
    if a.trace {
        run_traced(&w, a, &mut rep, allocs);
    } else {
        run_untraced(&w, a, &mut rep);
    }
    let mut names: Vec<&str> = rep.metrics.iter().map(|m| m.name).collect();
    let mut want: Vec<&str> = if a.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    names.sort_unstable();
    want.sort_unstable();
    if names != want {
        rep.problem(format!(
            "reported metrics {names:?} differ from the declared {want:?}"
        ));
    }
    if let Some(m) = rep.metrics.iter().find(|m| !m.value.is_finite()) {
        rep.problem(format!("{} was not measured", m.name));
    }
    rep.correct = rep.problems.is_empty();
    rep
}

/// Trains and serves once, as a workload's set-up.
fn setup(w: &Workload, rep: &mut Report) -> Setup {
    let s = workload::setup(w);
    eprintln!(
        "[perfbench] set-up {:.3}s (train {:.3}s)",
        s.setup_s, s.train_s
    );
    rep.attempted += 1;
    s
}

/// What must repeat exactly across set-ups of one workload: the cohort
/// count and the bits of the final Step 1 and Step 4 losses.
fn repeat_key(s: &Setup) -> (usize, u32, u32) {
    (
        s.cohorts,
        s.final_losses.0.to_bits(),
        s.final_losses.1.to_bits(),
    )
}

fn run_untraced(w: &Workload, a: &Args, rep: &mut Report) {
    // Set-ups and windows of traffic alternate through the whole run, so the
    // samples behind every median span the run and a slow spell of the
    // host weighs on them less. The first set-up's server takes all the
    // traffic; each later one is timed and shut down at once.
    let served = setup(w, rep);
    let (model, scorer) = workload::reference_model(&served);
    let inp = Inputs::generate(w, a.seed, &served, &scorer);
    let addr = served.server.addr();
    let drain = Duration::from_secs(5);
    let windows = (w.setups - 1).max(1);
    let nominal = 1.0 - READ_SHARE;
    let plan = workload::schedule(&inp, a.seed, 1, w.nominal_rps, 0.0, secs(a, nominal));
    let mut timed = vec![(served.setup_s, served.train_s, repeat_key(&served))];
    let mut read_lat = Vec::new();
    let res = drive_in_windows(addr, &plan, secs(a, nominal), windows, drain, |k| {
        // Ward reads on their own, mid-run.
        if k == windows / 2 {
            let p = workload::schedule(&inp, a.seed, 2, 0.0, w.read_rps, secs(a, READ_SHARE));
            let r = drive(addr, &p, drain);
            rep.count(workload::check(&p, &r, &inp, &model, false), "read phase");
            read_lat = latencies(&p, &r, &p.reads());
        }
        let extra = setup(w, rep);
        extra.server.shutdown();
        timed.push((extra.setup_s, extra.train_s, repeat_key(&extra)));
    });
    rep.count(
        workload::check(&plan, &res, &inp, &model, false),
        "nominal phase",
    );
    let lat = latencies(&plan, &res, &plan.primary());
    let (lag_p90, lag_p99, wait_p50) = client_figures(&plan.requests, &res);
    for (_, _, key) in &timed {
        if *key != timed[0].2 {
            rep.problem(format!(
                "training is not repeatable: (cohorts, loss bits) {key:?} vs {:?}",
                timed[0].2
            ));
        }
    }
    let setup_s: Vec<f64> = timed.iter().map(|t| t.0).collect();
    let train_s: Vec<f64> = timed.iter().map(|t| t.1).collect();

    let read_lat = sorted(&read_lat);
    if !tail_reportable(TAIL, lat.len()) {
        rep.problem(format!(
            "only {} primary requests: p{TAIL} needs more",
            lat.len()
        ));
    }
    if !tail_reportable(50.0, read_lat.len()) {
        rep.problem(format!("only {} ward reads: p50 needs 20", read_lat.len()));
    }
    let lag_bound = w.limit_ms * GEN_LAG_SHARE;
    if lag_p90 > lag_bound {
        rep.problem(format!(
            "generator lag p90 {lag_p90:.3} ms exceeds {lag_bound:.3} ms"
        ));
    }

    // Tail and ward-read figures are reported with the run but not gated:
    // on a shared 2-vCPU host their run-to-run spread exceeds any bound the
    // benchmark may set (a ward read needs both cores at once).
    let num = Json::Num;
    rep.ctx("p95_ms", num(percentile(&lat, TAIL)));
    rep.ctx("read_p50_ms", num(percentile(&read_lat, 50.0)));
    if tail_reportable(99.0, lat.len()) {
        rep.ctx("p99_ms", num(percentile(&lat, 99.0)));
    }
    rep.ctx("primary_requests", num(lat.len() as f64));
    rep.ctx("read_requests", num(read_lat.len() as f64));
    rep.ctx("client.gen_lag_ms_p90", num(lag_p90));
    rep.ctx("client.gen_lag_ms_p99", num(lag_p99));
    rep.ctx("client.conn_wait_ms_p50", num(wait_p50));

    rep.metrics = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("train_s", stats::median(&train_s), "s"),
        metric("p50_ms", percentile(&lat, 50.0), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
}

/// Runs the rate ladder above the nominal rate; it stops after two failed
/// rungs. Reports the highest passing rate and every rung as context: on a
/// shared 2-vCPU host their run-to-run spread exceeds any bound the
/// benchmark may set, so they are not gated.
fn ladder(
    w: &Workload,
    a: &Args,
    s: &Setup,
    inp: &Inputs,
    model: &cohortnet::snapshot::LoadedModel,
    rep: &mut Report,
) {
    let slack = |n: usize| (n as f64 * 0.02).max(4.0);
    let mut rungs: Vec<Rung> = Vec::new();
    let mut rate = w.ladder_start;
    for k in 1..=w.ladder_rungs as u64 {
        if stats::ladder_done(&rungs, w.limit_ms) {
            break;
        }
        let p = workload::schedule(inp, a.seed, 10 + k, rate, 0.0, secs(a, RUNG_SHARE));
        let r = drive(
            s.server.addr(),
            &p,
            Duration::from_secs_f64(2.0 * w.limit_ms / 1e3),
        );
        rep.count(workload::check(&p, &r, inp, model, true), "ladder");
        let idx = p.primary();
        rungs.push(Rung {
            offered_rps: rate,
            achieved_rps: r.achieved_rps(&p.requests, &idx),
            latencies_ms: latencies(&p, &r, &idx),
            backlog_grew: stats::backlog_grows(&r.backlog, slack(r.backlog.len())) || r.unsent > 0,
        });
        rate *= w.ladder_step;
    }
    let max_rps = stats::max_rate(&rungs, w.limit_ms).unwrap_or(f64::NAN);
    let table = Json::Arr(
        rungs
            .iter()
            .map(|r| {
                json::obj(vec![
                    ("offered_rps", Json::Num(r.offered_rps)),
                    ("achieved_rps", Json::Num(r.achieved_rps)),
                    ("tail_ms", Json::Num(percentile(&r.latencies_ms, TAIL))),
                    ("backlog_grew", Json::Bool(r.backlog_grew)),
                    ("passes", Json::Bool(r.passes(w.limit_ms))),
                ])
            })
            .collect(),
    );
    rep.ctx("max_rps", Json::Num(max_rps));
    rep.ctx("ladder", table);
}

/// Nearest-rank quantile from a rendered Prometheus histogram (the upper
/// bound of the bucket holding the rank).
fn histogram_quantile(metrics: &str, family: &str, q: f64) -> Option<f64> {
    let prefix = format!("{family}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            let (le, count) = rest.split_once("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            buckets.push((le, count.trim().parse().ok()?));
        }
    }
    buckets.sort_by(|x, y| x.0.total_cmp(&y.0));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil();
    buckets.iter().find(|b| b.1 >= rank).map(|b| b.0)
}

/// Stage fields of a `/debug/requests` row, in pipeline order.
const STAGES: [&str; 6] = [
    "accept_us",
    "queue_us",
    "batch_wait_us",
    "compute_us",
    "render_us",
    "write_us",
];
/// The per-layer metric of each stage.
const STAGE_METRICS: [&str; 6] = [
    "serve.accept_us",
    "serve.queue_us",
    "serve.batch_wait_us",
    "serve.compute_us",
    "serve.render_us",
    "serve.write_us",
];

fn run_traced(w: &Workload, a: &Args, rep: &mut Report, allocs: Option<AllocCounter>) {
    let mut rec = Recorder::default();
    let s = setup(w, rep);
    // The reported step times must fit inside the call, and leave at most
    // the attribution bound of it unexplained.
    let steps = layers::train_steps_sum(&s);
    let train_rest = s.train_s - steps;
    if train_rest < -0.01 * s.train_s || train_rest > ATTRIBUTION_BOUND * s.train_s {
        rep.problem(format!(
            "train_cohortnet step times sum to {steps:.3}s but the call took {:.3}s",
            s.train_s
        ));
    }
    rep.ctx("train_s", Json::Num(s.train_s));
    let (model, scorer) = workload::reference_model(&s);
    let inp = Inputs::generate(w, a.seed, &s, &scorer);
    let mut m = vec![metric("train.unattributed_s", train_rest, "s")];
    let addr = s.server.addr();
    let drain = Duration::from_secs(5);

    // The same schedule twice. Spans of the second are assembled afterwards
    // from the generator's timestamps and the server's flight records, so
    // tracing adds no work to the measured path; the p50 difference between
    // the two shows it. Each replay runs in windows with a block of
    // in-process batch-1 timings after each, so `infer.b1_us` samples the
    // same spells of the host as `serve.compute_us`.
    let gap = Duration::from_secs_f64(1.0 / w.nominal_rps);
    let mut b1 = Vec::new();
    let mut phase = |rep: &mut Report, rec: &mut Recorder| {
        let mut plan =
            workload::schedule(&inp, a.seed, 1, w.nominal_rps, 0.0, secs(a, TRACED_SHARE));
        plan.truncate(TRACE_CAP);
        let res = drive_in_windows(
            addr,
            &plan,
            secs(a, TRACED_SHARE),
            TRACE_WINDOWS,
            drain,
            |_| {
                b1.extend(layers::infer_b1(&scorer, &inp.requests, rec, gap, B1_BLOCK));
            },
        );
        rep.count(
            workload::check(&plan, &res, &inp, &model, false),
            "traced phase",
        );
        let p50 = percentile(&latencies(&plan, &res, &plan.primary()), 50.0);
        (plan, res, p50)
    };
    let (_, _, untraced_p50) = phase(rep, &mut rec);
    let (plan, res, traced_p50) = phase(rep, &mut rec);
    let (_, lag_p99, wait_p50) = client_figures(&plan.requests, &res);

    // Server stages for this phase, joined to the client's view by request id.
    let (_, body) =
        client::call(addr, "GET", "/debug/requests?n=1024", "").expect("debug requests");
    let flight = json::parse(&body).expect("debug requests json");
    let rows = flight.get("requests").and_then(Json::as_arr).unwrap_or(&[]);
    let by_rid: std::collections::HashMap<&str, &Json> = rows
        .iter()
        .filter_map(|r| Some((r.get("rid")?.as_str()?, r)))
        .collect();
    let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    // Per stage, then the server's time outside the named stages: values
    // over the replay's requests, all one-patient /score.
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len() + 1];
    let (mut batch, mut e2e, mut waits) = (Vec::new(), Vec::new(), Vec::new());
    let mut joined = 0usize;
    for (i, o) in res.outcomes.iter().enumerate() {
        let (Some(sent), Some(done), Some(rid)) = (o.sent, o.done, o.rid.as_deref()) else {
            continue;
        };
        let Some(row) = by_rid.get(rid) else { continue };
        joined += 1;
        let req = i as u64 + 1;
        let due_us = plan.requests[i].due.as_secs_f64() * 1e6;
        let (sent_us, done_us) = (sent.as_secs_f64() * 1e6, done.as_secs_f64() * 1e6);
        let root = rec.record("client.request", 0, req, due_us, done_us);
        rec.record("client.conn_wait", root, req, due_us, sent_us);
        let srv = rec.record(
            "server.request",
            root,
            req,
            sent_us,
            sent_us + field(row, "total_us"),
        );
        let mut at = sent_us;
        for (k, st) in STAGES.iter().enumerate() {
            let v = field(row, st);
            rec.record(STAGE_METRICS[k], srv, req, at, at + v);
            at += v;
            stages[k].push(v);
        }
        stages[STAGES.len()].push(rec.self_time_us(srv));
        batch.push(field(row, "batch_size"));
        e2e.push((done_us - due_us) / 1e3);
        waits.push((sent_us - due_us) / 1e3);
    }
    if joined * 10 < plan.requests.len() * 9 {
        rep.problem(format!(
            "only {joined} of {} requests joined their flight records",
            plan.requests.len()
        ));
    }
    let p50_of = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&sorted(v), 50.0)
        }
    };
    for (name, vals) in STAGE_METRICS.iter().zip(&stages) {
        m.push(metric(name, p50_of(vals), "us"));
    }
    m.push(metric("serve.batch_size", mean(&batch), "count"));
    m.push(metric(
        "serve.handler_us",
        p50_of(&stages[STAGES.len()]),
        "us",
    ));
    let means: Vec<f64> = stages.iter().map(|v| mean(v) / 1e3).collect();
    let remainder = stats::unattributed_remainder(mean(&e2e), mean(&waits), &means);
    let share = remainder / mean(&e2e).max(1e-9);
    if share.abs() > ATTRIBUTION_BOUND {
        rep.problem(format!(
            "unattributed remainder {remainder:.3} ms is {share:.3} of mean latency"
        ));
    }
    m.push(metric("trace.unattributed_ms", remainder, "ms"));
    m.push(metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms"));
    m.push(metric("client.conn_wait_ms_p50", wait_p50, "ms"));
    m.push(metric("client.gen_lag_ms_p99", lag_p99, "ms"));

    // Ingest→score staleness as the server records it, after a short
    // trickle of writes so the histogram has samples.
    let trickle = workload::schedule_ingest_trickle(&inp, a.seed);
    let r = drive(addr, &trickle, drain);
    rep.count(
        workload::check(&trickle, &r, &inp, &model, false),
        "staleness trickle",
    );
    let (_, metrics) = client::call(addr, "GET", "/metrics", "").expect("metrics");
    let stale_p99 =
        histogram_quantile(&metrics, "cohortnet_stream_staleness_us", 0.99).unwrap_or(f64::NAN);
    m.push(metric("stream.staleness_us_p99", stale_p99, "us"));

    // In-process layer timings last, right after the traced phase, so a
    // change in host speed between the two is unlikely to split them.
    m.extend(layers::sweep(&s, &model, &inp, &mut rec, allocs, &b1));
    let value = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let (b1, compute) = (value("infer.b1_us"), value("serve.compute_us"));
    if w.name == "score_t48" && (b1 - compute).abs() > ATTRIBUTION_BOUND * compute {
        rep.problem(format!(
            "infer.b1_us {b1:.0} and serve.compute_us {compute:.0} disagree"
        ));
    }

    // The ladder overloads the server on purpose, so it runs last.
    ladder(w, a, &s, &inp, &model, rep);

    let path = format!("perfbench/out/{}-{}.spans.jsonl", w.name, a.seed);
    if let Err(e) = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&path, rec.to_jsonl()))
    {
        eprintln!("[perfbench] could not write {path}: {e}");
    }
    rep.metrics = m;
}

/// Parses the command line, runs, prints, and returns the exit code.
pub fn main_with(allocs: Option<AllocCounter>) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return 2;
        }
    };
    if a.trace && allocs.is_none() {
        eprintln!("perfbench: --trace 1 runs the perfbench-traced binary");
        return 2;
    }
    let rep = run(&a, allocs);
    for x in &rep.metrics {
        eprintln!("[perfbench] {:<28} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!("{}", rep.full_json());
    println!("{}", rep.result_line());
    i32::from(!rep.correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(b: &Json, key: &str) -> Vec<String> {
        b.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let b = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(names(&b, "end_to_end"), END_TO_END);
        assert_eq!(names(&b, "per_layer"), PER_LAYER);
        let workloads: Vec<String> = names(&b, "workloads");
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload score_t48 --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload score_demo --seed")).is_err());
        assert!(parse_args(&argv("--workload score_demo --seconds 0")).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let rep = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("p50_ms", 1.25, "ms")],
            ..Report::default()
        };
        let v = json::parse(&rep.result_line()).expect("valid json");
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        let p50 = v
            .get("metrics")
            .and_then(|m| m.get("p50_ms"))
            .expect("metric");
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn histogram_quantile_reads_cumulative_buckets() {
        let text = "h_bucket{le=\"10\"} 50\nh_bucket{le=\"100\"} 99\nh_bucket{le=\"+Inf\"} 100\n";
        assert_eq!(histogram_quantile(text, "h", 0.5), Some(10.0));
        assert_eq!(histogram_quantile(text, "h", 0.99), Some(100.0));
        assert_eq!(histogram_quantile(text, "h", 1.0), Some(f64::INFINITY));
        assert_eq!(histogram_quantile("", "h", 0.5), None);
    }
}

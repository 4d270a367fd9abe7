//! # cohortnet-serve
//!
//! Online scoring for trained CohortNet snapshots: a micro-batching request
//! engine over the tape-free [`cohortnet::infer::Inferencer`] — the model's
//! one forward pass run by the non-recording executor
//! ([`cohortnet_tensor::exec::Eval`]) instead of the training tape — fronted
//! by a dependency-free HTTP/1.1 server built on a readiness event loop.
//!
//! * [`engine`] — bounded request queue that coalesces concurrent requests
//!   into minibatches (`max_batch` / `max_delay_us` knobs). The determinism
//!   contract is inherited from the executor's row independence: a request
//!   scores bit-identically alone or inside any batch, and to the bit equal
//!   to the training tape's forward.
//! * [`server`] — `POST /score`, `POST /explain`, `GET /cohorts`,
//!   `GET /healthz`, `GET /metrics`, `GET /debug/{requests,config,trace}`,
//!   `POST /shutdown`; graceful drain on shutdown. Every request gets
//!   per-stage latency attribution (accept/queue/batch-wait/compute/
//!   render/write) recorded into an always-on flight recorder
//!   ([`cohortnet_obs::flight`]) behind `/debug/requests`, echoed as a
//!   `Server-Timing` header on `X-Debug-Timing: 1`, and — when tracing is
//!   on — linked into one connected cross-thread trace via
//!   [`cohortnet_obs::ctx`]. The transport core is a nonblocking event loop with
//!   HTTP/1.1 keep-alive and exact connection limiting, split from the
//!   application along the [`server::App`] trait — [`serve`] runs the
//!   single-model scoring app, [`serve_app`] runs anything else (the
//!   `cohortnet-fleet` router) behind the identical transport.
//! * [`stream`] — event-stream ingestion and online scoring (`POST
//!   /ingest`, `GET /sessions`): per-admission [`cohortnet::stream`]
//!   sessions under the prefix-identity contract, re-scored on the worker
//!   thread through the incremental cohort-index probe cache (never the
//!   batching engine). The batch surface is delegated to the same scoring
//!   app, so [`serve_stream`] answers `/score` byte-identically to
//!   [`serve`].
//! * [`reactor`] — the dependency-free readiness layer under the loop:
//!   epoll on Linux, poll(2) elsewhere (or via
//!   `COHORTNET_SERVE_BACKEND=poll`), plus the self-pipe waker. Public so
//!   the bench crate's open-loop load harness can drive thousands of
//!   client sockets off the same primitive.
//! * [`metrics`] — serving metric families (request counters, queue gauge,
//!   stage histograms), a thin shim over [`cohortnet_obs::metrics`]; the
//!   `/metrics` endpoint renders the per-server registry plus the process
//!   global one in Prometheus text format.
//! * [`client`] — a minimal blocking HTTP client plus a seeded retrying
//!   wrapper (capped exponential backoff + deterministic jitter), shared by
//!   the smoke binary, the throughput bench and the chaos harness.
//! * [`json`] — the minimal JSON parser/renderer the endpoints use.
//! * [`demo`] — a tiny synthetic-data training run producing a real
//!   snapshot, shared by the CLI's `--demo` mode, the smoke binary and the
//!   integration tests.

#![warn(missing_docs)]

pub mod client;
pub mod demo;
pub mod engine;
mod eventloop;
pub mod http;
pub mod json;
pub mod metrics;
pub mod reactor;
pub mod server;
pub mod stream;

pub use engine::{Engine, EngineConfig, EngineError, RowScore};
pub use server::{
    debug_requests_body, debug_trace_body, serve, serve_app, App, AppResponse, Server,
    ServerConfig, ServerCtl, TransportConfig,
};
pub use stream::{serve_stream, StreamOptions};

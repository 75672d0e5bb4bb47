//! The TCP inference server: the closest in-repo analog of the paper's
//! §VI online deployment (Fig. 7). Speaks newline-delimited JSON:
//! every request line is an [`rtp_sim::RtpQuery`], every response line
//! a [`ServeResponse`].
//!
//! # Concurrency model
//!
//! One reactor thread multiplexes *every* client socket through a
//! hand-rolled epoll readiness loop ([`crate::evented`]) — nonblocking
//! accept, per-connection read buffers with partial-line preservation,
//! idle reaping via a timer wheel — and hands connections with
//! complete request lines to one fixed pool of worker threads
//! (`--workers N`, `0` = all cores, the same std-thread scaffolding as
//! `rtp_tensor::parallel`). An idle connection costs an epoll
//! registration, not a thread, so 10k open couriers are as cheap as 10.
//!
//! Each worker owns its **own** [`RtpService`] per shard — one pooled
//! no-grad tape per (worker, shard) lane — over shared read-only
//! `Arc<M2G4Rtp>`s, so inference never contends on a global mutex and
//! per-worker tape reuse cannot change numerics (cleared-tape reuse is
//! bit-identical to a fresh tape). Replies on one connection keep
//! request order: a per-connection claim lets at most one worker drain
//! a connection's line queue at a time.
//!
//! # Shard router (`--model [NAME=]PATH`, repeatable)
//!
//! `--model` may be given repeatedly as `NAME=PATH` pairs to serve a
//! fleet of per-city models from one process — the paper's §VI
//! deployment story. Each shard loads its own `Arc<M2G4Rtp>`, its own
//! inference-engine thread (when batching) and its own encoder cache.
//! Requests carry an optional `"city"` key naming the shard; requests
//! without one go to the **default shard** (the first `--model`), so
//! single-model clients are unaffected. An unknown `"city"` is an
//! error reply naming the hosted shards. Per-shard reply counters
//! (`serve.shard.<name>.requests` / `.errors`) land in the same
//! registry — and therefore in `{"cmd":"stats"}`, the Prometheus
//! exposition and `--metrics-file` — next to the server-wide counters.
//!
//! # Model hot-swap (`{"cmd":"reload"}`, SIGHUP)
//!
//! Each shard's model is behind a versioned `Arc`: a
//! `{"cmd":"reload","model":PATH[,"shard":NAME]}` control line loads
//! and validates a fresh SavedModel **off the hot path** (on the
//! worker that received the command), then performs a blue-green swap —
//! the shard's current `(version, Arc<M2G4Rtp>)` pair is replaced under
//! a mutex while every other worker keeps serving, and in-flight
//! requests finish on the weights they started with (their jobs carry
//! the old generation's `Arc`). Every ok prediction is tagged with the
//! `model_version` that produced it, so a client can watch the served
//! model advance. A server started with `--model` *paths* also installs
//! a SIGHUP handler: the signal re-reads every shard's original path
//! through the same swap (the classic config-reload idiom).
//!
//! Swap correctness around cached state:
//!
//! * encoder-cache entries are keyed by model version as well as
//!   courier + fingerprint; the swap drains the shard's cache (counted
//!   under `serve.cache.invalidations`), and a concurrent miss that
//!   raced the swap refuses to install its now-stale activations — no
//!   post-swap reply is ever computed from pre-swap encoder state;
//! * the inference engine batches only jobs of one model generation
//!   (a job from a newer generation closes the current batch and
//!   starts the next), and rebuilds its tape per generation;
//! * worker lanes rebuild their per-shard [`RtpService`] lazily on the
//!   first request that observes a newer version.
//!
//! A reload whose SavedModel mismatches the running shard (different
//! architecture dims, vocab sizes, missing pipeline, different weight
//! layout) is **rejected** with a structured error naming the first
//! mismatching field — the same loud-rejection policy as `--resume`
//! ([`m2g4rtp::SavedModel::validate_swap`]) — and counted under
//! `serve.reload.failures`; the running model is untouched. Successful
//! swaps count `serve.reload.count`, time themselves into
//! `serve.reload.duration_us`, and record a `reload` flight event.
//!
//! # Micro-batching & encoder cache (`--batch-max`, `--batch-window-us`)
//!
//! With `--batch-max N` (N > 1), workers stop running the encoders
//! themselves: each prediction request's graph is shipped to a single
//! **inference engine** thread, which collects jobs into a micro-batch
//! — waiting at most `--batch-window-us` after the first job, or until
//! `N` jobs are queued — runs **one** batched forward
//! ([`M2G4Rtp::predict_batch_encoded_into`]: per-sample rows stacked
//! through every encoder matmul), and demultiplexes replies to the
//! waiting workers over per-job channels. Stacking is bit-identical per
//! sample to the unbatched path (every batched op is row-local or runs
//! on a per-sample slice), so batching can change throughput but never
//! a reply byte.
//!
//! Each batched prediction also yields the sample's encoder activations,
//! which land in a per-courier **encoder cache** keyed by courier id and
//! fingerprinted by the full request line. A repeat query (same courier,
//! byte-identical line — i.e. identical route state) skips feature
//! extraction and the whole encoder stack: the worker replays the cached
//! activations through the decoders on its own tape
//! ([`M2G4Rtp::predict_encoded_into`]), again bit-identical to a cold
//! forward. Any change in the query line (an order served, the courier
//! moved, time advanced) misses the fingerprint and the fresh result
//! replaces the stale entry (`serve.cache.invalidations`).
//!
//! # Fault isolation & lifecycle
//!
//! * a per-connection I/O error (client reset, broken pipe) drops only
//!   that connection and increments `serve.conn_errors`;
//! * a panic inside request handling is caught (`catch_unwind` around
//!   [`handle_line`]), answers a best-effort error line, drops only
//!   that connection and increments `serve.panics`; the worker's tape
//!   mutex recovers by swapping in a fresh tape;
//! * a client idle longer than `--idle-timeout-secs` is reaped
//!   (`serve.timeouts`) by the reactor's timer wheel;
//! * a connection whose request lines cannot be handed to the pool
//!   because the pool already drained (a shutdown race) is closed and
//!   counted as `serve.dropped_accepts` instead of vanishing silently;
//! * the self-connect poke that wakes the reactor at shutdown is
//!   structurally excluded from connection accounting (the reactor
//!   checks the shutdown flag before registering an accepted socket),
//!   so `serve.connections` counts real clients only;
//! * shutdown is graceful: when `--max-requests` is reached or an
//!   in-band `{"cmd":"shutdown"}` arrives (only honoured with
//!   `--allow-shutdown`), the acceptor stops, in-flight requests
//!   complete, workers drain, and the telemetry summary is printed.
//!
//! # Telemetry
//!
//! Each server owns a private [`rtp_obs::Registry`] (so concurrent
//! servers in one process do not bleed into each other) recording:
//!
//! * `serve.requests` / `serve.errors` / `serve.stats` — reply
//!   counters (ok predictions, error replies, stats replies);
//! * `serve.unknown_cmds` — control lines whose `cmd` value is not a
//!   known command (counted here, **not** in `serve.errors`: a typo'd
//!   operator command is not a malformed client request);
//! * `serve.cache.hits` / `.misses` / `.invalidations` and the
//!   `serve.cache.hit_rate` gauge — encoder-cache effectiveness;
//! * `serve.batch_size` — jobs per batched forward histogram;
//! * `serve.connections` / `serve.conn_errors` / `serve.panics` /
//!   `serve.timeouts` / `serve.dropped_accepts` — connection
//!   lifecycle counters (real clients only; the shutdown poke is
//!   excluded by construction);
//! * `serve.shard.<name>.requests` / `serve.shard.<name>.errors` —
//!   per-shard reply counters, registered for every hosted shard;
//! * `serve.reload.count` / `.failures` and the
//!   `serve.reload.duration_us` histogram — hot-swap outcomes and
//!   load-validate-swap latency;
//! * `serve.trace_id_wraps` — how many times a long-lived connection
//!   exhausted a 2^20-request trace-id segment and rolled over into a
//!   fresh one (ids stay globally unique across the rollover);
//! * `serve.active_connections` — gauge of connections being handled;
//! * `serve.worker.<i>.requests` — replies written per worker;
//! * `serve.latency_us` — full-handle latency histogram. The timer
//!   starts before the request line is parsed and stops after the
//!   response body is serialized, and the **same** measurement becomes
//!   the response's `latency_ms` field, so the field and the histogram
//!   can never disagree;
//! * `serve.route_len` — orders-per-request histogram;
//! * `tensor.pool.hits` / `.misses` / `.hit_rate` — the inference
//!   tapes' buffer-pool stats summed across workers, refreshed after
//!   every prediction.
//!
//! An in-band `{"cmd":"stats"}` request line returns the registry
//! snapshot (merged with the process-global registry, which carries
//! the matmul-kernel counters) as one JSON line; on shutdown the
//! server prints served/error/connection counts and p50/p95/p99
//! latency.
//!
//! # Per-request tracing
//!
//! Every accepted connection mints a [`rtp_obs::TraceCtx`]; every
//! request line on it gets a u64 trace id (consecutive for pipelined
//! requests on one connection). Monotonic timestamps follow the
//! request through worker dispatch → batch-queue enqueue →
//! inference-engine flush → batched forward → demux → reply write, and
//! the resulting per-stage durations land in the
//! `serve.stage.{queue_wait,batch_form,forward,demux,write}_us`
//! histograms for **every** prediction (traced or not). A client that
//! sends `"trace": true` in its query additionally gets `trace_id` and
//! a `stages` breakdown echoed in the reply; with the trace fields
//! stripped, a traced reply is byte-identical to an untraced one.
//! Stages are disjoint sub-intervals of the handle window measured
//! with `saturating_duration_since`, so each duration is finite and
//! non-negative and their sum never exceeds `latency_ms`. The
//! breakdown's `write_us` covers reply construction (apply +
//! serialize); the `serve.stage.write_us` histogram additionally
//! includes the socket write, which a reply cannot observe about
//! itself.
//!
//! # Exporters
//!
//! `{"cmd":"metrics"}` returns the merged registry snapshot rendered
//! as Prometheus text exposition ([`rtp_obs::prom::render`]) inside a
//! one-line JSON envelope; `--metrics-file PATH` additionally writes
//! the same text to `PATH` every `--metrics-interval-secs S` (and once
//! at startup and shutdown) via `write_atomic`, so any scraper or
//! `watch cat` sees complete, valid exposition with zero deps.
//!
//! # Flight recorder
//!
//! The server enables [`rtp_obs::flight`]: request, error, span and
//! panic events (each carrying its trace id) go into fixed per-thread
//! rings. A worker or engine panic records a `panic` event and — with
//! `--flight-dump PATH` — dumps all rings as JSONL through
//! `write_atomic`, turning the catch_unwind sites into post-mortems;
//! `{"cmd":"dump"}` returns the same events in-band.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use m2g4rtp::{EncodedQuery, M2G4Rtp, Prediction, SavedModel};

use crate::evented::{self, EvConn, EventSink};
use rtp_eval::service::{apply_prediction, RtpService};
use rtp_graph::MultiLevelGraph;
use rtp_obs::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
use rtp_obs::{flight, StageBreakdown, TraceCtx};
use rtp_sim::{Dataset, RtpQuery};
use rtp_tensor::parallel::resolve_threads;
use serde::{Deserialize, Serialize};

/// How often an idle worker, the SIGHUP watcher and the metrics-file
/// writer wake up to re-check the overflow queue or the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// One served prediction, mirroring the two application-layer products
/// (Intelligent Order Sorting and Minute-Level ETA).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeResponse {
    /// Order indices in predicted service sequence.
    pub sorted_orders: Vec<usize>,
    /// Predicted AOI visit sequence.
    pub aoi_sequence: Vec<usize>,
    /// Per-order ETA in minutes (aligned with the query's order index).
    pub eta_minutes: Vec<f32>,
    /// Server-side handling latency (parse → predict → serialize), ms.
    /// Identical to the sample recorded in the `serve.latency_us`
    /// histogram for this request.
    pub latency_ms: f64,
    /// Version of the shard model that produced this prediction
    /// (starts at 1; each successful hot-swap advances it by one).
    pub model_version: u64,
}

/// The serialized part of a response that the latency timer must cover;
/// `latency_ms` is spliced in afterwards (same field set as
/// [`ServeResponse`]).
#[derive(Debug, Serialize)]
struct ServeBody {
    sorted_orders: Vec<usize>,
    aoi_sequence: Vec<usize>,
    eta_minutes: Vec<f32>,
}

/// An error reply for malformed requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeError {
    /// What went wrong.
    pub error: String,
}

/// Known in-band control commands, for the unknown-command reply.
const KNOWN_CMDS: &str = "stats, metrics, dump, reload, shutdown, panic";

/// The reply to `{"cmd":"metrics"}`: the merged registry snapshot
/// rendered as Prometheus text exposition, in a one-line JSON envelope
/// so it rides the NDJSON protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Prometheus text exposition format (validates under
    /// [`rtp_obs::prom::validate`]).
    pub metrics: String,
}

/// Flattened percentile view of one histogram in a [`StatsReply`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramStats {
    /// Recorded samples.
    pub count: u64,
    /// Sum of raw values.
    pub sum: u64,
    /// Largest raw value.
    pub max: u64,
    /// Mean raw value.
    pub mean: f64,
    /// Quantized-exact percentiles (bucket floors, ≤1/16 resolution).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramStats {
    fn from_snapshot(h: &HistogramSnapshot) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
        }
    }
}

/// The reply to `{"cmd":"stats"}`: a registry snapshot in NDJSON-
/// friendly form (one line, deserializable with the same vendored
/// serde the rest of the protocol uses).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsReply {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name, flattened to percentiles.
    pub histograms: BTreeMap<String, HistogramStats>,
}

impl StatsReply {
    /// Flattens a merged registry snapshot.
    pub fn from_snapshot(s: &Snapshot) -> Self {
        Self {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramStats::from_snapshot(h)))
                .collect(),
        }
    }
}

/// Server configuration (`rtp serve` flags).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// TCP port (0 = ephemeral).
    pub port: u16,
    /// Total replies to send before shutting down (0 = forever).
    pub max_requests: usize,
    /// Worker-pool size (0 = all cores).
    pub workers: usize,
    /// Reap a connection after this long without a complete request
    /// line (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Honour in-band `{"cmd":"shutdown"}` (and the `{"cmd":"panic"}`
    /// fault-injection hook).
    pub allow_shutdown: bool,
    /// Micro-batch size cap. `<= 1` disables batching and the encoder
    /// cache entirely (the legacy per-worker path).
    pub batch_max: usize,
    /// How long the inference engine waits after a micro-batch's first
    /// job for more jobs to join it.
    pub batch_window: Duration,
    /// Write the merged registry as Prometheus text exposition to this
    /// path (atomically) every `metrics_interval`, plus once at startup
    /// and shutdown. `None` disables the writer.
    pub metrics_file: Option<String>,
    /// Snapshot period for `metrics_file` (zero = the 5 s default).
    pub metrics_interval: Duration,
    /// Dump the flight recorder as JSONL to this path when a worker or
    /// engine panic is caught. `None` keeps panics as counters only.
    pub flight_dump: Option<String>,
}

impl ServeOptions {
    /// Whether the batching engine (and with it the encoder cache) is
    /// active.
    fn batching(&self) -> bool {
        self.batch_max > 1
    }
}

/// The per-server metric handles (all on the server's own registry).
struct ServeMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    stats: Arc<Counter>,
    unknown_cmds: Arc<Counter>,
    connections: Arc<Counter>,
    conn_errors: Arc<Counter>,
    panics: Arc<Counter>,
    timeouts: Arc<Counter>,
    /// Connections the reactor could not hand to the worker pool
    /// (drain race at shutdown): closed and counted, never silently.
    dropped_accepts: Arc<Counter>,
    /// Trace-id segment rollovers across all connections (a connection
    /// pipelining more than 2^20 requests rolls into a fresh id
    /// segment instead of aliasing old ids).
    trace_id_wraps: Arc<Counter>,
    active_connections: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    route_len: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_invalidations: Arc<Counter>,
    cache_hit_rate: Arc<Gauge>,
    pool_hits: Arc<Gauge>,
    pool_misses: Arc<Gauge>,
    pool_hit_rate: Arc<Gauge>,
    /// Stage-latency histograms (`serve.stage.<name>_us`), indexed in
    /// [`StageBreakdown::NAMES`] order: queue_wait, batch_form,
    /// forward, demux, write. Recorded for every ok prediction.
    stages: [Arc<Histogram>; 5],
    /// Successful hot-swaps (`serve.reload.count`).
    reload_count: Arc<Counter>,
    /// Rejected or failed hot-swaps (`serve.reload.failures`); the
    /// running model is untouched on every one of these.
    reload_failures: Arc<Counter>,
    /// Load + validate + swap duration per successful reload
    /// (`serve.reload.duration_us`).
    reload_duration_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            stats: registry.counter("serve.stats"),
            unknown_cmds: registry.counter("serve.unknown_cmds"),
            connections: registry.counter("serve.connections"),
            conn_errors: registry.counter("serve.conn_errors"),
            panics: registry.counter("serve.panics"),
            timeouts: registry.counter("serve.timeouts"),
            dropped_accepts: registry.counter("serve.dropped_accepts"),
            trace_id_wraps: registry.counter("serve.trace_id_wraps"),
            active_connections: registry.gauge("serve.active_connections"),
            latency_us: registry.histogram("serve.latency_us"),
            route_len: registry.histogram("serve.route_len"),
            batch_size: registry.histogram("serve.batch_size"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_invalidations: registry.counter("serve.cache.invalidations"),
            cache_hit_rate: registry.gauge("serve.cache.hit_rate"),
            pool_hits: registry.gauge("tensor.pool.hits"),
            pool_misses: registry.gauge("tensor.pool.misses"),
            pool_hit_rate: registry.gauge("tensor.pool.hit_rate"),
            stages: StageBreakdown::NAMES
                .map(|name| registry.histogram(&format!("serve.stage.{name}_us"))),
            reload_count: registry.counter("serve.reload.count"),
            reload_failures: registry.counter("serve.reload.failures"),
            reload_duration_us: registry.histogram("serve.reload.duration_us"),
        }
    }

    /// Records the four in-handler stages of one prediction (write is
    /// recorded separately, after the socket write it includes).
    fn record_stages(&self, s: &StageBreakdown) {
        self.stages[0].record(s.queue_wait_us);
        self.stages[1].record(s.batch_form_us);
        self.stages[2].record(s.forward_us);
        self.stages[3].record(s.demux_us);
    }
}

/// One resident entry of the per-courier encoder cache.
struct CacheEntry {
    /// The exact request line that produced this entry. Fingerprinting
    /// the whole line (rather than a digest of the route state) makes
    /// the invalidation rule trivially sound: *any* observable change —
    /// an order served, the courier moving, the clock advancing —
    /// changes the line, misses the cache, and replaces the entry.
    fingerprint: String,
    /// Model generation whose encoders produced `enc`. A lookup under
    /// a newer shard version must miss even on a byte-identical line:
    /// activations from swapped-out weights are never replayed.
    version: u64,
    /// The scaled multi-level graph (Feature Extraction Layer output).
    graph: MultiLevelGraph,
    /// The encoder activations to replay through the decoders.
    enc: EncodedQuery,
}

/// One unit of work for the inference engine: an already-built graph
/// plus the channel its prediction must come back on. If the engine
/// drops the sender without replying (batch forward panicked), the
/// waiting worker answers an internal-error line for just that request.
struct InferJob {
    graph: MultiLevelGraph,
    /// The model generation this job must run on. The engine batches
    /// only same-version jobs together and runs each batch on the
    /// job-carried model, so an in-flight request finishes on the
    /// weights it started with even if a swap lands mid-batch.
    version: u64,
    /// The generation's model (blue-green: the worker captured this
    /// `Arc` before the swap could drop it).
    model: Arc<M2G4Rtp>,
    /// Trace id of the request this job belongs to (flight-recorder
    /// attribution on an engine panic).
    trace_id: u64,
    /// When the owning worker enqueued the job (starts `queue_wait`).
    enqueued: Instant,
    reply: Sender<EngineReply>,
}

/// What the inference engine sends back per job: the prediction plus
/// the engine-side stage timings of this request's batch.
struct EngineReply {
    graph: MultiLevelGraph,
    prediction: Prediction,
    enc: EncodedQuery,
    /// Enqueue → engine dequeue of this job.
    queue_wait_us: u64,
    /// Dequeue → batch flush (waiting for the micro-batch to form).
    batch_form_us: u64,
    /// The batched forward.
    forward_us: u64,
    /// When the forward finished (starts `demux` on the worker side).
    finished: Instant,
}

/// One hosted model shard: its own read-only model, its own encoder
/// cache (batching only; per-shard because activations from different
/// models must never cross-pollinate) and its own reply counters.
/// Shard 0 is the **default shard**: requests without a `"city"` key
/// route to it, so a single-model server behaves exactly like the
/// pre-shard versions.
struct ShardState {
    name: String,
    /// The serving generation: `(version, model)` swapped as one unit
    /// under the mutex (blue-green — readers clone the `Arc` out and
    /// the old generation lives until its last in-flight request
    /// drops it).
    current: Mutex<(u64, Arc<M2G4Rtp>)>,
    /// Lock-free mirror of the current version for the staleness
    /// checks on the hot path (cache lookups, lane refresh). Stored
    /// *inside* the `current` critical section, so it never runs ahead
    /// of the model it describes.
    version: AtomicU64,
    /// The SavedModel path this shard was loaded from, when the caller
    /// had one (`rtp serve --model`); SIGHUP re-reads it through the
    /// same swap as the in-band `reload` verb.
    path: Option<String>,
    /// Per-courier encoder cache; `Some` iff batching is enabled.
    /// Concurrent misses for the same courier may both insert — that is
    /// a benign lost-update (same fingerprint + version ⇒ same bits),
    /// not an invalidation.
    cache: Option<Mutex<HashMap<usize, Arc<CacheEntry>>>>,
    /// `serve.shard.<name>.requests` — ok predictions served by this
    /// shard.
    requests: Arc<Counter>,
    /// `serve.shard.<name>.errors` — error replies attributed to this
    /// shard (routing resolved, prediction failed).
    errors: Arc<Counter>,
}

impl ShardState {
    fn new(spec: ShardSpec, registry: &Registry, batching: bool) -> Self {
        let ShardSpec { name, model, path } = spec;
        let requests = registry.counter(&format!("serve.shard.{name}.requests"));
        let errors = registry.counter(&format!("serve.shard.{name}.errors"));
        Self {
            name,
            current: Mutex::new((1, Arc::new(model))),
            version: AtomicU64::new(1),
            path,
            cache: batching.then(|| Mutex::new(HashMap::new())),
            requests,
            errors,
        }
    }

    /// The serving version, without touching the generation mutex.
    fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Clones out the current `(version, model)` pair as one unit.
    fn generation(&self) -> (u64, Arc<M2G4Rtp>) {
        let cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        (cur.0, Arc::clone(&cur.1))
    }
}

/// One model shard as handed to [`serve_sharded`]: a name, a loaded
/// model, and optionally the path it came from (which arms SIGHUP
/// reloads and path-less in-band reloads of the original file).
pub struct ShardSpec {
    /// Shard (city) name; requests route to it via their `"city"` key.
    pub name: String,
    /// The initial model generation (version 1).
    pub model: M2G4Rtp,
    /// Where `model` was loaded from, if anywhere.
    pub path: Option<String>,
}

impl ShardSpec {
    /// A shard with no backing file (in-process callers, tests).
    pub fn new(name: impl Into<String>, model: M2G4Rtp) -> Self {
        Self { name: name.into(), model, path: None }
    }

    /// A shard loaded from `path`; SIGHUP re-reads it.
    pub fn with_path(name: impl Into<String>, model: M2G4Rtp, path: impl Into<String>) -> Self {
        Self { name: name.into(), model, path: Some(path.into()) }
    }
}

/// State shared by the front end and every worker.
struct ServerShared {
    registry: Registry,
    metrics: ServeMetrics,
    /// Replies written so far (claim-based: a worker reserves a slot
    /// *before* answering, so exactly `max_requests` replies go out).
    served: AtomicUsize,
    /// Connections currently being handled (mirrored into the
    /// `serve.active_connections` gauge).
    active: AtomicI64,
    shutdown: AtomicBool,
    /// The listener's address, used to poke the reactor awake when
    /// shutdown is triggered from a worker.
    addr: SocketAddr,
    max_requests: usize,
    allow_shutdown: bool,
    /// Tape buffer-pool totals summed across workers (each worker
    /// contributes deltas of its own service's stats).
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    /// The hosted model shards; index 0 is the default shard.
    shards: Vec<ShardState>,
    /// Where a caught panic dumps the flight recorder (`--flight-dump`).
    flight_dump: Option<String>,
}

impl ServerShared {
    fn new(
        registry: Registry,
        addr: SocketAddr,
        opts: &ServeOptions,
        shards: Vec<ShardState>,
    ) -> Self {
        let metrics = ServeMetrics::new(&registry);
        Self {
            registry,
            metrics,
            served: AtomicUsize::new(0),
            active: AtomicI64::new(0),
            shutdown: AtomicBool::new(false),
            addr,
            max_requests: opts.max_requests,
            allow_shutdown: opts.allow_shutdown,
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            shards,
            flight_dump: opts.flight_dump.clone(),
        }
    }

    /// The comma-separated shard-name list for routing-error messages.
    fn shard_names(&self) -> String {
        self.shards.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
    }

    /// Dumps the flight recorder to the `--flight-dump` path (no-op
    /// without one). Called from caught-panic sites, so the dump also
    /// flushes and fsyncs the span sink (S2: a `--log-json` file is
    /// complete at post-mortem time).
    fn dump_flight(&self) {
        if let Some(path) = &self.flight_dump {
            if let Err(e) = flight::dump_to_file(path) {
                eprintln!("flight dump to {path} failed: {e}");
            }
        }
    }

    /// Locks one shard's encoder cache (present iff batching is on),
    /// recovering from poisoning: cache entries are immutable once
    /// inserted (only whole-entry replacement), so a panicked holder
    /// cannot leave a half-written entry behind.
    fn lock_cache(
        &self,
        shard: usize,
    ) -> Option<std::sync::MutexGuard<'_, HashMap<usize, Arc<CacheEntry>>>> {
        self.shards[shard].cache.as_ref().map(|c| c.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Refreshes the `serve.cache.hit_rate` gauge from the counters.
    fn refresh_cache_rate(&self) {
        let h = self.metrics.cache_hits.get();
        let m = self.metrics.cache_misses.get();
        let total = h + m;
        self.metrics.cache_hit_rate.set(if total == 0 { 0.0 } else { h as f64 / total as f64 });
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and wakes the reactor with a no-op
    /// connection so its blocking `epoll_wait` returns.
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Reserves one reply slot. Returns `false` when the request budget
    /// is spent — the caller must close the connection unanswered. The
    /// claimer of the final slot triggers shutdown after replying.
    fn claim_reply(&self) -> bool {
        if self.max_requests == 0 {
            self.served.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        let n = self.served.fetch_add(1, Ordering::SeqCst) + 1;
        if n > self.max_requests {
            self.served.fetch_sub(1, Ordering::SeqCst);
            self.trigger_shutdown();
            return false;
        }
        true
    }

    /// Called after a reply is written: the final budgeted reply shuts
    /// the server down.
    fn after_reply(&self) {
        if self.max_requests != 0 && self.served.load(Ordering::SeqCst) >= self.max_requests {
            self.trigger_shutdown();
        }
    }

    fn conn_started(&self) {
        self.metrics.connections.inc();
        let n = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.active_connections.set(n as f64);
    }

    fn conn_finished(&self) {
        let n = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        self.metrics.active_connections.set(n as f64);
    }

    /// Folds one worker's tape-pool delta (summed over its per-shard
    /// lanes) into the cross-worker totals and refreshes the gauges.
    /// `last` is the worker's previous reading; `saturating_sub`
    /// because tape poison-recovery (and a hot-swap lane rebuild)
    /// resets a lane's stats to zero.
    fn refresh_pool(&self, lanes: &[ShardLane], last: &Cell<(u64, u64)>) {
        let (mut hits, mut misses) = (0u64, 0u64);
        for lane in lanes {
            let (h, m) = lane.service.borrow().pool_stats();
            hits += h;
            misses += m;
        }
        let (lh, lm) = last.get();
        last.set((hits, misses));
        let h = self.pool_hits.fetch_add(hits.saturating_sub(lh), Ordering::Relaxed)
            + hits.saturating_sub(lh);
        let m = self.pool_misses.fetch_add(misses.saturating_sub(lm), Ordering::Relaxed)
            + misses.saturating_sub(lm);
        self.metrics.pool_hits.set(h as f64);
        self.metrics.pool_misses.set(m as f64);
        let total = h + m;
        self.metrics.pool_hit_rate.set(if total == 0 { 0.0 } else { h as f64 / total as f64 });
    }
}

/// One worker's private inference lane for one shard: its own
/// [`RtpService`] (pooled no-grad tape) over the shard's model, plus
/// the job channel into that shard's inference engine (batching only).
/// The service sits behind a `RefCell` so a hot-swap can rebuild it in
/// place; the lane is worker-thread-local, and every borrow drops
/// before the request's reply is written (so a caught panic cannot
/// leave a borrow flag set — guards unwind like any other local).
struct ShardLane {
    service: RefCell<RtpService>,
    /// Model generation the service was built over; compared against
    /// the shard's current version on every request.
    version: Cell<u64>,
    infer_tx: Option<Sender<InferJob>>,
}

/// One worker's view of the server: a private inference lane per shard
/// plus the shared state.
struct WorkerCtx<'a> {
    /// Indexed like `shared.shards`; lane 0 serves the default shard.
    lanes: Vec<ShardLane>,
    dataset: &'a Dataset,
    shared: &'a ServerShared,
    /// Replies written by this worker (`serve.worker.<i>.requests`).
    replies: Arc<Counter>,
    /// Last `(hits, misses)` reading of this worker's tape pools,
    /// summed across lanes.
    pool_last: Cell<(u64, u64)>,
}

impl WorkerCtx<'_> {
    /// Builds one worker's lanes (a service per shard, each cloning
    /// that shard's engine sender).
    fn new<'a>(
        worker_id: usize,
        dataset: &'a Dataset,
        shared: &'a ServerShared,
        job_txs: &[Option<Sender<InferJob>>],
    ) -> WorkerCtx<'a> {
        let lanes = shared
            .shards
            .iter()
            .zip(job_txs)
            .map(|(shard, tx)| {
                let (version, model) = shard.generation();
                ShardLane {
                    service: RefCell::new(RtpService::shared(model)),
                    version: Cell::new(version),
                    infer_tx: tx.clone(),
                }
            })
            .collect();
        WorkerCtx {
            lanes,
            dataset,
            shared,
            replies: shared.registry.counter(&format!("serve.worker.{worker_id}.requests")),
            pool_last: Cell::new((0, 0)),
        }
    }

    /// Ensures this worker's lane for `shard_idx` serves the shard's
    /// current generation, rebuilding the lane's service after a
    /// hot-swap; returns the `(version, model)` pair the caller must
    /// predict with (and tag the reply with). The pair is captured
    /// atomically, so the tag always names the weights actually used —
    /// a swap landing a microsecond later leaves this request on the
    /// old generation, which is exactly blue-green semantics.
    fn refresh_lane(&self, shard_idx: usize) -> (u64, Arc<M2G4Rtp>) {
        let lane = &self.lanes[shard_idx];
        if lane.version.get() == self.shared.shards[shard_idx].version() {
            let model = Arc::clone(lane.service.borrow().model());
            return (lane.version.get(), model);
        }
        let (version, model) = self.shared.shards[shard_idx].generation();
        *lane.service.borrow_mut() = RtpService::shared(Arc::clone(&model));
        lane.version.set(version);
        (version, model)
    }
}

/// The serve layer's hooks into the epoll reactor: lifecycle counting
/// plus the hand-off into the worker pool. Only real client
/// connections reach these callbacks — the reactor checks the shutdown
/// flag before registering an accepted socket, so the shutdown poke is
/// never counted and never mints a trace context, which is what lets
/// the exact-accounting tests assert `serve.connections == clients`.
struct EventedSink<'a> {
    shared: &'a ServerShared,
    tx: Sender<Arc<EvConn>>,
}

impl EventSink for EventedSink<'_> {
    fn shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    fn conn_opened(&self) {
        self.shared.conn_started();
    }

    fn conn_closed(&self) {
        self.shared.conn_finished();
    }

    fn conn_error(&self) {
        self.shared.metrics.conn_errors.inc();
    }

    fn conn_timeout(&self) {
        self.shared.metrics.timeouts.inc();
    }

    fn dropped_dispatch(&self) {
        self.shared.metrics.dropped_accepts.inc();
    }

    fn dispatch(&self, conn: Arc<EvConn>) -> bool {
        self.tx.send(conn).is_ok()
    }
}

/// Binds a listener, prints `listening on <addr>` to `out`, and serves
/// a single (default) shard with a fixed worker pool until the request
/// budget is spent or an in-band shutdown arrives. Each connection may
/// pipeline many request lines. On exit, drains in-flight connections
/// and prints a telemetry summary.
pub fn serve(
    model: M2G4Rtp,
    dataset: Dataset,
    opts: ServeOptions,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    serve_sharded(vec![ShardSpec::new("default", model)], dataset, opts, out)
}

/// The multi-shard entry point behind repeatable `--model`: hosts one
/// model per [`ShardSpec`], routes request lines by their optional
/// `"city"` key (absent ⇒ the first shard), and gives every shard its
/// own inference engine and encoder cache. All shards share the worker
/// pool, the reactor and the telemetry registry. When any
/// spec carries a path, SIGHUP re-reads every path-ful shard's file
/// through the hot-swap machinery.
pub fn serve_sharded(
    models: Vec<ShardSpec>,
    dataset: Dataset,
    opts: ServeOptions,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    assert!(!models.is_empty(), "serve_sharded needs at least one model shard");
    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;
    let workers = resolve_threads(opts.workers).max(1);
    writeln!(out, "listening on {addr}")?;
    writeln!(out, "workers: {workers}")?;
    out.flush()?;

    if models.len() > 1 {
        let names = models.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ");
        writeln!(out, "shards: {names}")?;
        out.flush()?;
    }
    if opts.batching() {
        writeln!(
            out,
            "batching: max {} / window {} us",
            opts.batch_max,
            opts.batch_window.as_micros()
        )?;
        out.flush()?;
    }

    // The flight recorder stays on for the server's lifetime: request,
    // error, span and panic events accumulate in per-thread rings so a
    // caught panic (or {"cmd":"dump"}) has history to show.
    flight::set_enabled(true);

    let registry = Registry::new();
    let shards: Vec<ShardState> =
        models.into_iter().map(|spec| ShardState::new(spec, &registry, opts.batching())).collect();
    let shared = ServerShared::new(registry, addr, &opts, shards);

    // One job channel per shard into that shard's inference engine
    // (batching only). The original senders are dropped after the
    // workers clone theirs, so each engine's `recv` fails — and the
    // engine exits — exactly when the last worker has exited.
    let mut job_txs: Vec<Option<Sender<InferJob>>> = Vec::new();
    let mut job_rxs: Vec<Option<Receiver<InferJob>>> = Vec::new();
    for _ in &shared.shards {
        if opts.batching() {
            let (tx, rx) = channel::<InferJob>();
            job_txs.push(Some(tx));
            job_rxs.push(Some(rx));
        } else {
            job_txs.push(None);
            job_rxs.push(None);
        }
    }

    // Parked pipelining connections (see the worker-pool comment
    // below); lives outside the scope so scoped workers can borrow it.
    let overflow: Mutex<VecDeque<Arc<EvConn>>> = Mutex::new(VecDeque::new());
    let overflow = &overflow;
    let frontend_result = std::thread::scope(|scope| {
        for (shard, rx) in shared.shards.iter().zip(job_rxs) {
            let Some(rx) = rx else { continue };
            let shared = &shared;
            let window = opts.batch_window;
            let batch_max = opts.batch_max;
            scope.spawn(move || run_inference_engine(shard, rx, window, batch_max, shared));
        }

        // The worker pool: one channel of dispatched connections.
        // std's Receiver is single-consumer; workers share it behind a
        // mutex, each holding it only for one bounded `recv`.
        //
        // Next to the channel sits the overflow queue: a pipelining
        // connection that exhausts its drain quantum is parked here
        // (claim and queued lines travelling with it) instead of
        // pinning its worker. Workers serve fresh channel work first —
        // an operator's `reload` or `stats` line must never wait tens
        // of seconds behind a busy pipeliner — and pick parked
        // connections back up whenever the channel goes quiet. Workers
        // hold no clone of `tx` (that would keep the channel open and
        // deadlock the drop-the-sender shutdown), which is exactly why
        // the park space is a plain deque and not the channel itself.
        let (tx, rx) = channel::<Arc<EvConn>>();
        let rx = Arc::new(Mutex::new(rx));
        for worker_id in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = &shared;
            let dataset = &dataset;
            // Each worker clones the per-shard engine senders, so the
            // originals can drop below and tie engine lifetime to the
            // workers'.
            let worker_job_txs: Vec<Option<Sender<InferJob>>> = job_txs.to_vec();
            scope.spawn(move || {
                let ctx = WorkerCtx::new(worker_id, dataset, shared, &worker_job_txs);
                enum Next {
                    Item(Arc<EvConn>),
                    Empty,
                    Closed,
                }
                let recv_next = |blocking: bool| match rx.lock() {
                    Ok(guard) if blocking => match guard.recv_timeout(POLL_INTERVAL) {
                        Ok(item) => Next::Item(item),
                        Err(RecvTimeoutError::Timeout) => Next::Empty,
                        Err(RecvTimeoutError::Disconnected) => Next::Closed,
                    },
                    Ok(guard) => match guard.try_recv() {
                        Ok(item) => Next::Item(item),
                        Err(TryRecvError::Empty) => Next::Empty,
                        Err(TryRecvError::Disconnected) => Next::Closed,
                    },
                    Err(_) => Next::Closed,
                };
                let next_parked = || overflow.lock().unwrap_or_else(|p| p.into_inner()).pop_front();
                loop {
                    // Fresh channel work first: new connections and
                    // operator lines take priority over parked
                    // pipeliners (whose clients already have a full
                    // quantum of replies to chew on).
                    match recv_next(false) {
                        Next::Item(conn) => {
                            drain_evented_conn(&ctx, &conn, overflow);
                            continue;
                        }
                        Next::Closed => break,
                        Next::Empty => {}
                    }
                    // Channel quiet: give a parked connection its turn.
                    if let Some(conn) = next_parked() {
                        drain_evented_conn(&ctx, &conn, overflow);
                        continue;
                    }
                    // Idle: block until work arrives or the reactor
                    // drops the sender (shutdown + queue drained). The
                    // timeout only re-checks the overflow queue, in
                    // case another worker parked a connection mid-wait.
                    match recv_next(true) {
                        Next::Item(conn) => drain_evented_conn(&ctx, &conn, overflow),
                        Next::Closed => break,
                        Next::Empty => {}
                    }
                }
                // Channel closed: serve out parked connections before
                // exiting — their claims travelled here, so no other
                // dispatch path will ever pick them up.
                while let Some(conn) = next_parked() {
                    drain_evented_conn(&ctx, &conn, overflow);
                }
            });
        }
        drop(job_txs);

        // SIGHUP watcher: only armed when some shard knows its backing
        // file. The signal handler itself just bumps a counter; this
        // thread notices the bump and re-reads every path-ful shard
        // through the same swap path as the in-band `reload` verb.
        // Path-less servers (tests, in-process callers) never install
        // the handler, so SIGHUP keeps its default disposition there.
        if shared.shards.iter().any(|s| s.path.is_some()) {
            evented::install_sighup_handler();
            let shared = &shared;
            scope.spawn(move || {
                let mut seen = evented::sighup_count();
                while !shared.shutting_down() {
                    std::thread::sleep(POLL_INTERVAL);
                    let now = evented::sighup_count();
                    if now == seen {
                        continue;
                    }
                    seen = now;
                    for idx in 0..shared.shards.len() {
                        let shard = &shared.shards[idx];
                        let Some(path) = shard.path.clone() else { continue };
                        match reload_shard(shared, idx, &path, 0) {
                            Ok(version) => eprintln!(
                                "SIGHUP: shard {} reloaded from {path} (model_version {version})",
                                shard.name
                            ),
                            Err(e) => eprintln!("SIGHUP: shard {} reload failed: {e}", shard.name),
                        }
                    }
                }
            });
        }

        // Periodic Prometheus snapshot writer (--metrics-file). Sleeps
        // in POLL_INTERVAL slices so shutdown is honoured promptly; the
        // final (post-drain) snapshot is written by serve() itself
        // after the scope joins every worker.
        if let Some(path) = opts.metrics_file.clone() {
            let shared = &shared;
            let interval = if opts.metrics_interval.is_zero() {
                Duration::from_secs(5)
            } else {
                opts.metrics_interval
            };
            scope.spawn(move || loop {
                write_metrics_file(&path, shared);
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline {
                    if shared.shutting_down() {
                        return;
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
            });
        }

        // The reactor runs on this thread and owns `tx` through the
        // sink; returning drops it, which drains the workers.
        let sink = EventedSink { shared: &shared, tx };
        let result = evented::run(&listener, opts.idle_timeout, &sink);
        // A reactor-fatal error must still release the snapshot-writer
        // thread (it polls the shutdown flag) so the scope can join.
        if result.is_err() {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        result
    });
    frontend_result?;

    // Graceful-shutdown durability (S2): everything traced so far is
    // flushed and fsynced, and the exported snapshot reflects the full
    // run including the final drained requests.
    rtp_obs::trace::flush();
    if let Some(path) = &opts.metrics_file {
        write_metrics_file(path, &shared);
    }

    let m = &shared.metrics;
    let served = shared.served.load(Ordering::SeqCst);
    writeln!(
        out,
        "served {served} request(s): {} ok, {} error(s), {} stats",
        m.requests.get(),
        m.errors.get(),
        m.stats.get()
    )?;
    if shared.shards.len() > 1 {
        for s in &shared.shards {
            writeln!(
                out,
                "shard {}: {} ok, {} error(s)",
                s.name,
                s.requests.get(),
                s.errors.get()
            )?;
        }
    }
    writeln!(
        out,
        "connections: {} handled, {} conn error(s), {} panic(s), {} timeout(s)",
        m.connections.get(),
        m.conn_errors.get(),
        m.panics.get(),
        m.timeouts.get()
    )?;
    if m.dropped_accepts.get() > 0 {
        writeln!(out, "dropped accepts: {}", m.dropped_accepts.get())?;
    }
    let snap = shared.registry.snapshot();
    let ms = |v: u64| v as f64 / 1000.0;
    if let Some(lat) = snap.histograms.get("serve.latency_us").filter(|l| l.count() > 0) {
        writeln!(
            out,
            "latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            ms(lat.percentile(0.50)),
            ms(lat.percentile(0.95)),
            ms(lat.percentile(0.99)),
            ms(lat.max())
        )?;
    }
    Ok(0)
}

/// The server registry merged with the process-global one (which
/// carries the matmul-kernel counters and training gauges) — the same
/// view `{"cmd":"stats"}`, `{"cmd":"metrics"}` and the snapshot writer
/// all export.
fn merged_snapshot(shared: &ServerShared) -> Snapshot {
    let mut snap = shared.registry.snapshot();
    snap.merge(&rtp_obs::metrics::global().snapshot());
    snap
}

/// Writes the merged snapshot to `path` as Prometheus text exposition,
/// atomically — a scraper never sees a half-written file.
fn write_metrics_file(path: &str, shared: &ServerShared) {
    let text = rtp_obs::prom::render(&merged_snapshot(shared));
    if let Err(e) = rtp_obs::fsio::write_atomic_str(std::path::Path::new(path), &text) {
        eprintln!("metrics snapshot to {path} failed: {e}");
    }
}

/// Hot-swaps one shard's model from a SavedModel file: load and parse
/// off the hot path, validate against the running generation with the
/// loud-rejection policy ([`SavedModel::validate_swap`]), then swap the
/// `(version, Arc)` pair and drain the shard's encoder cache so no
/// post-swap reply can replay pre-swap activations. Returns the new
/// version; on any error the running model is untouched and
/// `serve.reload.failures` counts the attempt.
fn reload_shard(
    shared: &ServerShared,
    shard_idx: usize,
    path: &str,
    trace_id: u64,
) -> Result<u64, String> {
    let shard = &shared.shards[shard_idx];
    let t0 = Instant::now();
    let loaded = (|| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reload rejected: cannot read model file `{path}`: {e}"))?;
        let saved: SavedModel = serde_json::from_str(&text)
            .map_err(|e| format!("reload rejected: `{path}` is not a SavedModel: {e}"))?;
        // Validate against the running generation *before* the
        // panicking weight restore in from_saved can run.
        let (_, current) = shard.generation();
        saved
            .validate_swap(&current)
            .map_err(|e| format!("reload rejected for shard `{}`: {e}", shard.name))?;
        Ok::<Arc<M2G4Rtp>, String>(Arc::new(M2G4Rtp::from_saved(saved)))
    })();
    let model = match loaded {
        Ok(model) => model,
        Err(e) => {
            shared.metrics.reload_failures.inc();
            flight::record(flight::Kind::Reload, "serve.reload", trace_id, || {
                format!("shard {} reload failed: {e}", shard.name)
            });
            return Err(e);
        }
    };
    // The swap: version mirror updated inside the critical section so
    // a hot-path staleness check can never observe a version ahead of
    // the model it describes.
    let version = {
        let mut cur = shard.current.lock().unwrap_or_else(|p| p.into_inner());
        let version = cur.0 + 1;
        *cur = (version, model);
        shard.version.store(version, Ordering::SeqCst);
        version
    };
    // Drain the shard's encoder cache *after* the version advanced:
    // entries are version-keyed, so anything a racing miss re-inserts
    // under the old version is refused at insert time, and lookups
    // under the new version miss stale entries regardless.
    if let Some(cache) = &shard.cache {
        let mut cache = cache.lock().unwrap_or_else(|p| p.into_inner());
        let stale = cache.len() as u64;
        cache.clear();
        drop(cache);
        if stale > 0 {
            shared.metrics.cache_invalidations.add(stale);
            shared.refresh_cache_rate();
        }
    }
    let took_us = t0.elapsed().as_micros() as u64;
    shared.metrics.reload_count.inc();
    shared.metrics.reload_duration_us.record(took_us);
    flight::record(flight::Kind::Reload, "serve.reload", trace_id, || {
        format!(
            "shard {} swapped to model_version {version} from {path} in {took_us} us",
            shard.name
        )
    });
    Ok(version)
}

/// One shard's inference engine: collects [`InferJob`]s into
/// micro-batches and runs one batched forward per batch on its own
/// pooled no-grad tape over the batch's model generation. With
/// multiple shards, one engine thread runs per shard — batches never
/// mix models, and after a hot-swap batches never mix *generations*
/// either: a job carrying a different version than the forming batch
/// closes the batch and leads the next one, each batch runs on the
/// exact `Arc` its jobs captured, and the engine's tape is rebuilt per
/// generation.
///
/// Batch formation: block for the first job, then keep accepting jobs
/// until `batch_max` are queued, `window` has elapsed since the first
/// job arrived, or a job of another generation shows up. A panic
/// inside the batch forward is caught — the tape is dropped (its pool
/// state is arbitrary mid-panic) and the batch's reply senders are
/// dropped, so each waiting worker answers an internal-error line for
/// its own request; the engine keeps serving.
///
/// Exits when every worker's job sender for this shard is gone.
fn run_inference_engine(
    shard: &ShardState,
    jobs: Receiver<InferJob>,
    window: Duration,
    batch_max: usize,
    shared: &ServerShared,
) {
    // The engine's tape, tagged with the generation it was built for;
    // `None` after a caught panic or before the first batch.
    let mut tape: Option<(u64, rtp_tensor::Tape)> = None;
    // A job that arrived mid-batch but belongs to a newer generation:
    // it leads the next batch instead of joining this one.
    let mut carried: Option<InferJob> = None;
    loop {
        let first = match carried.take() {
            Some(job) => job,
            None => match jobs.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        // Per-job dequeue times: job i's queue_wait ends (and its
        // batch_form begins) the moment the engine receives it.
        let mut recvs = vec![Instant::now()];
        let deadline = recvs[0] + window;
        let mut batch = vec![first];
        while batch.len() < batch_max {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match jobs.recv_timeout(deadline - now) {
                Ok(job) => {
                    if job.version != batch[0].version {
                        carried = Some(job);
                        break;
                    }
                    batch.push(job);
                    recvs.push(Instant::now());
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        shared.metrics.batch_size.record(batch.len() as u64);
        let flushed = Instant::now();
        let model = Arc::clone(&batch[0].model);
        let version = batch[0].version;
        let mut run_tape = match tape.take() {
            Some((v, t)) if v == version => t,
            _ => rtp_tensor::Tape::inference(),
        };
        let graphs: Vec<&MultiLevelGraph> = batch.iter().map(|j| &j.graph).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            model.predict_batch_encoded_into(&mut run_tape, &graphs)
        }));
        drop(graphs);
        let finished = Instant::now();
        let forward_us = finished.saturating_duration_since(flushed).as_micros() as u64;
        match result {
            Ok(preds) => {
                tape = Some((version, run_tape));
                for ((job, recv), (pred, enc)) in batch.into_iter().zip(recvs).zip(preds) {
                    let InferJob { graph, enqueued, reply, .. } = job;
                    // A send error only means the worker gave up on the
                    // connection; nothing to do.
                    let _ = reply.send(EngineReply {
                        graph,
                        prediction: pred,
                        enc,
                        queue_wait_us: recv.saturating_duration_since(enqueued).as_micros() as u64,
                        batch_form_us: flushed.saturating_duration_since(recv).as_micros() as u64,
                        forward_us,
                        finished,
                    });
                }
            }
            Err(_) => {
                shared.metrics.panics.inc();
                let size = batch.len();
                for job in &batch {
                    flight::record(flight::Kind::Panic, "serve.engine", job.trace_id, || {
                        format!("batched forward panicked (batch of {size}, shard {})", shard.name)
                    });
                }
                shared.dump_flight();
                // The panicked tape's pool state is arbitrary: drop it
                // and rebuild lazily for the next batch. Dropping
                // `batch` drops every reply sender; each waiting worker
                // sees RecvError and answers an error line for its own
                // request only.
                drop(run_tape);
            }
        }
    }
}

/// Mints the next trace id on a connection, surfacing a sequence
/// rollover (a fresh globally-unique id segment after 2^20 requests)
/// as `serve.trace_id_wraps`.
fn next_trace_id(shared: &ServerShared, trace: &mut TraceCtx) -> u64 {
    let before = trace.rollovers();
    let id = trace.next_request();
    if trace.rollovers() > before {
        shared.metrics.trace_id_wraps.inc();
    }
    id
}

/// Lines served per claim before a still-busy connection is parked on
/// the overflow queue. A closed-loop pipelining client can land its
/// next line faster than the worker's post-reply `pop_line`, so an
/// unbounded drain pins the worker to one connection for as long as
/// the client keeps winning that race — with a small pool every other
/// queued connection starves, most visibly an operator's `reload`
/// line (observed waiting ~20 s behind four busy bench clients).
const DRAIN_QUANTUM: usize = 8;

/// Drains one evented connection's queued request lines under its
/// claim (the reactor dispatched it because its queue went non-empty;
/// no other worker touches it until the claim is released by the final
/// `pop_line` or kept through [`EvConn::yield_claim`] at the end of a
/// quantum). Replies are written directly to the shared nonblocking
/// socket; a close is signalled back to the reactor via the dead flag
/// plus socket shutdown, never by dropping the fd out from under it.
fn drain_evented_conn(
    ctx: &WorkerCtx<'_>,
    conn: &Arc<EvConn>,
    overflow: &Mutex<VecDeque<Arc<EvConn>>>,
) {
    let mut served = 0usize;
    while let Some(line) = conn.pop_line() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !ctx.shared.claim_reply() {
            conn.close(); // budget spent — close unanswered
            return;
        }
        let trace_id = {
            let mut trace = conn.trace.lock().unwrap_or_else(|p| p.into_inner());
            next_trace_id(ctx.shared, &mut trace)
        };
        // Fault isolation: a panic anywhere in parse/predict/serialize
        // must not unwind through the worker loop (the lane's tape
        // mutex is poison-recovered by RtpService on the next request).
        let reply = catch_unwind(AssertUnwindSafe(|| handle_line(ctx, line, trace_id)));
        match reply {
            Ok(Reply::Line(mut body, stages)) => {
                body.push('\n');
                // Count before the write lands: a client must never
                // observe a reply whose counters haven't settled.
                ctx.replies.inc();
                let wire_t0 = Instant::now();
                if conn.write_reply(body.as_bytes()).is_err() {
                    ctx.shared.metrics.conn_errors.inc();
                    conn.close();
                    ctx.shared.after_reply();
                    return;
                }
                if let Some(ser_us) = stages {
                    let wire_us = wire_t0.elapsed().as_micros() as u64;
                    ctx.shared.metrics.stages[4].record(ser_us + wire_us);
                }
                ctx.shared.after_reply();
            }
            Ok(Reply::ShutdownAck(mut body)) => {
                body.push('\n');
                ctx.replies.inc();
                let _ = conn.write_reply(body.as_bytes());
                conn.close();
                ctx.shared.trigger_shutdown();
                return;
            }
            Err(_) => {
                ctx.shared.metrics.panics.inc();
                flight::record(flight::Kind::Panic, "serve.worker", trace_id, || {
                    format!("request handler panicked on line of {} byte(s)", line.len())
                });
                ctx.shared.dump_flight();
                let mut err = serde_json::to_string(&ServeError {
                    error: "internal error: request handler panicked; connection closed".into(),
                })
                .expect("serialise error");
                err.push('\n');
                // Best effort — the client may already be gone.
                let _ = conn.write_reply(err.as_bytes());
                conn.close();
                return;
            }
        }
        served += 1;
        if served == DRAIN_QUANTUM {
            if conn.yield_claim() {
                // Still busy: park it (the claim and any queued lines
                // travel with the connection) and take other work first.
                overflow.lock().unwrap_or_else(|p| p.into_inner()).push_back(Arc::clone(conn));
            }
            return;
        }
    }
}

/// A reply line, plus whether it also requests server shutdown. An ok
/// prediction carries `Some(serialization_us)` so the connection loop
/// can fold the socket write into the `serve.stage.write_us` sample.
enum Reply {
    Line(String, Option<u64>),
    ShutdownAck(String),
}

/// Produces the reply for one request line, recording telemetry.
fn handle_line(ctx: &WorkerCtx<'_>, line: &str, trace_id: u64) -> Reply {
    let shared = ctx.shared;
    let metrics = &shared.metrics;
    let err_line = |msg: String| {
        metrics.errors.inc();
        flight::record(flight::Kind::Error, "serve.error", trace_id, || msg.clone());
        Reply::Line(
            serde_json::to_string(&ServeError { error: msg }).expect("serialise error"),
            None,
        )
    };
    let t0 = Instant::now();
    // Parse once, classify structurally: any object carrying a `cmd`
    // key is a control request — full stop. This closes the old
    // misclassification hole where an unknown `{"cmd":"…"}` value (or a
    // line shaped like both a command and a query) fell through to the
    // prediction/parse-error path and came back as `bad request`.
    let value = match serde_json::from_str::<serde::Value>(line) {
        Ok(v) => v,
        Err(e) => return err_line(format!("bad request: {e}")),
    };
    if let Some(cmd) = value.get("cmd") {
        // Unknown commands get their own named reply and counter:
        // a typo'd operator command is not a malformed client request,
        // so it must not pollute `serve.errors`.
        let unknown_cmd = |msg: String| {
            metrics.unknown_cmds.inc();
            Reply::Line(
                serde_json::to_string(&ServeError { error: msg }).expect("serialise error"),
                None,
            )
        };
        return match cmd.as_str() {
            Some("stats") => {
                metrics.stats.inc();
                shared.refresh_pool(&ctx.lanes, &ctx.pool_last);
                // The global registry carries process-wide metrics
                // (matmul kernel counters, training gauges); merging
                // demonstrates snapshot associativity in anger.
                let snap = merged_snapshot(shared);
                Reply::Line(
                    serde_json::to_string(&StatsReply::from_snapshot(&snap))
                        .expect("serialise stats"),
                    None,
                )
            }
            Some("metrics") => {
                metrics.stats.inc();
                shared.refresh_pool(&ctx.lanes, &ctx.pool_last);
                let text = rtp_obs::prom::render(&merged_snapshot(shared));
                Reply::Line(
                    serde_json::to_string(&MetricsReply { metrics: text })
                        .expect("serialise metrics"),
                    None,
                )
            }
            Some("dump") => {
                metrics.stats.inc();
                // The flight events carry their own JSON (obs stays
                // zero-dep, so they don't derive the vendored serde);
                // join them into one {"events":[...]} line.
                let mut body = String::from("{\"events\":[");
                for (i, event) in flight::snapshot().iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&event.to_json_line());
                }
                body.push_str("]}");
                Reply::Line(body, None)
            }
            Some("reload") => {
                let Some(path) = value.get("model").and_then(|v| v.as_str()) else {
                    return err_line(
                        "reload needs a `model` key naming a SavedModel path".to_string(),
                    );
                };
                let shard_idx = match value.get("shard") {
                    None => 0,
                    Some(serde::Value::Str(name)) => {
                        match shared.shards.iter().position(|s| s.name == *name) {
                            Some(i) => i,
                            None => {
                                return err_line(format!(
                                    "unknown shard `{name}`: this server hosts {}",
                                    shared.shard_names()
                                ))
                            }
                        }
                    }
                    Some(_) => {
                        return err_line("bad request: `shard` must be a string shard name".into())
                    }
                };
                match reload_shard(shared, shard_idx, path, trace_id) {
                    Ok(version) => {
                        // A reload ack is an operator reply, like stats.
                        metrics.stats.inc();
                        Reply::Line(
                            format!(
                                "{{\"reloaded\":\"{}\",\"model_version\":{version}}}",
                                shared.shards[shard_idx].name
                            ),
                            None,
                        )
                    }
                    Err(e) => err_line(e),
                }
            }
            Some("shutdown") if shared.allow_shutdown => {
                metrics.stats.inc();
                Reply::ShutdownAck(
                    "{\"ok\":\"shutting down: draining in-flight connections\"}".to_string(),
                )
            }
            Some("shutdown") => {
                err_line("shutdown disabled: start the server with --allow-shutdown".into())
            }
            // Fault-injection hook for the isolation tests; rides the
            // same opt-in flag as shutdown.
            Some("panic") if shared.allow_shutdown => panic!("induced panic via control command"),
            Some(other) => {
                unknown_cmd(format!("unknown command `{other}`: known commands are {KNOWN_CMDS}"))
            }
            None => unknown_cmd(format!(
                "unknown command: `cmd` must be a string naming one of {KNOWN_CMDS}"
            )),
        };
    }
    // Shard routing: an optional `"city"` key names the model shard;
    // absent means the default shard (index 0), so legacy single-model
    // clients see the exact pre-shard behaviour. Routing resolves
    // before query parsing so an unknown city is reported as such even
    // if the rest of the line is also malformed.
    let shard_idx = match value.get("city") {
        None => 0,
        Some(serde::Value::Str(name)) => match shared.shards.iter().position(|s| s.name == *name) {
            Some(i) => i,
            None => {
                return err_line(format!(
                    "unknown city `{name}`: this server hosts {}",
                    shared.shard_names()
                ))
            }
        },
        Some(_) => return err_line("bad request: `city` must be a string shard name".into()),
    };
    let shard = &shared.shards[shard_idx];
    // Post-routing errors are attributed to the shard as well as the
    // server-wide counter.
    let shard_err = |msg: String| {
        shard.errors.inc();
        err_line(msg)
    };
    match RtpQuery::from_value(&value) {
        Err(e) => shard_err(format!("bad request: {e}")),
        Ok(query) if query.orders.is_empty() => shard_err("bad request: empty order set".into()),
        Ok(query) => {
            // A wrong courier must be an error, not a silent
            // courier-0 prediction served as success.
            let Some(courier) = ctx.dataset.couriers.get(query.courier_id) else {
                return shard_err(format!(
                    "unknown courier_id {} (dataset has {} couriers)",
                    query.courier_id,
                    ctx.dataset.couriers.len()
                ));
            };
            let (prediction, mut stages, model_version) =
                match predict_query(ctx, shard_idx, line, courier, &query, trace_id) {
                    Ok(p) => p,
                    Err(e) => return shard_err(e),
                };
            let pred_done = Instant::now();
            let app = match apply_prediction(&query, &prediction) {
                Ok(app) => app,
                Err(e) => return shard_err(format!("internal error: {e}")),
            };
            let body = serde_json::to_string(&ServeBody {
                eta_minutes: app.etas.iter().map(|e| e.eta_minutes).collect(),
                sorted_orders: app.sorted_orders,
                aoi_sequence: app.aoi_sequence,
            })
            .expect("serialise response");
            // The write stage (as echoed) is reply construction: apply
            // + serialize. The socket write is folded into the
            // histogram sample by the connection loop afterwards.
            let ser_us = pred_done.elapsed().as_micros() as u64;
            stages.write_us = ser_us;
            // The full handle — parse, predict, serialize — measured
            // once: the histogram sample and the latency_ms field are
            // the same number by construction. Every stage is a
            // disjoint sub-interval of this window, so the breakdown
            // sums to ≤ latency_us.
            let latency_us = (t0.elapsed().as_micros() as u64).max(1);
            metrics.latency_us.record(latency_us);
            metrics.route_len.record(query.orders.len() as u64);
            metrics.requests.inc();
            shard.requests.inc();
            metrics.record_stages(&stages);
            flight::record(flight::Kind::Request, "serve.request", trace_id, || {
                format!(
                    "courier={} orders={} shard={} latency_us={latency_us}",
                    query.courier_id,
                    query.orders.len(),
                    shard.name
                )
            });
            shared.refresh_pool(&ctx.lanes, &ctx.pool_last);
            let latency_ms = latency_us as f64 / 1000.0;
            // A client that sent "trace": true gets the id and the
            // stage breakdown echoed (plus the serving shard on a
            // multi-shard server); otherwise the reply bytes are
            // exactly the untraced shape.
            let traced = matches!(value.get("trace"), Some(serde::Value::Bool(true)));
            let trace_tag = if traced {
                let shard_tag = if shared.shards.len() > 1 {
                    format!(",\"shard\":\"{}\"", shard.name)
                } else {
                    String::new()
                };
                format!(",\"trace_id\":{trace_id}{shard_tag},\"stages\":{}", stages.to_json())
            } else {
                String::new()
            };
            // Splice latency and the serving model version into the
            // serialized body ({"a":.. -> {"latency_ms":X,
            // "model_version":V,"a":..): field order is free in JSON.
            Reply::Line(
                format!(
                    "{{\"latency_ms\":{latency_ms},\"model_version\":{model_version}\
                     {trace_tag},{}",
                    &body[1..]
                ),
                Some(ser_us),
            )
        }
    }
}

/// The Inference (+ Feature Extraction) Layer for one query, routed by
/// serve mode:
///
/// * batching off — the worker's own lane end to end (graph build +
///   full forward on its pooled tape);
/// * batching on, cache hit (same courier, byte-identical line) — the
///   worker replays the cached encoder activations through the
///   decoders on its own tape; no graph build, no encoder forward;
/// * batching on, cache miss — the worker builds the graph, ships it
///   to the inference engine, blocks on its reply channel, and installs
///   the returned activations in the cache (replacing a stale entry
///   counts as `serve.cache.invalidations`).
///
/// All three routes produce bit-identical predictions; see the module
/// docs.
///
/// Alongside the prediction, returns the request's [`StageBreakdown`]
/// with everything but `write_us` filled in: the single-thread routes
/// (unbatched, cache hit) have `queue_wait == batch_form == demux == 0`
/// and `forward` covering the local forward; the batched route carries
/// the engine-stamped queue/batch/forward durations plus the demux
/// latency back to this worker.
fn predict_query(
    ctx: &WorkerCtx<'_>,
    shard_idx: usize,
    line: &str,
    courier: &rtp_sim::Courier,
    query: &RtpQuery,
    trace_id: u64,
) -> Result<(Prediction, StageBreakdown, u64), String> {
    let shared = ctx.shared;
    let metrics = &shared.metrics;
    // Rebuild this worker's lane first if a hot-swap advanced the
    // shard; `version`/`model` are the generation every byte of this
    // reply is computed from (and tagged with).
    let (version, model) = ctx.refresh_lane(shard_idx);
    let lane = &ctx.lanes[shard_idx];
    let mut stages = StageBreakdown::default();
    let Some(infer_tx) = &lane.infer_tx else {
        let service = lane.service.borrow();
        let graph = service.build_graph(&ctx.dataset.city, courier, query);
        let t0 = Instant::now();
        let prediction = service.predict(&graph);
        stages.forward_us = t0.elapsed().as_micros() as u64;
        return Ok((prediction, stages, version));
    };
    // A cache entry is valid only when both the request line *and* the
    // model generation match: a byte-identical line after a swap must
    // miss, or the reply would replay swapped-out encoder activations.
    let cached = shared
        .lock_cache(shard_idx)
        .expect("batching implies a cache")
        .get(&query.courier_id)
        .filter(|e| e.fingerprint == line && e.version == version)
        .cloned();
    if let Some(entry) = cached {
        metrics.cache_hits.inc();
        shared.refresh_cache_rate();
        let t0 = Instant::now();
        let prediction = lane.service.borrow().predict_encoded(&entry.graph, &entry.enc);
        stages.forward_us = t0.elapsed().as_micros() as u64;
        return Ok((prediction, stages, version));
    }
    metrics.cache_misses.inc();
    shared.refresh_cache_rate();
    let graph = lane.service.borrow().build_graph(&ctx.dataset.city, courier, query);
    let (reply_tx, reply_rx) = channel();
    infer_tx
        .send(InferJob {
            graph,
            version,
            model,
            trace_id,
            enqueued: Instant::now(),
            reply: reply_tx,
        })
        .map_err(|_| "internal error: inference engine unavailable".to_string())?;
    let engine_reply = reply_rx
        .recv()
        .map_err(|_| "internal error: batched inference failed for this request".to_string())?;
    let EngineReply { graph, prediction, enc, queue_wait_us, batch_form_us, forward_us, finished } =
        engine_reply;
    stages.queue_wait_us = queue_wait_us;
    stages.batch_form_us = batch_form_us;
    stages.forward_us = forward_us;
    stages.demux_us = finished.elapsed().as_micros() as u64;
    // Install the activations — unless a swap advanced the shard while
    // this request was in flight, in which case they are already stale
    // and must not land (a later lookup filters on version anyway, but
    // refusing the insert keeps the cache free of dead weight).
    if shared.shards[shard_idx].version() == version {
        let entry = Arc::new(CacheEntry { fingerprint: line.to_string(), version, graph, enc });
        let mut cache = shared.lock_cache(shard_idx).expect("batching implies a cache");
        if let Some(old) = cache.insert(query.courier_id, entry) {
            // Same-fingerprint same-version replacement is a
            // concurrent-miss race, not a route-state change.
            if old.fingerprint != line || old.version != version {
                metrics.cache_invalidations.inc();
            }
        }
    }
    Ok((prediction, stages, version))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_shared() -> (TcpListener, ServerShared) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shared = ServerShared::new(Registry::new(), addr, &ServeOptions::default(), Vec::new());
        (listener, shared)
    }

    #[test]
    fn evented_dispatch_drain_race_counts_dropped_accepts() {
        let (listener, shared) = bare_shared();
        let addr = shared.addr;
        let (tx, rx) = channel::<Arc<EvConn>>();
        drop(rx);
        let sink = EventedSink { shared: &shared, tx };
        let _client = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let conn = Arc::new(EvConn::for_test(accepted));
        assert!(!sink.dispatch(Arc::clone(&conn)), "drained pool refuses dispatch");
        // The reactor's queue_lines reacts to a failed dispatch by
        // counting and closing; mirror that protocol here.
        sink.dropped_dispatch();
        conn.close();
        assert_eq!(shared.metrics.dropped_accepts.get(), 1);
        assert!(conn.is_dead());
    }

    #[test]
    fn trace_id_wrap_rolls_to_fresh_segment_and_counts() {
        let (_listener, shared) = bare_shared();
        let mut trace = TraceCtx::at_accept();
        let first = next_trace_id(&shared, &mut trace);
        // Exhaust the remainder of the segment: a segment spans seq
        // 1..=2^20-1, so after `first` there are 2^20 - 2 ids left.
        let seq_span = 1u64 << rtp_obs::SEQ_BITS;
        let mut last = first;
        for _ in 2..seq_span {
            last = next_trace_id(&shared, &mut trace);
        }
        assert_eq!(shared.metrics.trace_id_wraps.get(), 0, "still inside the first segment");
        assert_eq!(last, first + seq_span - 2, "consecutive ids within the segment");
        let rolled = next_trace_id(&shared, &mut trace);
        assert_eq!(shared.metrics.trace_id_wraps.get(), 1, "rollover must be surfaced");
        assert_ne!(rolled, first, "request 2^20+1 must not alias request 1");
        assert!(rolled >> rtp_obs::SEQ_BITS > first >> rtp_obs::SEQ_BITS, "fresh segment");
    }
}

//! Shared scaffolding for the serve-layer integration tests: train a
//! tiny model once, run the server on a background thread capturing
//! its stdout, and speak the NDJSON protocol as a client.
#![allow(dead_code)] // each test binary uses a different subset

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use m2g4rtp::{M2G4Rtp, ModelConfig, TrainConfig, Trainer};
use rtp_cli::serve::{serve, serve_sharded, ServeOptions, ShardSpec};
use rtp_eval::service::apply_prediction;
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig, RtpQuery};

/// A tiny trained model + its dataset (1 epoch; serving latency and
/// protocol behaviour do not depend on convergence).
pub fn trained_model(seed: u64) -> (Dataset, M2G4Rtp) {
    let dataset = DatasetBuilder::new(DatasetConfig::tiny(seed)).build();
    let mut cfg = ModelConfig::for_dataset(&dataset);
    cfg.d_loc = 16;
    cfg.d_aoi = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    let mut model = M2G4Rtp::new(cfg, 3);
    Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::quick() }).fit(&mut model, &dataset);
    (dataset, model)
}

/// Routes the server's "listening on ADDR" line to one channel and
/// every other stdout line (the shutdown summary) to another.
struct AddrSink(Sender<String>, Sender<String>, Vec<u8>);

impl Write for AddrSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.2.extend_from_slice(buf);
        while let Some(pos) = self.2.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.2[..pos]).to_string();
            if let Some(addr) = line.strip_prefix("listening on ") {
                let _ = self.0.send(addr.to_string());
            } else {
                let _ = self.1.send(line);
            }
            self.2.drain(..=pos);
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A server running on a background thread.
pub struct ServerHandle {
    /// `host:port` to connect to.
    pub addr: String,
    out_rx: Receiver<String>,
    join: JoinHandle<()>,
}

impl ServerHandle {
    /// Waits for the server to exit and returns its full stdout (the
    /// "workers:" line plus the telemetry summary), newline-joined.
    pub fn shutdown_summary(self) -> String {
        self.join.join().expect("server thread exits cleanly");
        let mut summary = String::new();
        while let Ok(line) = self.out_rx.try_recv() {
            summary.push_str(&line);
            summary.push('\n');
        }
        summary
    }
}

/// Spawns `serve` on an ephemeral port and waits for its address.
pub fn start_server(model: M2G4Rtp, dataset: Dataset, opts: ServeOptions) -> ServerHandle {
    let (addr_tx, addr_rx) = channel::<String>();
    let (out_tx, out_rx) = channel::<String>();
    let join = std::thread::spawn(move || {
        let mut sink = AddrSink(addr_tx, out_tx, Vec::new());
        serve(model, dataset, opts, &mut sink).expect("server runs");
    });
    let addr = addr_rx.recv_timeout(Duration::from_secs(60)).expect("server address");
    ServerHandle { addr, out_rx, join }
}

/// Spawns a multi-shard `serve_sharded` fleet on an ephemeral port and
/// waits for its address. Shard order is routing order: the first
/// shard is the default for requests without a `"city"` key.
pub fn start_sharded_server(
    models: Vec<(String, M2G4Rtp)>,
    dataset: Dataset,
    opts: ServeOptions,
) -> ServerHandle {
    let specs = models.into_iter().map(|(name, model)| ShardSpec::new(name, model)).collect();
    start_spec_server(specs, dataset, opts)
}

/// Spawns `serve_sharded` from full [`ShardSpec`]s (path-ful shards arm
/// SIGHUP reloads) on an ephemeral port and waits for its address.
pub fn start_spec_server(
    specs: Vec<ShardSpec>,
    dataset: Dataset,
    opts: ServeOptions,
) -> ServerHandle {
    let (addr_tx, addr_rx) = channel::<String>();
    let (out_tx, out_rx) = channel::<String>();
    let join = std::thread::spawn(move || {
        let mut sink = AddrSink(addr_tx, out_tx, Vec::new());
        serve_sharded(specs, dataset, opts, &mut sink).expect("server runs");
    });
    let addr = addr_rx.recv_timeout(Duration::from_secs(60)).expect("server address");
    ServerHandle { addr, out_rx, join }
}

/// The k-th test query with a `"city"` routing key spliced in front.
pub fn city_query_line(dataset: &Dataset, k: usize, city: &str) -> String {
    let line = query_line(dataset, k);
    format!("{{\"city\":\"{city}\",{}", &line[1..])
}

/// Current thread count of this process, from `/proc/self/status`
/// (Linux-only, like the epoll reactor itself).
pub fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line present")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// The soft `RLIMIT_NOFILE` cap, from `/proc/self/limits` — the test
/// process and the in-process server share it, so soak tests size
/// their connection count off this instead of hard-coding 1k+.
pub fn max_open_files() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line = limits.lines().find(|l| l.starts_with("Max open files")).expect("limit line");
    let soft = line.split_whitespace().nth(3).expect("soft limit field");
    if soft == "unlimited" {
        1 << 20
    } else {
        soft.parse().expect("soft limit parses")
    }
}

/// A blocking NDJSON client connection.
pub struct Client {
    pub stream: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Self { stream, reader }
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) {
        self.stream.write_all(format!("{line}\n").as_bytes()).expect("send");
    }

    /// Reads one reply line (empty string on EOF).
    pub fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply
    }

    /// One request/reply round trip.
    pub fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Sends raw bytes with no trailing newline (a truncated line).
    pub fn send_partial(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send partial");
    }

    /// Hard-closes the connection while a server reply sits unread in
    /// the receive buffer, so the close emits an RST and the server's
    /// next read on this connection fails with a real I/O error
    /// (a plain close would be a clean EOF). Call only with at least
    /// one reply in flight.
    pub fn close_with_unread(self) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mut byte = [0u8; 1];
        while self.stream.peek(&mut byte).unwrap_or(0) == 0 {
            assert!(std::time::Instant::now() < deadline, "no reply arrived to leave unread");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(self);
    }
}

/// The k-th test query as a request line.
pub fn query_line(dataset: &Dataset, k: usize) -> String {
    serde_json::to_string(&dataset.test[k % dataset.test.len()].query).expect("serialise query")
}

/// The reply a freshly started server owes `line`, with `latency_ms`
/// stripped as [`strip_latency`] does, computed by the library alone:
/// `build_graph` → `predict` → `apply_prediction` → serialise. This is
/// the byte-identity oracle for the serve path; `model_version` is 1,
/// the first generation of a shard.
pub fn library_reply(model: &M2G4Rtp, dataset: &Dataset, line: &str) -> String {
    let query: RtpQuery = serde_json::from_str(line).expect("query line parses");
    let courier = &dataset.couriers[query.courier_id];
    let graph = model.build_graph(&dataset.city, courier, &query);
    let app = apply_prediction(&query, &model.predict(&graph)).expect("prediction is aligned");
    let etas: Vec<f32> = app.etas.iter().map(|e| e.eta_minutes).collect();
    let json = |v: &dyn serde::Serialize| serde_json::to_string(v).expect("serialise");
    format!(
        "{{\"model_version\":1,\"sorted_orders\":{},\"aoi_sequence\":{},\"eta_minutes\":{}}}",
        json(&app.sorted_orders),
        json(&app.aoi_sequence),
        json(&etas)
    )
}

/// Strips the spliced `"latency_ms":X,` field so two replies to the
/// same query can be compared byte-for-byte (latency is the only
/// nondeterministic field).
pub fn strip_latency(reply: &str) -> String {
    let body = reply.trim();
    let prefix = "{\"latency_ms\":";
    if let Some(rest) = body.strip_prefix(prefix) {
        if let Some(comma) = rest.find(',') {
            return format!("{{{}", &rest[comma + 1..]);
        }
    }
    body.to_string()
}

/// Strips the spliced `"model_version":N,` field (and nothing else),
/// so replies computed before and after an identity hot-swap — same
/// weights, different version tag — can be compared byte-for-byte.
/// Composes with [`strip_latency`]: strip latency first.
pub fn strip_version(reply: &str) -> String {
    let body = reply.trim();
    let key = "\"model_version\":";
    let Some(start) = body.find(key) else {
        return body.to_string();
    };
    let rest = &body[start + key.len()..];
    let end = rest.find(',').map(|c| c + 1).unwrap_or(rest.len());
    format!("{}{}", &body[..start], &rest[end..])
}

/// The `model_version` tag carried by a reply.
pub fn reply_version(reply: &str) -> u64 {
    let v: serde::Value = serde_json::from_str(reply.trim()).expect("reply parses");
    match v.get("model_version") {
        Some(serde::Value::Num(n)) => n.as_u64().expect("model_version is a u64"),
        other => panic!("missing model_version in {reply}: {other:?}"),
    }
}

/// The k-th test query as a request line with `"trace": true` spliced
/// in, so the reply echoes its trace id and stage breakdown.
pub fn traced_query_line(dataset: &Dataset, k: usize) -> String {
    let line = query_line(dataset, k);
    format!("{{\"trace\":true,{}", &line[1..])
}

/// Strips the spliced `,"trace_id":N,"stages":{...}` fields from a
/// traced reply, leaving exactly the bytes an untraced reply to the
/// same query would carry (modulo `latency_ms`). Untraced replies pass
/// through unchanged.
pub fn strip_trace(reply: &str) -> String {
    let body = reply.trim();
    let Some(start) = body.find(",\"trace_id\":") else {
        return body.to_string();
    };
    let stages_key = "\"stages\":{";
    let sk = body[start..].find(stages_key).expect("stages follows trace_id") + start;
    let close = body[sk + stages_key.len()..].find('}').expect("stages object closes");
    let end = sk + stages_key.len() + close + 1;
    format!("{}{}", &body[..start], &body[end..])
}

/// The `trace_id` and stage durations echoed in a traced reply, in
/// [`rtp_obs::StageBreakdown::NAMES`] order.
pub fn parse_trace(reply: &str) -> (u64, [u64; 5]) {
    let v: serde::Value = serde_json::from_str(reply.trim()).expect("traced reply parses");
    let trace_id = match v.get("trace_id") {
        Some(serde::Value::Num(n)) => n.as_u64().expect("trace_id is a u64"),
        other => panic!("missing trace_id in {reply}: {other:?}"),
    };
    let stages = v.get("stages").expect("stages present");
    let stage = |name: &str| match stages.get(&format!("{name}_us")) {
        Some(serde::Value::Num(n)) => {
            let f = n.as_f64();
            assert!(f.is_finite() && f >= 0.0, "stage {name} must be finite and >= 0, got {f}");
            n.as_u64().unwrap_or_else(|| panic!("stage {name} is not a u64: {f}"))
        }
        other => panic!("missing stage {name} in {reply}: {other:?}"),
    };
    (trace_id, rtp_obs::StageBreakdown::NAMES.map(stage))
}

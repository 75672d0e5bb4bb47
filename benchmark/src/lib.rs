//! Inputs and arithmetic of the end-to-end benchmark: which request
//! lines a workload sends and in what order, the open-loop arrival
//! schedule, the reply check against the library path, and the order
//! statistics every metric is reported with. Process and socket
//! handling live in the binary; everything here is deterministic in
//! the seed so `tests/selftest.rs` can pin it down.

use m2g4rtp::{M2G4Rtp, Prediction};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rtp_eval::service::apply_prediction;
use rtp_sim::{Dataset, RtpQuery, RtpSample};
use serde::Serialize;

/// Arrival rate of the open-loop phase, requests per second: about a
/// quarter of what two connections sustain on a 2-core host, so the
/// phase measures latency below saturation.
pub const OPEN_LOOP_RATE: f64 = 300.0;

/// Connections the load generator opens (one thread each).
pub const CONNECTIONS: usize = 2;

/// Requests each connection keeps in flight in the closed-loop phase.
pub const IN_FLIGHT: usize = 4;

/// `rtp online` rounds in a `fresh` run (simulate → train → publish →
/// reload).
pub const ONLINE_ROUNDS: usize = 3;

/// The traffic mix of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a distinct query of the seed's dataset.
    Fresh,
    /// Every courier polls one fixed route state over and over.
    Repeat,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fresh" => Some(Self::Fresh),
            "repeat" => Some(Self::Repeat),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fresh => "fresh",
            Self::Repeat => "repeat",
        }
    }
}

/// How request `i` picks its line.
#[derive(Debug, Clone)]
enum Order {
    /// Line `perm[i % perm.len()]`: a fixed shuffle of every line,
    /// repeated. A courier's consecutive requests are consecutive
    /// entries of its own lines in the shuffle, so never the same line
    /// twice in a row while the courier has two or more lines.
    Cycle(Vec<usize>),
    /// A courier drawn at random per request, sending its one line.
    Poll(u64),
}

/// The request lines of a workload and the order they are sent in.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// The distinct samples the lines were made from (ground truth for
    /// the quality metrics).
    pub samples: Vec<RtpSample>,
    /// One serialised [`RtpQuery`] per sample, as a client sends it.
    pub lines: Vec<String>,
    order: Order,
}

impl Traffic {
    /// `fresh`: every train, validation and test sample of the dataset,
    /// in one seeded shuffle.
    pub fn fresh(dataset: &Dataset, seed: u64) -> Self {
        let samples: Vec<RtpSample> = dataset.all_samples().cloned().collect();
        let mut perm: Vec<usize> = (0..samples.len()).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xF2E5));
        Self { lines: serialise(&samples), samples, order: Order::Cycle(perm) }
    }

    /// `repeat`: one route state per courier that has any, polled by
    /// couriers drawn uniformly at random. Each courier's state is a
    /// seeded pick among its samples with the dataset's median order
    /// count (or the nearest count it has), so the polled set costs
    /// about the same to serve whatever the seed.
    pub fn repeat(dataset: &Dataset, seed: u64) -> Self {
        let mut sizes: Vec<usize> = dataset.all_samples().map(|s| s.query.orders.len()).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E9E);
        let samples: Vec<RtpSample> = (0..dataset.couriers.len())
            .filter_map(|c| {
                let own: Vec<&RtpSample> =
                    dataset.all_samples().filter(|s| s.query.courier_id == c).collect();
                let gap = |s: &RtpSample| s.query.orders.len().abs_diff(median);
                let best = own.iter().map(|s| gap(s)).min()?;
                let nearest: Vec<&&RtpSample> = own.iter().filter(|s| gap(s) == best).collect();
                Some((*nearest[rng.gen_range(0..nearest.len())]).clone())
            })
            .collect();
        assert!(!samples.is_empty(), "dataset has no samples");
        Self { lines: serialise(&samples), samples, order: Order::Poll(seed ^ 0x9011) }
    }

    /// Index into [`Traffic::lines`] of the `i`-th request of a phase.
    pub fn line_at(&self, i: u64) -> usize {
        match &self.order {
            Order::Cycle(perm) => perm[(i % perm.len() as u64) as usize],
            Order::Poll(seed) => (splitmix64(seed ^ i) % self.lines.len() as u64) as usize,
        }
    }

    /// Courier of line `line`.
    pub fn courier(&self, line: usize) -> usize {
        self.samples[line].query.courier_id
    }

    /// Share of the first `n` requests whose line equals the previous
    /// line of the same courier (first requests of a courier excluded
    /// from the numerator, included in the denominator).
    pub fn courier_repeat_share(&self, n: u64) -> f64 {
        let mut last: std::collections::HashMap<usize, usize> = Default::default();
        let mut repeats = 0u64;
        for i in 0..n {
            let line = self.line_at(i);
            if last.insert(self.courier(line), line) == Some(line) {
                repeats += 1;
            }
        }
        repeats as f64 / n.max(1) as f64
    }
}

fn serialise(samples: &[RtpSample]) -> Vec<String> {
    samples.iter().map(|s| serde_json::to_string(&s.query).expect("serialise query")).collect()
}

/// SplitMix64 finaliser: a stateless, seedable hash for per-request
/// draws.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Intended send offsets (seconds from phase start, ascending) of a
/// Poisson arrival process at `rate` over `seconds`, conditioned on
/// its expected count `round(rate * seconds)`: given the count, Poisson
/// arrival times are independent uniforms on the window, so the phase
/// has Poisson burstiness and exactly the stated mean rate.
pub fn open_loop_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA771);
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// The reply fields the server computes from the prediction, in its
/// serialisation order.
#[derive(Serialize)]
struct Body {
    sorted_orders: Vec<usize>,
    aoi_sequence: Vec<usize>,
    eta_minutes: Vec<f32>,
}

/// Parses a request line the way `rtp serve` does (JSON value, then
/// the query).
pub fn parse_line(line: &str) -> Result<RtpQuery, String> {
    use serde::Deserialize as _;
    let value: serde::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    RtpQuery::from_value(&value).map_err(|e| e.to_string())
}

/// The library path for one request line — `build_graph` → `predict`
/// → `apply_prediction` — and the reply body it implies, whose bytes a
/// correct server reply must end with.
pub fn expected_reply(
    model: &M2G4Rtp,
    dataset: &Dataset,
    line: &str,
) -> Result<(Prediction, String), String> {
    let query = parse_line(line)?;
    let courier = dataset.couriers.get(query.courier_id).ok_or("unknown courier")?;
    let prediction = model.predict(&model.build_graph(&dataset.city, courier, &query));
    let app = apply_prediction(&query, &prediction)?;
    let body = serde_json::to_string(&Body {
        eta_minutes: app.etas.iter().map(|e| e.eta_minutes).collect(),
        sorted_orders: app.sorted_orders,
        aoi_sequence: app.aoi_sequence,
    })
    .expect("serialise body");
    Ok((prediction, body))
}

/// What a checked reply reports about itself.
#[derive(Debug, Clone, Copy)]
pub struct ReplyInfo {
    /// The server's handle latency (`latency_ms`), microseconds.
    pub latency_us: f64,
    /// The model version that produced the reply.
    pub model_version: u64,
    /// Sum of the echoed stage durations, for replies to traced
    /// requests.
    pub stages_us: Option<u64>,
}

/// Checks one prediction reply against the library path's body:
/// `{"latency_ms":X,"model_version":V[,"trace_id":..,"stages":{..}],`
/// followed by exactly the expected fields. A traced reply's stages
/// must sum to no more than its latency.
pub fn check_reply(reply: &str, expected_body: &str) -> Result<ReplyInfo, String> {
    let fail = |what: &str| Err(format!("{what}: {}", truncate(reply)));
    let Some(rest) = reply.strip_prefix("{\"latency_ms\":") else {
        return fail("not a prediction reply");
    };
    if !reply.ends_with(&expected_body[1..]) {
        return fail("reply differs from the library path");
    }
    let (latency, rest) = rest.split_once(",\"model_version\":").ok_or("no model_version")?;
    let latency_ms: f64 = latency.parse().map_err(|_| "bad latency_ms")?;
    let version_end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    let model_version: u64 = rest[..version_end].parse().map_err(|_| "bad model_version")?;
    let stages_us = match rest.find("\"stages\":{") {
        Some(at) => {
            let obj = &rest[at + 10..];
            let obj = &obj[..obj.find('}').ok_or("unterminated stages")?];
            let mut sum = 0u64;
            for field in obj.split(',') {
                let (_, v) = field.split_once(':').ok_or("bad stage field")?;
                sum += v.parse::<u64>().map_err(|_| "bad stage value")?;
            }
            Some(sum)
        }
        None => None,
    };
    let latency_us = latency_ms * 1000.0;
    if let Some(sum) = stages_us {
        if sum as f64 > latency_us + 0.5 {
            return fail("traced stages exceed the reply's latency");
        }
    }
    Ok(ReplyInfo { latency_us, model_version, stages_us })
}

fn truncate(s: &str) -> String {
    s.chars().take(160).collect()
}

/// Marks a request line as traced (`"trace":true`), which the server
/// answers with the same fields plus a stage breakdown.
pub fn traced(line: &str) -> String {
    format!("{{\"trace\":true,{}", &line[1..])
}

/// Route and ETA quality of predictions against ground truth: mean
/// per-query Kendall rank correlation of the location route, and ETA
/// mean absolute error in minutes over all orders.
pub fn quality<'a>(pairs: impl IntoIterator<Item = (&'a Prediction, &'a RtpSample)>) -> (f64, f64) {
    let (mut krc_sum, mut queries, mut abs_err, mut orders) = (0.0, 0usize, 0.0, 0usize);
    for (p, s) in pairs {
        krc_sum += rtp_metrics::krc(&p.route, &s.truth.route);
        queries += 1;
        for (eta, truth) in p.times.iter().zip(&s.truth.arrival) {
            abs_err += f64::from((eta - truth).abs());
            orders += 1;
        }
    }
    (krc_sum / queries.max(1) as f64, abs_err / orders.max(1) as f64)
}

/// Value at quantile `q` of ascending `sorted` (nearest rank).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

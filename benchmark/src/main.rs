//! End-to-end benchmark of the M²G4RTP reproduction. See README.md in
//! this directory for the workloads, metrics and how to run it.
//!
//! ```text
//! rtp-e2e-bench --workload fresh|repeat --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it records everything the
//! metrics were derived from.

mod client;
mod layers;
mod server;

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use m2g4rtp::{
    CheckpointOptions, M2G4Rtp, ModelConfig, Prediction, SavedModel, TrainConfig, Trainer,
};
use rtp_cli::online::{push_reload, run_online, OnlineOptions};
use rtp_cli::serve::StatsReply;
use rtp_e2e_bench::{
    check_reply, expected_reply, median, open_loop_schedule, percentile, quality, Traffic,
    Workload, ONLINE_ROUNDS, OPEN_LOOP_RATE,
};
use rtp_obs::fsio::write_atomic_str;
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};

use client::{run_phase, Phase, Plan};
use server::Server;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 2;

/// Epochs the fixture model trains for before serving.
const FIXTURE_EPOCHS: usize = 3;

/// Identity publish → reload rounds after the traffic window.
const REFRESHES: usize = 9;

const USAGE: &str = "usage: rtp-e2e-bench --workload fresh|repeat --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| (1.0..=600.0).contains(s));
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Scratch files of one run, inside the checkout, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload) -> io::Result<Self> {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Requests sent and failed over the run, plus each phase's record.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    phases: Vec<String>,
}

/// One checked reply: its record and what it reported.
struct Checked<'a> {
    record: &'a client::Record,
    latency_us: f64,
}

impl Tally {
    /// Checks every reply of `phase` against the library path and the
    /// expected model version; records the phase with the server's
    /// stats snapshot and peak RSS taken right after it. Returns the
    /// passing replies and the raw stats.
    fn check<'a>(
        &mut self,
        name: &str,
        phase: &'a Phase,
        expected: &[String],
        version: u64,
        server: &Server,
        extra: &str,
    ) -> io::Result<(Vec<Checked<'a>>, String)> {
        let stats = server.stats()?;
        let rss = server.rss_peak_mb()?;
        let mut ok = Vec::with_capacity(phase.records.len());
        let mut errors = 0u64;
        for record in &phase.records {
            match check_reply(&record.reply, &expected[record.line]) {
                Ok(info) if info.model_version == version => {
                    ok.push(Checked { record, latency_us: info.latency_us });
                }
                other => {
                    errors += 1;
                    if errors <= 3 {
                        match other {
                            Ok(info) => eprintln!(
                                "{name}: model_version {} where {version} was expected",
                                info.model_version
                            ),
                            Err(e) => eprintln!("{name}: {e}"),
                        }
                    }
                }
            }
        }
        let unanswered = phase.sent - phase.records.len() as u64;
        let failed = errors + unanswered;
        self.attempted += phase.sent;
        self.failed += failed;
        eprintln!(
            "{name}: sent {} ok {} failed {failed} in {:.2}s",
            phase.sent,
            ok.len(),
            phase.elapsed
        );
        self.phases.push(format!(
            "{{\"name\":\"{name}\",\"sent\":{},\"succeeded\":{},\"failed\":{failed},\
             \"seconds\":{},\"rss_peak_mb\":{rss}{extra},\"stats\":{stats}}}",
            phase.sent,
            ok.len(),
            phase.elapsed
        ));
        Ok((ok, stats))
    }
}

fn us_sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

fn stats_of(raw: &str) -> io::Result<StatsReply> {
    serde_json::from_str(raw).map_err(|e| io::Error::other(format!("bad stats reply: {e}")))
}

/// Seconds to load the dataset and the model the way `rtp serve` and
/// `rtp online` do (read, parse, validate; read, parse, build).
fn load_like_cli(dataset: &Path, model: &Path) -> io::Result<(f64, f64)> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(dataset)?;
    Dataset::from_json(&text).map_err(io::Error::other)?.validate().map_err(io::Error::other)?;
    let dataset_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    load_model(model)?;
    Ok((dataset_s, t0.elapsed().as_secs_f64()))
}

fn load_model(path: &Path) -> io::Result<M2G4Rtp> {
    let saved: SavedModel =
        serde_json::from_str(&std::fs::read_to_string(path)?).map_err(io::Error::other)?;
    Ok(M2G4Rtp::from_saved(saved))
}

/// Serialises and atomically writes a model, as `rtp online` publishes.
fn publish(model: &M2G4Rtp, path: &Path) -> io::Result<f64> {
    let t0 = Instant::now();
    let json = serde_json::to_string(&model.to_saved()).map_err(io::Error::other)?;
    write_atomic_str(path, &json)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Medians of the trainer's epoch, validation and checkpoint spans.
fn span_medians(events: &[rtp_obs::SpanEvent]) -> [f64; 3] {
    ["train.epoch", "train.validate", "train.checkpoint"].map(|name| {
        let secs: Vec<f64> =
            events.iter().filter(|e| e.name == name).map(|e| e.dur_us as f64 / 1e6).collect();
        median(&secs)
    })
}

fn run(args: &Args) -> io::Result<()> {
    let started = Instant::now();
    let progress = |what: &str| eprintln!("[{:6.1}s] {what}", started.elapsed().as_secs_f64());
    let rtp = std::env::current_exe()?
        .parent()
        .map(|d| d.join("rtp"))
        .filter(|p| p.exists())
        .ok_or_else(|| io::Error::other("`rtp` not found next to the benchmark executable"))?;
    let work = WorkDir::new(args.workload)?;
    let (ds_path, model_path) = (work.path("dataset.json"), work.path("model.json"));
    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    let mut tally = Tally::default();
    let mut detail = Vec::new();

    // ---- preparation, untimed: dataset, fixture model, traffic ----
    let t0 = Instant::now();
    let dataset = DatasetBuilder::new(DatasetConfig::quick(args.seed)).build();
    layer.push("sim.day_build_s", t0.elapsed().as_secs_f64(), "s");
    write_atomic_str(&ds_path, &dataset.to_json().map_err(io::Error::other)?)?;
    let mut fixture = M2G4Rtp::new(ModelConfig::for_dataset(&dataset), args.seed);
    if args.trace {
        rtp_obs::trace::attach_memory();
    }
    let report = Trainer::new(TrainConfig { epochs: FIXTURE_EPOCHS, ..TrainConfig::quick() })
        .fit_with_checkpoints(
            &mut fixture,
            &dataset,
            Some(&CheckpointOptions::new(work.path("fixture_ckpt"))),
        )
        .map_err(io::Error::other)?;
    let mut spans = if args.trace { rtp_obs::trace::detach() } else { Vec::new() };
    layer.push(
        "train.samples_per_s",
        (dataset.train.len() * report.epochs_run) as f64 / report.train_loop_seconds,
        "1/s",
    );
    publish(&fixture, &model_path)?;
    // The library path's model is the published file read back, as
    // the server reads it.
    let oracle = load_model(&model_path)?;
    // Every workload serves each of the seed's queries once before its
    // measured phases; those replies give the quality metrics.
    let all = Traffic::fresh(&dataset, args.seed);
    let traffic = match args.workload {
        Workload::Fresh => all.clone(),
        Workload::Repeat => Traffic::repeat(&dataset, args.seed),
    };
    let library = |t: &Traffic| -> io::Result<Vec<(Prediction, String)>> {
        t.lines
            .iter()
            .map(|l| expected_reply(&oracle, &dataset, l))
            .collect::<Result<_, _>>()
            .map_err(io::Error::other)
    };
    let expected = library(&all)?;
    let all_bodies: Vec<String> = expected.iter().map(|(_, b)| b.clone()).collect();
    let bodies = match args.workload {
        Workload::Fresh => all_bodies.clone(),
        Workload::Repeat => library(&traffic)?.into_iter().map(|(_, b)| b).collect(),
    };
    progress("fixture model trained, library-path replies computed");

    // ---- set-up, timed ----
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let server = loop {
        let (server, secs) = Server::start(&rtp, &model_path, &ds_path)?;
        setup_s.push(secs);
        if setup_s.len() >= setups {
            break server;
        }
        server.shutdown()?;
    };
    e2e.push("setup_s", median(&setup_s), "s");
    detail.push(format!("\"setup_s\":{setup_s:?}"));
    progress("set-up done");
    let addr = server.addr.clone();
    let mut version = 1;

    // ---- traffic: every line once, open loop, closed loop ----
    let warm = run_phase(&addr, &all, &Plan::EveryLineOnce, false)?;
    let (ok, _) = tally.check("every_line", &warm, &all_bodies, version, &server, "")?;
    let (krc, mae) =
        quality(ok.iter().map(|c| (&expected[c.record.line].0, &all.samples[c.record.line])));
    e2e.push("route_krc", krc, "krc");
    e2e.push("eta_mae_min", mae, "min");

    let half = args.seconds / 2.0;
    let schedule = open_loop_schedule(args.seed, OPEN_LOOP_RATE, half);
    let open = run_phase(&addr, &traffic, &Plan::Open(&schedule), false)?;
    let late = us_sorted(open.records.iter().map(|r| (r.sent - r.intended) * 1e6));
    let extra = format!(
        ",\"rate\":{OPEN_LOOP_RATE},\"late_us_p50\":{},\"late_us_p99\":{},\"late_us_max\":{}",
        percentile(&late, 0.5),
        percentile(&late, 0.99),
        late.last().copied().unwrap_or(0.0)
    );
    let (ok, _) = tally.check("open_loop", &open, &bodies, version, &server, &extra)?;
    let raw_ms: Vec<String> = ok
        .iter()
        .map(|c| {
            format!("[{:.6},{:.4}]", c.record.intended, (c.record.recv - c.record.intended) * 1e3)
        })
        .collect();
    detail.push(format!("\"open_loop_intended_s_latency_ms\":[{}]", raw_ms.join(",")));
    let latency_ms = us_sorted(ok.iter().map(|c| (c.record.recv - c.record.intended) * 1e3));
    let handle_ms = us_sorted(ok.iter().map(|c| c.latency_us / 1e3));
    e2e.push("handle_p50_ms", percentile(&handle_ms, 0.5), "ms");
    layer.push("client.p50_ms", percentile(&latency_ms, 0.5), "ms");
    layer.push("client.p99_ms", percentile(&latency_ms, 0.99), "ms");
    let outside_us =
        us_sorted(ok.iter().map(|c| (c.record.recv - c.record.sent) * 1e6 - c.latency_us));
    layer.push("serve.outside_us.p50", percentile(&outside_us, 0.5), "us");
    layer.push("serve.outside_us.p99", percentile(&outside_us, 0.99), "us");
    layer.push("gen.late_us.p99", percentile(&late, 0.99), "us");

    if args.trace {
        let traced = run_phase(&addr, &traffic, &Plan::Open(&schedule), true)?;
        let (ok, _) = tally.check("open_loop_traced", &traced, &bodies, version, &server, "")?;
        let traced_ms = us_sorted(ok.iter().map(|c| (c.record.recv - c.record.intended) * 1e3));
        layer.push(
            "obs.trace_overhead_frac",
            percentile(&traced_ms, 0.5) / percentile(&latency_ms, 0.5) - 1.0,
            "ratio",
        );
    }

    let cpu_before = server.cpu_us()?;
    let closed = run_phase(&addr, &traffic, &Plan::ClosedFor(half), false)?;
    let cpu_us = server.cpu_us()? - cpu_before;
    let (ok, raw) = tally.check("closed_loop", &closed, &bodies, version, &server, "")?;
    e2e.push("req_per_s", ok.len() as f64 / closed.elapsed, "1/s");
    layer.push("serve.cpu_us_per_req", cpu_us / closed.records.len().max(1) as f64, "us");
    let stats = stats_of(&raw)?;
    let hist = |name: &str, q: fn(&rtp_cli::serve::HistogramStats) -> u64| {
        stats.histograms.get(name).map_or(f64::NAN, |h| q(h) as f64)
    };
    layer.push("serve.handle_us.p50", hist("serve.latency_us", |h| h.p50), "us");
    layer.push("serve.handle_us.p99", hist("serve.latency_us", |h| h.p99), "us");
    layer.push("serve.forward_us.p50", hist("serve.stage.forward_us", |h| h.p50), "us");
    layer.push("serve.write_us.p50", hist("serve.stage.write_us", |h| h.p50), "us");
    layer.push(
        "serve.cache_hit_rate",
        stats.gauges.get("serve.cache.hit_rate").copied().unwrap_or(0.0),
        "ratio",
    );
    progress("traffic phases done");

    // ---- `fresh` only: online rounds against the now idle server ----
    if args.workload == Workload::Fresh {
        let opts = OnlineOptions {
            addr: addr.clone(),
            shard: None,
            rounds: ONLINE_ROUNDS,
            epochs_per_round: 1,
            seed: args.seed,
            threads: 0,
            out: work.path("published.json").to_string_lossy().into_owned(),
            checkpoint_dir: Some(work.path("rounds").to_string_lossy().into_owned()),
        };
        if args.trace {
            rtp_obs::trace::attach_memory();
        }
        let rounds = run_online(fixture, &dataset, &opts, &mut io::sink())?;
        if args.trace {
            spans = rtp_obs::trace::detach();
        }
        // The served version must advance by exactly one per round.
        tally.attempted += ONLINE_ROUNDS as u64;
        let mut round_json = Vec::new();
        for (i, r) in rounds.iter().enumerate() {
            version += 1;
            if r.model_version != version {
                tally.failed += 1;
                eprintln!("round {i}: served model_version {} not {version}", r.model_version);
            }
            round_json.push(format!(
                "{{\"round\":{i},\"val_krc\":{},\"model_version\":{},\"seconds\":{}}}",
                r.val_krc, r.model_version, r.seconds
            ));
        }
        detail.push(format!("\"online_rounds\":[{}]", round_json.join(",")));
        let round_secs: Vec<f64> = rounds.iter().map(|r| r.seconds).collect();
        e2e.push("round_s", median(&round_secs), "s");
        progress("online rounds done");
    }

    // ---- identity refreshes: publish the fixture, reload it ----
    let refresh_path = work.path("refresh.json");
    let (mut refresh_s, mut publish_s, mut reload_ms) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..REFRESHES {
        let p = publish(&oracle, &refresh_path)?;
        let t0 = Instant::now();
        let v = push_reload(&addr, &refresh_path.to_string_lossy(), None)?;
        let r = t0.elapsed().as_secs_f64();
        version += 1;
        tally.attempted += 1;
        if v != version {
            tally.failed += 1;
            eprintln!("refresh {i}: reload acknowledged model_version {v} not {version}");
        }
        refresh_s.push(p + r);
        publish_s.push(p);
        reload_ms.push(r * 1e3);
    }
    if args.workload == Workload::Repeat {
        e2e.push("round_s", median(&refresh_s), "s");
    }
    let raw = server.stats()?;
    let reload_us = stats_of(&raw)?.histograms.get("serve.reload.duration_us").map(|h| h.p50);
    layer.push("serve.reload_duration_us", reload_us.map_or(f64::NAN, |v| v as f64), "us");
    layer.push("serve.reload_ms", median(&reload_ms), "ms");
    layer.push("online.publish_s", median(&publish_s), "s");
    detail.push(format!("\"refresh_s\":{refresh_s:?},\"refresh_stats\":{raw}"));
    e2e.push("rss_peak_mb", server.rss_peak_mb()?, "MB");
    server.shutdown()?;
    progress("server stopped");

    // ---- traced pass, in process ----
    let [epoch_s, validate_s, checkpoint_s] = span_medians(&spans);
    layer.push("train.epoch_s", epoch_s, "s");
    layer.push("train.validate_s", validate_s, "s");
    layer.push("train.checkpoint_s", checkpoint_s, "s");
    if args.trace {
        let (dataset_s, model_s) = load_like_cli(&ds_path, &model_path)?;
        layer.push("sim.dataset_parse_s", dataset_s, "s");
        layer.push("core.model_load_s", model_s, "s");
        let probe = layers::probe(&oracle, &dataset, &traffic, &mut layer);
        detail.push(format!("\"layers\":{probe}"));
        progress("layer probes done");
    }

    let (metrics, other) = if args.trace { (&layer, &e2e) } else { (&e2e, &layer) };
    println!(
        "{{\"bench_meta\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"open_loop_rate\":{OPEN_LOOP_RATE},\"generator_priority\":\"{}\",{},\"phases\":[{}],\
         \"other_metrics\":{}}}",
        rtp_bench::bench_meta_json(),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        client::generator_priority(),
        detail.join(","),
        tally.phases.join(","),
        other.to_json()
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    Ok(())
}

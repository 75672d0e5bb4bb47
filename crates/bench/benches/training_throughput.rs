//! Data-parallel training throughput: samples/sec of the M²G4RTP
//! mini-batch loop at 1, 2 and N worker threads (N = all cores).
//!
//! Measures [`TrainReport::train_loop_seconds`] — the forward/backward
//! shard loop plus the ordered gradient reduction and optimizer step —
//! so dataset preparation and validation passes do not dilute the
//! scaling number. Also measures the wall-clock overhead of per-epoch
//! durable checkpointing on the quick-scale dataset (target: < 5%).
//! Writes `results/training_throughput.json`.

use m2g4rtp::{CheckpointOptions, M2G4Rtp, ModelConfig, TrainConfig, TrainReport, Trainer};
use rtp_bench::bench_dataset;
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};
use rtp_tensor::parallel::resolve_threads;

const EPOCHS: usize = 2;
/// Interleaved plain/checkpointed training runs behind the overhead
/// figure; the median pair is reported.
const CHECKPOINT_PAIRS: usize = 3;

struct Row {
    threads: usize,
    samples_per_sec: f64,
    loop_seconds: f64,
    final_loss_bits: u32,
}

fn train(dataset: &Dataset, threads: usize, ckpt: Option<&CheckpointOptions>) -> TrainReport {
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(dataset), 7);
    let cfg = TrainConfig { epochs: EPOCHS, patience: usize::MAX, threads, ..TrainConfig::quick() };
    Trainer::new(cfg).fit_with_checkpoints(&mut model, dataset, ckpt).expect("training failed")
}

fn measure(threads: usize) -> Row {
    let dataset = bench_dataset();
    let report = train(&dataset, threads, None);
    let samples = (report.epochs_run * dataset.train.len()) as f64;
    Row {
        threads,
        samples_per_sec: samples / report.train_loop_seconds.max(1e-9),
        loop_seconds: report.train_loop_seconds,
        final_loss_bits: report
            .history
            .last()
            .expect("ran at least one epoch")
            .train_loss
            .to_bits(),
    }
}

/// Per-epoch checkpoint overhead as a fraction of the uncheckpointed
/// wall clock: [`CHECKPOINT_PAIRS`] interleaved plain/checkpointed
/// runs on the quick-scale dataset at one thread, so both sides see
/// the same ambient load. Returns the median pair as
/// `(overhead_frac, plain_s, checkpointed_s)`.
fn measure_checkpoint_overhead() -> (f64, f64, f64) {
    let dataset = DatasetBuilder::new(DatasetConfig::quick(4242)).build();
    let dir = std::env::temp_dir().join(format!("rtp-bench-ckpt-{}", std::process::id()));
    let mut pairs: Vec<(f64, f64, f64)> = (0..CHECKPOINT_PAIRS)
        .map(|_| {
            let plain = train(&dataset, 1, None).train_seconds;
            std::fs::remove_dir_all(&dir).ok();
            let checkpointed =
                train(&dataset, 1, Some(&CheckpointOptions::new(&dir))).train_seconds;
            ((checkpointed - plain).max(0.0) / plain.max(1e-9), plain, checkpointed)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs[CHECKPOINT_PAIRS / 2]
}

fn main() {
    let cores = resolve_threads(0);
    let mut settings = vec![1usize, 2, cores];
    settings.sort_unstable();
    settings.dedup();

    let rows: Vec<Row> = settings.iter().map(|&t| measure(t)).collect();
    let base = rows[0].samples_per_sec;
    for r in &rows {
        println!(
            "threads {:>2}: {:>8.2} samples/sec  ({:.2}x vs 1 thread, loop {:.2}s)",
            r.threads,
            r.samples_per_sec,
            r.samples_per_sec / base,
            r.loop_seconds
        );
    }
    let identical = rows.iter().all(|r| r.final_loss_bits == rows[0].final_loss_bits);
    println!("final-epoch loss bit-identical across thread counts: {identical}");

    let (overhead_frac, plain_s, ckpt_s) = measure_checkpoint_overhead();
    println!(
        "checkpointing overhead: {:.1}% wall clock ({plain_s:.2}s plain vs {ckpt_s:.2}s checkpointed, quick scale, {EPOCHS} epochs, median of {CHECKPOINT_PAIRS} pairs)",
        overhead_frac * 100.0
    );

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"samples_per_sec\": {:.3}, \"loop_seconds\": {:.4}, \"speedup_vs_1\": {:.3}}}",
                r.threads,
                r.samples_per_sec,
                r.loop_seconds,
                r.samples_per_sec / base
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"training_throughput\",\n  \"bench_meta\": {},\n  \"epochs\": {EPOCHS},\n  \"cores_available\": {cores},\n  \"loss_bit_identical_across_threads\": {identical},\n  \"checkpoint_scale\": \"quick\",\n  \"checkpoint_pairs\": {CHECKPOINT_PAIRS},\n  \"checkpoint_overhead_frac\": {overhead_frac:.4},\n  \"train_seconds_plain\": {plain_s:.4},\n  \"train_seconds_checkpointed\": {ckpt_s:.4},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rtp_bench::bench_meta_json(),
        entries.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out).expect("create results dir");
    let path = out.join("training_throughput.json");
    rtp_obs::fsio::write_atomic_str(&path, &json).expect("write results JSON");
    println!("wrote {}", path.display());
}

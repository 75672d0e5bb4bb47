//! Matmul-kernel and tape-reuse micro-benchmarks for the tensor
//! engine's hot loop.
//!
//! Three measurements, written to `results/tensor_kernels.json`:
//!
//! 1. **Kernel sweep** — square-matmul GFLOP-rate of the blocked,
//!    B-packed forward kernel vs the naive reference and both backward
//!    accumulation kernels at n ∈ {16, 32, 64, 128, 256}; then the
//!    forward kernel vs the naive reference at the `[r,k]×[k,c]`
//!    shapes the model runs (see [`MODEL_SHAPES`]).
//! 2. **Tape reuse** — forward+backward throughput of a small MLP-like
//!    program on a fresh `Tape::new()` per iteration vs one pooled
//!    tape reset with `Tape::clear()`, and the pool hit rate showing
//!    how many heap allocations the pool absorbs.
//! 3. **Op profile** — the per-op call/flop/byte counters the tensor
//!    layer publishes to the global metrics registry, accumulated over
//!    a batch of real end-to-end predictions, so the bench records
//!    *where* the model's arithmetic actually goes.

use rtp_bench::{bench_dataset, bench_meta_json, bench_model};
use rtp_tensor::{kernels, GradBuffer, ParamStore, Tape};
use std::time::Instant;

/// Deterministic pseudo-random fill (no rand dependency needed here).
fn fill(v: &mut [f32], mut seed: u32) {
    for x in v.iter_mut() {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        *x = ((seed >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0;
    }
}

/// Times `f` over enough repetitions to exceed ~80ms, best of three
/// rounds (shields against scheduler noise on the shared core),
/// returns seconds per call.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    // warm-up
    f();
    let mut reps = 1usize;
    let dt = loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt > 0.08 {
            break dt;
        }
        reps *= 2;
    };
    let mut best = dt;
    for _ in 0..2 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best / reps as f64
}

struct KernelRow {
    n: usize,
    naive_gflops: f64,
    blocked_gflops: f64,
    grad_a_gflops: f64,
    grad_b_gflops: f64,
    speedup: f64,
}

fn kernel_sweep() -> Vec<KernelRow> {
    [16usize, 32, 64, 128, 256]
        .iter()
        .map(|&n| {
            let mut a = vec![0.0f32; n * n];
            let mut b = vec![0.0f32; n * n];
            let mut out = vec![0.0f32; n * n];
            let mut acc = vec![0.0f32; n * n];
            fill(&mut a, 1 + n as u32);
            fill(&mut b, 2 + n as u32);
            let flops = 2.0 * (n as f64).powi(3);

            let naive = time_per_call(|| kernels::matmul_naive(&a, &b, &mut out, n, n, n));
            let blocked = time_per_call(|| kernels::matmul(&a, &b, &mut out, n, n, n));
            let grad_a = time_per_call(|| {
                acc.iter_mut().for_each(|x| *x = 0.0);
                kernels::matmul_grad_a(&a, &b, &mut acc, n, n, n);
            });
            let grad_b = time_per_call(|| {
                acc.iter_mut().for_each(|x| *x = 0.0);
                kernels::matmul_grad_b(&a, &b, &mut acc, n, n, n);
            });
            let row = KernelRow {
                n,
                naive_gflops: flops / naive / 1e9,
                blocked_gflops: flops / blocked / 1e9,
                grad_a_gflops: flops / grad_a / 1e9,
                grad_b_gflops: flops / grad_b / 1e9,
                speedup: naive / blocked,
            };
            println!(
                "n={:>3}: naive {:>6.2} GF/s  blocked {:>6.2} GF/s  ({:.2}x)  gA {:>6.2}  gB {:>6.2}",
                row.n, row.naive_gflops, row.blocked_gflops, row.speedup, row.grad_a_gflops,
                row.grad_b_gflops
            );
            row
        })
        .collect()
}

/// The `(r, k, c)` products the model runs per query: decoder-step
/// LSTM/attention products (1×48×192, 1×57×192, 1×65×192), the GAT-e
/// edge update z·W3 (86×48×12), an encoder projection (9×48×48), and
/// two single-column mat-vecs: GAT-e z·a_e (81×48×1) and an attention
/// vector over a small graph's node states (9×48×1).
const MODEL_SHAPES: [(usize, usize, usize); 7] =
    [(1, 48, 192), (1, 57, 192), (1, 65, 192), (86, 48, 12), (9, 48, 48), (81, 48, 1), (9, 48, 1)];

struct ShapeRow {
    r: usize,
    k: usize,
    c: usize,
    naive_gflops: f64,
    blocked_gflops: f64,
}

fn model_shape_sweep() -> Vec<ShapeRow> {
    MODEL_SHAPES
        .iter()
        .map(|&(r, k, c)| {
            let mut a = vec![0.0f32; r * k];
            let mut b = vec![0.0f32; k * c];
            let mut out = vec![0.0f32; r * c];
            fill(&mut a, 3 + r as u32);
            fill(&mut b, 4 + c as u32);
            let flops = 2.0 * (r * k * c) as f64;
            let naive = time_per_call(|| kernels::matmul_naive(&a, &b, &mut out, r, k, c));
            let blocked = time_per_call(|| kernels::matmul(&a, &b, &mut out, r, k, c));
            let row = ShapeRow {
                r,
                k,
                c,
                naive_gflops: flops / naive / 1e9,
                blocked_gflops: flops / blocked / 1e9,
            };
            println!(
                "r{r}_k{k}_c{c}: naive {:>6.2} GF/s  blocked {:>6.2} GF/s",
                row.naive_gflops, row.blocked_gflops
            );
            row
        })
        .collect()
}

/// Runs a batch of real predictions on a fresh inference tape and
/// returns the `tensor.*` counter deltas from the global registry as
/// formatted JSON lines. This is the per-op profile: calls, flops and
/// bytes for gather/softmax/add_outer/LSTM plus matmul kernel calls.
fn op_profile() -> (usize, Vec<String>) {
    let dataset = bench_dataset();
    let model = bench_model(&dataset);
    let before = rtp_obs::metrics::global().snapshot();
    let mut tape = Tape::inference();
    let queries = dataset.test.len().min(32);
    for s in dataset.test.iter().take(queries) {
        let courier = &dataset.couriers[s.query.courier_id];
        let g = model.build_graph(&dataset.city, courier, &s.query);
        model.predict_into(&mut tape, &g);
    }
    let after = rtp_obs::metrics::global().snapshot();
    let lines: Vec<String> = after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("tensor."))
        .filter_map(|(name, &v)| {
            let delta = v - before.counters.get(name).copied().unwrap_or(0);
            (delta > 0).then(|| format!("    \"{name}\": {delta}"))
        })
        .collect();
    for l in &lines {
        println!("{}", l.trim_start());
    }
    (queries, lines)
}

/// One forward+backward pass of a tanh MLP; sized small enough that
/// buffer allocation is a visible share of the pass (the regime the
/// per-sample training loop actually runs in: graphs are ~10-40 nodes).
const MLP_DIM: usize = 24;
const MLP_LAYERS: usize = 6;

fn mlp_pass(t: &mut Tape, store: &ParamStore, ids: &[rtp_tensor::ParamId], buf: &mut GradBuffer) {
    let mut x = t.constant(MLP_DIM, MLP_DIM, vec![0.5; MLP_DIM * MLP_DIM]);
    for &w in ids {
        let wv = t.param(store, w);
        let h = t.matmul(x, wv);
        x = t.tanh(h);
    }
    let loss = t.mean_all(x);
    t.backward_into(loss, buf);
}

struct ReuseResult {
    fresh_passes_per_sec: f64,
    reused_passes_per_sec: f64,
    speedup: f64,
    pool_hits: u64,
    pool_misses: u64,
}

fn tape_reuse() -> ReuseResult {
    let mut store = ParamStore::new(11);
    let ids: Vec<_> = (0..MLP_LAYERS as u32)
        .map(|l| {
            let mut w = vec![0.0f32; MLP_DIM * MLP_DIM];
            fill(&mut w, 77 + l);
            store.add_param(&format!("w{l}"), MLP_DIM, MLP_DIM, w)
        })
        .collect();
    let mut buf = GradBuffer::zeros_like(&store);

    let fresh_spc = time_per_call(|| {
        let mut t = Tape::new();
        mlp_pass(&mut t, &store, &ids, &mut buf);
    });

    let mut pooled = Tape::new();
    // Warm the pool once, then reset stats-relevant measurement phase:
    mlp_pass(&mut pooled, &store, &ids, &mut buf);
    let reused_spc = time_per_call(|| {
        pooled.clear();
        mlp_pass(&mut pooled, &store, &ids, &mut buf);
    });
    let (pool_hits, pool_misses) = pooled.pool_stats();

    let r = ReuseResult {
        fresh_passes_per_sec: 1.0 / fresh_spc,
        reused_passes_per_sec: 1.0 / reused_spc,
        speedup: fresh_spc / reused_spc,
        pool_hits,
        pool_misses,
    };
    println!(
        "tape fresh {:>8.1} passes/s   pooled {:>8.1} passes/s   ({:.2}x)   pool {}h/{}m",
        r.fresh_passes_per_sec, r.reused_passes_per_sec, r.speedup, r.pool_hits, r.pool_misses
    );
    r
}

fn main() {
    println!("== matmul kernel sweep ==");
    let rows = kernel_sweep();
    println!("== matmul at model shapes ==");
    let shapes = model_shape_sweep();
    println!("== tape reuse ==");
    let reuse = tape_reuse();
    println!("== op profile ==");
    let (profile_queries, profile_lines) = op_profile();

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"speedup\": {:.3}, \"grad_a_gflops\": {:.3}, \"grad_b_gflops\": {:.3}}}",
                r.n, r.naive_gflops, r.blocked_gflops, r.speedup, r.grad_a_gflops,
                r.grad_b_gflops
            )
        })
        .collect();
    let shape_entries: Vec<String> = shapes
        .iter()
        .map(|s| {
            format!(
                "    {{\"shape\": \"r{}_k{}_c{}\", \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}}}",
                s.r, s.k, s.c, s.naive_gflops, s.blocked_gflops
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"tensor_kernels\",\n  \"bench_meta\": {},\n  \"matmul_sweep\": [\n{}\n  ],\n  \"matmul_model_shapes\": [\n{}\n  ],\n  \"tape_reuse\": {{\n    \"fresh_passes_per_sec\": {:.1},\n    \"reused_passes_per_sec\": {:.1},\n    \"speedup\": {:.3},\n    \"pool_hits\": {},\n    \"pool_misses\": {},\n    \"pool_hit_rate\": {:.4}\n  }},\n  \"op_profile\": {{\n    \"queries\": {profile_queries},\n{}\n  }}\n}}\n",
        bench_meta_json(),
        entries.join(",\n"),
        shape_entries.join(",\n"),
        reuse.fresh_passes_per_sec,
        reuse.reused_passes_per_sec,
        reuse.speedup,
        reuse.pool_hits,
        reuse.pool_misses,
        reuse.pool_hits as f64 / (reuse.pool_hits + reuse.pool_misses).max(1) as f64,
        profile_lines.join(",\n"),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out).expect("create results dir");
    let path = out.join("tensor_kernels.json");
    rtp_obs::fsio::write_atomic_str(&path, &json).expect("write results JSON");
    println!("wrote {}", path.display());
}

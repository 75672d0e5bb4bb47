//! In-process timings of the layers one prediction passes through,
//! taken by calling each layer's public functions on the workload's own
//! request lines: request parse, graph build, the model forward and its
//! six paper layers, the application layer, tensor op counts and the
//! matmul kernel at model shapes.

use std::hint::black_box;
use std::time::Instant;

use m2g4rtp::{
    EdgeEmbedder, GatEncoder, M2G4Rtp, ModelConfig, NodeEmbedder, RouteDecoder, SortLstm,
};
use rtp_e2e_bench::{parse_line, Traffic};
use rtp_eval::service::apply_prediction;
use rtp_graph::{MultiLevelGraph, AOI_CONT_DIM, EDGE_DIM, GLOBAL_CONT_DIM, LOC_CONT_DIM};
use rtp_sim::Dataset;
use rtp_tensor::{kernels, ParamStore, Tape};

use crate::Metrics;

/// Requests the probes walk through (the workload's own order).
const REQUESTS: u64 = 1200;

/// The six paper layers, built with the fixture's dimensions
/// (`ModelConfig`, variant `Full`) from the public layer types.
struct PaperLayers {
    store: ParamStore,
    loc: (NodeEmbedder, EdgeEmbedder, GatEncoder),
    aoi: (NodeEmbedder, EdgeEmbedder, GatEncoder),
    dec_aoi: RouteDecoder,
    dec_loc: RouteDecoder,
    eta_aoi: SortLstm,
    eta_loc: SortLstm,
    d_u: usize,
    d_guide: usize,
}

impl PaperLayers {
    fn new(c: &ModelConfig) -> Self {
        let mut store = ParamStore::new(1);
        let s = &mut store;
        let mut level = |name: &str, cont: usize, d: usize| {
            (
                NodeEmbedder::new(
                    s,
                    &format!("{name}.node_emb"),
                    cont,
                    GLOBAL_CONT_DIM,
                    c.aoi_vocab,
                    c.courier_vocab,
                    c.d_disc,
                    d,
                ),
                EdgeEmbedder::new(s, &format!("{name}.edge_emb"), EDGE_DIM, d),
                GatEncoder::new(s, &format!("{name}.enc"), d, c.n_heads, c.n_layers, c.leaky_slope),
            )
        };
        let loc = level("loc", LOC_CONT_DIM, c.d_loc);
        let aoi = level("aoi", AOI_CONT_DIM, c.d_aoi);
        // Location inputs carry the AOI guidance: position encoding of
        // the AOI's rank plus its predicted arrival time.
        let d_in_loc = c.d_loc + c.d_pos + 1;
        Self {
            dec_aoi: RouteDecoder::new(s, "aoi.route_dec", c.d_aoi, c.d_u(), c.d_aoi, c.d_aoi),
            dec_loc: RouteDecoder::new(s, "loc.route_dec", d_in_loc, c.d_u(), c.d_loc, c.d_loc),
            eta_aoi: SortLstm::new(s, "aoi.time_dec", c.d_aoi, c.d_pos, c.d_aoi),
            eta_loc: SortLstm::new(s, "loc.time_dec", d_in_loc, c.d_pos, c.d_loc),
            loc,
            aoi,
            d_u: c.d_u(),
            d_guide: c.d_pos + 1,
            store,
        }
    }

    /// Runs the six layers on `g` in forward order, adding each one's
    /// microseconds to `acc` (encoder loc, encoder AOI, AOI route
    /// decoder, AOI ETA, location route decoder, location ETA). The
    /// glue between them (courier vector, guidance columns) is built
    /// off the clock.
    fn time(&self, t: &mut Tape, g: &MultiLevelGraph, acc: &mut [f64; 6]) {
        t.clear();
        let st = &self.store;
        let mut lap = Instant::now();
        let mut stop = |i: usize, lap: &mut Instant| {
            acc[i] += lap.elapsed().as_secs_f64() * 1e6;
            *lap = Instant::now();
        };
        let (node, edge, enc) = &self.loc;
        let x = node.embed(t, st, &g.locations, &g.global);
        let z = edge.embed(t, st, &g.locations);
        let x_loc = enc.forward(t, st, x, z, &g.locations.adj);
        stop(0, &mut lap);
        let (node, edge, enc) = &self.aoi;
        let x = node.embed(t, st, &g.aois, &g.global);
        let z = edge.embed(t, st, &g.aois);
        let x_aoi = enc.forward(t, st, x, z, &g.aois.adj);
        stop(1, &mut lap);
        let u = t.constant(1, self.d_u, vec![0.1; self.d_u]);
        let guide =
            t.constant(g.locations.n, self.d_guide, vec![0.1; g.locations.n * self.d_guide]);
        let x_in_loc = t.concat_cols(&[x_loc, guide]);
        lap = Instant::now();
        let aoi_route = self.dec_aoi.decode(t, st, x_aoi, u);
        stop(2, &mut lap);
        black_box(self.eta_aoi.forward(t, st, x_aoi, &aoi_route));
        stop(3, &mut lap);
        let route = self.dec_loc.decode(t, st, x_in_loc, u);
        stop(4, &mut lap);
        black_box(self.eta_loc.forward(t, st, x_in_loc, &route));
        stop(5, &mut lap);
    }
}

/// Times every layer on the first [`REQUESTS`] requests of `traffic`
/// and adds the per-query figures to `m`. Returns a JSON fragment with
/// the kernel shapes' operation and byte counts and the covered share
/// of the forward.
pub fn probe(model: &M2G4Rtp, dataset: &Dataset, traffic: &Traffic, m: &mut Metrics) -> String {
    let lines: Vec<&str> =
        (0..REQUESTS).map(|i| traffic.lines[traffic.line_at(i)].as_str()).collect();
    let n = lines.len() as f64;

    let t0 = Instant::now();
    let queries: Vec<_> =
        lines.iter().map(|l| parse_line(l).expect("workload lines parse")).collect();
    m.push("cli.parse_us", t0.elapsed().as_secs_f64() * 1e6 / n, "us");

    let t0 = Instant::now();
    let graphs: Vec<MultiLevelGraph> = queries
        .iter()
        .map(|q| model.build_graph(&dataset.city, &dataset.couriers[q.courier_id], q))
        .collect();
    m.push("graph.build_us", t0.elapsed().as_secs_f64() * 1e6 / n, "us");

    // Op counts: one untimed pass, global-registry deltas per query.
    let registry = rtp_obs::metrics::global();
    let counters =
        ["tensor.matmul.fwd", "tensor.op.gather_rows.calls", "tensor.op.lstm_cell.calls"];
    let before: Vec<u64> = counters.iter().map(|c| registry.counter(c).get()).collect();
    let mut tape = Tape::inference();
    let mut nodes = 0usize;
    let predictions: Vec<_> = graphs
        .iter()
        .map(|g| {
            let p = model.predict_into(&mut tape, g);
            nodes += tape.len();
            p
        })
        .collect();
    let per_query = |i: usize| (registry.counter(counters[i]).get() - before[i]) as f64 / n;
    m.push("tensor.tape_nodes_per_query", nodes as f64 / n, "count");
    m.push("tensor.matmul_per_query", per_query(0), "count");
    m.push("tensor.gather_rows_per_query", per_query(1), "count");
    m.push("tensor.lstm_cell_per_query", per_query(2), "count");
    let (hits, misses) = tape.pool_stats();
    m.push("tensor.pool_hit_rate", hits as f64 / (hits + misses).max(1) as f64, "ratio");

    // Forward and its six layers, interleaved per query so drift hits
    // both alike.
    let layers = PaperLayers::new(model.config());
    let mut layer_tape = Tape::inference();
    let (mut forward_us, mut acc) = (0.0, [0.0; 6]);
    for g in &graphs {
        let t0 = Instant::now();
        black_box(model.predict_into(&mut tape, g));
        forward_us += t0.elapsed().as_secs_f64() * 1e6;
        layers.time(&mut layer_tape, g, &mut acc);
    }
    m.push("core.forward_us", forward_us / n, "us");
    let names = ["enc_loc", "enc_aoi", "dec_aoi", "eta_aoi", "dec_loc", "eta_loc"];
    for (name, us) in names.iter().zip(acc) {
        m.push(&format!("core.{name}_us"), us / n, "us");
    }
    let covered = acc.iter().sum::<f64>() / forward_us;
    eprintln!("paper layers cover {:.1}% of core.forward_us", covered * 100.0);

    let t0 = Instant::now();
    for chunk in graphs.chunks(8) {
        let refs: Vec<&MultiLevelGraph> = chunk.iter().collect();
        black_box(model.predict_batch_into(&mut tape, &refs));
    }
    m.push("core.batch8_us_per_query", t0.elapsed().as_secs_f64() * 1e6 / n, "us");

    let t0 = Instant::now();
    for (q, p) in queries.iter().zip(&predictions) {
        black_box(apply_prediction(q, p).expect("library predictions apply"));
    }
    m.push("eval.apply_us", t0.elapsed().as_secs_f64() * 1e6 / n, "us");

    let mut kernel_detail = Vec::new();
    for (r, k, c) in [(1, 48, 192), (8, 48, 48)] {
        let gflops = matmul_gflops(r, k, c);
        m.push(&format!("tensor.matmul_gflops.r{r}_k{k}_c{c}"), gflops, "GFLOP/s");
        kernel_detail.push(format!(
            "{{\"shape\":[{r},{k},{c}],\"flops_per_call\":{},\"bytes_per_call\":{}}}",
            2 * r * k * c,
            4 * (r * k + k * c + r * c)
        ));
    }
    format!(
        "{{\"layers_cover_forward\":{covered},\"matmul_shapes\":[{}]}}",
        kernel_detail.join(",")
    )
}

/// `kernels::matmul` throughput at one shape, repeated for about 0.2 s.
fn matmul_gflops(r: usize, k: usize, c: usize) -> f64 {
    let a: Vec<f32> = (0..r * k).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..k * c).map(|i| (i as f32 * 0.11).cos()).collect();
    let mut out = vec![0.0f32; r * c];
    let mut calls = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.2 {
        for _ in 0..256 {
            kernels::matmul(black_box(&a), black_box(&b), &mut out, r, k, c);
        }
        calls += 256;
    }
    black_box(&out);
    (2 * r * k * c) as f64 * calls as f64 / t0.elapsed().as_secs_f64() / 1e9
}

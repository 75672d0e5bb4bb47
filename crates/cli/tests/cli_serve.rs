//! End-to-end tests of the TCP inference server: train a tiny model,
//! serve it on an ephemeral port with a worker pool, and act as one or
//! many clients speaking newline-delimited JSON — including clients
//! that misbehave (garbage, hard closes, induced panics), which must
//! cost only their own connection, never the server.

mod common;

use common::{query_line, start_server, strip_latency, trained_model, Client};
use m2g4rtp::M2G4Rtp;
use rtp_cli::serve::{ServeOptions, ServeResponse, StatsReply};
use std::time::Duration;

/// Asserts a reply is a well-formed prediction for `n_orders` orders:
/// `sorted_orders` a permutation, ETAs finite and non-negative.
fn assert_valid_prediction(reply: &str, n_orders: usize) -> ServeResponse {
    let resp: ServeResponse = serde_json::from_str(reply).expect("valid response JSON");
    assert_eq!(resp.sorted_orders.len(), n_orders);
    assert_eq!(resp.eta_minutes.len(), n_orders);
    assert!(resp.eta_minutes.iter().all(|&e| e >= 0.0 && e.is_finite()));
    // `>= 0.0`, not `> 0.0`: a tiny model can answer inside one timer
    // tick on coarse clocks, legitimately reporting 0.0 ms.
    assert!(resp.latency_ms >= 0.0 && resp.latency_ms.is_finite());
    let mut seen = vec![false; n_orders];
    for &i in &resp.sorted_orders {
        assert!(!seen[i], "duplicate order index in route");
        seen[i] = true;
    }
    resp
}

/// Polls `{"cmd":"stats"}` on a fresh connection until `pred` holds or
/// the deadline passes (some failure counters lag the client's view of
/// the fault, e.g. a reset is seen at the server's next read).
fn wait_for_stats(addr: &str, pred: impl Fn(&StatsReply) -> bool) -> StatsReply {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut c = Client::connect(addr);
        let stats: StatsReply =
            serde_json::from_str(&c.round_trip("{\"cmd\":\"stats\"}")).expect("stats reply parses");
        if pred(&stats) || std::time::Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn serve_answers_queries_over_tcp() {
    let (dataset, model) = trained_model(151);
    let opts = ServeOptions { max_requests: 3, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    // 1–2: two valid queries, pipelined on one connection
    for k in 0..2 {
        let reply = client.round_trip(&query_line(&dataset, k));
        assert_valid_prediction(&reply, dataset.test[k].query.orders.len());
    }
    // 3: malformed request gets a JSON error, not a dropped connection
    let reply = client.round_trip("this is not json");
    assert!(reply.contains("error"), "expected error reply, got: {reply}");

    let summary = server.shutdown_summary();
    assert!(summary.contains("served 3 request(s): 2 ok, 1 error(s)"), "{summary}");
}

#[test]
fn concurrent_pipelining_clients_all_get_valid_permutations_with_exact_accounting() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let (dataset, model) = trained_model(157);
    let opts = ServeOptions {
        workers: 4,
        max_requests: CLIENTS * PER_CLIENT + 1, // + the final stats line
        ..Default::default()
    };
    let server = start_server(model, dataset.clone(), opts);

    let addr = &server.addr;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let dataset = &dataset;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                // pipeline: write every request, then read every reply
                for k in 0..PER_CLIENT {
                    client.send(&query_line(dataset, c * PER_CLIENT + k));
                }
                for k in 0..PER_CLIENT {
                    let reply = client.recv();
                    let q = &dataset.test[(c * PER_CLIENT + k) % dataset.test.len()].query;
                    assert_valid_prediction(&reply, q.orders.len());
                }
            });
        }
    });

    // every reply above is accounted for before this stats round trip
    let mut client = Client::connect(addr);
    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.requests"), Some(&((CLIENTS * PER_CLIENT) as u64)));
    assert_eq!(stats.counters.get("serve.errors"), Some(&0));
    assert_eq!(stats.counters.get("serve.connections"), Some(&((CLIENTS + 1) as u64)));
    let worker_sum: u64 = stats
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve.worker.") && k.ends_with(".requests"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(worker_sum, (CLIENTS * PER_CLIENT) as u64, "per-worker counters must add up");

    let summary = server.shutdown_summary();
    assert!(
        summary.contains(&format!(
            "served {} request(s): {} ok, 0 error(s), 1 stats",
            CLIENTS * PER_CLIENT + 1,
            CLIENTS * PER_CLIENT
        )),
        "{summary}"
    );
}

#[test]
fn garbage_then_hard_close_costs_only_that_connection() {
    let (dataset, model) = trained_model(163);
    let opts = ServeOptions { workers: 2, allow_shutdown: true, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    // a well-behaved client, connected the whole time
    let mut good = Client::connect(&server.addr);
    let reply = good.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());

    {
        // a hostile client: garbage line, then a hard close mid-line
        // with an unread reply in its receive buffer (⇒ RST, so the
        // server sees a genuine I/O error, not a clean EOF)
        let mut bad = Client::connect(&server.addr);
        let reply = bad.round_trip("garbage that is not json");
        assert!(reply.contains("error"), "{reply}");
        bad.send(&query_line(&dataset, 1)); // reply never read
        bad.send_partial(b"{\"truncated");
        bad.close_with_unread();
    }

    // the good client keeps getting served while the bad one dies
    for k in 2..5 {
        let reply = good.round_trip(&query_line(&dataset, k));
        assert_valid_prediction(&reply, dataset.test[k].query.orders.len());
    }

    let stats = wait_for_stats(&server.addr, |s| {
        s.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1
    });
    assert!(
        stats.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1,
        "the hard close must surface as a connection error: {:?}",
        stats.counters
    );
    assert!(stats.counters.get("serve.requests").copied().unwrap_or(0) >= 5);

    let mut c = Client::connect(&server.addr);
    assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    let summary = server.shutdown_summary();
    assert!(summary.contains("conn error(s)"), "{summary}");
    assert!(!summary.contains("0 conn error(s)"), "{summary}");
}

#[test]
fn unknown_courier_is_an_error_not_a_courier0_prediction() {
    let (dataset, model) = trained_model(167);
    let opts = ServeOptions { max_requests: 3, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    let mut query = dataset.test[0].query.clone();
    query.courier_id = 1_000_000;
    let line = serde_json::to_string(&query).expect("serialise query");
    let reply = client.round_trip(&line);
    assert!(
        reply.contains("unknown courier_id 1000000"),
        "must name the bad courier id, got: {reply}"
    );
    assert!(
        serde_json::from_str::<ServeResponse>(&reply).is_err(),
        "an unknown courier must not yield a prediction: {reply}"
    );

    // a valid query on the same connection still works
    let reply = client.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());

    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.errors"), Some(&1));
    assert_eq!(stats.counters.get("serve.requests"), Some(&1));

    server.shutdown_summary();
}

#[test]
fn idle_connections_are_reaped() {
    let (dataset, model) = trained_model(173);
    let opts = ServeOptions {
        workers: 2,
        idle_timeout: Some(Duration::from_millis(200)),
        allow_shutdown: true,
        ..Default::default()
    };
    let server = start_server(model, dataset.clone(), opts);

    let mut stalled = Client::connect(&server.addr);
    // send nothing: the server must close this connection on its own
    let reply = stalled.recv();
    assert!(reply.is_empty(), "idle connection must be reaped with EOF, got: {reply}");

    let stats =
        wait_for_stats(&server.addr, |s| s.counters.get("serve.timeouts").copied() >= Some(1));
    assert!(
        stats.counters.get("serve.timeouts").copied().unwrap_or(0) >= 1,
        "{:?}",
        stats.counters
    );

    // reaping must not affect fresh connections
    let mut c = Client::connect(&server.addr);
    let reply = c.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());
    assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    let summary = server.shutdown_summary();
    assert!(summary.contains("1 timeout(s)"), "{summary}");
}

/// The acceptance test: with one connection force-killed mid-request
/// and one request panicking, the server stays up, later requests on
/// fresh connections succeed, the shutdown summary reports the
/// failures — and the N-worker server's predictions are byte-identical
/// to the single-worker path for the same queries (per-worker tapes
/// must not change numerics).
#[test]
fn fault_isolation_and_multi_worker_determinism() {
    let (dataset, model) = trained_model(179);
    // two bit-identical models from one set of trained weights
    let saved = serde_json::to_string(&model.to_saved()).expect("serialise model");
    let model_multi = M2G4Rtp::from_saved(serde_json::from_str(&saved).expect("parse model"));
    let model_single = M2G4Rtp::from_saved(serde_json::from_str(&saved).expect("parse model"));

    const QUERIES: usize = 5;
    let lines: Vec<String> = (0..QUERIES).map(|k| query_line(&dataset, k)).collect();

    // reference: single worker, sequential
    let reference: Vec<String> = {
        let opts = ServeOptions { workers: 1, max_requests: QUERIES, ..Default::default() };
        let server = start_server(model_single, dataset.clone(), opts);
        let mut client = Client::connect(&server.addr);
        let replies = lines.iter().map(|l| strip_latency(&client.round_trip(l))).collect();
        server.shutdown_summary();
        replies
    };

    // system under test: 4 workers, faults injected between requests
    let opts = ServeOptions { workers: 4, allow_shutdown: true, ..Default::default() };
    let server = start_server(model_multi, dataset.clone(), opts);

    // fault 1: an in-handler panic (via the gated fault-injection cmd)
    let mut panicker = Client::connect(&server.addr);
    let reply = panicker.round_trip("{\"cmd\":\"panic\"}");
    assert!(reply.contains("internal error"), "best-effort panic reply, got: {reply}");
    assert!(panicker.recv().is_empty(), "panicking connection must be dropped");
    drop(panicker);

    // fault 2: a connection force-killed mid-request (reply never read
    // ⇒ close sends RST ⇒ the server's next read on it fails)
    let mut killed = Client::connect(&server.addr);
    killed.send(&lines[0]);
    killed.close_with_unread();

    // the server is still up: fresh connections serve every query,
    // byte-identical to the single-worker reference
    let mut client = Client::connect(&server.addr);
    for (line, expect) in lines.iter().zip(&reference) {
        let got = strip_latency(&client.round_trip(line));
        assert_eq!(&got, expect, "multi-worker reply must be byte-identical to single-worker");
    }
    // and concurrent fresh clients agree too
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let addr = &server.addr;
            let lines = &lines;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for (line, expect) in lines.iter().zip(reference) {
                    assert_eq!(&strip_latency(&client.round_trip(line)), expect);
                }
            });
        }
    });

    let stats = wait_for_stats(&server.addr, |s| {
        s.counters.get("serve.panics").copied() == Some(1)
            && s.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1
    });
    assert_eq!(stats.counters.get("serve.panics"), Some(&1), "{:?}", stats.counters);
    assert!(
        stats.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1,
        "{:?}",
        stats.counters
    );

    let mut c = Client::connect(&server.addr);
    assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    let summary = server.shutdown_summary();
    assert!(summary.contains("1 panic(s)"), "{summary}");
    assert!(!summary.contains("0 conn error(s)"), "{summary}");
}

/// The batching acceptance test: twin servers from one set of saved
/// weights — an unbatched single-worker reference and a batched
/// multi-worker system under test with concurrent pipelining clients —
/// must produce byte-identical replies (modulo the latency field), at
/// several batch-max/window settings. The pipelining clients keep many
/// requests in flight at once, so real multi-job batches form, and the
/// repeat queries across clients exercise the encoder cache's hit path
/// against the same reference bytes.
#[test]
fn batched_replies_are_byte_identical_to_unbatched() {
    let (dataset, model) = trained_model(181);
    let saved = serde_json::to_string(&model.to_saved()).expect("serialise model");
    let load = || M2G4Rtp::from_saved(serde_json::from_str(&saved).expect("parse model"));

    const QUERIES: usize = 6;
    let lines: Vec<String> = (0..QUERIES).map(|k| query_line(&dataset, k)).collect();

    // Reference: unbatched, single worker, sequential.
    let reference: Vec<String> = {
        let opts = ServeOptions { workers: 1, max_requests: QUERIES, ..Default::default() };
        let server = start_server(load(), dataset.clone(), opts);
        let mut client = Client::connect(&server.addr);
        let replies = lines.iter().map(|l| strip_latency(&client.round_trip(l))).collect();
        server.shutdown_summary();
        replies
    };

    for (batch_max, window_us) in [(2usize, 500u64), (4, 2000)] {
        let opts = ServeOptions {
            workers: 4,
            allow_shutdown: true,
            batch_max,
            batch_window: Duration::from_micros(window_us),
            ..Default::default()
        };
        let server = start_server(load(), dataset.clone(), opts);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let addr = &server.addr;
                let lines = &lines;
                let reference = &reference;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    // pipeline: everything in flight before reading
                    for line in lines {
                        client.send(line);
                    }
                    for expect in reference {
                        assert_eq!(
                            &strip_latency(&client.recv()),
                            expect,
                            "batched reply must be byte-identical (batch_max {batch_max})"
                        );
                    }
                });
            }
        });

        let mut c = Client::connect(&server.addr);
        let stats: StatsReply =
            serde_json::from_str(&c.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
        let batches = stats.histograms.get("serve.batch_size").map(|h| h.count).unwrap_or(0);
        assert!(batches > 0, "the engine must have run batched forwards: {:?}", stats.histograms);
        let hits = stats.counters.get("serve.cache.hits").copied().unwrap_or(0);
        let misses = stats.counters.get("serve.cache.misses").copied().unwrap_or(0);
        assert_eq!(hits + misses, (4 * QUERIES) as u64, "every prediction is a hit or a miss");
        assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
        server.shutdown_summary();
    }
}

/// The encoder cache's exact behaviour on one connection: repeats of a
/// line are hits and byte-identical to the cold reply; changing the
/// same courier's route state (here: the query clock advancing) misses
/// the fingerprint, replaces the stale entry (counted as an
/// invalidation), and switching back re-encodes from scratch — again
/// byte-identical to the original cold reply, proving no stale
/// activations survive an invalidation.
#[test]
fn encoder_cache_hits_and_invalidations_are_exact_and_bit_identical() {
    let (dataset, model) = trained_model(191);
    let q_a = dataset.test[0].query.clone();
    let mut q_b = q_a.clone();
    q_b.time += 30.0; // same courier, route state moved on
    let line_a = serde_json::to_string(&q_a).expect("serialise");
    let line_b = serde_json::to_string(&q_b).expect("serialise");

    let opts = ServeOptions {
        workers: 2,
        allow_shutdown: true,
        batch_max: 4,
        batch_window: Duration::from_micros(200),
        ..Default::default()
    };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);

    let cold_a = strip_latency(&client.round_trip(&line_a)); // miss
    for _ in 0..3 {
        // hits: replayed activations must reproduce the cold bytes
        assert_eq!(strip_latency(&client.round_trip(&line_a)), cold_a);
    }
    let cold_b = strip_latency(&client.round_trip(&line_b)); // miss + invalidation
    assert_eq!(strip_latency(&client.round_trip(&line_b)), cold_b); // hit
                                                                    // switch back: the stale entry for this courier is gone, so this is
                                                                    // a fresh encode — and must still equal the original cold bytes
    assert_eq!(strip_latency(&client.round_trip(&line_a)), cold_a); // miss + invalidation

    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.cache.hits"), Some(&4), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.cache.misses"), Some(&3), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.cache.invalidations"), Some(&2), "{:?}", stats.counters);
    let rate = stats.gauges.get("serve.cache.hit_rate").copied().unwrap_or(-1.0);
    assert!((rate - 4.0 / 7.0).abs() < 1e-9, "hit-rate gauge must track the counters: {rate}");

    assert!(client.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    server.shutdown_summary();
}

/// Unknown control commands must be classified as control lines (never
/// falling through to the query parse-error path), answered with a
/// named reply, and counted in `serve.unknown_cmds` — not
/// `serve.errors`.
#[test]
fn unknown_command_gets_named_reply_and_its_own_counter() {
    let (dataset, model) = trained_model(193);
    let opts = ServeOptions { max_requests: 4, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    let reply = client.round_trip("{\"cmd\":\"flush\"}");
    assert!(reply.contains("unknown command `flush`"), "must name the command: {reply}");
    assert!(reply.contains("stats"), "must list the known commands: {reply}");
    assert!(!reply.contains("bad request"), "must not read as a query parse error: {reply}");

    // A non-string `cmd` is still a control line, not a malformed query.
    let reply = client.round_trip("{\"cmd\":42}");
    assert!(reply.contains("unknown command"), "{reply}");
    assert!(!reply.contains("bad request"), "{reply}");

    // Predictions still work on the same connection afterwards.
    let reply = client.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());

    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.unknown_cmds"), Some(&2), "{:?}", stats.counters);
    assert_eq!(
        stats.counters.get("serve.errors"),
        Some(&0),
        "unknown commands must not pollute serve.errors: {:?}",
        stats.counters
    );
    assert_eq!(stats.counters.get("serve.requests"), Some(&1));
    server.shutdown_summary();
}

//! End-to-end tests of the Prometheus exporters: the in-band
//! `{"cmd":"metrics"}` verb and the `--metrics-file` periodic snapshot
//! writer both emit text exposition that passes the format validator
//! (label syntax, monotone cumulative buckets, `_sum`/`_count`
//! consistency) and reflects the traffic actually served.

mod common;

use std::time::Duration;

use common::{query_line, start_server, traced_query_line, trained_model, Client};
use rtp_cli::serve::{MetricsReply, ServeOptions};

#[test]
fn metrics_command_returns_valid_prometheus_text() {
    let (dataset, model) = trained_model(401);
    let opts = ServeOptions {
        max_requests: 4,
        workers: 1,
        batch_max: 4,
        batch_window: Duration::from_micros(200),
        ..Default::default()
    };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);
    client.round_trip(&query_line(&dataset, 0));
    client.round_trip(&traced_query_line(&dataset, 1));
    let reply = client.round_trip("not json at all");
    assert!(reply.contains("error"), "{reply}");

    let reply = client.round_trip("{\"cmd\":\"metrics\"}");
    let m: MetricsReply = serde_json::from_str(&reply).expect("metrics reply parses");
    let samples = rtp_obs::prom::validate(&m.metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", m.metrics));
    assert!(samples > 20, "expected a full registry, got {samples} samples");

    // Exact traffic accounting in the exposition.
    assert!(m.metrics.contains("serve_requests 2\n"), "{}", m.metrics);
    assert!(m.metrics.contains("serve_errors 1\n"), "{}", m.metrics);
    // The queue_wait/forward stage split of the batched path is
    // visible as separate histogram families.
    assert!(m.metrics.contains("serve_stage_queue_wait_us_count 2\n"), "{}", m.metrics);
    assert!(m.metrics.contains("serve_stage_forward_us_count 2\n"), "{}", m.metrics);
    assert!(m.metrics.contains("serve_stage_forward_us_bucket{le=\""), "{}", m.metrics);
    assert!(m.metrics.contains("# TYPE serve_latency_us histogram\n"), "{}", m.metrics);

    drop(client);
    server.shutdown_summary();
}

#[test]
fn metrics_file_snapshots_are_scrapeable_and_final() {
    let (dataset, model) = trained_model(402);
    let path =
        std::env::temp_dir().join(format!("rtp-metrics-snapshot-{}.txt", std::process::id()));
    let path_s = path.to_str().unwrap().to_string();
    let opts = ServeOptions {
        workers: 1,
        allow_shutdown: true,
        metrics_file: Some(path_s),
        metrics_interval: Duration::from_secs(1),
        ..Default::default()
    };
    let server = start_server(model, dataset.clone(), opts);

    // The writer emits a snapshot at startup, before any traffic.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let initial = loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            break text;
        }
        assert!(std::time::Instant::now() < deadline, "no startup snapshot appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    rtp_obs::prom::validate(&initial)
        .unwrap_or_else(|e| panic!("invalid startup exposition: {e}\n{initial}"));
    assert!(initial.contains("serve_requests 0\n"), "{initial}");

    let mut client = Client::connect(&server.addr);
    client.round_trip(&query_line(&dataset, 0));
    client.round_trip(&query_line(&dataset, 1));
    client.round_trip("{\"cmd\":\"shutdown\"}");
    drop(client);
    server.shutdown_summary();

    // The shutdown path writes one final snapshot after the drain, so
    // the file reflects the complete run.
    let text = std::fs::read_to_string(&path).expect("final snapshot present");
    std::fs::remove_file(&path).ok();
    rtp_obs::prom::validate(&text)
        .unwrap_or_else(|e| panic!("invalid final exposition: {e}\n{text}"));
    assert!(text.contains("serve_requests 2\n"), "{text}");
    assert!(text.contains("serve_latency_us_count 2\n"), "{text}");
    assert!(text.contains("serve_stage_write_us_count 2\n"), "{text}");
    // Gauges survive the render with Prometheus float spelling.
    assert!(text.contains("# TYPE serve_active_connections gauge\n"), "{text}");
}

//! End-to-end tests of the epoll (evented) connection front end:
//! byte-identity against the library's own predict path, partial-line
//! reassembly across readiness events, the request-line cap, and the
//! shutdown-poke accounting fix (`serve.connections` counts real
//! clients only). The 1k-idle soak lives in its own binary
//! (`cli_soak.rs`) so its process-wide thread-count assertions don't
//! race other tests.

mod common;

use common::{
    library_reply, query_line, start_server, strip_latency, strip_trace, traced_query_line,
    trained_model, Client,
};
use m2g4rtp::M2G4Rtp;
use rtp_cli::evented::MAX_LINE_BYTES;
use rtp_cli::serve::{ServeOptions, StatsReply};
use std::io::{ErrorKind, Read as _, Write as _};
use std::time::Duration;

/// Replies from the server must be byte-identical to the library path
/// (`build_graph` → `predict` → `apply_prediction` → serialise) for
/// the same weights and queries, traced or not, after stripping the
/// nondeterministic latency/trace fields; error lines are pinned
/// verbatim. The reactor and worker pool are transport only.
#[test]
fn replies_are_byte_identical_to_the_library_path() {
    let (dataset, model) = trained_model(211);
    let saved = model.to_saved();
    let server = start_server(M2G4Rtp::from_saved(saved), dataset.clone(), ServeOptions::default());

    let mut client = Client::connect(&server.addr);
    for k in 0..6 {
        let line = query_line(&dataset, k);
        let want = library_reply(&model, &dataset, &line);
        assert_eq!(strip_latency(&client.round_trip(&line)), want, "query {k}");

        let traced = traced_query_line(&dataset, k);
        let got = strip_latency(&strip_trace(&client.round_trip(&traced)));
        assert_eq!(got, want, "traced query {k}");
    }
    // Error replies are part of the protocol surface too.
    for (bad, want) in [
        ("not json", "{\"error\":\"bad request: invalid literal at byte 0\"}"),
        (
            "{\"cmd\":\"frobnicate\"}",
            "{\"error\":\"unknown command `frobnicate`: known commands are stats, metrics, \
             dump, reload, shutdown, panic\"}",
        ),
        ("{\"orders\":[]}", "{\"error\":\"bad request: missing field `courier_id`\"}"),
    ] {
        assert_eq!(client.round_trip(bad).trim(), want, "error reply for {bad:?}");
    }
}

/// A pipelined burst (all requests written before any reply is read)
/// must come back in request order, each reply identical to the same
/// query answered on its own.
#[test]
fn evented_pipelined_burst_replies_in_request_order() {
    let (dataset, model) = trained_model(223);
    let server = start_server(model, dataset.clone(), ServeOptions::default());
    let mut client = Client::connect(&server.addr);

    let mut expected = Vec::new();
    for k in 0..8 {
        client.send(&query_line(&dataset, k));
        expected.push(k);
    }
    let mut singles = Client::connect(&server.addr);
    for k in expected {
        let burst = strip_latency(&client.recv());
        let single = strip_latency(&singles.round_trip(&query_line(&dataset, k)));
        assert_eq!(burst, single, "burst reply {k} out of order or corrupted");
    }
}

/// A client that dribbles one request byte-per-write across many
/// readiness events must still get exactly one (correct) reply: the
/// reactor's per-connection buffer reassembles partial lines.
#[test]
fn dribbled_request_bytes_reassemble_into_one_request() {
    let (dataset, model) = trained_model(227);
    let server = start_server(model, dataset.clone(), ServeOptions::default());

    let mut reference = Client::connect(&server.addr);
    let line = query_line(&dataset, 0);
    let want = strip_latency(&reference.round_trip(&line));

    let mut dribbler = Client::connect(&server.addr);
    let bytes = format!("{line}\n");
    for (i, chunk) in bytes.as_bytes().chunks(1).enumerate() {
        dribbler.stream.write_all(chunk).expect("dribble byte");
        // Pause every few bytes so the kernel delivers separate
        // readiness events instead of coalescing the whole line.
        if i % 64 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(strip_latency(&dribbler.recv()), want, "dribbled request corrupted");

    // A complete line and a partial one in a single write: the
    // complete line is answered now, the tail once its newline lands.
    let (head, tail) = bytes.as_bytes().split_at(bytes.len() / 2);
    let mut mixed = Client::connect(&server.addr);
    mixed.send_partial(format!("{line}\n").as_bytes());
    mixed.send_partial(head);
    assert_eq!(strip_latency(&mixed.recv()), want, "complete line in mixed write");
    std::thread::sleep(Duration::from_millis(20));
    mixed.send_partial(tail);
    assert_eq!(strip_latency(&mixed.recv()), want, "split line completed later");
}

/// The shutdown self-connect poke must not be visible in connection
/// accounting: with two real clients, the summary says exactly
/// `connections: 2 handled`.
#[test]
fn shutdown_poke_is_excluded_from_connection_accounting() {
    let (dataset, model) = trained_model(229);
    let server = start_server(
        model,
        dataset.clone(),
        ServeOptions { allow_shutdown: true, workers: 2, ..Default::default() },
    );

    let mut c1 = Client::connect(&server.addr);
    let r = c1.round_trip(&query_line(&dataset, 0));
    assert!(r.contains("sorted_orders"), "{r}");
    let mut c2 = Client::connect(&server.addr);
    let ack = c2.round_trip("{\"cmd\":\"shutdown\"}");
    assert!(ack.contains("shutting down"), "{ack}");

    let summary = server.shutdown_summary();
    assert!(summary.contains("connections: 2 handled"), "poke leaked into accounting:\n{summary}");
}

/// A client that streams 1 MiB without a newline is cut off once its
/// line passes [`MAX_LINE_BYTES`]: it sees the connection close, the
/// server counts exactly one `serve.conn_errors`, and another client
/// is answered byte-identically to the library path meanwhile.
#[test]
fn overlong_request_line_closes_only_that_connection() {
    let (dataset, model) = trained_model(239);
    let saved = model.to_saved();
    let server = start_server(M2G4Rtp::from_saved(saved), dataset.clone(), ServeOptions::default());
    let conn_errors = |c: &mut Client| {
        let stats: StatsReply =
            serde_json::from_str(&c.round_trip("{\"cmd\":\"stats\"}")).expect("stats parse");
        stats.counters.get("serve.conn_errors").copied().unwrap_or(0)
    };
    let mut good = Client::connect(&server.addr);
    let before = conn_errors(&mut good);

    let mut flood = Client::connect(&server.addr);
    flood.stream.set_write_timeout(Some(Duration::from_secs(30))).expect("write timeout");
    let chunk = vec![b'x'; 4096];
    let mut sent = 0usize;
    while sent < (1 << 20) {
        // The server closing mid-stream turns further writes into
        // EPIPE/ECONNRESET; a write that blocks until the timeout
        // means the server stopped reading without closing.
        match flood.stream.write(&chunk) {
            Ok(n) => sent += n,
            Err(e) => {
                assert_ne!(e.kind(), ErrorKind::WouldBlock, "server stalled instead of closing");
                assert_ne!(e.kind(), ErrorKind::TimedOut, "server stalled instead of closing");
                break;
            }
        }
    }
    assert!(sent > MAX_LINE_BYTES, "the server closed before the cap was reached ({sent} B)");
    // Unread bytes in the server's receive buffer may turn its close
    // into a reset rather than a FIN; either way no reply comes back.
    let mut buf = [0u8; 64];
    match flood.reader.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("overlong line got a reply: {:?}", String::from_utf8_lossy(&buf[..n])),
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "expected close, got {e}"),
    }

    let line = query_line(&dataset, 2);
    assert_eq!(strip_latency(&good.round_trip(&line)), library_reply(&model, &dataset, &line));
    assert_eq!(conn_errors(&mut good), before + 1, "exactly the flooding connection errs");
}

/// A connection that dies mid-line (bytes sent, no newline, then EOF)
/// must cost only itself: the server stays healthy for the next
/// client and exits cleanly.
#[test]
fn eof_with_unterminated_partial_line_is_contained() {
    let (dataset, model) = trained_model(233);
    let server = start_server(
        model,
        dataset.clone(),
        ServeOptions { allow_shutdown: true, ..Default::default() },
    );

    let mut half = Client::connect(&server.addr);
    half.send_partial(b"{\"orders\":");
    drop(half);

    // The server keeps answering.
    let mut client = Client::connect(&server.addr);
    let r = client.round_trip(&query_line(&dataset, 1));
    assert!(r.contains("sorted_orders"), "{r}");
    let ack = client.round_trip("{\"cmd\":\"shutdown\"}");
    assert!(ack.contains("shutting down"), "{ack}");
    server.shutdown_summary();
}

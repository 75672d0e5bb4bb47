//! Self-tests of the benchmark's inputs: determinism in the seed, the
//! repeat structure each workload promises, the open-loop rate, and
//! the reply check.

use rtp_e2e_bench::{check_reply, open_loop_schedule, traced, Traffic, OPEN_LOOP_RATE};
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};

fn dataset(seed: u64) -> Dataset {
    DatasetBuilder::new(DatasetConfig::quick(seed)).build()
}

fn sequence(t: &Traffic, n: u64) -> Vec<&str> {
    (0..n).map(|i| t.lines[t.line_at(i)].as_str()).collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let (a, b, c) = (dataset(5), dataset(5), dataset(6));
    for make in [Traffic::fresh, Traffic::repeat] {
        let (ta, tb, tc) = (make(&a, 5), make(&b, 5), make(&c, 6));
        assert_eq!(sequence(&ta, 2000), sequence(&tb, 2000));
        assert_ne!(sequence(&ta, 2000), sequence(&tc, 2000));
    }
    let s = open_loop_schedule(5, OPEN_LOOP_RATE, 4.0);
    assert_eq!(s, open_loop_schedule(5, OPEN_LOOP_RATE, 4.0));
    assert_ne!(s, open_loop_schedule(6, OPEN_LOOP_RATE, 4.0));
}

#[test]
fn fresh_never_repeats_a_courier_line_back_to_back() {
    for seed in [1, 2, 3] {
        let t = Traffic::fresh(&dataset(seed), seed);
        assert!(t.lines.len() > 500, "quick scale has hundreds of queries");
        // Three full cycles, so the wrap-around is covered too.
        assert_eq!(t.courier_repeat_share(3 * t.lines.len() as u64), 0.0);
        // One cycle sends every line exactly once.
        let mut seen: Vec<usize> = (0..t.lines.len() as u64).map(|i| t.line_at(i)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..t.lines.len()).collect::<Vec<_>>());
    }
}

#[test]
fn repeat_mostly_repeats_each_couriers_previous_line() {
    for seed in [1, 2, 3] {
        let d = dataset(seed);
        let t = Traffic::repeat(&d, seed);
        assert_eq!(t.lines.len(), d.couriers.len(), "one line per courier");
        let share = t.courier_repeat_share(2000);
        assert!(share >= 0.95, "seed {seed}: repeat share {share}");
    }
}

#[test]
fn open_loop_schedule_keeps_its_rate() {
    for (seed, seconds) in [(1, 4.0), (2, 5.0), (3, 30.0)] {
        let s = open_loop_schedule(seed, OPEN_LOOP_RATE, seconds);
        let rate = s.len() as f64 / seconds;
        assert!((rate / OPEN_LOOP_RATE - 1.0).abs() <= 0.02, "rate {rate}");
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(s.iter().all(|&t| (0.0..seconds).contains(&t)));
        // Poisson gaps: mean 1/rate, and about as spread as they are long.
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((sd / mean - 1.0).abs() < 0.15, "coefficient of variation {}", sd / mean);
    }
}

#[test]
fn reply_check_accepts_the_library_body_and_nothing_else() {
    let body = r#"{"sorted_orders":[1,0],"aoi_sequence":[0],"eta_minutes":[3.5,1.25]}"#;
    let reply = format!("{{\"latency_ms\":1.5,\"model_version\":3,{}", &body[1..]);
    let info = check_reply(&reply, body).expect("well-formed reply");
    assert_eq!((info.latency_us, info.model_version, info.stages_us), (1500.0, 3, None));

    let traced_reply = format!(
        "{{\"latency_ms\":1.5,\"model_version\":3,\"trace_id\":7,\"stages\":{{\"queue_wait_us\":0,\
         \"batch_form_us\":0,\"forward_us\":1200,\"demux_us\":0,\"write_us\":100}},{}",
        &body[1..]
    );
    assert_eq!(check_reply(&traced_reply, body).expect("traced").stages_us, Some(1300));
    let too_slow = traced_reply.replace("1200", "1450");
    assert!(check_reply(&too_slow, body).is_err(), "stages beyond the latency");

    let other = reply.replace("3.5", "3.4");
    assert!(check_reply(&other, body).is_err(), "different ETA");
    assert!(check_reply(r#"{"error":"bad request"}"#, body).is_err());
}

#[test]
fn traced_lines_keep_the_query() {
    let line = r#"{"courier_id":3,"time":1.0}"#;
    assert_eq!(traced(line), r#"{"trace":true,"courier_id":3,"time":1.0}"#);
}

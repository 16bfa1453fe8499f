//! The live-telemetry surface end to end: `stats` v2 snapshots, `watch`
//! delta streams (pinned additive: baseline + Σdeltas == a fresh
//! snapshot), and the per-request access log.

mod common;

use modelfinder::obs::{json, Snapshot};
use ptxd::Config;

fn mp_source() -> String {
    std::fs::read_to_string(common::litmus_dir().join("mp.litmus")).expect("read mp.litmus")
}

/// `stats` carries the whole snapshot — counters, sampled gauges,
/// latency histograms, per-model verdict counters.
#[test]
fn stats_v2_reports_the_full_surface() {
    let handle = common::spawn(Config {
        jobs: 1,
        ..Config::default()
    });
    let mut client = common::connect(&handle);
    let source = mp_source();
    let cold = client.run(1, &source, None).expect("cold run");
    assert!(cold.ok && !cold.cached);
    let warm = client.run(2, &source, None).expect("warm run");
    assert!(warm.ok && warm.cached);

    let snap = client.stats_v2().expect("stats v2");
    assert_eq!(snap.counter("ptxd.requests"), 2);
    assert_eq!(snap.counter("ptxd.completed"), 2);
    assert_eq!(snap.counter("ptxd.cache_hits"), 1);
    assert_eq!(snap.counter("ptxd.cache_misses"), 1);

    // Both runs answered under the default model with the pinned
    // verdict: exactly one per-model verdict counter, at 2.
    let verdicts: Vec<(&String, &u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("ptxd.verdict."))
        .collect();
    assert_eq!(verdicts.len(), 1, "one (model, verdict) pair: {verdicts:?}");
    assert_eq!(*verdicts[0].1, 2);
    assert!(verdicts[0].0.ends_with(".Ok"), "mp verdict is Ok");

    // One enqueue→dispatch and one dispatch→reply observation per run.
    assert_eq!(snap.histograms["ptxd.queue_wait_ns"].count, 2);
    let solve = &snap.histograms["ptxd.solve_ns"];
    assert_eq!(solve.count, 2);
    assert!(solve.sum > 0, "solves take time");
    assert!(solve.p50() <= solve.p99());

    // Sampled gauges are present; the verdict cache holds the one entry.
    assert_eq!(snap.gauge("ptxd.gauge.cache_entries"), 1);
    assert_eq!(snap.gauge("ptxd.gauge.queue_depth"), 0);
    assert!(snap.gauges.contains_key("ptxd.gauge.uptime_ms"));

    // Without `v` the reply is the same snapshot shape; the retired
    // flat-counter shape (`v: 1`) is a structured protocol error.
    client
        .send_line("{\"id\":3,\"op\":\"stats\"}")
        .expect("send");
    let plain = client.recv().expect("plain stats");
    assert_eq!(
        plain.snapshot.expect("snapshot").counter("ptxd.requests"),
        2
    );
    client
        .send_line("{\"id\":4,\"op\":\"stats\",\"v\":1}")
        .expect("send");
    let err = client.recv().expect("v1 error reply");
    assert!(!err.ok);
    assert_eq!(err.kind.as_deref(), Some("proto"));
    handle.shutdown();
}

/// Watch deltas are additive: the tick-0 baseline plus every delta
/// reconstructs a fresh `stats` v2 snapshot exactly, for the monotone
/// kinds (counters, timings, histograms — gauges are last-value).
#[test]
fn watch_deltas_reconstruct_the_snapshot() {
    let handle = common::spawn(Config {
        jobs: 1,
        ..Config::default()
    });
    let mut watcher = common::connect(&handle);
    const TICKS: u64 = 30;
    watcher.send_watch(7, 100, Some(TICKS)).expect("send watch");

    // Traffic overlaps the stream: five distinct solves on another
    // connection while ticks accumulate.
    let addr = handle.addr();
    let traffic = std::thread::spawn(move || {
        let mut conn = litmus::ServerClient::connect(&addr).expect("connect traffic");
        for (i, (name, source)) in common::bundled_sources().iter().take(5).enumerate() {
            let reply = conn.run(i as u64, source, None).expect("traffic run");
            assert!(reply.ok, "{name} failed");
        }
    });

    let baseline = {
        let tick0 = watcher.recv().expect("tick 0");
        assert_eq!(tick0.tick, Some(0));
        tick0.snapshot.expect("tick 0 carries the baseline")
    };
    let mut total = baseline;
    let mut nonzero_deltas = 0;
    for want in 1..=TICKS {
        let tick = watcher.recv().expect("tick");
        assert_eq!(tick.tick, Some(want), "ticks are ordered");
        assert!(tick.snapshot.is_none(), "only tick 0 carries a snapshot");
        let delta = tick.delta.expect("tick carries a delta");
        if delta.counters.values().any(|&n| n > 0) {
            nonzero_deltas += 1;
        }
        total.add_assign(&delta);
    }
    traffic.join().expect("traffic thread");
    assert!(
        nonzero_deltas >= 1,
        "the stream must observe the overlapping traffic"
    );

    // Fetch the fresh snapshot over the watch connection itself — a new
    // connection would bump `ptxd.conns` after the stream already ended.
    let fresh = watcher.stats_v2().expect("fresh stats");
    // Deltas drop zero entries by design, so registered-but-untouched
    // names never enter the stream; compare the nonzero image.
    let nonzero = |counters: &std::collections::BTreeMap<String, u64>| {
        counters
            .iter()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| (k.clone(), n))
            .collect::<std::collections::BTreeMap<String, u64>>()
    };
    assert_eq!(
        nonzero(&total.counters),
        nonzero(&fresh.counters),
        "counters reconstruct"
    );
    for (name, t) in fresh.timings.iter().filter(|(_, t)| t.count > 0) {
        assert_eq!(total.timings[name].count, t.count, "{name} count");
        assert_eq!(total.timings[name].total, t.total, "{name} total");
    }
    assert!(total.timings.keys().all(|k| fresh.timings.contains_key(k)));
    for (name, h) in fresh.histograms.iter().filter(|(_, h)| h.count > 0) {
        assert_eq!(total.histograms[name].count, h.count, "{name} count");
        assert_eq!(total.histograms[name].sum, h.sum, "{name} sum");
        assert_eq!(total.histograms[name].buckets, h.buckets, "{name} buckets");
    }
    assert!(total
        .histograms
        .keys()
        .all(|k| fresh.histograms.contains_key(k)));
    handle.shutdown();
}

/// Every `run` request leaves exactly one access-log record — answered
/// cold, answered from cache, or rejected at parse — in both the file
/// sink and the ring, and `sleep` leaves none.
#[test]
fn access_log_captures_every_request_fate() {
    let path = std::env::temp_dir().join(format!("ptxd-telemetry-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = common::spawn(Config {
        jobs: 1,
        debug_ops: true,
        access_log: Some(path.to_str().expect("utf8 path").to_string()),
        log_ring: 8,
        ..Config::default()
    });
    let mut client = common::connect(&handle);
    let source = mp_source();

    let cold = client.run(1, &source, None).expect("cold run");
    assert!(cold.ok && !cold.cached);
    let warm = client.run(2, &source, None).expect("warm run");
    assert!(warm.ok && warm.cached);
    client
        .send_line("{\"id\":9,\"op\":\"run\",\"source\":\"NOT A LITMUS TEST\"}")
        .expect("send bad source");
    let bad = client.recv().expect("parse-error reply");
    assert!(!bad.ok);
    assert_eq!(bad.kind.as_deref(), Some("parse"));
    client.send_sleep(10, 1).expect("send sleep");
    assert!(client.recv().expect("sleep reply").ok);
    // Sleep completion proves the run records are all written (jobs=1,
    // FIFO per connection).
    assert_eq!(handle.access_written(), 3, "three run requests, no sleep");

    // The ring serves the same records to clients via the `log` op.
    let records = client.log_tail(10).expect("log tail");
    assert_eq!(records.len(), 3);
    let field = |v: &json::Value, k: &str| {
        v.get(k)
            .and_then(json::Value::as_str)
            .map(String::from)
            .unwrap_or_default()
    };
    assert_eq!(field(&records[0], "cache"), "miss");
    assert_eq!(field(&records[0], "disposition"), "ok");
    assert_eq!(field(&records[0], "verdict"), "Ok");
    assert_eq!(field(&records[0], "mode"), "sat");
    assert!(
        field(&records[0], "sig").starts_with('e'),
        "sat runs carry a universe signature"
    );
    assert!(
        records[0].get("solve_ns").and_then(json::Value::as_u64) > Some(0),
        "a cold solve takes time"
    );
    assert_eq!(field(&records[1], "cache"), "hit");
    assert_eq!(field(&records[1], "disposition"), "ok");
    assert_eq!(field(&records[2], "disposition"), "parse-error");
    assert_eq!(field(&records[2], "name"), "?");
    assert_eq!(field(&records[2], "verdict"), "-");
    assert_eq!(records[2].get("id").and_then(json::Value::as_u64), Some(9));

    // The Handle mirrors the ring for in-process tests.
    assert_eq!(handle.access_tail(10).len(), 3);

    // Records hit the file sink synchronously, so the file is complete
    // the moment the replies are in hand.
    let text = std::fs::read_to_string(&path).expect("read access log");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "file sink matches written()");
    for line in &lines {
        let v = json::parse(line).expect("record parses");
        assert!(v.get("disposition").is_some());
        assert!(v
            .get("queue_wait_ns")
            .and_then(json::Value::as_u64)
            .is_some());
    }
    let _ = std::fs::remove_file(&path);
    handle.shutdown();
}

/// A bounded watch stream delivers exactly `count` deltas after the
/// baseline and then stops — the client can keep using the connection.
#[test]
fn bounded_watch_stops_cleanly() {
    let handle = common::spawn(Config {
        jobs: 1,
        ..Config::default()
    });
    let mut watcher = common::connect(&handle);
    watcher.send_watch(1, 25, Some(2)).expect("send watch");
    let tick0 = watcher.recv().expect("tick 0");
    assert_eq!(tick0.tick, Some(0));
    let _baseline: Snapshot = tick0.snapshot.expect("baseline");
    for want in 1..=2u64 {
        let tick = watcher.recv().expect("tick");
        assert_eq!(tick.tick, Some(want));
        assert!(tick.delta.is_some());
    }
    // The stream is done; an ordinary op gets the very next reply.
    let pong = watcher.ping().expect("ping after watch");
    assert!(pong.ok);
    assert!(
        pong.tick.is_none(),
        "the stream sent nothing past its count"
    );
    handle.shutdown();
}

//! Overload behavior: the bounded queue sheds exactly the excess, and
//! the fairness cap keeps a greedy connection from starving others.

mod common;

use std::time::{Duration, Instant};

use ptxd::Config;

fn mp_source() -> String {
    std::fs::read_to_string(common::litmus_dir().join("mp.litmus")).expect("read mp.litmus")
}

/// With the queue bound at N and N+k requests pipelined behind a busy
/// worker, exactly k are shed — and the N admitted ones all produce
/// correct verdicts once the worker frees up.
#[test]
fn queue_bound_sheds_exactly_the_excess() {
    const BOUND: usize = 4;
    const EXCESS: usize = 3;
    let handle = common::spawn(Config {
        jobs: 1,
        queue_bound: BOUND,
        fair_cap: 100,
        debug_ops: true,
        ..Config::default()
    });
    let mut control = common::connect(&handle);
    let mut client = common::connect(&handle);

    // Occupy the only worker, then pipeline BOUND+EXCESS runs. The
    // queue cannot drain while the worker sleeps, so admission is
    // deterministic: the first BOUND are queued, the rest shed.
    client.send_sleep(0, 800).expect("send blocker");
    assert_eq!(
        common::poll_counter(
            &mut control,
            "ptxd.sleep.started",
            1,
            Duration::from_secs(5)
        ),
        1
    );
    let source = mp_source();
    for i in 0..(BOUND + EXCESS) as u64 {
        client.send_run(10 + i, &source, None).expect("send run");
    }

    // Shed replies are synchronous with admission, so while the worker
    // still sleeps the telemetry is frozen at its most loaded point:
    // the queue-depth gauge reads the full bound and the shed counters
    // read exactly the excess.
    assert_eq!(
        common::poll_counter(
            &mut control,
            "ptxd.shed",
            EXCESS as u64,
            Duration::from_secs(5)
        ),
        EXCESS as u64
    );
    let loaded = control.stats_v2().expect("stats v2 under load");
    assert_eq!(loaded.gauge("ptxd.gauge.queue_depth"), BOUND as u64);
    assert_eq!(loaded.gauge("ptxd.gauge.inflight"), 1, "the sleeper");
    assert_eq!(loaded.counter("ptxd.shed"), EXCESS as u64);
    assert_eq!(loaded.counter("ptxd.shed.queue"), EXCESS as u64);

    let mut shed = Vec::new();
    let mut answered = Vec::new();
    for _ in 0..(BOUND + EXCESS + 1) {
        let reply = client.recv().expect("recv");
        if !reply.ok {
            assert_eq!(reply.kind.as_deref(), Some("shed"), "only shed errors");
            shed.push(reply.id.expect("shed reply echoes id"));
        } else if reply.path.as_deref() != Some("debug") {
            assert_eq!(
                reply.verdict.as_deref(),
                Some("Ok"),
                "overload must never produce a wrong verdict"
            );
            answered.push(reply.id.expect("run reply echoes id"));
        }
    }
    // Single reader, single blocked worker: the shed set is exactly the
    // last EXCESS submissions.
    assert_eq!(shed, vec![14, 15, 16]);
    assert_eq!(answered.len(), BOUND);
    // The snapshot agrees with the client's own observations exactly:
    // as many shed counts as shed replies, every shed run also logged.
    let settled = control.stats_v2().expect("stats settled");
    assert_eq!(settled.counter("ptxd.shed"), shed.len() as u64);
    assert_eq!(settled.counter("ptxd.shed.queue"), EXCESS as u64);
    assert_eq!(settled.counter("ptxd.completed"), (BOUND + 1) as u64);
    assert_eq!(settled.gauge("ptxd.gauge.queue_depth"), 0, "drained");
    let shed_records = control
        .log_tail(100)
        .expect("log tail")
        .iter()
        .filter(|r| {
            r.get("disposition")
                .and_then(modelfinder::obs::json::Value::as_str)
                == Some("shed")
        })
        .count();
    assert_eq!(shed_records, shed.len(), "one access record per shed");
    handle.shutdown();
}

/// The per-connection cap bounds how much queue a greedy client can
/// own, and round-robin dispatch completes a quiet client's single
/// request before the greedy backlog finishes.
#[test]
fn fairness_cap_prevents_starvation() {
    let handle = common::spawn(Config {
        jobs: 1,
        queue_bound: 100,
        fair_cap: 2,
        debug_ops: true,
        ..Config::default()
    });
    let mut control = common::connect(&handle);
    let mut blocker = common::connect(&handle);
    let mut greedy = common::connect(&handle);
    let mut quiet = common::connect(&handle);

    blocker.send_sleep(0, 800).expect("send blocker");
    assert_eq!(
        common::poll_counter(
            &mut control,
            "ptxd.sleep.started",
            1,
            Duration::from_secs(5)
        ),
        1
    );
    let source = mp_source();
    // Greedy floods five; its cap admits two. Distinct conditions keep
    // every request a fresh solve, so completion times are separated by
    // real work rather than cache-hit microseconds.
    for i in 0..5 {
        let variant = source.replace("1:r1=0", &format!("1:r1={}", i + 2));
        greedy.send_run(i, &variant, None).expect("greedy send");
    }
    assert_eq!(
        common::poll_counter(
            &mut control,
            "ptxd.shed.fairness",
            3,
            Duration::from_secs(5)
        ),
        3,
        "greedy overflow must be rejected by the fairness gate, not queued"
    );
    // v2 mirrors the fairness gate: the overflow shows up under
    // `ptxd.shed.fairness`, and the queue holds only the admitted pair.
    let gated = control.stats_v2().expect("stats v2 under fairness gate");
    assert_eq!(gated.counter("ptxd.shed.fairness"), 3);
    assert_eq!(gated.counter("ptxd.shed"), 3);
    assert_eq!(gated.gauge("ptxd.gauge.queue_depth"), 2, "cap admits two");
    quiet.send_run(100, &source, None).expect("quiet send");

    let quiet_thread = std::thread::spawn(move || {
        let reply = quiet.recv().expect("quiet recv");
        (Instant::now(), reply)
    });
    let mut greedy_shed = 0;
    let mut greedy_done = Vec::new();
    for _ in 0..5 {
        let reply = greedy.recv().expect("greedy recv");
        if reply.ok {
            greedy_done.push((Instant::now(), reply));
        } else {
            assert_eq!(reply.kind.as_deref(), Some("shed"));
            greedy_shed += 1;
        }
    }
    let (quiet_at, quiet_reply) = quiet_thread.join().expect("quiet thread");

    assert_eq!(greedy_shed, 3, "cap 2 admits 2 of 5");
    assert_eq!(greedy_done.len(), 2);
    assert!(quiet_reply.ok);
    assert_eq!(quiet_reply.verdict.as_deref(), Some("Ok"));
    // Round-robin: greedy's first admitted job may precede quiet's, but
    // quiet's single request completes before greedy's backlog does.
    let (greedy_last, _) = greedy_done.last().expect("two replies");
    assert!(
        quiet_at < *greedy_last,
        "quiet client starved behind the greedy backlog"
    );
    handle.shutdown();
}

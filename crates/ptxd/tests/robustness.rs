//! Robustness: deadlines, malformed input, and mid-query disconnects.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use ptxd::Config;

fn mp_source() -> String {
    std::fs::read_to_string(common::litmus_dir().join("mp.litmus")).expect("read mp.litmus")
}

/// A request whose deadline already passed is answered with a timeout
/// verdict carrying a flight-recorder autopsy — not dropped, not solved.
#[test]
fn expired_deadline_yields_timeout_with_autopsy() {
    let handle = common::spawn(Config::default());
    let mut client = common::connect(&handle);
    let reply = client.run(0, &mp_source(), Some(0)).expect("run");
    assert!(reply.ok, "a timeout is a reply, not a protocol error");
    assert_eq!(reply.verdict.as_deref(), Some("Unknown"));
    assert!(reply.timed_out);
    assert!(reply.observable.is_none());
    assert!(
        reply.has_autopsy,
        "timeout replies must carry the autopsy payload"
    );
    assert_eq!(handle.snapshot().counter("ptxd.timeouts"), 1);

    // An undecided query is never cached: the same source with a sane
    // deadline is solved fresh.
    let retry = client.run(1, &mp_source(), Some(60_000)).expect("retry");
    assert!(retry.ok && !retry.cached && !retry.timed_out);
    assert_eq!(retry.verdict.as_deref(), Some("Ok"));
    handle.shutdown();
}

/// Malformed lines get structured `proto`/`parse` error replies and the
/// connection keeps working.
#[test]
fn malformed_input_gets_structured_errors() {
    let handle = common::spawn(Config::default());
    let mut client = common::connect(&handle);

    client.send_line("{this is not json").expect("send garbage");
    let err = client.recv().expect("connection must survive garbage");
    assert!(!err.ok);
    assert_eq!(err.kind.as_deref(), Some("proto"));

    client
        .send_line("{\"id\":9,\"op\":\"run\",\"source\":\"PTX broken\\nnot a row\"}")
        .expect("send unparseable litmus");
    let err = client.recv().expect("recv parse error");
    assert!(!err.ok);
    assert_eq!(err.id, Some(9));
    assert_eq!(err.kind.as_deref(), Some("parse"));

    client
        .send_line("{\"id\":10,\"op\":\"no-such-op\"}")
        .expect("send unknown op");
    let err = client.recv().expect("recv proto error");
    assert!(!err.ok);
    assert_eq!(err.kind.as_deref(), Some("proto"));

    // The same connection still answers real work.
    let reply = client
        .run(11, &mp_source(), None)
        .expect("run after errors");
    assert!(reply.ok);
    assert_eq!(reply.verdict.as_deref(), Some("Ok"));
    assert_eq!(handle.snapshot().counter("ptxd.errors"), 3);
    handle.shutdown();
}

/// A request line over the 1 MiB cap gets a `proto` error and its
/// connection is closed; the server keeps serving other connections.
#[test]
fn overlong_line_is_rejected_and_server_survives() {
    let handle = common::spawn(Config::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect flood");
    let mut flood = stream.try_clone().expect("clone flood stream");
    // The server stops reading at the cap and closes, so the tail of
    // the write may fail; only the reply matters.
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("error reply before close");
    let err = litmus::Reply::from_json(line.trim_end()).expect("reply decodes");
    assert!(!err.ok);
    assert_eq!(err.kind.as_deref(), Some("proto"));
    writer.join().expect("flood writer");
    assert_eq!(handle.snapshot().counter("ptxd.errors"), 1);

    let mut client = common::connect(&handle);
    let reply = client.run(1, &mp_source(), None).expect("run after flood");
    assert!(reply.ok);
    assert_eq!(reply.verdict.as_deref(), Some("Ok"));
    handle.shutdown();
}

/// Killing a client mid-query cancels its in-flight job through the
/// `CancelToken`, purges its queued backlog, and leaks no session.
#[test]
fn disconnect_cancels_inflight_and_purges_backlog() {
    let handle = common::spawn(Config {
        jobs: 1,
        debug_ops: true,
        ..Config::default()
    });
    let mut control = common::connect(&handle);

    {
        let mut doomed = common::connect(&handle);
        doomed.send_sleep(0, 60_000).expect("send blocker");
        // One queued run behind the sleep, to be purged on disconnect.
        doomed
            .send_run(1, &mp_source(), None)
            .expect("send backlog");
        assert_eq!(
            common::poll_counter(
                &mut control,
                "ptxd.sleep.started",
                1,
                Duration::from_secs(5)
            ),
            1,
            "blocker must be in flight before the disconnect"
        );
        assert_eq!(
            common::poll(&mut control, 1, Duration::from_secs(5), |snap| snap
                .gauge("ptxd.gauge.queue_depth")),
            1,
            "backlog must be queued before the disconnect"
        );
    } // drop = TCP close mid-query

    // The reader fires the cancel tokens; the sleeping worker notices
    // within its 2 ms poll and frees itself long before the 60 s budget.
    assert_eq!(
        common::poll_counter(&mut control, "ptxd.cancelled", 1, Duration::from_secs(5)),
        1,
        "in-flight work must be cancelled on disconnect"
    );
    let stats = control.stats_v2().expect("stats");
    assert_eq!(
        stats.counter("ptxd.dropped"),
        1,
        "queued backlog must be purged"
    );
    assert_eq!(
        handle.pool_stats().0,
        0,
        "purged run never claimed a session"
    );

    // The freed worker serves the next client immediately, and its
    // session returns to the pool afterwards (no leak from the chaos).
    let reply = control.run(2, &mp_source(), None).expect("run after chaos");
    assert!(reply.ok);
    assert_eq!(reply.verdict.as_deref(), Some("Ok"));
    // The checkin trails the reply: the worker scans the queue for a
    // batchable follow-up before returning the session to the pool.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.idle_sessions() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.idle_sessions(), 1, "session must be checked back in");
    handle.shutdown();
}

//! A client for the `ptxd` model-checking service.
//!
//! `ptxd` speaks newline-delimited JSON over TCP: each request is one
//! line, each reply is one line carrying the request's `id` (replies
//! may arrive out of order when the server batches work across
//! connections). This module owns the client half of that protocol —
//! building request lines, and parsing reply lines into [`Reply`] — so
//! `ptxherd --server` and the server's own integration tests share one
//! implementation.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use modelfinder::obs::{json, Snapshot};

/// One reply line from the server, decoded.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Echo of the request `id`, if the request carried one.
    pub id: Option<u64>,
    /// `false` means the request itself was rejected (see [`Reply::kind`]).
    pub ok: bool,
    /// Test name, for `run` replies.
    pub name: Option<String>,
    /// `Ok` / `FAILED` / `Unknown`, for `run` replies.
    pub verdict: Option<String>,
    /// Whether the tagged outcome was observable (absent on `Unknown`).
    pub observable: Option<bool>,
    /// Whether the verdict came from the server's content-addressed cache.
    pub cached: bool,
    /// Whether the query hit its deadline.
    pub timed_out: bool,
    /// Server-side wall-clock seconds for this request.
    pub wall_secs: f64,
    /// Decision path (`symbolic` / `enumeration`), for `run` replies.
    pub path: Option<String>,
    /// Free-form per-test detail string.
    pub detail: Option<String>,
    /// Whether the reply carried a timeout autopsy.
    pub has_autopsy: bool,
    /// Error kind (`parse` / `proto` / `shed` / `draining` / `internal`)
    /// when `ok` is false.
    pub kind: Option<String>,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Full nested snapshot (counters, gauges, histograms, timings),
    /// for `stats` v2 replies and `watch` baselines.
    pub snapshot: Option<Snapshot>,
    /// Snapshot delta since the previous tick, for `watch` replies.
    pub delta: Option<Snapshot>,
    /// Tick number, for `watch` replies (0 is the baseline).
    pub tick: Option<u64>,
    /// Raw access-log records (one parsed JSON object each), for `log`
    /// replies.
    pub records: Option<Vec<json::Value>>,
}

impl Reply {
    /// Decodes one reply line. `None` means the line was not valid
    /// reply JSON (a protocol failure, not a server-reported error).
    pub fn from_json(line: &str) -> Option<Reply> {
        let v = json::parse(line)?;
        Some(Reply {
            id: v.get("id").and_then(json::Value::as_u64),
            ok: v.get("ok").and_then(json::Value::as_bool)?,
            name: v
                .get("name")
                .and_then(json::Value::as_str)
                .map(String::from),
            verdict: v
                .get("verdict")
                .and_then(json::Value::as_str)
                .map(String::from),
            observable: v.get("observable").and_then(json::Value::as_bool),
            cached: v
                .get("cached")
                .and_then(json::Value::as_bool)
                .unwrap_or(false),
            timed_out: v
                .get("timed_out")
                .and_then(json::Value::as_bool)
                .unwrap_or(false),
            wall_secs: v
                .get("wall_secs")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0),
            path: v
                .get("path")
                .and_then(json::Value::as_str)
                .map(String::from),
            detail: v
                .get("detail")
                .and_then(json::Value::as_str)
                .map(String::from),
            has_autopsy: v.get("autopsy").is_some(),
            kind: v
                .get("kind")
                .and_then(json::Value::as_str)
                .map(String::from),
            error: v
                .get("error")
                .and_then(json::Value::as_str)
                .map(String::from),
            snapshot: v.get("snapshot").and_then(Snapshot::from_json_value),
            delta: v.get("delta").and_then(Snapshot::from_json_value),
            tick: v.get("tick").and_then(json::Value::as_u64),
            records: v
                .get("records")
                .and_then(json::Value::as_arr)
                .map(<[json::Value]>::to_vec),
        })
    }

    /// Renders the reply as a `ptxherd --json`-style record line.
    pub fn to_record_json(&self) -> String {
        let mut out = String::from("{");
        let push_str = |out: &mut String, key: &str, val: &str| {
            if out.len() > 1 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            json::escape_into(out, val);
        };
        push_str(&mut out, "test", self.name.as_deref().unwrap_or("?"));
        push_str(
            &mut out,
            "verdict",
            self.verdict.as_deref().unwrap_or("Unknown"),
        );
        out.push_str(&format!(
            ",\"timed_out\":{},\"cached\":{},\"wall_secs\":{:.6}",
            self.timed_out, self.cached, self.wall_secs
        ));
        if let Some(p) = &self.path {
            push_str(&mut out, "path", p);
        }
        if let Some(d) = &self.detail {
            push_str(&mut out, "detail", d);
        }
        out.push('}');
        out
    }
}

/// Builds a `run` request line (no trailing newline).
pub fn run_request(id: u64, source: &str, deadline_ms: Option<u64>, mode: &str) -> String {
    let mut out = format!("{{\"id\":{id},\"op\":\"run\",\"source\":");
    json::escape_into(&mut out, source);
    if let Some(ms) = deadline_ms {
        out.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    out.push_str(&format!(",\"mode\":\"{mode}\"}}"));
    out
}

/// A connected `ptxd` client: line-oriented send/receive over TCP.
pub struct ServerClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServerClient {
    /// Connects to a server address (`host:port`).
    pub fn connect(addr: &str) -> io::Result<ServerClient> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply lines are tiny; without NODELAY, Nagle plus
        // delayed ACKs stalls every round trip by tens of milliseconds.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServerClient {
            writer: stream,
            reader,
        })
    }

    /// Sends one raw line (newline appended). Public so tests can send
    /// malformed requests.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        // One write per line: two small writes would re-introduce the
        // Nagle stall NODELAY is there to avoid.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())
    }

    /// Sends a `run` request without waiting for the reply (pipelining).
    pub fn send_run(&mut self, id: u64, source: &str, deadline_ms: Option<u64>) -> io::Result<()> {
        self.send_line(&run_request(id, source, deadline_ms, "sat"))
    }

    /// Sends a debug `sleep` request (requires the server's
    /// `debug_ops`); used by tests to occupy a worker deterministically.
    pub fn send_sleep(&mut self, id: u64, ms: u64) -> io::Result<()> {
        self.send_line(&format!("{{\"id\":{id},\"op\":\"sleep\",\"ms\":{ms}}}"))
    }

    /// Reads and decodes the next reply line. An unparseable or
    /// truncated line is an `InvalidData` error.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Reply::from_json(line.trim_end()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable reply: {}", line.trim_end()),
            )
        })
    }

    /// Sends one `run` request and waits for its reply.
    pub fn run(&mut self, id: u64, source: &str, deadline_ms: Option<u64>) -> io::Result<Reply> {
        self.send_run(id, source, deadline_ms)?;
        self.recv()
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> io::Result<Reply> {
        self.send_line("{\"id\":0,\"op\":\"ping\"}")?;
        self.recv()
    }

    /// Fetches the server's full telemetry snapshot (`stats`, reply
    /// shape v2: counters, sampled gauges, histograms, timings).
    pub fn stats_v2(&mut self) -> io::Result<Snapshot> {
        self.send_line("{\"id\":0,\"op\":\"stats\",\"v\":2}")?;
        let reply = self.recv()?;
        reply.snapshot.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stats v2 reply carried no snapshot",
            )
        })
    }

    /// Starts a `watch` stream without waiting for any tick: the server
    /// replies with a tick-0 baseline snapshot, then a snapshot delta
    /// every `interval_ms` (`count` deltas when given, else until the
    /// connection drops or the server drains). Read ticks with
    /// [`ServerClient::recv`].
    pub fn send_watch(&mut self, id: u64, interval_ms: u64, count: Option<u64>) -> io::Result<()> {
        let mut line = format!("{{\"id\":{id},\"op\":\"watch\",\"interval_ms\":{interval_ms}");
        if let Some(n) = count {
            line.push_str(&format!(",\"count\":{n}"));
        }
        line.push('}');
        self.send_line(&line)
    }

    /// Fetches the last `n` access-log records from the server's
    /// in-memory ring (newest last), each as a parsed JSON object.
    pub fn log_tail(&mut self, n: u64) -> io::Result<Vec<json::Value>> {
        self.send_line(&format!("{{\"id\":0,\"op\":\"log\",\"n\":{n}}}"))?;
        let reply = self.recv()?;
        reply.records.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "log reply carried no records")
        })
    }

    /// Asks the server to drain and shut down; returns its acknowledgement.
    pub fn shutdown(&mut self) -> io::Result<Reply> {
        self.send_line("{\"id\":0,\"op\":\"shutdown\"}")?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_decodes_run_and_error_shapes() {
        let ok = Reply::from_json(
            "{\"id\":3,\"ok\":true,\"name\":\"MP\",\"verdict\":\"Ok\",\"observable\":false,\
             \"cached\":true,\"timed_out\":false,\"wall_secs\":0.25,\"path\":\"symbolic\"}",
        )
        .unwrap();
        assert_eq!(ok.id, Some(3));
        assert!(ok.ok && ok.cached && !ok.timed_out);
        assert_eq!(ok.name.as_deref(), Some("MP"));
        assert_eq!(ok.verdict.as_deref(), Some("Ok"));
        assert_eq!(ok.observable, Some(false));
        assert_eq!(ok.path.as_deref(), Some("symbolic"));

        let err =
            Reply::from_json("{\"id\":4,\"ok\":false,\"kind\":\"shed\",\"error\":\"queue full\"}")
                .unwrap();
        assert!(!err.ok);
        assert_eq!(err.kind.as_deref(), Some("shed"));
        assert_eq!(err.error.as_deref(), Some("queue full"));

        assert!(Reply::from_json("not json").is_none());
        assert!(Reply::from_json("{\"id\":1}").is_none(), "ok is mandatory");
    }

    #[test]
    fn reply_round_trips_nested_snapshots() {
        // stats v2: the nested object survives decoding instead of
        // being flattened away.
        let line = "{\"id\":0,\"ok\":true,\"v\":2,\"snapshot\":{\
                    \"counters\":{\"ptxd.requests\":7},\
                    \"gauges\":{\"ptxd.gauge.queue_depth\":2},\
                    \"histograms\":{\"ptxd.solve_ns\":[1,900,[[10,1]]]},\
                    \"notes\":{},\
                    \"timings\":{\"ptxd.queue_wait\":[1,1500]}}}";
        let reply = Reply::from_json(line).unwrap();
        let snap = reply.snapshot.expect("snapshot decoded");
        assert_eq!(snap.counter("ptxd.requests"), 7);
        assert_eq!(snap.gauge("ptxd.gauge.queue_depth"), 2);
        assert_eq!(snap.histograms["ptxd.solve_ns"].p99(), 1023);
        assert_eq!(snap.timings["ptxd.queue_wait"].count, 1);

        // watch tick: delta plus tick number.
        let tick = Reply::from_json(
            "{\"id\":9,\"ok\":true,\"tick\":3,\"delta\":{\"counters\":{\"ptxd.completed\":2}}}",
        )
        .unwrap();
        assert_eq!(tick.tick, Some(3));
        assert_eq!(tick.delta.unwrap().counter("ptxd.completed"), 2);

        // log: raw records pass through as parsed values.
        let log =
            Reply::from_json("{\"id\":0,\"ok\":true,\"records\":[{\"verdict\":\"Ok\"}]}").unwrap();
        let records = log.records.unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].get("verdict").and_then(json::Value::as_str),
            Some("Ok")
        );
    }

    #[test]
    fn run_request_escapes_sources() {
        let req = run_request(7, "PTX MP\nP0 ;\n", Some(250), "sat");
        assert_eq!(
            req,
            "{\"id\":7,\"op\":\"run\",\"source\":\"PTX MP\\nP0 ;\\n\",\
             \"deadline_ms\":250,\"mode\":\"sat\"}"
        );
        let v = json::parse(&req).unwrap();
        assert_eq!(
            v.get("source").and_then(json::Value::as_str),
            Some("PTX MP\nP0 ;\n")
        );
    }
}

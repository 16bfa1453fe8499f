//! The server half of the `ptxd` wire protocol.
//!
//! Requests and replies are newline-delimited JSON objects over TCP.
//! A request names an `op` and (optionally) an `id`; the reply echoes
//! the `id` so clients can pipeline requests and match replies out of
//! order. The protocol distinguishes two failure layers:
//!
//! * `kind: "proto"` — the line was valid JSON but not a valid request
//!   (unknown op, missing fields);
//! * `kind: "parse"` — the request was well-formed but its litmus
//!   `source` did not parse.
//!
//! Both are *replies*, not connection errors: a client that sends one
//! bad line keeps its connection and its queued work.

use litmus::{C11Litmus, Model, PtxLitmus};
use obs::json;

/// Which engine a `run` request wants (PTX tests only; scoped C++
/// tests always enumerate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The symbolic SAT path through warm incremental sessions.
    Sat,
    /// The exhaustive enumeration oracle.
    Enum,
}

impl Mode {
    /// The wire token (`"sat"` / `"enum"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Sat => "sat",
            Mode::Enum => "enum",
        }
    }
}

/// One decoded request line.
#[derive(Debug)]
pub enum Request {
    /// Check one litmus test, shipped as its text `source`.
    Run {
        /// Client-chosen reply-matching id.
        id: Option<u64>,
        /// Litmus source text (`PTX …` / `C11 …`).
        source: String,
        /// Per-request deadline budget, milliseconds from receipt.
        deadline_ms: Option<u64>,
        /// Engine selection.
        mode: Mode,
        /// Consistency-model selection (PTX tests only; C++ tests
        /// ignore it). Defaults to the paper's axiomatic model.
        model: Model,
    },
    /// Debug: occupy a worker for `ms` milliseconds (requires the
    /// server's `debug_ops`; used by tests to make scheduling
    /// deterministic).
    Sleep {
        /// Client-chosen reply-matching id.
        id: Option<u64>,
        /// How long to hold the worker.
        ms: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen reply-matching id.
        id: Option<u64>,
    },
    /// Telemetry snapshot: the full [`obs::Snapshot`] object with
    /// counters, gauges, histograms, and timings (reply shape `v: 2`).
    Stats {
        /// Client-chosen reply-matching id.
        id: Option<u64>,
    },
    /// Stream telemetry: one tick-0 baseline snapshot, then a snapshot
    /// delta every interval on the same connection.
    Watch {
        /// Client-chosen reply-matching id, echoed on every tick.
        id: Option<u64>,
        /// Milliseconds between deltas (server clamps to a sane range).
        interval_ms: u64,
        /// Number of deltas after the baseline; absent means until the
        /// connection drops or the server drains.
        count: Option<u64>,
    },
    /// Fetch the newest entries of the in-memory access-log ring.
    Log {
        /// Client-chosen reply-matching id.
        id: Option<u64>,
        /// Maximum records to return (newest last); absent means the
        /// whole ring.
        n: Option<u64>,
    },
    /// Begin graceful shutdown: drain in-flight work, then exit.
    Shutdown {
        /// Client-chosen reply-matching id.
        id: Option<u64>,
    },
}

/// A request rejection: the error `kind` plus a message, both echoed
/// to the client.
#[derive(Debug)]
pub struct ProtoError {
    /// `"parse"` or `"proto"`.
    pub kind: &'static str,
    /// Human-readable cause.
    pub message: String,
}

impl ProtoError {
    fn proto(message: impl Into<String>) -> ProtoError {
        ProtoError {
            kind: "proto",
            message: message.into(),
        }
    }
}

/// Decodes one request line.
///
/// # Errors
///
/// `kind: "proto"` for malformed JSON, a missing/unknown `op`, or
/// missing operands. The request `id` is recovered whenever the line
/// parses as JSON, so the error reply can still be matched.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, ProtoError)> {
    let Some(v) = json::parse(line) else {
        return Err((None, ProtoError::proto("request is not valid JSON")));
    };
    let id = v.get("id").and_then(json::Value::as_u64);
    let Some(op) = v.get("op").and_then(json::Value::as_str) else {
        return Err((id, ProtoError::proto("missing string field `op`")));
    };
    match op {
        "run" => {
            let Some(source) = v.get("source").and_then(json::Value::as_str) else {
                return Err((id, ProtoError::proto("run: missing string field `source`")));
            };
            let deadline_ms = v.get("deadline_ms").and_then(json::Value::as_u64);
            let mode = match v.get("mode").and_then(json::Value::as_str) {
                None | Some("sat") => Mode::Sat,
                Some("enum") => Mode::Enum,
                Some(other) => {
                    return Err((
                        id,
                        ProtoError::proto(format!("run: unknown mode `{other}`")),
                    ));
                }
            };
            let model = match v.get("model").and_then(json::Value::as_str) {
                None => Model::Axiomatic,
                Some(token) => match Model::parse(token) {
                    Some(m) => m,
                    None => {
                        return Err((
                            id,
                            ProtoError::proto(format!("run: unknown model `{token}`")),
                        ));
                    }
                },
            };
            Ok(Request::Run {
                id,
                source: source.to_string(),
                deadline_ms,
                mode,
                model,
            })
        }
        "sleep" => {
            let Some(ms) = v.get("ms").and_then(json::Value::as_u64) else {
                return Err((id, ProtoError::proto("sleep: missing integer field `ms`")));
            };
            Ok(Request::Sleep { id, ms })
        }
        "ping" => Ok(Request::Ping { id }),
        "stats" => match v.get("v").map(json::Value::as_u64) {
            None | Some(Some(2)) => Ok(Request::Stats { id }),
            Some(_) => Err((id, ProtoError::proto("stats: field `v` must be 2"))),
        },
        "watch" => {
            let interval_ms = match v.get("interval_ms") {
                None => 1000,
                Some(val) => match val.as_u64() {
                    Some(ms) => ms,
                    None => {
                        return Err((
                            id,
                            ProtoError::proto(
                                "watch: `interval_ms` must be a non-negative integer",
                            ),
                        ));
                    }
                },
            };
            let count = match v.get("count") {
                None => None,
                Some(val) => match val.as_u64() {
                    Some(n) => Some(n),
                    None => {
                        return Err((
                            id,
                            ProtoError::proto("watch: `count` must be a non-negative integer"),
                        ));
                    }
                },
            };
            Ok(Request::Watch {
                id,
                interval_ms,
                count,
            })
        }
        "log" => {
            let n = match v.get("n") {
                None => None,
                Some(val) => match val.as_u64() {
                    Some(n) => Some(n),
                    None => {
                        return Err((
                            id,
                            ProtoError::proto("log: `n` must be a non-negative integer"),
                        ));
                    }
                },
            };
            Ok(Request::Log { id, n })
        }
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err((id, ProtoError::proto(format!("unknown op `{other}`")))),
    }
}

/// A parsed litmus source, either model.
#[derive(Debug, Clone)]
pub enum ParsedTest {
    /// A PTX test (SAT or enumeration path).
    Ptx(PtxLitmus),
    /// A scoped C++ test (enumeration path).
    C11(C11Litmus),
}

impl ParsedTest {
    /// The test's name.
    pub fn name(&self) -> &str {
        match self {
            ParsedTest::Ptx(t) => &t.name,
            ParsedTest::C11(t) => &t.name,
        }
    }
}

/// Parses a `run` request's source, sniffing the model from the header
/// line exactly like `ptxherd` does for files.
///
/// # Errors
///
/// The parser's message, for a `kind: "parse"` reply.
pub fn parse_source(source: &str) -> Result<ParsedTest, String> {
    let header = source
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with("//"))
        .unwrap_or("");
    if header.starts_with("C11") {
        litmus::parse_c11_litmus(source)
            .map(ParsedTest::C11)
            .map_err(|e| e.to_string())
    } else {
        litmus::parse_ptx_litmus(source)
            .map(ParsedTest::Ptx)
            .map_err(|e| e.to_string())
    }
}

fn push_id(out: &mut String, id: Option<u64>) {
    match id {
        Some(id) => out.push_str(&format!("{{\"id\":{id}")),
        None => out.push_str("{\"id\":null"),
    }
}

/// An `ok: false` reply.
pub fn error_reply(id: Option<u64>, kind: &str, message: &str) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    out.push_str(&format!(",\"ok\":false,\"kind\":\"{kind}\",\"error\":"));
    json::escape_into(&mut out, message);
    out.push('}');
    out
}

/// The fields of a completed `run` reply.
#[derive(Debug, Default)]
pub struct RunReply {
    /// Test name.
    pub name: String,
    /// `Ok` / `FAILED` / `Unknown`.
    pub verdict: &'static str,
    /// Observability, when decided.
    pub observable: Option<bool>,
    /// Served from the verdict cache.
    pub cached: bool,
    /// Hit the deadline.
    pub timed_out: bool,
    /// Server-side wall seconds.
    pub wall_secs: f64,
    /// `symbolic` / `enumeration`.
    pub path: &'static str,
    /// Free-form detail.
    pub detail: String,
    /// Pre-rendered autopsy JSON object (timeouts only).
    pub autopsy: Option<String>,
}

/// Serializes a `run` reply line.
pub fn run_reply(id: Option<u64>, r: &RunReply) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    out.push_str(",\"ok\":true,\"name\":");
    json::escape_into(&mut out, &r.name);
    out.push_str(&format!(",\"verdict\":\"{}\"", r.verdict));
    if let Some(o) = r.observable {
        out.push_str(&format!(",\"observable\":{o}"));
    }
    out.push_str(&format!(
        ",\"cached\":{},\"timed_out\":{},\"wall_secs\":{:.6},\"path\":\"{}\",\"detail\":",
        r.cached, r.timed_out, r.wall_secs, r.path
    ));
    json::escape_into(&mut out, &r.detail);
    if let Some(a) = &r.autopsy {
        out.push_str(",\"autopsy\":");
        out.push_str(a);
    }
    out.push('}');
    out
}

/// A `ping` acknowledgement.
pub fn pong_reply(id: Option<u64>) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    out.push_str(",\"ok\":true,\"pong\":true}");
    out
}

/// A `stats` v2 reply embedding the full snapshot object
/// ([`obs::Snapshot::to_json_object`] shape under `snapshot`).
pub fn stats_v2_reply(id: Option<u64>, snapshot: &obs::Snapshot) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    out.push_str(",\"ok\":true,\"v\":2,\"snapshot\":");
    out.push_str(&snapshot.to_json_object());
    out.push('}');
    out
}

/// One `watch` reply line. Tick 0 carries the full baseline under
/// `snapshot`; every later tick carries the change since the previous
/// tick under `delta`, so `baseline + Σ deltas` reconstructs the
/// snapshot at any tick (see [`obs::Snapshot::delta`]).
pub fn watch_tick_reply(id: Option<u64>, tick: u64, snapshot: &obs::Snapshot) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    let key = if tick == 0 { "snapshot" } else { "delta" };
    out.push_str(&format!(",\"ok\":true,\"tick\":{tick},\"{key}\":"));
    out.push_str(&snapshot.to_json_object());
    out.push('}');
    out
}

/// A `log` reply embedding access-log records verbatim (each record is
/// already one JSON object, newest last).
pub fn log_reply(id: Option<u64>, records: &[String]) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    out.push_str(",\"ok\":true,\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r);
    }
    out.push_str("]}");
    out
}

/// A `shutdown` acknowledgement.
pub fn shutdown_reply(id: Option<u64>) -> String {
    let mut out = String::new();
    push_id(&mut out, id);
    out.push_str(",\"ok\":true,\"draining\":true}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_decode_and_errors_recover_ids() {
        match parse_request("{\"id\":3,\"op\":\"run\",\"source\":\"PTX t\",\"deadline_ms\":50}") {
            Ok(Request::Run {
                id,
                source,
                deadline_ms,
                mode,
                model,
            }) => {
                assert_eq!(id, Some(3));
                assert_eq!(source, "PTX t");
                assert_eq!(deadline_ms, Some(50));
                assert_eq!(mode, Mode::Sat);
                assert_eq!(model, Model::Axiomatic, "model defaults to the paper's");
            }
            other => panic!("{other:?}"),
        }
        match parse_request(
            "{\"op\":\"run\",\"source\":\"PTX t\",\"model\":\"ptx-cumulative\",\"mode\":\"enum\"}",
        ) {
            Ok(Request::Run { mode, model, .. }) => {
                assert_eq!(mode, Mode::Enum);
                assert_eq!(model, Model::Cumulative);
            }
            other => panic!("{other:?}"),
        }
        let (id, err) =
            parse_request("{\"id\":4,\"op\":\"run\",\"source\":\"PTX t\",\"model\":\"sc\"}")
                .unwrap_err();
        assert_eq!(id, Some(4));
        assert_eq!(err.kind, "proto");
        assert!(err.message.contains("unknown model"));
        assert!(matches!(
            parse_request("{\"op\":\"ping\"}"),
            Ok(Request::Ping { id: None })
        ));
        let (id, err) = parse_request("{\"id\":9,\"op\":\"zap\"}").unwrap_err();
        assert_eq!(id, Some(9), "id survives an unknown op");
        assert_eq!(err.kind, "proto");
        let (id, err) = parse_request("{{{").unwrap_err();
        assert_eq!(id, None);
        assert_eq!(err.kind, "proto");
    }

    #[test]
    fn replies_are_valid_json_and_decode_with_the_client() {
        let reply = run_reply(
            Some(7),
            &RunReply {
                name: "MP\"quoted\"".to_string(),
                verdict: "Ok",
                observable: Some(false),
                cached: true,
                timed_out: false,
                wall_secs: 0.5,
                path: "symbolic",
                detail: "observable=false".to_string(),
                autopsy: None,
            },
        );
        let decoded = litmus::Reply::from_json(&reply).unwrap();
        assert_eq!(decoded.id, Some(7));
        assert!(decoded.ok && decoded.cached);
        assert_eq!(decoded.name.as_deref(), Some("MP\"quoted\""));
        assert_eq!(decoded.observable, Some(false));

        let err = error_reply(None, "shed", "queue full");
        let decoded = litmus::Reply::from_json(&err).unwrap();
        assert!(!decoded.ok);
        assert_eq!(decoded.kind.as_deref(), Some("shed"));
    }

    #[test]
    fn telemetry_ops_decode_and_reject_bad_fields() {
        assert!(matches!(
            parse_request("{\"id\":1,\"op\":\"stats\"}"),
            Ok(Request::Stats { id: Some(1) }),
        ));
        assert!(matches!(
            parse_request("{\"op\":\"stats\",\"v\":2}"),
            Ok(Request::Stats { id: None }),
        ));
        for bad in ["1", "3", "\"2\""] {
            let line = format!("{{\"op\":\"stats\",\"v\":{bad}}}");
            let (_, err) = parse_request(&line).unwrap_err();
            assert_eq!(err.kind, "proto", "v={bad}");
        }

        match parse_request("{\"id\":2,\"op\":\"watch\",\"interval_ms\":250,\"count\":4}") {
            Ok(Request::Watch {
                id,
                interval_ms,
                count,
            }) => {
                assert_eq!(id, Some(2));
                assert_eq!(interval_ms, 250);
                assert_eq!(count, Some(4));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request("{\"op\":\"watch\"}"),
            Ok(Request::Watch {
                interval_ms: 1000,
                count: None,
                ..
            }),
        ));
        assert!(parse_request("{\"op\":\"watch\",\"interval_ms\":\"x\"}").is_err());

        assert!(matches!(
            parse_request("{\"op\":\"log\",\"n\":5}"),
            Ok(Request::Log { n: Some(5), .. }),
        ));
        assert!(matches!(
            parse_request("{\"op\":\"log\"}"),
            Ok(Request::Log { n: None, .. }),
        ));
        assert!(parse_request("{\"op\":\"log\",\"n\":-1}").is_err());
    }

    #[test]
    fn v2_replies_decode_with_the_client() {
        let reg = obs::Registry::new();
        reg.add("ptxd.requests", 3);
        reg.set_gauge("ptxd.gauge.queue_depth", 2);
        reg.observe("ptxd.solve_ns", 700);
        let s0 = reg.snapshot();
        let decoded = litmus::Reply::from_json(&stats_v2_reply(Some(5), &s0)).unwrap();
        assert_eq!(decoded.id, Some(5));
        let snap = decoded.snapshot.expect("nested snapshot survives");
        assert_eq!(snap, s0);
        assert_eq!(snap.gauge("ptxd.gauge.queue_depth"), 2);

        // Watch: tick 0 is a baseline, later ticks are deltas.
        let base = litmus::Reply::from_json(&watch_tick_reply(None, 0, &s0)).unwrap();
        assert_eq!(base.tick, Some(0));
        assert_eq!(base.snapshot, Some(s0.clone()));
        assert!(base.delta.is_none());
        reg.add("ptxd.requests", 2);
        let delta = reg.snapshot().delta(&s0);
        let tick = litmus::Reply::from_json(&watch_tick_reply(Some(9), 1, &delta)).unwrap();
        assert_eq!(tick.tick, Some(1));
        assert_eq!(tick.delta.unwrap().counter("ptxd.requests"), 2);

        // Log: records embed verbatim.
        let records = vec!["{\"verdict\":\"Ok\",\"solve_ns\":12}".to_string()];
        let decoded = litmus::Reply::from_json(&log_reply(Some(1), &records)).unwrap();
        let got = decoded.records.unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].get("solve_ns").and_then(json::Value::as_u64),
            Some(12)
        );
        let empty = litmus::Reply::from_json(&log_reply(None, &[])).unwrap();
        assert_eq!(empty.records.unwrap().len(), 0);
    }

    #[test]
    fn source_sniffing_matches_the_header_model() {
        assert!(matches!(
            parse_source("// c\nPTX t\nP0 ;\nld.weak r0, [x] ;\nforbidden: 0:r0=1\n"),
            Ok(ParsedTest::Ptx(_))
        ));
        assert!(matches!(
            parse_source("C11 t\nP0 ;\nload.rlx.sys r0, [x] ;\nforbidden: 0:r0=1\n"),
            Ok(ParsedTest::C11(_))
        ));
        assert!(parse_source("garbage").is_err());
    }
}

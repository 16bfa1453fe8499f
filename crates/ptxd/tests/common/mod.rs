//! Shared plumbing for the `ptxd` integration tests: spawning in-process
//! servers, connecting clients, loading the bundled litmus corpus and
//! its pinned expectations, and polling live server counters.

#![allow(dead_code)] // each test binary uses a subset

use std::path::PathBuf;
use std::time::{Duration, Instant};

use litmus::ServerClient;
use modelfinder::obs::Snapshot;
use ptxd::{Config, Handle, Server};

/// Repo-root `litmus/` directory (tests run with the crate as cwd).
pub fn litmus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../litmus")
}

/// Spawns an in-process server and panics on bind failure.
pub fn spawn(cfg: Config) -> Handle {
    Server::spawn(cfg).expect("spawn ptxd")
}

/// Connects a client to a spawned server.
pub fn connect(handle: &Handle) -> ServerClient {
    ServerClient::connect(&handle.addr()).expect("connect to ptxd")
}

/// The bundled `litmus/*.litmus` sources as `(file_name, text)` in
/// `EXPECTED.txt` order.
pub fn bundled_sources() -> Vec<(String, String)> {
    expected()
        .iter()
        .map(|e| {
            let path = litmus_dir().join(&e.file);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|err| panic!("read {}: {err}", path.display()));
            (e.file.clone(), text)
        })
        .collect()
}

/// One `litmus/EXPECTED.txt` row.
pub struct Expected {
    /// Litmus file name relative to `litmus/` (`mp.litmus`,
    /// `synth/….litmus`).
    pub file: String,
    /// Test name inside the file (`MP`).
    pub name: String,
    /// Whether the tagged outcome is observable per the pinned verdict
    /// column of the server's *default* model (the paper's axiomatic
    /// model for PTX rows; RC11 for C++ rows).
    pub observable: bool,
}

/// Parses `litmus/EXPECTED.txt`
/// (`file name expected=X ptx=... ptx-cumulative=... Ok`, or `c11=...`
/// for scoped-C++ rows).
pub fn expected() -> Vec<Expected> {
    let path = litmus_dir().join("EXPECTED.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("read {}: {err}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert!(fields.len() >= 4, "short EXPECTED.txt row: {line}");
            let verdict_col = fields
                .iter()
                .find_map(|f| f.strip_prefix("ptx=").or_else(|| f.strip_prefix("c11=")))
                .unwrap_or_else(|| panic!("no ptx=/c11= column: {line}"));
            Expected {
                file: fields[0].to_string(),
                name: fields[1].to_string(),
                observable: match verdict_col {
                    "observable" => true,
                    "never" => false,
                    other => panic!("unknown verdict column `{other}`: {line}"),
                },
            }
        })
        .collect()
}

/// Polls the server's `stats` op until `read(snapshot) >= want` or the
/// timeout lapses; returns the last observed value.
pub fn poll(
    client: &mut ServerClient,
    want: u64,
    timeout: Duration,
    read: impl Fn(&Snapshot) -> u64,
) -> u64 {
    let deadline = Instant::now() + timeout;
    loop {
        let last = read(&client.stats_v2().expect("stats round trip"));
        if last >= want || Instant::now() >= deadline {
            return last;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// [`poll`] on one counter.
pub fn poll_counter(client: &mut ServerClient, counter: &str, want: u64, timeout: Duration) -> u64 {
    poll(client, want, timeout, |snap| snap.counter(counter))
}

//! `ptxd` — the long-lived model-checking service.
//!
//! ```text
//! ptxd --listen 127.0.0.1:0 --port-file /tmp/ptxd.addr
//! ptxd --listen 127.0.0.1:7447 --jobs 4 --certify
//! ```
//!
//! The server speaks newline-delimited JSON over TCP (see
//! `ptxd::proto`); `ptxherd --server ADDR` is the bundled client.
//! Port 0 picks an ephemeral port; `--port-file` writes the bound
//! `host:port` once listening, so scripts can wait for it.
//!
//! Shutdown: `SIGTERM`/`SIGINT` (Linux; a raw-syscall signalfd, since
//! the workspace has no libc binding) or the `shutdown` op. Both drain
//! queued and in-flight queries before exit, then flush `--stats-json`
//! / `--trace-out`. Those two and `--jobs` are parsed by [`obs::cli`],
//! the parser the other drivers share; `ptxd` takes no
//! `--timeout-secs` (deadlines come with each request).
//!
//! The service benchmark (scratch vs cold server vs warm verdict cache)
//! runs in-process in `benchgate` (`crates/bench`).

use std::process::ExitCode;

use obs::cli::{Cli, Flag};
use ptxd::signal::SignalFd;
use ptxd::{Config, Server};

static CLI: Cli = Cli {
    prog: "ptxd",
    usage: "[--listen ADDR] [--port-file PATH] [--queue-bound N] [--fair-cap N] \
            [--cache-cap N] [--access-log PATH] [--log-ring N] [--certify] [--debug-ops]",
    flags: &[Flag::Jobs, Flag::StatsJson, Flag::TraceOut],
    stats_to_stderr: false,
};

fn main() -> ExitCode {
    let mut cfg = Config::default();
    let mut port_file: Option<String> = None;
    let parsed = CLI.parse(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--listen" => cfg.addr = rest.value(arg)?,
            "--port-file" => port_file = Some(rest.value(arg)?),
            "--queue-bound" => cfg.queue_bound = rest.parse(arg)?,
            "--fair-cap" => cfg.fair_cap = rest.parse(arg)?,
            "--cache-cap" => cfg.cache_cap = rest.parse(arg)?,
            "--access-log" => cfg.access_log = Some(rest.value(arg)?),
            "--log-ring" => cfg.log_ring = rest.parse(arg)?,
            "--certify" => cfg.certify = true,
            "--debug-ops" => cfg.debug_ops = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let run = match parsed {
        Ok(run) => run,
        Err(e) => return CLI.fail(&e),
    };
    cfg.jobs = run.jobs.unwrap_or(cfg.jobs);

    // The signal mask must be in place before any thread exists, so
    // every thread inherits it and TERM/INT route to the signalfd.
    let signal_fd = SignalFd::block_and_open();

    let mut handle = match Server::spawn(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("ptxd: cannot listen on {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ptxd: listening on {}", handle.addr());
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, handle.addr()) {
            eprintln!("ptxd: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(fd) = signal_fd {
        let trigger = handle.trigger();
        std::thread::spawn(move || {
            if fd.wait() {
                eprintln!("ptxd: signal received, draining");
                trigger.shutdown();
            }
        });
    } else {
        eprintln!("ptxd: no signal support on this platform; use the shutdown op");
    }

    let snapshot = handle.join();
    let failures = run.finish(&snapshot, || handle.trace_chrome_json());
    eprintln!(
        "ptxd: drained; {} requests, {} cache hits, {} shed",
        snapshot.counter("ptxd.requests"),
        snapshot.counter("ptxd.cache_hits"),
        snapshot.counter("ptxd.shed"),
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

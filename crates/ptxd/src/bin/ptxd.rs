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
//! / `--trace-out`.
//!
//! The service benchmark (scratch vs cold server vs warm verdict cache)
//! runs in-process in `benchgate` (`crates/bench`).

use std::process::ExitCode;

use ptxd::signal::SignalFd;
use ptxd::{Config, Server};

struct Cli {
    cfg: Config,
    port_file: Option<String>,
    stats_json: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: Config::default(),
        port_file: None,
        stats_json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => {
                cli.cfg.addr = it.next().ok_or("--listen needs an address")?.clone();
            }
            "--port-file" => {
                cli.port_file = Some(it.next().ok_or("--port-file needs a path")?.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.cfg.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                if cli.cfg.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--queue-bound" => {
                let v = it.next().ok_or("--queue-bound needs a value")?;
                cli.cfg.queue_bound = v
                    .parse()
                    .map_err(|_| format!("bad --queue-bound value `{v}`"))?;
            }
            "--fair-cap" => {
                let v = it.next().ok_or("--fair-cap needs a value")?;
                cli.cfg.fair_cap = v
                    .parse()
                    .map_err(|_| format!("bad --fair-cap value `{v}`"))?;
            }
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap needs a value")?;
                cli.cfg.cache_cap = v
                    .parse()
                    .map_err(|_| format!("bad --cache-cap value `{v}`"))?;
            }
            "--access-log" => {
                cli.cfg.access_log = Some(it.next().ok_or("--access-log needs a path")?.clone());
            }
            "--log-ring" => {
                let v = it.next().ok_or("--log-ring needs a value")?;
                cli.cfg.log_ring = v
                    .parse()
                    .map_err(|_| format!("bad --log-ring value `{v}`"))?;
            }
            "--certify" => cli.cfg.certify = true,
            "--debug-ops" => cli.cfg.debug_ops = true,
            "--stats-json" => {
                cli.stats_json = Some(it.next().ok_or("--stats-json needs a path")?.clone());
            }
            "--trace-out" => {
                cli.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!(
                "ptxd: {e}\nusage: ptxd [--listen ADDR] [--port-file PATH] [--jobs N] \
                 [--queue-bound N] [--fair-cap N] [--cache-cap N] \
                 [--access-log PATH] [--log-ring N] [--certify] \
                 [--debug-ops] [--stats-json PATH] [--trace-out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    // The signal mask must be in place before any thread exists, so
    // every thread inherits it and TERM/INT route to the signalfd.
    let signal_fd = SignalFd::block_and_open();

    let mut handle = match Server::spawn(cli.cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("ptxd: cannot listen on {}: {e}", cli.cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ptxd: listening on {}", handle.addr());
    if let Some(path) = &cli.port_file {
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
    if let Some(path) = &cli.stats_json {
        if let Err(e) = std::fs::write(path, snapshot.to_jsonl()) {
            eprintln!("ptxd: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &cli.trace_out {
        if let Err(e) = std::fs::write(path, handle.trace_chrome_json()) {
            eprintln!("ptxd: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "ptxd: drained; {} requests, {} cache hits, {} shed",
        snapshot.counter("ptxd.requests"),
        snapshot.counter("ptxd.cache_hits"),
        snapshot.counter("ptxd.shed"),
    );
    ExitCode::SUCCESS
}

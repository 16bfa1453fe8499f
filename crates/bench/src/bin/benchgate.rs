//! `benchgate` — the deterministic counter gate.
//!
//! ```text
//! benchgate                      # run, compare with crates/bench/counters.json
//! UPDATE_BENCHGATE=1 benchgate   # run, rewrite crates/bench/counters.json
//! ```
//!
//! Runs three fixed workloads in-process, each on one worker so every
//! counter is deterministic, and cross-checks their verdicts:
//!
//! * `bound{2,3}.{scratch,sessions}.*` — the Figure 17 sweep (both
//!   scope modes × Coherence/Atomicity/SC) at bounds 2 and 3, from
//!   scratch and through pooled [`mapping::AxiomSession`]s. The two
//!   paths must give the same verdicts.
//! * `litmus.{scratch,sessions}.*` — every test of
//!   `library::extended_suite()` answered [`LITMUS_REPEATS`] times from
//!   scratch and as often through pooled `SatSession`s. The two paths
//!   must give the same verdicts.
//! * `ptxd.*` — the bundled PTX and C11 suites answered from scratch,
//!   then by an in-process one-worker `ptxd` server with a cold and
//!   then a warm verdict cache. The three verdict columns must agree,
//!   the cold pass must see no cache hit and the warm pass only cache
//!   hits, `ptxd.cache_hits` must equal the suite length, and the warm
//!   pass must be at least [`MIN_WARM_SPEEDUP`] times faster than
//!   scratch.
//!
//! It then compares the run's counters with the committed baseline,
//! `crates/bench/counters.json` (the counters key of
//! `obs::Snapshot::to_json_object`, one counter per line). The
//! comparison is exact: a counter that grew, shrank, is new in the run
//! or is missing from it fails the gate and is named in the report, so
//! a counter moves only through a deliberate `UPDATE_BENCHGATE=1`
//! regeneration. Wall times go to stderr and are report-only, apart
//! from the warm-cache floor. Exit status: 0 when every check passes,
//! 1 otherwise.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use litmus::sat::{self, SatSession, Signature};
use litmus::{canon, library};
use modelfinder::harness::HarnessOptions;
use modelfinder::obs::{self, Snapshot};
use modelfinder::{ModelFinder, Options, SessionPool};
use ptxd::{Config, Server};
use ptxmm_bench::run_sweep;

/// Times each litmus test is answered on each path: the session path
/// amortizes its one-time translation while the scratch path pays it
/// every round, the shape a pooled `ptxherd --sat` sweep sees.
const LITMUS_REPEATS: u32 = 3;

/// Minimum warm-cache speedup of the `ptxd` suite over scratch solving.
const MIN_WARM_SPEEDUP: f64 = 10.0;

/// The committed baseline.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/counters.json");

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: benchgate (no arguments; UPDATE_BENCHGATE=1 rewrites {BASELINE})");
        return ExitCode::FAILURE;
    }
    let reg = obs::Registry::new();
    if let Err(e) = fig17(&reg)
        .and_then(|()| litmus_suite(&reg))
        .and_then(|()| ptxd_suite(&reg))
    {
        eprintln!("benchgate: {e}");
        return ExitCode::FAILURE;
    }
    let run = Snapshot {
        counters: reg.snapshot().counters,
        ..Snapshot::default()
    };

    if std::env::var_os("UPDATE_BENCHGATE").is_some() {
        return match std::fs::write(BASELINE, counters_json(&run)) {
            Ok(()) => {
                println!(
                    "benchgate: wrote {} counters to {BASELINE}",
                    run.counters.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchgate: cannot write {BASELINE}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let baseline = match std::fs::read_to_string(BASELINE) {
        Ok(text) => Snapshot::from_json(&text),
        Err(e) => {
            eprintln!("benchgate: cannot read {BASELINE}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(baseline) = baseline else {
        eprintln!("benchgate: {BASELINE} is not a counters object");
        return ExitCode::FAILURE;
    };
    match gate(&baseline, &run) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            print!("{report}");
            ExitCode::FAILURE
        }
    }
}

/// Compares the run's counters with the baseline's. The report names
/// every counter that differs and ends in a summary line; it comes back
/// as `Err` when any counter differs.
fn gate(base: &Snapshot, run: &Snapshot) -> Result<String, String> {
    let mut out = String::new();
    let mut differ = 0;
    for (name, &cur) in &run.counters {
        let _ = match base.counters.get(name) {
            None => writeln!(out, "NEW        {name:<56} (absent) -> {cur}"),
            Some(&b) if cur > b => writeln!(out, "GREW       {name:<56} {b} -> {cur}"),
            Some(&b) if cur < b => writeln!(out, "SHRANK     {name:<56} {b} -> {cur}"),
            Some(_) => continue,
        };
        differ += 1;
    }
    for (name, b) in &base.counters {
        if !run.counters.contains_key(name) {
            differ += 1;
            let _ = writeln!(out, "MISSING    {name:<56} {b} -> (absent)");
        }
    }
    if differ > 0 {
        let _ = writeln!(
            out,
            "benchgate: {differ} counter(s) differ from the baseline; after an intended \
             change, regenerate it with UPDATE_BENCHGATE=1"
        );
        Err(out)
    } else {
        let _ = writeln!(
            out,
            "benchgate: all {} counters match the baseline",
            base.counters.len()
        );
        Ok(out)
    }
}

/// The baseline file: the counters key of
/// [`Snapshot::to_json_object`], one counter per line so a regeneration
/// diffs line by line.
fn counters_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{\n");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        obs::json::escape_into(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("\n}}\n");
    out
}

/// The Figure 17 sweep at bounds 2 and 3, scratch then sessions, with
/// each path's counters under `bound<B>.{scratch,sessions}.`.
fn fig17(reg: &obs::Registry) -> Result<(), String> {
    for bound in [2, 3] {
        let one_worker = |obs| HarnessOptions {
            jobs: 1,
            obs,
            ..HarnessOptions::default()
        };
        let scratch_obs = obs::Registry::new();
        let t0 = Instant::now();
        let scratch = run_sweep(&[bound], false, &one_worker(scratch_obs.clone()), |_| {});
        let scratch_wall = t0.elapsed();
        let session_obs = obs::Registry::new();
        let t1 = Instant::now();
        let sessions = run_sweep(&[bound], true, &one_worker(session_obs.clone()), |_| {});
        let session_wall = t1.elapsed();
        for (s, i) in scratch.iter().zip(&sessions) {
            if s.verdict != i.verdict {
                return Err(format!(
                    "fig17 verdict drift on {}: scratch={} sessions={}",
                    s.name, s.verdict, i.verdict
                ));
            }
        }
        report_walls(&format!("fig17 bound {bound}"), scratch_wall, session_wall);
        reg.merge_prefixed(&scratch_obs, &format!("bound{bound}.scratch."));
        reg.merge_prefixed(&session_obs, &format!("bound{bound}.sessions."));
    }
    Ok(())
}

/// The PTX litmus suite on the symbolic SAT path, scratch vs pooled
/// sessions, with each path's counters under `litmus.{scratch,sessions}.`.
fn litmus_suite(reg: &obs::Registry) -> Result<(), String> {
    let scratch_obs = obs::Registry::new();
    let session_obs = obs::Registry::new();
    let pool: SessionPool<Signature, SatSession> = SessionPool::new();
    let (mut scratch_wall, mut session_wall) = (Duration::ZERO, Duration::ZERO);
    for test in library::extended_suite() {
        let mut scratch_observable = None;
        let t0 = Instant::now();
        for _ in 0..LITMUS_REPEATS {
            // The problem is rebuilt per round: a scratch answer pays
            // for encoding and translation every time.
            let problem = sat::scratch_problem(&test);
            let (verdict, report) = ModelFinder::new(Options::default())
                .solve(&problem)
                .map_err(|e| format!("{}: scratch encoding error: {e:?}", test.name))?;
            report.record_obs(&scratch_obs);
            scratch_observable = Some(verdict.instance().is_some());
        }
        scratch_wall += t0.elapsed();

        let sig = sat::signature(&test.program);
        let mut session_observable = None;
        let t1 = Instant::now();
        for _ in 0..LITMUS_REPEATS {
            let mut session = pool.checkout(&sig, || {
                SatSession::new(sig).expect("internal encoding error")
            });
            let r = session
                .run(&test)
                .map_err(|e| format!("{}: session error: {e}", test.name))?;
            r.report.record_obs(&session_obs);
            session_observable = r.observable;
            pool.checkin(sig, session);
        }
        session_wall += t1.elapsed();

        if scratch_observable != session_observable {
            return Err(format!(
                "litmus verdict drift on {}: scratch={scratch_observable:?} \
                 sessions={session_observable:?}",
                test.name
            ));
        }
    }
    report_walls("litmus suite", scratch_wall, session_wall);
    reg.merge_prefixed(&scratch_obs, "litmus.scratch.");
    reg.merge_prefixed(&session_obs, "litmus.sessions.");
    Ok(())
}

/// The bundled suite answered from scratch, by a cold one-worker
/// in-process server, and again warm; the server's deterministic
/// `ptxd.*` counters join `reg`.
fn ptxd_suite(reg: &obs::Registry) -> Result<(), String> {
    let ptx_tests = library::extended_suite();
    let c11_tests = library::c11_suite();
    let suite_len = ptx_tests.len() + c11_tests.len();

    // Scratch — what a no-service workflow pays: one ModelFinder per
    // PTX test (translation every time), the enumeration oracle for C11.
    let t0 = Instant::now();
    let mut scratch = Vec::with_capacity(suite_len);
    for test in &ptx_tests {
        let problem = sat::scratch_problem(test);
        let (verdict, _) = ModelFinder::new(Options::default())
            .solve(&problem)
            .map_err(|e| format!("{}: scratch encoding error: {e:?}", test.name))?;
        scratch.push(verdict.instance().is_some());
    }
    for test in &c11_tests {
        scratch.push(litmus::run_rc11(test).observable);
    }
    let scratch_wall = t0.elapsed();

    // Cold then warm through one server; jobs=1 keeps every ptxd.*
    // counter deterministic.
    let sources: Vec<(String, String)> = ptx_tests
        .iter()
        .map(|t| (t.name.clone(), canon::format_ptx_litmus(t)))
        .chain(
            c11_tests
                .iter()
                .map(|t| (t.name.clone(), canon::format_c11_litmus(t))),
        )
        .collect();
    let mut handle = Server::spawn(Config {
        jobs: 1,
        ..Config::default()
    })
    .map_err(|e| format!("cannot spawn ptxd: {e}"))?;
    let mut client = litmus::ServerClient::connect(&handle.addr())
        .map_err(|e| format!("cannot connect to ptxd: {e}"))?;
    let (cold_wall, cold, cold_cached) = client_pass(&mut client, &sources)?;
    if cold_cached != 0 {
        return Err(format!("ptxd cold pass had {cold_cached} cache hits"));
    }
    let (warm_wall, warm, warm_cached) = client_pass(&mut client, &sources)?;
    if warm_cached != suite_len {
        return Err(format!(
            "ptxd warm pass: {warm_cached}/{suite_len} replies cached"
        ));
    }
    for (i, (name, _)) in sources.iter().enumerate() {
        if scratch[i] != cold[i] || cold[i] != warm[i] {
            return Err(format!(
                "ptxd verdict drift on {name}: scratch={} cold={} warm={}",
                scratch[i], cold[i], warm[i]
            ));
        }
    }
    handle.shutdown();
    let snapshot = handle.join();
    let hits = snapshot.counter("ptxd.cache_hits");
    if hits != suite_len as u64 {
        return Err(format!(
            "ptxd: expected {suite_len} cache hits, counted {hits}"
        ));
    }

    let speedup = scratch_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
    eprintln!(
        "ptxd suite: scratch {:.3}s, cold {:.3}s, warm {:.3}s ({speedup:.1}x warm over scratch)",
        scratch_wall.as_secs_f64(),
        cold_wall.as_secs_f64(),
        warm_wall.as_secs_f64(),
    );
    if speedup < MIN_WARM_SPEEDUP {
        return Err(format!(
            "ptxd warm pass only {speedup:.1}x faster than scratch (need {MIN_WARM_SPEEDUP}x)"
        ));
    }

    // Only the deterministic service counters are gated: solver-side
    // work is covered by the litmus rows, `batched`/`pool.reused`
    // depend on whether the worker's batch scan wins the race against
    // the client's next send, and the latency histograms vary run to
    // run.
    for (name, &v) in &snapshot.counters {
        if name.starts_with("ptxd.") && name != "ptxd.batched" && name != "ptxd.pool.reused" {
            reg.add(name, v);
        }
    }
    Ok(())
}

/// One pass over the suite through a connected client. Returns the
/// wall time, per-test observability, and how many replies were cached.
fn client_pass(
    client: &mut litmus::ServerClient,
    sources: &[(String, String)],
) -> Result<(Duration, Vec<bool>, usize), String> {
    let t = Instant::now();
    let mut observables = Vec::with_capacity(sources.len());
    let mut cached = 0usize;
    for (i, (name, source)) in sources.iter().enumerate() {
        let reply = client
            .run(i as u64, source, None)
            .map_err(|e| format!("{name}: {e}"))?;
        if !reply.ok {
            return Err(format!(
                "{name}: server error {}: {}",
                reply.kind.as_deref().unwrap_or("?"),
                reply.error.as_deref().unwrap_or("?")
            ));
        }
        let observable = reply
            .observable
            .ok_or_else(|| format!("{name}: undecided verdict"))?;
        observables.push(observable);
        cached += usize::from(reply.cached);
    }
    Ok((t.elapsed(), observables, cached))
}

fn report_walls(what: &str, scratch: Duration, sessions: Duration) {
    let (s, i) = (scratch.as_secs_f64(), sessions.as_secs_f64());
    eprintln!("{what}: scratch {s:.3}s, sessions {i:.3}s ({:.2}x)", s / i);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            ..Snapshot::default()
        }
    }

    fn committed() -> Snapshot {
        Snapshot::from_json(include_str!("../../counters.json")).expect("counters.json parses")
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = committed();
        let report = gate(&base, &base).expect("identical counters pass");
        assert!(report.starts_with("benchgate: all "), "{report}");
    }

    #[test]
    fn any_doubled_counter_fails_and_names_it() {
        let base = committed();
        for (name, &v) in &base.counters {
            let mut run = base.clone();
            // 2v + 1 so zero baselines are inflated too.
            run.counters.insert(name.clone(), 2 * v + 1);
            let report = gate(&base, &run).expect_err(name);
            assert!(report.contains(&format!("GREW       {name} ")), "{report}");
        }
    }

    #[test]
    fn any_missing_counter_fails_and_names_it() {
        let base = committed();
        for name in base.counters.keys() {
            let mut run = base.clone();
            run.counters.remove(name);
            let report = gate(&base, &run).expect_err(name);
            assert!(report.contains(&format!("MISSING    {name} ")), "{report}");
        }
    }

    #[test]
    fn growth_from_zero_fails() {
        let report = gate(&snap(&[("a", 0)]), &snap(&[("a", 1)])).unwrap_err();
        assert!(report.contains("GREW       a "), "{report}");
    }

    #[test]
    fn any_growth_fails() {
        // 1.20x was within the old tolerance; now any growth fails.
        let report = gate(&snap(&[("a", 100)]), &snap(&[("a", 120)])).unwrap_err();
        assert!(report.contains("GREW       a "), "{report}");
        assert!(report.contains("1 counter(s) differ"), "{report}");
    }

    #[test]
    fn run_only_counter_fails() {
        let report = gate(&snap(&[("a", 1)]), &snap(&[("a", 1), ("b", 7)])).unwrap_err();
        assert!(report.contains("NEW        b "), "{report}");
    }

    #[test]
    fn any_decrease_fails() {
        let report = gate(
            &snap(&[("a", 100), ("b", 5)]),
            &snap(&[("a", 99), ("b", 0)]),
        )
        .unwrap_err();
        assert!(report.contains("SHRANK     a "), "{report}");
        assert!(report.contains("SHRANK     b "), "{report}");
        assert!(report.contains("2 counter(s) differ"), "{report}");
    }

    #[test]
    fn baseline_file_round_trips() {
        let base = committed();
        assert!(!base.counters.is_empty());
        assert_eq!(Snapshot::from_json(&counters_json(&base)), Some(base));
    }
}

//! Observability counters are deterministic: two identical single-job
//! sweeps must produce byte-identical counter (and histogram) sets —
//! only wall-clock timings may differ — and the structural counters of
//! one small pinned test (CoWW) are regression-locked to exact values.

use litmus::sat::{self, SatSession};
use litmus::{library, run_ptx};
use modelfinder::harness::{run_queries, HarnessOptions, Query, QueryOutput};
use modelfinder::obs::{Registry, Snapshot};

/// Runs a small fixed suite (one SAT-path test, one enumeration test)
/// through the sequential harness exactly like `ptxherd --sat --stats`:
/// per-query child registries, unprefixed totals, and per-test prefixed
/// merges.
fn sweep_snapshot() -> Snapshot {
    let reg = Registry::new();
    let queries = vec![
        Query::new("CoWW".to_string(), |ctx| {
            let test = library::coww();
            let mut session =
                SatSession::new(sat::signature(&test.program)).expect("internal encoding error");
            session.set_cancel(Some(ctx.cancel.clone()));
            let r = session.run(&test).expect("supported test");
            r.report.record_obs(&ctx.obs);
            QueryOutput {
                verdict: format!("{:?}", r.passed),
                ..QueryOutput::default()
            }
        }),
        Query::new("MP+bar".to_string(), |ctx| {
            let test = library::mp_barrier();
            let r = run_ptx(&test);
            ctx.obs.add("litmus.candidates", r.candidates);
            QueryOutput {
                verdict: format!("{:?}", r.passed),
                ..QueryOutput::default()
            }
        }),
    ];
    let options = HarnessOptions {
        jobs: 1,
        timeout: None,
        obs: reg.clone(),
        ..HarnessOptions::default()
    };
    run_queries(queries, &options, |rec| {
        reg.merge_prefixed(&rec.obs, &format!("test.{}.", rec.name));
    });
    reg.snapshot()
}

#[test]
fn identical_runs_yield_identical_counters() {
    let a = sweep_snapshot();
    let b = sweep_snapshot();
    // Counters and histograms must agree exactly, name for name and
    // value for value; timings are wall clock and exempt.
    assert_eq!(
        a.counters, b.counters,
        "counter values drifted between runs"
    );
    assert_eq!(
        a.histograms, b.histograms,
        "histograms drifted between runs"
    );
    assert_eq!(
        a.timings.keys().collect::<Vec<_>>(),
        b.timings.keys().collect::<Vec<_>>(),
        "timing names drifted between runs"
    );
}

#[test]
fn coww_structural_counters_are_pinned() {
    let snap = sweep_snapshot();
    if std::env::var_os("DUMP_STATS").is_some() {
        for (name, value) in &snap.counters {
            eprintln!("{name} = {value}");
        }
    }
    // Structural counters describe the translation and encoding of the
    // pinned CoWW query; they change only when the encoder, translator,
    // or PTX axioms change, and such a change must be deliberate.
    // Regenerate with DUMP_STATS=1 and `--nocapture`.
    let pins: &[(&str, u64)] = &[
        ("test.CoWW.sat.vars", 1954),
        ("test.CoWW.sat.clauses", 5497),
        ("test.CoWW.sat.tseitin_clauses", 321),
        ("test.CoWW.circuit.inputs", 116),
        ("test.CoWW.harness.queries", 1),
        ("test.MP+bar.litmus.candidates", 2),
        ("test.MP+bar.harness.queries", 1),
        ("harness.queries", 2),
    ];
    for &(name, want) in pins {
        assert_eq!(
            snap.counter(name),
            want,
            "counter {name} drifted (got {}, pinned {want}); if the \
             encoding changed deliberately, update the pin",
            snap.counter(name)
        );
    }
    // Search counters are deterministic (asserted by the sibling test)
    // but heuristic-sensitive, so they are only required to be sane.
    assert!(snap.counter("test.CoWW.solver.propagations") > 0);
    assert!(snap.counter("test.CoWW.circuit.gates") > 0);
    assert!(snap.counter("test.CoWW.circuit.matrix_cells") > 0);
}

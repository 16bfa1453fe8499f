//! What opening a litmus session costs, per (model, signature) group.
//!
//! The PTX tests of the bundled corpus (the library suite, then
//! `litmus/*.litmus` and `litmus/synth/*.litmus`, C11 files skipped) are
//! grouped by universe signature. For each model and group, a fresh
//! `SatSession` is opened and answers the group's tests. One line per
//! group gives the open's translate and encode time and the wall time
//! of its queries, in milliseconds, the minimum over `ROUNDS` rounds;
//! the last line sums them.
//!
//! Run from the repository root with:
//! `cargo run --release --example open_cost -- [ROUNDS]` (default 5).
//! It reads only `SessionStats::{translate_time, encode_time}`, which a
//! session fills at open, so the same file measures older commits too.

use std::collections::BTreeMap;
use std::time::Instant;

use litmus::sat::{self, SatSession, Signature};
use litmus::{library, PtxLitmus};
use modelfinder::Options;

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        None => 5,
        Some(s) => s.parse().expect("ROUNDS must be a positive integer"),
    };
    let mut groups: BTreeMap<(usize, usize, usize), (Signature, Vec<PtxLitmus>)> = BTreeMap::new();
    for test in corpus() {
        let sig = sat::signature(&test.program);
        let key = (sig.events, sig.threads, sig.locs);
        groups.entry(key).or_insert((sig, Vec::new())).1.push(test);
    }

    // (model, group) → minimum (translate, encode, queries) in ms.
    let mut best = BTreeMap::new();
    for _ in 0..rounds {
        for (m, model) in ptx::cumulative::ALL_MODELS.iter().enumerate() {
            for (key, (sig, tests)) in &groups {
                let mut session = SatSession::with_options_model(*sig, *model, Options::default())
                    .expect("internal encoding error");
                let open = session.stats();
                let t = Instant::now();
                for test in tests {
                    session.run(test).expect("internal encoding error");
                }
                let sample = [
                    open.translate_time.as_secs_f64() * 1e3,
                    open.encode_time.as_secs_f64() * 1e3,
                    t.elapsed().as_secs_f64() * 1e3,
                ];
                let slot = best.entry((m, *key)).or_insert([f64::MAX; 3]);
                for (b, s) in slot.iter_mut().zip(sample) {
                    *b = b.min(s);
                }
            }
        }
    }

    println!("model\tevents/threads/locs\tqueries\ttranslate_ms\tencode_ms\tqueries_ms");
    let (mut total, mut queries) = ([0.0; 3], 0);
    for ((m, key), ms) in &best {
        let n = groups[key].1.len();
        println!(
            "{}\t{}/{}/{}\t{n}\t{:.2}\t{:.2}\t{:.2}",
            ptx::cumulative::ALL_MODELS[*m].as_str(),
            key.0,
            key.1,
            key.2,
            ms[0],
            ms[1],
            ms[2]
        );
        for (t, v) in total.iter_mut().zip(ms) {
            *t += v;
        }
        queries += n;
    }
    println!(
        "total\t{} groups\t{queries}\t{:.1}\t{:.1}\t{:.1}",
        best.len(),
        total[0],
        total[1],
        total[2]
    );
}

/// The bundled PTX tests: the library suite, then the corpus files in
/// name order.
fn corpus() -> Vec<PtxLitmus> {
    let mut tests = library::extended_suite();
    for dir in ["litmus", "litmus/synth"] {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{dir}: {e} (run from the repository root)"))
            .map(|entry| entry.expect("readable directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
            .collect();
        files.sort();
        for file in files {
            let source = std::fs::read_to_string(&file).expect("readable litmus file");
            let header = source
                .lines()
                .map(|l| l.split("//").next().unwrap_or("").trim())
                .find(|l| !l.is_empty())
                .unwrap_or("");
            if !header.starts_with("C11 ") {
                let test = litmus::parse_ptx_litmus(&source)
                    .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
                tests.push(test);
            }
        }
    }
    tests
}

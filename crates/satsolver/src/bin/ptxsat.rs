//! `ptxsat` — a minimal DIMACS CNF solver front end for the workspace's
//! CDCL engine (handy for poking at the Figure 17 instances or any CNF).
//!
//! ```text
//! ptxsat file.cnf                 # prints s SATISFIABLE / s UNSATISFIABLE + model
//! ptxsat -                        # reads DIMACS from stdin
//! ptxsat --pigeonhole 8          # built-in PHP(9, 8) generator (UNSAT, conflict-heavy)
//! ptxsat --reduce-interval 50 …  # pin the learnt-DB reduction cadence
//! ptxsat --stats-json out.jsonl …# write solver.* counters as obs JSON Lines
//! ```
//!
//! The `--pigeonhole`/`--reduce-interval`/`--stats-json` trio exists for
//! `scripts/verify.sh`: a conflict-heavy instance with a pinned low
//! cadence must show nonzero `solver.reduce_sweeps` and
//! `solver.deleted_clauses`, proving the deletion policy fires.

use std::io::Read;
use std::process::ExitCode;

use satsolver::{Cnf, Lit, SolveResult, Solver, SolverStats, Var};

struct Args {
    input: Option<String>,
    pigeonhole: Option<usize>,
    reduce_interval: Option<u64>,
    stats_json: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ptxsat [--reduce-interval N] [--stats-json PATH] <file.cnf | - | --pigeonhole N>"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        input: None,
        pigeonhole: None,
        reduce_interval: None,
        stats_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pigeonhole" => {
                let n = it.next().and_then(|v| v.parse::<usize>().ok());
                match n {
                    Some(n) if n > 0 => args.pigeonhole = Some(n),
                    _ => return Err(usage()),
                }
            }
            "--reduce-interval" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => args.reduce_interval = Some(n),
                None => return Err(usage()),
            },
            "--stats-json" => match it.next() {
                Some(path) => args.stats_json = Some(path),
                None => return Err(usage()),
            },
            _ if args.input.is_none() => args.input = Some(arg),
            _ => return Err(usage()),
        }
    }
    if args.input.is_some() == args.pigeonhole.is_some() {
        return Err(usage());
    }
    Ok(args)
}

/// The unsatisfiable pigeonhole principle PHP(n+1, n) as CNF: variable
/// `p*n + h + 1` means "pigeon p sits in hole h". Conflict-heavy at
/// small sizes, which is exactly what the verify.sh reduction smoke
/// needs.
fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| (p * holes + h + 1) as i64;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| Lit::from_dimacs(var(p, h))).collect());
    }
    for p1 in 0..pigeons {
        for p2 in (p1 + 1)..pigeons {
            for h in 0..holes {
                clauses.push(vec![
                    Lit::from_dimacs(-var(p1, h)),
                    Lit::from_dimacs(-var(p2, h)),
                ]);
            }
        }
    }
    Cnf {
        num_vars: pigeons * holes,
        clauses,
    }
}

fn write_stats(path: &str, stats: &SolverStats) -> Result<(), ExitCode> {
    let reg = obs::Registry::new();
    reg.add("solver.propagations", stats.propagations);
    reg.add("solver.root_propagations", stats.root_propagations);
    reg.add("solver.binary_propagations", stats.binary_propagations);
    reg.add("solver.conflicts", stats.conflicts);
    reg.add("solver.decisions", stats.decisions);
    reg.add("solver.restarts", stats.restarts);
    reg.add("solver.learnt_clauses", stats.learnt_clauses);
    reg.add("solver.learnt_literals", stats.learnt_literals);
    reg.add("solver.lbd_sum", stats.lbd_sum);
    reg.add("solver.lbd_glue_learnts", stats.lbd_glue_learnts);
    reg.add("solver.reduce_sweeps", stats.reduce_sweeps);
    reg.add("solver.deleted_clauses", stats.deleted_clauses);
    std::fs::write(path, reg.snapshot().to_jsonl()).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let cnf = if let Some(holes) = args.pigeonhole {
        pigeonhole(holes)
    } else {
        let arg = args.input.expect("checked by parse_args");
        let input = if arg == "-" {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() {
                eprintln!("cannot read stdin");
                return ExitCode::FAILURE;
            }
            buf
        } else {
            match std::fs::read_to_string(&arg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{arg}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        match Cnf::parse(&input) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("parse error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut solver: Solver = cnf.into_solver();
    if let Some(interval) = args.reduce_interval {
        solver.set_reduce_interval(interval);
    }
    let result = solver.solve();
    let stats = solver.stats();
    if let Some(path) = &args.stats_json {
        if let Err(code) = write_stats(path, &stats) {
            return code;
        }
    }
    match result {
        SolveResult::Sat => {
            println!("s SATISFIABLE");
            let mut line = String::from("v");
            for i in 0..cnf.num_vars {
                let v = Var::from_index(i);
                let val = solver.model_value(v).unwrap_or(false);
                line.push_str(&format!(
                    " {}",
                    if val {
                        (i + 1) as i64
                    } else {
                        -((i + 1) as i64)
                    }
                ));
                if line.len() > 72 {
                    println!("{line}");
                    line = String::from("v");
                }
            }
            println!("{line} 0");
            eprintln!(
                "c conflicts={} decisions={} propagations={}",
                stats.conflicts, stats.decisions, stats.propagations
            );
            // Conventional SAT-competition exit code.
            ExitCode::from(10)
        }
        SolveResult::Unsat => {
            println!("s UNSATISFIABLE");
            ExitCode::from(20)
        }
        SolveResult::Unknown(reason) => {
            println!("s UNKNOWN");
            eprintln!("c stopped early: {reason}");
            ExitCode::FAILURE
        }
    }
}

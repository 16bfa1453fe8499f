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
//! `--stats-json` is the one shared run flag ([`obs::cli`]) it takes.

use std::io::Read;
use std::process::ExitCode;

use obs::cli::{Cli, Flag, RunFlags};
use satsolver::{Cnf, Lit, SolveResult, Solver, Var};

static CLI: Cli = Cli {
    prog: "ptxsat",
    usage: "[--reduce-interval N] <file.cnf | - | --pigeonhole N>",
    flags: &[Flag::StatsJson],
    stats_to_stderr: false,
};

/// `ptxsat`'s own arguments; the shared ones are in [`RunFlags`].
struct Args {
    input: Option<String>,
    pigeonhole: Option<usize>,
    reduce_interval: Option<u64>,
}

fn parse_args() -> Result<(RunFlags, Args), String> {
    let mut args = Args {
        input: None,
        pigeonhole: None,
        reduce_interval: None,
    };
    let run = CLI.parse(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--pigeonhole" => args.pigeonhole = Some(rest.positive(arg)?),
            "--reduce-interval" => args.reduce_interval = Some(rest.parse(arg)?),
            _ if args.input.is_none() && !arg.starts_with("--") => {
                args.input = Some(arg.to_string());
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if args.input.is_some() == args.pigeonhole.is_some() {
        return Err("pass exactly one of a CNF file, `-` or --pigeonhole N".to_string());
    }
    Ok((run, args))
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

fn main() -> ExitCode {
    let (run, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => return CLI.fail(&e),
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
    // ptxsat takes no --trace-out, so there is no trace to write.
    let reg = obs::Registry::new();
    stats.record_obs(&reg);
    if run.finish(&reg.snapshot(), String::new) > 0 {
        return ExitCode::FAILURE;
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

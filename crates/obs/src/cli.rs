//! The run flags shared by the workspace's command-line drivers.
//!
//! `ptxherd`, `ptxdistill`, `fig17_table`, `fuzzherd`, `ptxd` and
//! `ptxsat` each take some of `--jobs N` (N ≥ 1), `--timeout-secs S`,
//! `--json`, `--stats`, `--stats-json PATH` and `--trace-out PATH`.
//! [`Cli::parse`] reads the ones a binary lists in [`Cli::flags`], with
//! one set of error messages, and hands every other argument to the
//! binary's own callback; [`Cli::fail`] reports an argument error as
//! `prog: message` plus the usage line. The parsed [`RunFlags`] build
//! the stats [`Registry`] and the [`Tracer`] the flags ask for, and
//! [`RunFlags::finish`] writes both out at exit.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use crate::trace::Tracer;
use crate::{Registry, Snapshot};

/// One shared run flag.
#[derive(Clone, Copy, Debug)]
pub enum Flag {
    /// `--jobs N`: worker threads, at least 1.
    Jobs,
    /// `--timeout-secs S`: per-query wall-clock budget in seconds.
    TimeoutSecs,
    /// `--json`: one JSON Lines record per result on stdout.
    Json,
    /// `--stats`: print the stats table at exit.
    Stats,
    /// `--stats-json PATH`: write the stats snapshot as JSON Lines.
    StatsJson,
    /// `--trace-out PATH`: write the event timeline as Chrome
    /// trace-event JSON.
    TraceOut,
}

impl Flag {
    /// Every shared flag, in usage order: what the harness drivers
    /// accept.
    pub const ALL: &'static [Flag] = &[
        Flag::Jobs,
        Flag::TimeoutSecs,
        Flag::Json,
        Flag::Stats,
        Flag::StatsJson,
        Flag::TraceOut,
    ];

    /// The flag as typed on the command line.
    fn name(self) -> &'static str {
        match self {
            Flag::Jobs => "--jobs",
            Flag::TimeoutSecs => "--timeout-secs",
            Flag::Json => "--json",
            Flag::Stats => "--stats",
            Flag::StatsJson => "--stats-json",
            Flag::TraceOut => "--trace-out",
        }
    }

    fn usage(self) -> &'static str {
        match self {
            Flag::Jobs => "[--jobs N]",
            Flag::TimeoutSecs => "[--timeout-secs S]",
            Flag::Json => "[--json]",
            Flag::Stats => "[--stats]",
            Flag::StatsJson => "[--stats-json PATH]",
            Flag::TraceOut => "[--trace-out PATH]",
        }
    }
}

/// One binary's command line.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name, prefixed to every error it reports.
    pub prog: &'static str,
    /// The binary's own flags and operands, printed after the shared
    /// flags in the usage line.
    pub usage: &'static str,
    /// The shared flags the binary accepts; any other is unknown.
    pub flags: &'static [Flag],
    /// Where `--stats` prints its table: stderr for a binary whose
    /// stdout is its result, stdout otherwise.
    pub stats_to_stderr: bool,
}

/// The arguments after the one being parsed.
pub struct Args<'a> {
    it: &'a mut dyn Iterator<Item = String>,
}

impl Args<'_> {
    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
    }

    /// The value following `flag`, parsed as a count of at least 1.
    pub fn positive(&mut self, flag: &str) -> Result<usize, String> {
        match self.parse(flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }
}

/// The parsed shared flags of one run.
#[derive(Debug)]
pub struct RunFlags {
    cli: &'static Cli,
    /// `--jobs`, when given.
    pub jobs: Option<usize>,
    /// `--timeout-secs`, when given.
    pub timeout_secs: Option<u64>,
    /// `--json`.
    pub json: bool,
    /// `--stats`.
    pub stats: bool,
    /// `--stats-json` path.
    pub stats_json: Option<String>,
    /// `--trace-out` path.
    pub trace_out: Option<String>,
}

impl Cli {
    /// Parses `args` (without the program name). Shared flags listed in
    /// [`Cli::flags`] are read here; every other argument goes to `own`
    /// with the remaining arguments, and `own` returns whether it took
    /// it. An argument nobody takes is an error.
    pub fn parse(
        &'static self,
        args: impl IntoIterator<Item = String>,
        mut own: impl FnMut(&str, &mut Args<'_>) -> Result<bool, String>,
    ) -> Result<RunFlags, String> {
        let mut run = RunFlags {
            cli: self,
            jobs: None,
            timeout_secs: None,
            json: false,
            stats: false,
            stats_json: None,
            trace_out: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let rest = &mut Args { it: &mut it };
            match self.flags.iter().find(|f| f.name() == arg) {
                Some(Flag::Jobs) => run.jobs = Some(rest.positive(&arg)?),
                Some(Flag::TimeoutSecs) => run.timeout_secs = Some(rest.parse(&arg)?),
                Some(Flag::Json) => run.json = true,
                Some(Flag::Stats) => run.stats = true,
                Some(Flag::StatsJson) => run.stats_json = Some(rest.value(&arg)?),
                Some(Flag::TraceOut) => run.trace_out = Some(rest.value(&arg)?),
                None if own(&arg, rest)? => {}
                None if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
                None => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(run)
    }

    /// Reports an argument error on stderr as `prog: message` followed
    /// by the usage line, and returns the failure exit code.
    pub fn fail(&self, message: &str) -> ExitCode {
        let shared: Vec<&str> = self.flags.iter().map(|f| f.usage()).collect();
        eprintln!(
            "{}: {message}\nusage: {} {} {}",
            self.prog,
            self.prog,
            shared.join(" "),
            self.usage
        );
        ExitCode::FAILURE
    }
}

impl RunFlags {
    /// True when `--stats` or `--stats-json` asked for a snapshot.
    pub fn stats_wanted(&self) -> bool {
        self.stats || self.stats_json.is_some()
    }

    /// `--timeout-secs` as a duration.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout_secs.map(Duration::from_secs)
    }

    /// A recording registry when stats are wanted, the inert one
    /// otherwise.
    pub fn registry(&self) -> Registry {
        if self.stats_wanted() {
            Registry::new()
        } else {
            Registry::disabled()
        }
    }

    /// With `--trace-out`, a tracer sized so the full timeline survives;
    /// otherwise the bounded flight recorder that timeout autopsies
    /// read.
    pub fn tracer(&self) -> Tracer {
        if self.trace_out.is_some() {
            Tracer::for_export()
        } else {
            Tracer::flight_recorder()
        }
    }

    /// Writes out what the flags ask for at exit: `snap` as
    /// `--stats-json` JSON Lines and as the `--stats` table, and the
    /// Chrome trace-event JSON from `trace` to `--trace-out`. A failed
    /// write is reported on stderr as `prog: cannot write PATH: error`;
    /// returns how many failed.
    pub fn finish(&self, snap: &Snapshot, trace: impl FnOnce() -> String) -> usize {
        if self.stats {
            let table = snap.render_table();
            if self.cli.stats_to_stderr {
                eprint!("{table}");
            } else {
                print!("{table}");
            }
        }
        let mut failures = 0;
        let mut write = |path: &str, contents: String| {
            if let Err(e) = std::fs::write(path, contents) {
                eprintln!("{}: cannot write {path}: {e}", self.cli.prog);
                failures += 1;
            }
        };
        if let Some(path) = &self.stats_json {
            write(path, snap.to_jsonl());
        }
        if let Some(path) = &self.trace_out {
            write(path, trace());
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST: Cli = Cli {
        prog: "test",
        usage: "[--own N] <file>",
        flags: Flag::ALL,
        stats_to_stderr: false,
    };

    static NO_JOBS: Cli = Cli {
        prog: "test",
        usage: "",
        flags: &[Flag::StatsJson],
        stats_to_stderr: false,
    };

    fn parse(cli: &'static Cli, args: &[&str]) -> Result<(RunFlags, Vec<String>), String> {
        let mut own = Vec::new();
        let run = cli.parse(args.iter().map(|a| a.to_string()), |arg, rest| {
            match arg {
                "--own" => own.push(rest.positive(arg)?.to_string()),
                _ if !arg.starts_with("--") => own.push(arg.to_string()),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok((run, own))
    }

    #[test]
    fn parses_shared_and_own_arguments() {
        let (run, own) = parse(
            &TEST,
            &[
                "--jobs",
                "4",
                "a.txt",
                "--timeout-secs",
                "10",
                "--json",
                "--stats",
                "--own",
                "3",
                "--stats-json",
                "s.jsonl",
                "--trace-out",
                "t.json",
            ],
        )
        .unwrap();
        assert_eq!(run.jobs, Some(4));
        assert_eq!(run.timeout(), Some(Duration::from_secs(10)));
        assert!(run.json && run.stats && run.stats_wanted());
        assert_eq!(run.stats_json.as_deref(), Some("s.jsonl"));
        assert_eq!(run.trace_out.as_deref(), Some("t.json"));
        assert_eq!(own, ["a.txt", "3"]);
        let (run, _) = parse(&TEST, &[]).unwrap();
        assert_eq!((run.jobs, run.timeout()), (None, None));
        assert!(!run.stats_wanted() && !run.registry().enabled());
    }

    #[test]
    fn a_missing_value_is_named() {
        for flag in [
            "--jobs",
            "--timeout-secs",
            "--stats-json",
            "--trace-out",
            "--own",
        ] {
            assert_eq!(
                parse(&TEST, &["x", flag]).unwrap_err(),
                format!("{flag} needs a value")
            );
        }
    }

    #[test]
    fn a_non_numeric_value_is_quoted() {
        assert_eq!(
            parse(&TEST, &["--jobs", "four"]).unwrap_err(),
            "bad --jobs value `four`"
        );
        assert_eq!(
            parse(&TEST, &["--timeout-secs", "-1"]).unwrap_err(),
            "bad --timeout-secs value `-1`"
        );
        assert_eq!(
            parse(&TEST, &["--own", "1.5"]).unwrap_err(),
            "bad --own value `1.5`"
        );
    }

    #[test]
    fn zero_jobs_is_refused() {
        assert_eq!(
            parse(&TEST, &["--jobs", "0"]).unwrap_err(),
            "--jobs must be at least 1"
        );
        assert_eq!(
            parse(&TEST, &["--own", "0"]).unwrap_err(),
            "--own must be at least 1"
        );
    }

    #[test]
    fn unknown_and_unaccepted_flags_are_refused() {
        assert_eq!(
            parse(&TEST, &["--bogus"]).unwrap_err(),
            "unknown flag `--bogus`"
        );
        // A shared flag the binary does not list is as unknown as any.
        assert_eq!(
            parse(&NO_JOBS, &["--jobs", "2"]).unwrap_err(),
            "unknown flag `--jobs`"
        );
        assert_eq!(
            NO_JOBS
                .parse(["x".to_string()], |_, _| Ok(false))
                .unwrap_err(),
            "unexpected argument `x`"
        );
    }

    #[test]
    fn finish_writes_what_the_flags_ask_for() {
        let dir = std::env::temp_dir().join(format!("obs-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats = dir.join("s.jsonl").display().to_string();
        let trace = dir.join("t.json").display().to_string();
        let (run, _) = parse(&TEST, &["--stats-json", &stats, "--trace-out", &trace]).unwrap();
        let reg = run.registry();
        reg.add("a.count", 3);
        assert_eq!(run.finish(&reg.snapshot(), || "[]".to_string()), 0);
        assert_eq!(
            std::fs::read_to_string(&stats).unwrap(),
            reg.snapshot().to_jsonl()
        );
        assert_eq!(std::fs::read_to_string(&trace).unwrap(), "[]");
        // An unwritable path is counted, not fatal.
        let bad = dir.join("missing").join("s.jsonl").display().to_string();
        let (run, _) = parse(&TEST, &["--stats-json", &bad]).unwrap();
        assert_eq!(run.finish(&Snapshot::default(), String::new), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

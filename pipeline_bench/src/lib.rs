//! End-to-end benchmark of `sdfmem`: the default compile path users run
//! (`execute_request`, the entry point of every CLI subcommand) and a
//! loopback daemon with the `sdfmem serve` defaults, plus a traced run
//! whose per-layer self times add up to the measured op.
//!
//! One process runs one workload:
//!
//! * `corpus` — closed loop over the paper's programs;
//! * `scale` — closed loop over the synthetic scale families;
//! * `daemon_hot` — open loop, every request a cache hit;
//! * `daemon_cold` — open loop, every request unique.
//!
//! See `README.md` beside this crate for the metrics and the procedure.

pub mod daemon;
pub mod inproc;
pub mod loadgen;
pub mod reference;
pub mod report;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::time::Duration;

use report::Report;
use spans::SpanLog;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["corpus", "scale", "daemon_hot", "daemon_cold"];

/// Measured seconds of a default run.
pub const DEFAULT_SECONDS: f64 = 24.0;

/// Measured seconds of a `--smoke` run.
pub const SMOKE_SECONDS: f64 = 2.0;

/// Set-up repetitions whose median `setup_s` reports: at least
/// [`SETUP_REPS`], more while the set-ups so far took under
/// [`SETUP_BUDGET`], never more than [`SETUP_MAX`].
pub const SETUP_REPS: usize = 3;

/// See [`SETUP_REPS`].
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// See [`SETUP_REPS`].
pub const SETUP_MAX: usize = 9;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Minimum set-up repetitions.
    pub setup_reps: usize,
    /// Set-up repeats, up to [`SETUP_MAX`] times, until this much time
    /// has been spent.
    pub setup_budget: Duration,
    /// Where a traced run writes its Chrome trace.
    pub chrome: Option<PathBuf>,
    /// Trajectory file the result is appended to.
    pub append: Option<PathBuf>,
}

/// Command-line usage.
pub const USAGE: &str = "usage: pipeline_bench --workload corpus|scale|daemon_hot|daemon_cold \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--chrome FILE] [--append FILE]";

impl Options {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut args = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, None, false);
        let (mut smoke, mut chrome, mut append) = (false, None, None);
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} value `{value}`");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--chrome" => chrome = Some(PathBuf::from(value)),
                "--append" => append = Some(PathBuf::from(value)),
                _ => return Err(bad()),
            }
        }
        let default_seconds = if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        Ok(Options {
            workload: workload.ok_or("missing --workload")?,
            seed,
            seconds: Duration::from_secs_f64(seconds.unwrap_or(default_seconds)),
            trace,
            setup_reps: if smoke { 1 } else { SETUP_REPS },
            setup_budget: if smoke { Duration::ZERO } else { SETUP_BUDGET },
            chrome,
            append,
        })
    }
}

/// Runs the selected workload and returns its report.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new(&opts.workload);
    if opts.workload.starts_with("daemon") {
        daemon::run(&opts.workload, opts, &mut report);
    } else {
        inproc::run(&opts.workload, opts, &mut report);
    }
    if !opts.trace {
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let failed = report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("fail_ratio", failed, "ratio");
    }
    report
}

/// Sets up `opts.setup_reps` times or more (see [`SETUP_REPS`]) and
/// returns the median set-up wall time in seconds with the last
/// set-up's result; `discard` receives every earlier result, untimed.
///
/// # Errors
///
/// The first set-up error.
pub fn set_up<T>(
    opts: &Options,
    mut once: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(f64, T), String> {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let value = once()?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= opts.setup_reps && start.elapsed() >= opts.setup_budget;
        if enough || times.len() >= SETUP_MAX {
            return Ok((stats::median(&times), value));
        }
        discard(value);
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes a traced run's spans as a Chrome trace: to `--chrome`, or
/// beside this crate under `out/`.
pub fn write_chrome_trace(opts: &Options, log: &SpanLog, report: &mut Report) {
    let path = opts.chrome.clone().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.json", opts.workload, opts.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(log.spans())));
    match written {
        Ok(()) => eprintln!("chrome trace: {}", path.display()),
        Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_arguments_parse() {
        let o = parse(&[
            "--workload",
            "scale",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(o.workload, "scale");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, Duration::from_secs(10));
        assert!(o.trace);
        assert_eq!(o.setup_reps, SETUP_REPS);
        let smoke = parse(&["--smoke", "--workload", "corpus"]).expect("valid");
        assert_eq!(smoke.seconds, Duration::from_secs_f64(SMOKE_SECONDS));
        assert_eq!(smoke.seed, 1);
        assert!(!smoke.trace);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for args in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "corpus", "--trace", "2"],
            &["--workload", "corpus", "--seconds", "0"],
            &["--workload", "corpus", "--bogus", "1"],
            &["--workload"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }
}

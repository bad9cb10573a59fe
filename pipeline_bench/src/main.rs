//! `pipeline_bench --workload W [--seed S] [--seconds N] [--trace 0|1]`
//!
//! Prints every metric as `workload metric value unit`, then, as the last
//! line, a JSON object with `correct`, `attempted`, `failed` and the
//! workload's `metrics` (the end-to-end set, or the per-layer set with
//! `--trace 1`). Exits 1 when any output is wrong, 2 on a usage error.

use pipeline_bench::report::{append_point, END_TO_END, PER_LAYER};
use pipeline_bench::{run, Options, USAGE};

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&opts);
    print!("{}", report.text());
    for problem in &report.problems {
        eprintln!("FAIL {problem}");
    }
    let result = report.result_json(if opts.trace { &PER_LAYER } else { &END_TO_END });
    if let Some(path) = &opts.append {
        let unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let point = format!(
            "{{\"unix_s\":{unix_s},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"result\":{result}}}",
            opts.workload,
            opts.seed,
            opts.seconds.as_secs_f64(),
            opts.trace
        );
        if let Err(e) = append_point(path, &point) {
            eprintln!("error: cannot append to {}: {e}", path.display());
        }
    }
    println!("{result}");
    std::process::exit(if report.correct() { 0 } else { 1 });
}

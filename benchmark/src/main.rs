//! Command line of the benchmark.
//!
//! ```text
//! baton-benchmark --workload <query|churn|serve_mixed> --seed <n> --seconds <n> --trace <0|1>
//! baton-benchmark --compare <result.json> <result.json>
//! ```
//!
//! A run prints a summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced).  It also writes
//! `.bench_out/<workload>-seed<n>-trace<t>.json` (every metric plus the host
//! fingerprint) and, traced, `.bench_out/trace-<workload>-seed<n>.jsonl`.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use baton_benchmark::common::RunConfig;
use baton_benchmark::report::{self, Fingerprint};
use baton_benchmark::{run_workload, WORKLOADS};

const USAGE: &str = "usage: baton-benchmark --workload <query|churn|serve_mixed> --seed <n> \
                     --seconds <n> --trace <0|1>\n       baton-benchmark --compare <a.json> <b.json>";

/// Output directory, relative to the working directory (the checkout root).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn compare(a: &str, b: &str) -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::parse_result_file(&text).map_err(|e| format!("{path}: {e}")))
    };
    print!("{}", report::compare(&read(a)?, &read(b)?));
    Ok(())
}

fn write_outputs(args: &Args, text: &str, outcome: &report::Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(Path::new(OUT_DIR).join(name), text)?;
    if let Some(trace) = &outcome.trace {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        trace.write_jsonl(&mut file, &args.workload, args.seed)?;
        file.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => compare(a, b).map_or_else(
                |e| {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                },
                |()| ExitCode::SUCCESS,
            ),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        inject_wrong_answer: false,
    };
    let outcome = run_workload(&args.workload, &cfg).expect("workload name was checked");
    let fingerprint = Fingerprint::current();
    eprintln!(
        "{} seed {} ({}): host nproc={} cpu={:?} {} commit {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        fingerprint.nproc,
        fingerprint.cpu,
        fingerprint.rustc,
        fingerprint.commit
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for (name, value) in &outcome.metrics {
        eprintln!("  {name:<40} {value}");
    }
    let file = report::result_file(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &fingerprint,
        &outcome,
    );
    if let Err(e) = write_outputs(&args, &file, &outcome) {
        eprintln!("cannot write results under {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

//! Wall-clock perf harness: times the simulator's hot paths and writes the
//! machine-readable `BENCH_perf.json` report.
//!
//! ```text
//! perf [--profile full|smoke] [--overlays NAME[,NAME...]] [--threads N]
//!      [--out PATH] [--check PATH]
//! ```
//!
//! * `--profile full` (default): paper scale — a 10,000-node BATON build,
//!   1000 exact-match (fig8d) and 1000 range (fig8e) queries, 100,000
//!   Zipf(1.0) inserts with load balancing and as many deletes
//!   (`insert_zipf`, `delete`), the
//!   `latency_under_churn` and `regional_failure` scenarios at N = 1000,
//!   plus the million-node `scale_build`/`mem_scale` rows, the
//!   single- vs multi-threaded `scale_churn_t*` comparison at N = 100,000,
//!   the `avail_k1`..`avail_k3` availability-under-replication rows
//!   (`regional_failure` at N = 10,000, replication degrees 1–3), and the
//!   serve rows (`serve_snapshot_build`, `serve_exact_t{1,2,4}`,
//!   `serve_range_t1`, `serve_snapshot_staleness`: the lock-free snapshot
//!   read path; see the `serve-bench` binary for the standalone driver)
//!   and the export cost of a 100,000-peer snapshot
//!   (`serve_snapshot_build_100k`).
//! * `--profile smoke`: a reduced run for CI (seconds), including reduced
//!   scale rows.
//! * `--out PATH`: where to write the JSON report (default
//!   `BENCH_perf.json` in the current directory).
//! * `--overlays NAME[,NAME...]`: time only the named overlays
//!   (case-insensitive series names, e.g. `--overlays D3-Tree`); the
//!   scenario measurement is narrowed to the same list.
//! * `--threads N`: worker threads the scenario engine fans repetitions
//!   across (default: available parallelism).  The `scale_churn_t*` rows
//!   pin their own thread counts and are unaffected.
//! * `--check PATH`: validate an existing report against the
//!   `baton-perf/7` schema instead of running measurements (exit code 1 on
//!   schema violations) — the CI gate for the uploaded artifact.
//!
//! After the timed rows the harness fills the `"observability"` section.
//! It traces the fig8d exact-match workload through the route recorder:
//! mean hops per query split by link kind (BATON across the cost-curve
//! sizes, each baseline at the main build size).  Then it turns the
//! profiler on for one untimed bulk-built BATON `latency_under_churn`
//! repetition at the `scale_churn_t*` size and reports the per-stage
//! scopes (calls and total wall time).

use std::process::ExitCode;

use baton_bench::perf::{
    profile_scopes, render_json, route_anatomy, run, validate_json, PerfProfile,
};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut profile = PerfProfile::full();
    let mut out_path = String::from("BENCH_perf.json");
    let mut check_path: Option<String> = None;
    let mut overlays: Vec<String> = Vec::new();
    let mut threads = baton_net::default_threads();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--overlays" => match args.next() {
                Some(list) => overlays.extend(
                    list.split(',')
                        .map(|name| name.trim().to_owned())
                        .filter(|name| !name.is_empty()),
                ),
                None => {
                    eprintln!("--overlays needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => {
                let Some(name) = args.next() else {
                    eprintln!("--profile needs a value (full|smoke)");
                    return ExitCode::FAILURE;
                };
                match PerfProfile::by_name(&name) {
                    Some(p) => profile = p,
                    None => {
                        eprintln!("unknown profile {name:?} (expected full|smoke)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match args.next() {
                Some(path) => check_path = Some(path),
                None => {
                    eprintln!("--check needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match baton_sim::parse_threads(args.next()) {
                Ok(n) => threads = n,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: perf [--profile full|smoke] [--overlays NAME[,NAME...]] \
                     [--threads N (default: available parallelism)] \
                     [--out PATH] [--check PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("cannot read {path}: {error}");
                return ExitCode::FAILURE;
            }
        };
        return match validate_json(&text) {
            Ok(count) => {
                println!("{path}: valid baton-perf/7 report with {count} measurement(s)");
                ExitCode::SUCCESS
            }
            Err(problem) => {
                eprintln!("{path}: invalid report: {problem}");
                ExitCode::FAILURE
            }
        };
    }

    // One selection channel: the process-wide filter narrows both the
    // per-overlay timing groups and the scenario's overlay list.
    if let Err(msg) = baton_sim::set_overlay_filter(&overlays) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    for name in &overlays {
        if !baton_bench::perf::TIMED_OVERLAYS
            .iter()
            .any(|t| t.eq_ignore_ascii_case(name))
        {
            eprintln!(
                "perf: note: {name} has no build/query timing group (only {:?} do); \
                 it is timed inside the scenario measurement only",
                baton_bench::perf::TIMED_OVERLAYS
            );
        }
    }

    baton_net::set_threads(threads);
    eprintln!("perf: profile {}, {threads} worker thread(s)", profile.name);
    let measurements = run(&profile);
    for m in &measurements {
        eprintln!(
            "  {:<20} {:>12.1} ms   {:>12.1} {}/s   ({})",
            m.id, m.wall_ms, m.per_second, m.unit, m.detail
        );
    }
    let anatomy = route_anatomy(&profile);
    for row in &anatomy {
        let kinds: Vec<String> = row
            .by_kind
            .iter()
            .map(|(kind, mean)| format!("{kind} {mean:.2}"))
            .collect();
        eprintln!(
            "  {:<20} {:>12} ops   {:>8.2} hops/op   ({})",
            row.id,
            row.ops,
            row.mean_hops,
            kinds.join(", ")
        );
    }
    let scopes = profile_scopes(&profile);
    for (name, count, total_ns) in &scopes {
        eprintln!(
            "  {name:<24} {count:>10} calls {:>12.1} ms",
            *total_ns as f64 / 1e6
        );
    }
    let rendered = render_json(&profile, &measurements, &anatomy, &scopes);
    if let Err(error) = std::fs::write(&out_path, &rendered) {
        eprintln!("cannot write {out_path}: {error}");
        return ExitCode::FAILURE;
    }
    eprintln!("perf: wrote {out_path}");
    ExitCode::SUCCESS
}

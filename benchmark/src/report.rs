//! Metric names, the result line, result files with a host fingerprint, and
//! the comparison of two result files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use baton_net::LinkKind;

use crate::trace::Trace;
use crate::wrapper::Class;

/// End-to-end metrics `(name, unit)`: reported on every workload by an
/// untraced run.  Must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Link kinds BATON's route recorder and snapshot tag.
pub const BATON_LINKS: [LinkKind; 6] = [
    LinkKind::Parent,
    LinkKind::Child,
    LinkKind::Adjacent,
    LinkKind::RoutingTable,
    LinkKind::Notify,
    LinkKind::Other,
];

/// Per-layer metrics `(name, unit)`, reported by a traced run.  A metric of
/// a layer the workload does not use reads 0.  Must match `BENCHMARK.json`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &'static str)> = vec![
        ("baton-sim.build_s".into(), "s"),
        ("baton-sim.load_s".into(), "s"),
        ("baton-workload.gen_s".into(), "s"),
    ];
    for class in Class::ALL {
        let c = class.name();
        list.push((format!("baton-core.{c}.calls"), "count"));
        list.push((format!("baton-core.{c}.busy_s"), "s"));
        list.push((format!("baton-core.{c}.p99_us"), "us"));
        list.push((format!("baton-core.{c}.msgs_per_op"), "msgs"));
    }
    for (name, unit) in [
        ("baton-core.range.nodes_per_op", "nodes"),
        ("baton-core.insert.balance_msgs_per_op", "msgs"),
        ("baton-core.other.busy_s", "s"),
        ("baton-core.state_bytes_per_peer", "B"),
        ("baton-core.serve_commit_us", "us"),
        ("baton-net.messages", "count"),
        ("baton-net.failed_deliveries", "count"),
        ("baton-net.ns_per_msg", "ns"),
        ("baton-net.sim_search_p50_ms", "ms"),
        ("baton-net.sim_search_p99_ms", "ms"),
    ] {
        list.push((name.into(), unit));
    }
    for kind in BATON_LINKS {
        list.push((format!("baton-net.hops.{}", kind.name()), "hops/op"));
    }
    list.push(("baton-workload.openloop.self_s".into(), "s"));
    for (name, unit) in [
        ("baton-net.serve.export_ms", "ms"),
        ("baton-net.serve.publish_us", "us"),
        ("baton-net.serve.refresh_ns", "ns"),
        ("baton-net.serve.refreshes", "count"),
        ("baton-net.serve.exact_ns", "ns"),
        ("baton-net.serve.range_ns", "ns"),
        ("baton-net.serve.hops_per_query", "hops"),
        ("baton-net.serve.slots_per_range", "slots"),
        ("baton-net.serve.failover", "count"),
        ("baton-net.serve.unavailable", "count"),
        ("baton-net.serve.snapshot_mb", "MB"),
    ] {
        list.push((name.into(), unit));
    }
    for kind in BATON_LINKS {
        list.push((
            format!("baton-net.serve.hops.{}", kind.name()),
            "hops/query",
        ));
    }
    for (name, unit) in [
        ("bench.self_s", "s"),
        ("bench.trace_overhead", "frac"),
        ("bench.attributed_frac", "frac"),
        ("read_batch_p50_us", "us"),
        ("publish_per_s", "1/s"),
        ("staleness_p50_ms", "ms"),
        ("failed_frac", "frac"),
    ] {
        list.push((name.into(), unit));
    }
    list
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose answer or effect the oracles rejected, plus failed
    /// run-level checks (one each).
    pub failed: u64,
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines for the summary.
    pub notes: Vec<String>,
    /// Spans of the traced phase (traced runs only).
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A metric's value (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// `true` when every oracle and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Formats a number for JSON: every digit Rust's shortest round-trip form
/// gives, and 0 for a non-finite value.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// The result line: end-to-end metrics for an untraced run, per-layer
/// metrics for a traced one.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let list: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(outcome.get(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Where and on what a result was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: String,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory's repository, with
    /// `-dirty` appended when `git status --porcelain` lists changes, or
    /// `unknown` when it is not one.
    pub commit: String,
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

impl Fingerprint {
    /// The fingerprint of this host, toolchain and checkout.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
            cpu,
            rustc: command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
            // Only the working directory's own repository counts: a checkout
            // that is not a git repository must not report an enclosing one.
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| command_output("git", &["rev-parse", "HEAD"]))
                .flatten()
                .map_or_else(
                    || "unknown".to_owned(),
                    |head| match command_output("git", &["status", "--porcelain"]) {
                        Some(_) => format!("{head}-dirty"),
                        None => head,
                    },
                ),
        }
    }

    fn fields(&self) -> [(&'static str, &str); 4] {
        [
            ("host.nproc", &self.nproc),
            ("host.cpu", &self.cpu),
            ("host.rustc", &self.rustc),
            ("host.commit", &self.commit),
        ]
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A result file: one flat JSON object holding the run's settings, the
/// fingerprint, the verdict and every measured metric as `metric.<name>`.
pub fn result_file(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    fingerprint: &Fingerprint,
    outcome: &Outcome,
) -> String {
    let mut fields = vec![
        ("workload".to_owned(), json_string(workload)),
        ("seed".to_owned(), seed.to_string()),
        ("seconds".to_owned(), seconds.to_string()),
        ("trace".to_owned(), u8::from(traced).to_string()),
    ];
    for (key, value) in fingerprint.fields() {
        fields.push((key.to_owned(), json_string(value)));
    }
    fields.push(("correct".to_owned(), outcome.correct().to_string()));
    fields.push(("attempted".to_owned(), outcome.attempted.to_string()));
    fields.push(("failed".to_owned(), outcome.failed.to_string()));
    for (name, value) in &outcome.metrics {
        fields.push((format!("metric.{name}"), number(*value)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  {}: {value}", json_string(key)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// A parsed flat result file: string fields and number fields.
#[derive(Debug, Default, PartialEq)]
pub struct ResultFile {
    /// String-valued fields.
    pub strings: BTreeMap<String, String>,
    /// Number-valued fields.
    pub numbers: BTreeMap<String, f64>,
}

/// Parses a flat JSON object of strings, numbers and booleans (the shape
/// [`result_file`] writes).
pub fn parse_result_file(text: &str) -> Result<ResultFile, String> {
    let mut chars = text.trim().chars().peekable();
    let mut out = ResultFile::default();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let string = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected a string".into());
        }
        let mut s = String::new();
        loop {
            match chars.next().ok_or("unterminated string")? {
                '"' => return Ok(s),
                '\\' => match chars.next().ok_or("unterminated escape")? {
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                        s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                    }
                    'n' => s.push('\n'),
                    't' => s.push('\t'),
                    c => s.push(c),
                },
                c => s.push(c),
            }
        }
    };
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let key = string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after {key}"));
        }
        skip_ws(&mut chars);
        if chars.peek() == Some(&'"') {
            out.strings.insert(key, string(&mut chars)?);
        } else {
            let raw: String =
                std::iter::from_fn(|| chars.next_if(|c| !matches!(c, ',' | '}'))).collect();
            let raw = raw.trim();
            let value = match raw {
                "true" => 1.0,
                "false" => 0.0,
                _ => raw
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {key}: {raw}"))?,
            };
            out.numbers.insert(key, value);
        }
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    Ok(out)
}

/// Compares two result files: names the two commits, warns when their
/// host, toolchain or workload differ, then lists every metric both hold
/// with the ratio `b / a`.
pub fn compare(a: &ResultFile, b: &ResultFile) -> String {
    let mut out = String::new();
    fn field<'a>(file: &'a ResultFile, key: &str) -> &'a str {
        file.strings.get(key).map_or("-", String::as_str)
    }
    let _ = writeln!(
        out,
        "commits: {} vs {}",
        field(a, "host.commit"),
        field(b, "host.commit")
    );
    for key in ["host.nproc", "host.cpu", "host.rustc", "workload"] {
        let (x, y) = (field(a, key), field(b, key));
        if x != y {
            let _ = writeln!(
                out,
                "warning: {key} differs ({x} vs {y}); the results are not comparable"
            );
        }
    }
    for (key, &x) in &a.numbers {
        if let (Some(name), Some(&y)) = (key.strip_prefix("metric."), b.numbers.get(key)) {
            let ratio = if x == 0.0 { f64::NAN } else { y / x };
            let _ = writeln!(out, "{name:<40} {x:>16.6} {y:>16.6} {ratio:>9.4}x");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark")
    }

    /// The `(name, unit)` pairs of one list in BENCHMARK.json.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start
            ..json[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list ends")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                    entry[at..at + entry[at..].find('"').expect("quote")].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layers);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.set("ops_per_s", 1234.5678);
        let line = result_line(&outcome, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = result_line(&outcome, true);
        assert_eq!(traced.matches("\"unit\"").count(), per_layer().len());
        outcome.failed = 1;
        assert!(result_line(&outcome, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn result_files_round_trip_and_comparisons_warn_across_hosts() {
        let mut outcome = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        outcome.set("ops_per_s", 100.0);
        let host = Fingerprint {
            nproc: "2".into(),
            cpu: "Some \"CPU\" \\ model".into(),
            rustc: "rustc 1.0".into(),
            commit: "abc".into(),
        };
        let a = parse_result_file(&result_file("query", 1, 10, false, &host, &outcome)).unwrap();
        assert_eq!(a.strings["host.cpu"], host.cpu);
        assert_eq!(a.numbers["metric.ops_per_s"], 100.0);
        assert_eq!(a.numbers["correct"], 1.0);
        assert!(!compare(&a, &a).contains("warning"));
        let newer = Fingerprint {
            commit: "def-dirty".into(),
            ..host.clone()
        };
        let b = parse_result_file(&result_file("query", 1, 10, false, &newer, &outcome)).unwrap();
        let report = compare(&a, &b);
        assert!(report.contains("commits: abc vs def-dirty"));
        assert!(!report.contains("warning"), "{report}");
        let other = Fingerprint {
            nproc: "4".into(),
            ..host
        };
        outcome.set("ops_per_s", 150.0);
        let b = parse_result_file(&result_file("query", 1, 10, false, &other, &outcome)).unwrap();
        let report = compare(&a, &b);
        assert!(report.contains("warning: host.nproc differs (2 vs 4)"));
        assert!(report.contains("1.5000x"));
        assert!(parse_result_file("{\"a\": }").is_err());
    }
}

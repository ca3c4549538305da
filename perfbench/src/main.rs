//! End-to-end provenance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sync_dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one seeded workload against the public `inspector-runtime` API,
//! checks its outputs and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). The
//! workloads, metrics and layers are described in `perfbench/README.md`.

mod rng;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use inspector_runtime::ExecutionMode;

use runner::{Outcome, Plan};
use workloads::{BranchScan, Size, SpillLive, SyncDense, Workload};

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[SyncDense::NAME, BranchScan::NAME, SpillLive::NAME];

struct Args {
    workload: String,
    plan: Plan,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        corrupt_output: false,
        out_dir: out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => plan.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => plan.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                plan.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, plan })
}

/// Spill directories and span files: inside the benchmark's directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs `workload` and returns its outcome and resolved tracked-run config.
pub fn run_workload(workload: &str, plan: &Plan) -> (Outcome, String) {
    fn go<W: Workload>(plan: &Plan) -> (Outcome, String) {
        (
            runner::run::<W>(plan),
            format!("{:?}", W::config(ExecutionMode::Inspector)),
        )
    }
    match workload {
        SyncDense::NAME => go::<SyncDense>(plan),
        BranchScan::NAME => go::<BranchScan>(plan),
        SpillLive::NAME => go::<SpillLive>(plan),
        other => panic!("unknown workload {other}"),
    }
}

/// The result line: one JSON object.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The commit measured, read from the `.git` directory beside the
/// benchmark ("unknown" when there is none, e.g. in an exported tree). No
/// `git` process is started: it would read configuration and look for a
/// repository outside the checkout.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(git.join(name))
        .map(|hash| hash.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|line| {
                let (hash, r) = line.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = &args.plan;
    let (outcome, config) = run_workload(&args.workload, plan);
    println!(
        "# workload {} seed {} seconds {} trace {} commit {} available_parallelism {} app_threads {}",
        args.workload,
        plan.seed,
        plan.seconds,
        plan.trace as u8,
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        runner::app_threads()
    );
    println!("# config {config}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `section` of `BENCHMARK.json` lists.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &text[start..];
        let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
        let field = |s: &str, key: &str| -> Option<(String, usize)> {
            let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let len = s[at..].find('"')?;
            Some((s[at..at + len].to_string(), at + len))
        };
        let mut out = Vec::new();
        let mut s = &rest[..end];
        while let Some((name, after)) = field(s, "name") {
            let (unit, after_unit) = field(&s[after..], "unit").expect("every metric has a unit");
            out.push((name, unit));
            s = &s[after + after_unit..];
        }
        out
    }

    fn plan(name: &str, seed: u64, trace: bool) -> Plan {
        Plan {
            seed,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
            corrupt_output: false,
            out_dir: out_dir().join(format!("test-{name}-{seed}-{}", trace as u8)),
        }
    }

    fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
        outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn run_tiny(workload: &str, plan: &Plan) -> Outcome {
        let (outcome, _) = run_workload(workload, plan);
        let _ = std::fs::remove_dir_all(&plan.out_dir);
        outcome
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        let e2e = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert_eq!(e2e.len(), 9);
        assert_eq!(per_layer.len(), 51);
        for &w in WORKLOADS {
            for (trace, want) in [(false, &e2e), (true, &per_layer)] {
                let outcome = run_tiny(w, &plan(w, 1, trace));
                assert_eq!(&emitted(&outcome), want, "{w} trace={trace}");
                assert!(outcome.correct, "{w}: {:?}", outcome.notes);
                assert!(outcome.attempted > 0);
                // A zero-second budget takes far fewer than 100 snapshots
                // and queries: each thin p90 is a failed operation.
                if !trace {
                    assert!(outcome.failed >= 2, "{w}: {} failed", outcome.failed);
                }
                let line = result_json(&outcome);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                assert!(!line.contains('\n') && !line.contains("NaN") && !line.contains("inf"));
            }
        }
    }

    #[test]
    fn another_seed_changes_the_inputs_but_not_the_metrics() {
        use workloads::Workload;
        assert_ne!(
            SyncDense::generate(1, Size::Tiny),
            SyncDense::generate(2, Size::Tiny)
        );
        assert_ne!(
            BranchScan::generate(1, Size::Tiny),
            BranchScan::generate(2, Size::Tiny)
        );
        assert_ne!(
            SpillLive::generate(1, Size::Tiny).placement,
            SpillLive::generate(2, Size::Tiny).placement
        );
        for &w in WORKLOADS {
            let a = run_tiny(w, &plan(w, 3, false));
            let b = run_tiny(w, &plan(w, 4, false));
            assert_eq!(emitted(&a), emitted(&b), "{w}");
            assert!(a.correct && b.correct, "{w}");
        }
    }

    #[test]
    fn a_broken_output_raises_the_error_rate() {
        for &w in WORKLOADS {
            let healthy = run_tiny(w, &plan(w, 5, false));
            let mut broken = plan(w, 5, false);
            broken.corrupt_output = true;
            broken.out_dir = broken.out_dir.with_extension("broken");
            let broken = run_tiny(w, &broken);
            assert!(!broken.correct, "{w}: a corrupted result must be caught");
            // Every tracked run's result was corrupted, so at least the
            // warm-up and three measured tracked runs failed.
            assert!(
                broken.failed >= healthy.failed + 4,
                "{w}: {} failed vs {} healthy",
                broken.failed,
                healthy.failed
            );
        }
    }

    #[test]
    fn arguments_are_parsed_and_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse(&args(
            "--workload spill_live --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "spill_live");
        assert_eq!((a.plan.seed, a.plan.seconds, a.plan.trace), (9, 2.5, true));
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--workload sync_dense --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }
}

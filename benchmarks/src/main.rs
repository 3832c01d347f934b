//! Standalone benchmark for tepdb: four workloads, seven end-to-end metrics,
//! and a per-layer table measured from outside. See README.md.
//!
//! ```text
//! tep-benchmarks --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the driver's form)
//! tep-benchmarks run <workload> [--trace] [--seed n] [--seconds s]
//! tep-benchmarks all [--seed n] [--seconds s]
//! tep-benchmarks selfcheck
//! ```

mod audit;
mod fetch;
mod gen;
mod harness;
mod host;
mod ingest;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Opts, Outcome};
use workload::{MetricDef, Workload, END_TO_END, PER_LAYER};

const DEFAULT_SEED: u64 = 2009;
/// `run_seconds` of BENCHMARK.json; `all` and `run` use it when not told.
const DEFAULT_SECONDS: f64 = 15.0;
const WORKLOADS: [&str; 4] = [
    ingest::Ingest::NAME,
    fetch::Fetch::<true>::NAME,
    fetch::Fetch::<false>::NAME,
    audit::Audit::NAME,
];

const USAGE: &str = "usage: tep-benchmarks --workload <name> --seed <n> --seconds <s> --trace <0|1>
       tep-benchmarks run <workload> [--trace] [--seed <n>] [--seconds <s>]
       tep-benchmarks all [--seed <n>] [--seconds <s>]
       tep-benchmarks selfcheck
workloads: ingest_mixed fetch_deep fetch_small audit_live";

fn run_named(name: &str, o: &Opts) -> Result<Outcome, String> {
    match WORKLOADS.iter().position(|w| *w == name) {
        Some(0) => harness::run::<ingest::Ingest>(o),
        Some(1) => harness::run::<fetch::Fetch<true>>(o),
        Some(2) => harness::run::<fetch::Fetch<false>>(o),
        Some(3) => harness::run::<audit::Audit>(o),
        _ => Err(format!("unknown workload `{name}`\n{USAGE}")),
    }
}

/// The benchmark's own directory: scratch files and span dumps stay inside
/// the checkout the binary was built from.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = bench_dir()
            .join("out")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: "run".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            a.command = it.next().expect("peeked").clone();
            if a.command == "run" {
                a.workload = it.next().cloned();
            }
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn opts(a: &Args, trace: bool, shrink: usize, scratch: &Scratch) -> Opts {
    Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace,
        shrink,
        dir: scratch.0.clone(),
        out: bench_dir().join("out"),
    }
}

/// One workload, one mode; the last line printed is the driver's JSON.
fn run_one(a: &Args) -> Result<bool, String> {
    let name = a
        .workload
        .as_deref()
        .ok_or_else(|| format!("no workload named\n{USAGE}"))?;
    let scratch = Scratch::new()?;
    let outcome = run_named(name, &opts(a, a.trace, 1, &scratch))?;
    println!("{}", outcome.json());
    Ok(outcome.correct && outcome.failed == 0)
}

/// Every workload, timed then traced.
fn run_all(a: &Args) -> Result<bool, String> {
    let scratch = Scratch::new()?;
    let mut ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_named(name, &opts(a, trace, 1, &scratch))?;
            println!("{}\n", outcome.json());
            ok &= outcome.correct && outcome.failed == 0;
        }
    }
    Ok(ok)
}

/// Names in one array-valued section of BENCHMARK.json, with their units
/// where the entries carry one. The file is flat enough that a bracket
/// scan is all the parsing it needs.
fn section(json: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    let at = json
        .find(&format!("\"{key}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}`"))?;
    let open = at + json[at..].find('[').ok_or("malformed BENCHMARK.json")?;
    let close = open + json[open..].find(']').ok_or("malformed BENCHMARK.json")?;
    let field = |entry: &str, name: &str| -> Option<String> {
        let at = entry.find(&format!("\"{name}\""))?;
        let rest = &entry[at + name.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    Ok(json[open..close]
        .split('{')
        .skip(1)
        .filter_map(|e| Some((field(e, "name")?, field(e, "unit").unwrap_or_default())))
        .collect())
}

fn same_defs(what: &str, listed: &[(String, String)], defs: &[MetricDef]) -> Result<(), String> {
    let ours: Vec<(String, String)> = defs
        .iter()
        .map(|d| (d.0.to_string(), d.1.to_string()))
        .collect();
    if listed == ours.as_slice() {
        return Ok(());
    }
    let only = |a: &[(String, String)], b: &[(String, String)]| -> Vec<String> {
        a.iter()
            .filter(|x| !b.contains(x))
            .map(|(n, u)| format!("{n} [{u}]"))
            .collect()
    };
    Err(format!(
        "BENCHMARK.json `{what}` and the binary disagree (or list in another order):\n  \
         only in the json:   {:?}\n  only in the binary: {:?}",
        only(listed, &ours),
        only(&ours, listed)
    ))
}

/// All four workloads at a fraction of their size, both modes: every named
/// metric present, finite and carrying its unit, and BENCHMARK.json naming
/// exactly what the binary emits.
fn selfcheck() -> Result<bool, String> {
    let manifest = bench_dir().join("..").join("BENCHMARK.json");
    let json = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let listed: Vec<String> = section(&json, "workloads")?
        .into_iter()
        .map(|w| w.0)
        .collect();
    if listed != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {listed:?} != binary {WORKLOADS:?}"
        ));
    }
    same_defs("end_to_end", &section(&json, "end_to_end")?, END_TO_END)?;
    same_defs("per_layer", &section(&json, "per_layer")?, PER_LAYER)?;

    let a = Args {
        command: "selfcheck".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS / 20.0,
        trace: false,
    };
    let scratch = Scratch::new()?;
    let mut ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_named(name, &opts(&a, trace, 8, &scratch))?;
            let line = outcome.json();
            for (metric, unit, _) in outcome.defs {
                let v = outcome.metrics.get(metric);
                let shown = format!("\"{metric}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
                if !v.is_finite() || !line.contains(&shown) {
                    println!("selfcheck: {name} trace={trace}: `{metric}` missing or not finite");
                    ok = false;
                }
            }
            if !trace {
                for (metric, _, _) in END_TO_END {
                    if outcome.metrics.get(metric) <= 0.0 {
                        println!("selfcheck: {name}: end-to-end `{metric}` is not positive");
                        ok = false;
                    }
                }
            }
            ok &= outcome.correct && outcome.failed == 0;
        }
    }
    println!("selfcheck: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|a| match a.command.as_str() {
        "run" => run_one(&a),
        "all" => run_all(&a),
        "selfcheck" => selfcheck(),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tep-benchmarks: {e}");
            ExitCode::from(2)
        }
    }
}

//! `perf` — the repo's one benchmark. See `README.md` beside `Cargo.toml`
//! for the glossary of workloads and metrics; `BENCHMARK.json` at the repo
//! root is the machine-readable contract.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! perf suite [--seed N] [--seconds S] [--quick] [--out FILE]
//! perf compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process (so CPU time, peak RSS
//! and allocation counts are per workload) and prints one line per metric
//! `workload metric value unit`, then one JSON object as the last line.
//! `suite` re-executes the binary once per workload and trace mode and
//! collects the results in one file; `compare` judges two such files.

mod compare;
mod host;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use hwsim::json::Json;
use metrics::Values;
use spans::Tracer;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{warm_profile_cache, Env, Pass, Scale, Workload};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// Timed set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Shares of `--seconds` a traced run gives its untraced reference passes,
/// its traced passes, and each of the fourteen layer probes.
const REFERENCE_SHARE: f64 = 0.4;
const TRACED_SHARE: f64 = 0.4;
const PROBE_SHARE: f64 = 0.01;
/// Everything the benchmark writes goes under here, relative to the
/// directory it is run from.
const OUT_DIR: &str = "results/perf";
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 30.0;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("suite") => suite_command(&args[1..]),
        _ => parse_run(&args).and_then(|a| run_workload(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

/// A parsed command line: `--flag value` pairs, `--quick`, and bare words.
struct Cli {
    flags: HashMap<String, String>,
    quick: bool,
    words: Vec<String>,
}

impl Cli {
    /// Every flag in `valued` takes one value; anything else starting with
    /// `--` is an error.
    fn parse(args: &[String], valued: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli { flags: HashMap::new(), quick: false, words: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--quick" {
                cli.quick = true;
            } else if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                cli.flags.insert(arg.clone(), value.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                cli.words.push(arg.clone());
            }
        }
        Ok(cli)
    }

    /// The value of `flag` through `parse`, or `default` when absent.
    fn value<T>(
        &self,
        flag: &str,
        default: T,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => parse(v).ok_or(format!("bad value `{v}` for {flag}")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        self.value("--seed", DEFAULT_SEED, |v| v.parse().ok())
    }

    fn seconds(&self) -> Result<f64, String> {
        self.value("--seconds", DEFAULT_SECONDS, |v| {
            v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)
        })
    }

    fn no_words(&self) -> Result<(), String> {
        self.words.first().map_or(Ok(()), |w| Err(format!("unexpected argument `{w}`")))
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let cli = Cli::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    cli.no_words()?;
    let name =
        cli.flags.get("--workload").ok_or("--workload NAME is required (or use `perf suite`)")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let trace = cli.value("--trace", false, |v| match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    })?;
    Ok(RunArgs { workload, seed: cli.seed()?, seconds: cli.seconds()?, trace, quick: cli.quick })
}

/// Call `f` until the next call would overrun `budget` (always at least
/// once; exactly once when `single`).
fn repeat_within<T>(budget: Duration, single: bool, mut f: impl FnMut() -> T) -> Vec<T> {
    let began = Instant::now();
    let mut out = Vec::new();
    loop {
        let call_began = Instant::now();
        out.push(f());
        if single || began.elapsed() + call_began.elapsed() > budget {
            return out;
        }
    }
}

/// Run one workload as the driver's contract asks; `Ok(correct)`.
fn run_workload(args: &RunArgs) -> Result<bool, String> {
    let workload = args.workload;
    let name = workload.name();
    let scale = if args.quick { Scale::Quick } else { Scale::Full };
    let work_dir = PathBuf::from(OUT_DIR).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let mut errors: Vec<String> = Vec::new();

    // Set-up, repeated from a cold profile cache: device profiling, every
    // construction a pass needs, and a quick pass to fill caches.
    let mut setups = Vec::new();
    let mut env = None;
    for rep in 0..SETUP_REPS {
        let began = Instant::now();
        let cold = Env::new(args.seed, work_dir.join(format!("cache{rep}")));
        warm_profile_cache(&cold.node, &cold.cache_dir);
        errors.extend(workload.pass(&cold, Scale::Quick, None).errors);
        setups.push(began.elapsed().as_secs_f64());
        env = Some(cold);
    }
    let env = env.expect("at least one set-up repetition");

    let budget = Duration::from_secs_f64(args.seconds);
    let reference = if args.trace { budget.mul_f64(REFERENCE_SHARE) } else { budget };
    let untraced = repeat_within(reference, args.quick, || workload.pass(&env, scale, None));
    let mut passes: Vec<&Pass> = untraced.iter().collect();

    let traced: Vec<metrics::TracedPass>;
    let (catalogue, values, note): (&[(&str, &str)], Values, String) = if args.trace {
        let tracer = Arc::new(Tracer::new());
        traced = repeat_within(budget.mul_f64(TRACED_SHARE), args.quick, || {
            let pass = workload.pass(&env, scale, Some(&tracer));
            metrics::TracedPass::new(pass, &tracer.take())
        });
        passes.extend(traced.iter().map(|t| &t.pass));
        let probe_length =
            if args.quick { Duration::from_millis(10) } else { budget.mul_f64(PROBE_SHARE) };
        let probes = probes::run(&env, probe_length);
        let spans_path = PathBuf::from(OUT_DIR).join(format!("trace-{name}.json"));
        let last = &traced.last().expect("at least one traced pass").spans;
        std::fs::write(&spans_path, spans::spans_json(last).dump())
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        let note = format!(
            "{} untraced + {} traced pass(es); {} spans of the last in {}",
            untraced.len(),
            traced.len(),
            last.len(),
            spans_path.display()
        );
        (metrics::PER_LAYER, metrics::per_layer(&untraced, &traced, &probes)?, note)
    } else {
        let (values, note) = metrics::end_to_end(&setups, &untraced)?;
        (&metrics::END_TO_END, values, note)
    };

    // Output checks: each pass's own, plus an identical virtual timeline in
    // every pass, traced or not.
    let first = passes[0];
    for (i, pass) in passes.iter().enumerate() {
        errors.extend(pass.errors.iter().map(|e| format!("pass {i}: {e}")));
        if !pass.same_virtual_timeline(first) {
            errors.push(format!("pass {i}: virtual timeline differs from pass 0"));
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    if args.quick {
        println!("{name}: --quick run, a twentieth of the work: NOT comparable with full runs");
    }
    println!("{name}: seed {}, {note}", args.seed);
    if matches!(workload, Workload::ServeLight | Workload::ServeMix) {
        println!(
            "{name}: bench.loadgen_lag = 0 in host time (arrivals are due on the virtual clock)"
        );
    }
    let mut members = Vec::new();
    for (metric, unit) in catalogue {
        let value = *values.get(*metric).ok_or(format!("metric {metric} was not computed"))?;
        println!("{name} {metric} {value} {unit}");
        members.push((
            *metric,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(*unit))]),
        ));
    }
    for e in &errors {
        eprintln!("perf: {name}: CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(first.attempted)),
        ("failed", Json::from(first.failed)),
        ("metrics", Json::obj(members)),
    ]);
    println!("{}", line.dump());
    Ok(correct)
}

/// `perf suite`: every workload, untraced then traced, each in a child
/// process; one result file for `perf compare`.
fn suite_command(args: &[String]) -> Result<bool, String> {
    let cli = Cli::parse(args, &["--seed", "--seconds", "--out"])?;
    cli.no_words()?;
    let (seed, seconds, quick) = (cli.seed()?, cli.seconds()?, cli.quick);
    let out = cli.value("--out", PathBuf::from("results/perf.json"), |v| Some(PathBuf::from(v)))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut entry: Vec<(String, Json)> = Vec::new();
        for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name(), "--trace", trace]);
            child.args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
            if quick {
                child.arg("--quick");
            }
            // `output` waits for the child and collects its stdout.
            let output =
                child.output().map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (report, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{report}");
            let result = Json::parse(result.trim())
                .ok_or(format!("{} --trace {trace}: no result line", w.name()))?;
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            all_correct &= correct && output.status.success();
            let metrics =
                hwsim::json::to_map(result.get("metrics").ok_or("result without metrics")?)
                    .ok_or("metrics is not an object")?;
            let values = metrics
                .into_iter()
                .map(|(name, m)| (name, m.get("value").cloned().unwrap_or(Json::Null)));
            entry.push((group.to_string(), Json::obj(values)));
            if trace == "0" {
                for key in ["attempted", "failed"] {
                    entry.push((key.to_string(), result.get(key).cloned().unwrap_or(Json::Null)));
                }
            }
            entry.push((format!("correct_{group}"), Json::Bool(correct)));
        }
        workloads.push((w.name(), Json::obj(entry)));
    }
    let doc = Json::obj([
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("quick", Json::Bool(quick)),
        ("data_plane_workers", Json::from(workloads::DATA_PLANE_WORKERS)),
        (
            "host_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.dump() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

/// `perf compare A.json B.json`: `Ok(true)` when no row is `worse`.
fn compare_command(args: &[String]) -> Result<bool, String> {
    let cli = Cli::parse(args, &["--benchmark"])?;
    let [a, b] = cli.words.as_slice() else {
        return Err("usage: perf compare A.json B.json [--benchmark BENCHMARK.json]".into());
    };
    let benchmark = cli.flags.get("--benchmark").map_or("BENCHMARK.json", String::as_str);
    compare::run(a, b, benchmark).map(|any_worse| !any_worse)
}

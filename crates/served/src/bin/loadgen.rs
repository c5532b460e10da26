//! Seeded load generator for the `served` job service.
//!
//! Submits a deterministic stream of job-spec jobs from N tenants against
//! the MultiCL scheduler (virtual time — runs offline in milliseconds) and
//! writes, under `results/`:
//!
//! * `serve_loadgen_<policy>_seed<seed>.json` — per-tenant throughput,
//!   rejection counts, and p50/p95/p99 job latency,
//! * `serve_loadgen_<policy>_seed<seed>.prom` — the combined service
//!   metrics in Prometheus text exposition,
//! * `serve_events_<policy>_seed<seed>.jsonl` — the job-lifecycle +
//!   scheduler event stream.
//!
//! Arrivals are a pure function of the seed: the same `--seed` under
//! another `--policy` compares the two policies over one fixed workload.
//!
//! Usage:
//! `cargo run -p served --bin loadgen -- --seed 42 --tenants 4 --policy auto_fit`
//! Flags: `--seed N --tenants N --policy auto_fit|round_robin|off --jobs N`
//! `--rate HZ --workers N --capacity N --data-workers N` (data-plane host
//! threads; 0 = all cores, 1 = synchronous — changes wall-clock throughput
//! only, never the virtual timeline or results).

use multicl::telemetry::{self, RingBufferSink};
use served::loadgen::{self, LoadgenConfig};
use served::ServePolicy;
use std::path::PathBuf;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--seed N] [--tenants N] [--policy auto_fit|round_robin|off] \
         [--jobs N] [--rate HZ] [--workers N] [--capacity N] [--data-workers N]\n\
         run `loadgen --help` for flag documentation"
    );
    std::process::exit(2);
}

fn help() -> ! {
    println!(
        "loadgen — seeded load generator for the served job service (virtual time)\n\
         \n\
         usage: loadgen [flags]\n\
         \n\
         flags:\n\
         \x20 --seed N          arrival-process seed (default 42); same seed, same results\n\
         \x20 --tenants N       number of tenants (default 4)\n\
         \x20 --policy P        backend policy: auto_fit | round_robin | off (default auto_fit)\n\
         \x20 --jobs N          total jobs to submit (default 48)\n\
         \x20 --rate HZ         offered (Poisson) arrival rate, virtual jobs/s (default 400)\n\
         \x20 --workers N       scheduler dispatch queues (default 4)\n\
         \x20 --capacity N      per-tenant admission queue bound (default 8)\n\
         \x20 --data-workers N  data-plane host threads executing kernel bodies and\n\
         \x20                   transfers: 0 = one per core (default), 1 = synchronous.\n\
         \x20                   Changes wall-clock throughput only — the virtual timeline,\n\
         \x20                   reports, and event stream are identical for any value\n\
         \n\
         outputs (under results/):\n\
         \x20 serve_loadgen_<policy>_seed<seed>.json   per-tenant report\n\
         \x20 serve_loadgen_<policy>_seed<seed>.prom   Prometheus metrics\n\
         \x20 serve_events_<policy>_seed<seed>.jsonl   job-lifecycle + scheduler events"
    );
    std::process::exit(0);
}

fn parse_config() -> LoadgenConfig {
    let mut cfg = LoadgenConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        let num = |v: Option<&String>| -> u64 {
            v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--help" | "-h" => help(),
            "--seed" => cfg.seed = num(value),
            "--tenants" => cfg.tenants = num(value) as usize,
            "--jobs" => cfg.jobs = num(value) as usize,
            "--workers" => cfg.workers = num(value) as usize,
            "--capacity" => cfg.queue_capacity = num(value) as usize,
            "--data-workers" => cfg.runtime.data_plane_workers = num(value) as usize,
            "--rate" => {
                cfg.rate_hz = value.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--policy" => {
                cfg.policy = value.and_then(|s| ServePolicy::parse(s)).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 2;
    }
    cfg
}

fn write_results(name: &str, contents: &str) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let cfg = parse_config();
    let cache_dir = std::env::temp_dir().join("served-profile-cache");
    let recorder = Arc::new(RingBufferSink::new(1 << 16));
    let (served, _) =
        loadgen::run_with(&cfg, &cache_dir, vec![recorder.clone()]).unwrap_or_else(|e| {
            eprintln!("error: load generation failed: {e}");
            std::process::exit(1);
        });

    let report = loadgen::report_json_with_wall(&served, &cfg);
    println!(
        "{} tenants, {} jobs, policy {}: {} completed / {} rejected in {:.2} virtual ms",
        cfg.tenants,
        cfg.jobs,
        cfg.policy,
        report.get("jobs_completed").and_then(|v| v.as_u64()).unwrap_or(0),
        report.get("jobs_rejected").and_then(|v| v.as_u64()).unwrap_or(0),
        served.now().as_millis_f64(),
    );
    println!(
        "data plane: {} worker(s), {:.0} wall-clock jobs/s",
        served.data_plane_workers(),
        report.get("wall_jobs_per_s").and_then(|v| v.as_f64()).unwrap_or(0.0),
    );
    for i in 0..served.tenant_count() {
        let (p50, p95, p99) = served.metrics().latency_percentiles_ms(i);
        println!(
            "  {}: completed {:>4}  rejected {:>3}  starved {:>3}  p50 {:>8.3}ms  p95 {:>8.3}ms  p99 {:>8.3}ms",
            served.tenant_name(i),
            served.metrics().tenant(i).completed.get(),
            served.metrics().tenant(i).rejected.get(),
            served.starvation_rounds(i),
            p50,
            p95,
            p99,
        );
    }

    let stem = format!("serve_loadgen_{}_seed{}", cfg.policy.label(), cfg.seed);
    write_results(&format!("{stem}.json"), &report.dump());
    write_results(&format!("{stem}.prom"), &served.metrics().registry().to_prometheus());
    let events = telemetry::to_jsonl(&recorder.snapshot());
    write_results(&format!("serve_events_{}_seed{}.jsonl", cfg.policy.label(), cfg.seed), &events);
}

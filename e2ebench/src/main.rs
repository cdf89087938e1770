//! End-to-end benchmark of the rt-TDDFT stack: wall-seconds per simulated
//! femtosecond on fixed laser trajectories, attributed to the layers
//! kernel (`pwnum`) → operator (`pwdft`) → step and run (`ptim`) →
//! distributed (`mpisim`).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <si8_ace_fp64|si8_ace_mixed|dist_ring_p16> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. `--trace 0` prints the end-to-end
//! metrics, measured with tracing off; `--trace 1` is a separate traced
//! run that prints the per-layer metrics and writes a chrome trace (plus
//! per-step or per-rank JSONL) under `target/e2ebench/trace/<workload>/`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Every step's physical invariants
//! are checked; any failure makes the exit code nonzero.
//!
//! Options for the benchmark's own child runs: `--threads <n>` sets the
//! serial engine's kernel threads (default 1; more than nproc is
//! refused),
//! `--setups <n>` the number of ground-state preparations (default 3) and
//! `--repeats <n>` the least number of serial trajectories measured
//! (default 4: each step is timed by its fastest repeat, so a burst of
//! host contention must slow every trajectory at that step to show).

mod check;
mod dist;
mod env;
mod kernel;
mod layers;
mod report;
mod serial;

use pwnum::PrecisionPolicy;
use report::{result_line, Metrics};
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["si8_ace_fp64", "si8_ace_mixed", "dist_ring_p16"];

/// Kernel threads of the serial engine in the end-to-end runs. One, not
/// nproc: on a host of a few shared vCPUs the fork-join kernels are no
/// faster at nproc threads (`pwnum.thread_speedup` reads below 1), and a
/// region that needs every vCPU at once stalls whenever the hypervisor
/// takes any of them, so its wall time tracks the neighbours' load. The
/// traced run measures the nproc-thread engine for the speed-up.
const SERIAL_THREADS: usize = 1;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub setups: usize,
    pub min_repeats: usize,
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: String,
}

/// Where a traced run writes its artifacts.
pub fn artifact_dir(workload: &str) -> PathBuf {
    PathBuf::from("target/e2ebench/trace").join(workload)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: SERIAL_THREADS,
        setups: 3,
        min_repeats: 4,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--threads" => opts.threads = value.parse().map_err(|e| bad(&e))?,
            "--setups" => opts.setups = value.parse().map_err(|e| bad(&e))?,
            "--repeats" => opts.min_repeats = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if opts.threads == 0 || opts.threads > env::nproc() {
        return Err(format!(
            "--threads {} refused: the serial engine may use 1 to {} threads (nproc)",
            opts.threads,
            env::nproc()
        ));
    }
    if opts.setups == 0 || opts.min_repeats == 0 {
        return Err("--setups and --repeats must be at least 1".into());
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // The distributed workload runs one kernel thread per simulated rank.
    let threads = if opts.workload == "dist_ring_p16" {
        1
    } else {
        opts.threads
    };
    let tuning = match env::pin(threads) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let mut record = env::record(&opts.workload, opts.seed, threads, opts.trace, &tuning);
    let (all0, steal0) = env::cpu_ticks();

    let out = match opts.workload.as_str() {
        "dist_ring_p16" => dist::run(&opts),
        "si8_ace_fp64" => serial::run("si8_ace_fp64", PrecisionPolicy::fp64(), &opts),
        _ => serial::run("si8_ace_mixed", PrecisionPolicy::mixed(), &opts),
    };

    print!("{}", out.notes);
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    print!("{}", out.metrics.lines());
    let (all1, steal1) = env::cpu_ticks();
    let steal_pct =
        100.0 * steal1.saturating_sub(steal0) as f64 / all1.saturating_sub(all0).max(1) as f64;
    record.insert("host_steal_pct", format!("{steal_pct:.1}"));
    println!("env {}", report::string_object(&record));
    let correct = out.failed == 0 && out.failures.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

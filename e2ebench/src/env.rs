//! The pinned, recorded environment.
//!
//! The settings the program reads from the environment are set here
//! explicitly, before the first library call reads them, instead of being
//! inherited from the shell: the serial engine's thread count, the
//! committed tuning table, the default backend (unset, so the production
//! `blocked` backend runs) and the `pwobs` recorder (off; the traced run
//! switches it on around stepping only).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The committed tuning table, relative to the repository root.
pub const TUNING_TABLE: &str = "crates/bench/TUNING.json";

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the program's environment for a process whose compute kernels
/// run `threads` threads. Must run before any library call.
pub fn pin(threads: usize) -> Result<PathBuf, String> {
    let tuning = Path::new(TUNING_TABLE);
    if !tuning.is_file() {
        return Err(format!(
            "{TUNING_TABLE} not found: run the benchmark from the repository root"
        ));
    }
    let tuning = tuning
        .canonicalize()
        .map_err(|e| format!("{TUNING_TABLE}: {e}"))?;
    // Single-threaded here: no other thread reads the environment yet.
    std::env::set_var("PWDFT_NUM_THREADS", threads.to_string());
    std::env::set_var(pwnum::tuning::TUNING_FILE_ENV, &tuning);
    std::env::remove_var("PWDFT_BACKEND");
    std::env::set_var("PWOBS", "0");
    Ok(tuning)
}

/// Size of the last-level cache cpu0 reports, or `unknown`.
fn llc_size() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let read = |f: &str| {
            std::fs::read_to_string(dir.join(f))
                .ok()
                .map(|s| s.trim().to_owned())
        };
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level >= *l) {
            best = Some((level, size));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(l, s)| format!("L{l} {s}"))
}

/// The commit of the checkout when it is a git work tree, else `none`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| format!("{r} (unresolved)"), |s| s.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "none".to_owned(),
    }
}

/// FNV-1a 64 over the paths and contents of every Rust source and
/// manifest under `crates/`, `shims/` and the benchmark: identifies the
/// measured code when the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "json")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "e2ebench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.push(PathBuf::from("e2ebench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Machine-wide CPU ticks from `/proc/stat`: `(all, steal)`. Steal is
/// time the hypervisor ran something else on this machine's vCPUs; its
/// share over a run explains wall-time outliers on a shared host.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.iter().sum(), v.get(7).copied().unwrap_or(0))
}

/// The environment record printed next to the metrics.
pub fn record(
    workload: &str,
    seed: u64,
    threads: usize,
    trace: bool,
    tuning: &Path,
) -> BTreeMap<&'static str, String> {
    let mut r = BTreeMap::new();
    r.insert("workload", workload.to_owned());
    r.insert("seed", seed.to_string());
    r.insert("trace", u8::from(trace).to_string());
    r.insert("nproc", nproc().to_string());
    r.insert("llc", llc_size());
    r.insert("commit", commit());
    r.insert("source_fnv64", source_digest());
    r.insert("PWDFT_NUM_THREADS", threads.to_string());
    r.insert("PWDFT_TUNING_FILE", tuning.display().to_string());
    r.insert("PWDFT_BACKEND", "unset".to_owned());
    r.insert(
        "PWOBS",
        if trace { "stepping only" } else { "off" }.to_owned(),
    );
    r
}

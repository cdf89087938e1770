//! The serial workloads: a fixed laser trajectory of the 8-atom silicon
//! cell under PT-IM-ACE, in fp64 (`si8_ace_fp64`) or mixed precision
//! (`si8_ace_mixed`), driven through `ptim::resilience::run` with a
//! checkpoint every 10 steps and one restart from `Checkpoint::load_latest`
//! at the checkpoint of step 10.

use crate::check;
use crate::kernel::{Family, KernelTimer};
use crate::layers::Attribution;
use crate::report::{median, peak_rss_mb, per_step_minima, quantile, Metrics};
use crate::{artifact_dir, Opts, Outcome};
use ptim::laser::AU_TIME_AS;
use ptim::resilience::{self, RunReport};
use ptim::{
    Checkpoint, CheckpointPolicy, HybridParams, LaserPulse, Propagator, PtimAceConfig,
    RecoveryPolicy, StepStats, TdEngine, TdState,
};
use pwdft::{
    scf_hybrid, scf_lda, Cell, DftSystem, FockOptions, GroundState, HybridConfig, ScfConfig,
};
use pwnum::backend::default_backend;
use pwnum::PrecisionPolicy;
use pwobs::export::{chrome_trace_json, StepRecord, StepStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Propagator steps in one trajectory (0.6 fs at 50 as). Short enough
/// that each run times every step in four trajectories: a step's fastest
/// repeat is what holds still on a shared host.
const STEPS: u64 = 12;
/// Checkpoint cadence of `resilience::run`.
const CKPT_INTERVAL: u64 = 10;
/// The step at which the in-memory state is dropped and the run resumes
/// from the newest checkpoint (the one just written there).
const RESTART_AT: u64 = 10;
/// Time step, attoseconds.
const DT_AS: f64 = 50.0;
/// Simulated femtoseconds per trajectory.
const FS: f64 = STEPS as f64 * DT_AS * 1e-3;

/// One serial workload: the precision policy it runs under.
struct Serial {
    name: &'static str,
    precision: PrecisionPolicy,
}

fn system() -> DftSystem {
    DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 3.0, [10, 10, 10])
}

fn pulse() -> LaserPulse {
    LaserPulse::paper_pulse(0.04, 1.5)
}

/// Ground-state preparation: 24 bands at 8000 K, so many occupations are
/// fractional. The LDA loop runs a fixed budget of 30 cycles of 3
/// Davidson sweeps (it does not reach 1e-6 at this temperature within
/// 60), then two outer ACE iterations of the hybrid stage.
fn prepare(sys: &DftSystem, seed: u64) -> (GroundState, f64, f64) {
    let cfg = ScfConfig {
        n_bands: 24,
        temperature_k: 8000.0,
        max_scf: 30,
        davidson_iters: 3,
        seed,
        ..Default::default()
    };
    let t0 = Instant::now();
    let gs = scf_lda(sys, &cfg);
    let lda_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let gs = scf_hybrid(
        sys,
        &cfg,
        &HybridConfig {
            outer_iters: 2,
            ..Default::default()
        },
        gs,
    );
    (gs, lda_s, t1.elapsed().as_secs_f64())
}

/// One run of the fixed trajectory.
#[derive(Default)]
struct Trajectory {
    step_s: Vec<f64>,
    restore_s: f64,
    stats: Vec<StepStats>,
    attempted: u64,
    failures: Vec<String>,
    restores: usize,
    ckpt_writes: usize,
    ckpt_write_s: f64,
    ckpt_file_bytes: u64,
}

impl Trajectory {
    fn stepping_s(&self) -> f64 {
        self.step_s.iter().sum::<f64>() + self.restore_s
    }

    fn s_per_fs(&self) -> f64 {
        self.stepping_s() / FS
    }
}

/// Runs `body` as a recorded span when tracing, with the recorder on
/// only for its duration (so the invariant checks between steps stay
/// out of the profile).
fn recorded<R>(trace: bool, name: &'static str, body: impl FnOnce() -> R) -> R {
    if !trace {
        return body();
    }
    pwobs::set_enabled(true);
    let out = {
        let _s = pwobs::span(name);
        body()
    };
    pwobs::set_enabled(false);
    out
}

fn run_trajectory(eng: &TdEngine, start: &TdState, dir: &Path, trace: bool) -> Trajectory {
    let _ = std::fs::remove_dir_all(dir);
    let prop = Propagator::PtimAce(PtimAceConfig {
        dt: DT_AS / AU_TIME_AS,
        ..Default::default()
    });
    let recovery = RecoveryPolicy::default();
    let n0 = start.electron_count();
    let mut tr = Trajectory::default();
    let mut state = start.clone();
    for k in 0..STEPS {
        if k == RESTART_AT {
            let t0 = Instant::now();
            let loaded = recorded(trace, "bench.ckpt", || Checkpoint::load_latest(dir, start));
            tr.restore_s = t0.elapsed().as_secs_f64();
            match loaded {
                Ok(Some(ck)) if ck.meta.step == k && check::bitwise_equal(&ck.state, &state) => {
                    state = ck.state;
                }
                Ok(Some(ck)) => tr.failures.push(format!(
                    "restart at step {k} loaded step {} that differs from the live state",
                    ck.meta.step
                )),
                Ok(None) => tr
                    .failures
                    .push(format!("no checkpoint to restart from at step {k}")),
                Err(e) => tr
                    .failures
                    .push(format!("checkpoint load failed at step {k}: {e}")),
            }
        }
        tr.attempted += 1;
        let t0 = Instant::now();
        let result = recorded(trace, "bench.step", || {
            resilience::run(eng, &state, k, k + 1, &prop, &recovery)
        });
        let wall = t0.elapsed().as_secs_f64();
        let report: RunReport = match result {
            Ok(r) => r,
            Err(e) => {
                tr.failures.push(format!("step {k}: {e}"));
                // The trajectory cannot continue; its remaining steps fail too.
                tr.attempted = STEPS;
                break;
            }
        };
        tr.step_s.push(wall);
        tr.restores += report.restores;
        tr.ckpt_writes += report.checkpoints_written;
        tr.ckpt_write_s += report.checkpoint_write_s;
        tr.stats.extend(report.steps.iter().cloned());
        state = report.state;
        if let Err(e) = check::check_state(&state, n0) {
            tr.failures.push(format!("step {}: {e}", k + 1));
        }
    }
    tr.ckpt_file_bytes = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .max()
        })
        .ok()
        .flatten()
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(dir);
    tr
}

/// Failures of the run-level checks: no checkpoint restores and no
/// precision promotions (the mixed policy's drift guard must not trip on
/// this trajectory; the fp64 policy has nothing to promote).
fn run_checks(tr: &Trajectory) -> Vec<String> {
    let mut out = Vec::new();
    if tr.restores != 0 {
        out.push(format!(
            "RunReport::restores = {} (expected 0)",
            tr.restores
        ));
    }
    let promotions: usize = tr.stats.iter().map(|s| s.precision_promotions).sum();
    if promotions != 0 {
        out.push(format!("{promotions} precision promotions (expected 0)"));
    }
    out
}

fn engine<'s>(
    sys: &'s DftSystem,
    spec: &Serial,
    dir: &Path,
    backend: Option<Arc<KernelTimer>>,
) -> TdEngine<'s> {
    let hybrid = HybridParams {
        fock: FockOptions {
            precision: spec.precision,
            ..Default::default()
        },
        ..Default::default()
    };
    let eng = match backend {
        Some(b) => TdEngine::with_backend(sys, pulse(), hybrid, b),
        None => TdEngine::new(sys, pulse(), hybrid),
    };
    eng.with_checkpoints(CheckpointPolicy::new(dir, CKPT_INTERVAL))
}

fn ckpt_dir(spec: &Serial) -> PathBuf {
    Path::new("target/e2ebench").join(format!("ckpt-{}-{}", spec.name, std::process::id()))
}

pub fn run(name: &'static str, precision: PrecisionPolicy, opts: &Opts) -> Outcome {
    let spec = Serial { name, precision };
    if opts.trace {
        traced_run(&spec, opts)
    } else {
        timed(&spec, opts)
    }
}

/// The end-to-end run: set up `opts.setups` times, then repeat the
/// trajectory until `opts.seconds` of it have been measured, and at
/// least `opts.min_repeats` times. Stepping is timed per step by its
/// fastest repeat; `setup_s` is the median set-up.
fn timed(spec: &Serial, opts: &Opts) -> Outcome {
    let sys = system();
    let mut setup_s = Vec::new();
    let mut gs = None;
    for _ in 0..opts.setups {
        let (g, lda_s, hyb_s) = prepare(&sys, opts.seed);
        setup_s.push(lda_s + hyb_s);
        gs = Some(g);
    }
    let start = TdState::from_ground_state(&gs.expect("at least one setup"));
    let dir = ckpt_dir(spec);
    let eng = engine(&sys, spec, &dir, None);

    let mut runs: Vec<Trajectory> = Vec::new();
    let t0 = Instant::now();
    while runs.len() < opts.min_repeats || t0.elapsed().as_secs_f64() < opts.seconds {
        runs.push(run_trajectory(&eng, &start, &dir, false));
    }

    let mut out = Outcome::default();
    for tr in &runs {
        out.attempted += tr.attempted;
        let mut failures = tr.failures.clone();
        failures.extend(run_checks(tr));
        out.failed += (failures.len() as u64).min(tr.attempted);
        out.failures.extend(failures);
    }
    let repeats: Vec<&[f64]> = runs.iter().map(|t| t.step_s.as_slice()).collect();
    // Each step's fastest repeat: contention on a shared host comes in
    // bursts of seconds, which a per-trajectory total carries whole and a
    // per-step median of two repeats at half weight.
    let steps = per_step_minima(&repeats);
    let samples: usize = repeats.iter().map(|r| r.len()).sum();
    let restore_s = runs.iter().map(|t| t.restore_s).fold(f64::INFINITY, f64::min);
    let s_per_fs = (steps.iter().sum::<f64>() + restore_s) / FS;
    let m = &mut out.metrics;
    m.put("s_per_fs", s_per_fs, "s");
    if !steps.is_empty() {
        m.put("step_s_p50", quantile(&steps, 0.5), "s");
        m.put("step_s_p90", quantile(&steps, 0.9), "s");
    }
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    let per_run: Vec<String> = runs
        .iter()
        .map(|t| format!("{:.3}", t.s_per_fs()))
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let scf_iters: usize = runs[0].stats.iter().map(|s| s.scf_iters).sum();
    out.notes = format!(
        "{} trajectories of {STEPS} steps ({:.2} fs), {samples} step samples \
         (each step timed by its fastest repeat), {} setups\n\
         s_per_fs by trajectory: {}\nsetup_s by setup: {}\n\
         inner SCF iterations per trajectory: {scf_iters}\n",
        runs.len(),
        FS,
        setup_s.len(),
        per_run.join(" "),
        setups.join(" ")
    );
    out
}

/// Reads `s_per_fs` from a child run's result line.
fn child_s_per_fs(stdout: &str) -> Option<f64> {
    let line = stdout.lines().rev().find(|l| l.starts_with('{'))?;
    let at = line.find("\"s_per_fs\": {\"value\": ")? + "\"s_per_fs\": {\"value\": ".len();
    let rest = &line[at..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Untraced `s_per_fs` of the same workload and seed at `threads` kernel
/// threads, from a child process, since the kernel thread count is fixed
/// once per process.
fn child_run_s_per_fs(spec: &Serial, opts: &Opts, threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = opts.seed.to_string();
    let threads = threads.to_string();
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--seed",
            &seed,
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .args(["--threads", &threads, "--setups", "1", "--repeats", "1"])
        .output()
        .map_err(|e| format!("{threads}-thread baseline: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{threads}-thread baseline exited with {}", out.status));
    }
    child_s_per_fs(&stdout)
        .ok_or_else(|| format!("{threads}-thread baseline printed no s_per_fs"))
}

/// `pwnum.thread_speedup`: 1-thread ÷ multi-thread `s_per_fs`, with this
/// process's untraced trajectories (`untraced`, at `opts.threads`) on one
/// side and a child run on the other: at nproc threads when this process
/// runs one, else at one.
fn thread_speedup(spec: &Serial, opts: &Opts, untraced: f64) -> Result<f64, String> {
    if opts.threads == 1 {
        Ok(untraced / child_run_s_per_fs(spec, opts, crate::env::nproc())?)
    } else {
        Ok(child_run_s_per_fs(spec, opts, 1)? / untraced)
    }
}

/// The traced run: per-layer metrics, with the untraced trajectories and
/// the child run of the other thread count as baselines.
fn traced_run(spec: &Serial, opts: &Opts) -> Outcome {
    let sys = system();
    let (gs, lda_s, hyb_s) = prepare(&sys, opts.seed);
    let start = TdState::from_ground_state(&gs);
    let dir = ckpt_dir(spec);

    // Untraced trajectories on either side of the traced one: their mean
    // is the base of the tracing overhead and of the thread speed-up.
    let plain_eng = engine(&sys, spec, &dir, None);
    let before = run_trajectory(&plain_eng, &start, &dir, false);
    let timer = Arc::new(KernelTimer::new(default_backend().clone()));
    let eng = engine(&sys, spec, &dir, Some(timer.clone()));
    pwobs::reset();
    let tr = run_trajectory(&eng, &start, &dir, true);
    let after = run_trajectory(&plain_eng, &start, &dir, false);
    let untraced_s_per_fs = 0.5 * (before.s_per_fs() + after.s_per_fs());
    let rec = pwobs::global();
    let att = Attribution::from_recorder(rec);
    let stepping_s = tr.stepping_s();

    let mut out = Outcome::default();
    for t in [&before, &tr, &after] {
        out.attempted += t.attempted;
        let mut failures = t.failures.clone();
        failures.extend(run_checks(t));
        out.failed += (failures.len() as u64).min(t.attempted);
        out.failures.extend(failures);
    }
    let thread_speedup = match thread_speedup(spec, opts, untraced_s_per_fs) {
        Ok(x) => x,
        Err(e) => {
            out.failures.push(e);
            out.failed += 1;
            0.0
        }
    };

    let m = &mut out.metrics;
    kernel_metrics(m, Some(&timer));
    m.bytes(
        "pwnum.pool_peak_bytes",
        tr.stats
            .iter()
            .map(|s| s.pool_peak_bytes as u64)
            .max()
            .unwrap_or(0),
    );
    m.put("pwnum.thread_speedup", thread_speedup, "ratio");
    operator_metrics(m, &att, lda_s, hyb_s);
    m.put(
        "ptim.pt_update.self_s",
        att.row("ptim.pt_update").self_s,
        "s",
    );
    m.put(
        "ptim.step_glue.self_s",
        att.row("ptim.step_glue").self_s,
        "s",
    );
    step_count_metrics(m, &tr.stats);
    m.count("ptim.ckpt.writes", tr.ckpt_writes as u64);
    m.put("ptim.ckpt.write_s", tr.ckpt_write_s, "s");
    m.put("ptim.ckpt.restore_s", tr.restore_s, "s");
    m.bytes(
        "ptim.ckpt.bytes",
        tr.ckpt_writes as u64 * tr.ckpt_file_bytes,
    );
    m.put("ptim.dist.sigma_replica_diff", 0.0, "abs");
    crate::dist::zero_mpisim_metrics(m);
    m.put(
        "pwobs.overhead_frac",
        tr.s_per_fs() / untraced_s_per_fs - 1.0,
        "ratio",
    );
    m.put("pwobs.tracked_frac", att.mapped_s() / stepping_s, "ratio");
    m.count("pwobs.dropped_events", rec.dropped_events());
    m.put("unattributed.self_s", att.unattributed_s, "s");

    let out_dir = artifact_dir(spec.name);
    write_artifacts(&out_dir, &tr, rec);
    out.notes = format!(
        "s_per_fs untraced {:.3} / traced {:.3} / untraced {:.3}\n\
         traced trajectory: {:.3} s stepping over {} steps; layer split of stepping wall:\n{}\
         artifacts in {}\n",
        before.s_per_fs(),
        tr.s_per_fs(),
        after.s_per_fs(),
        stepping_s,
        tr.step_s.len(),
        att.table(stepping_s),
        out_dir.display()
    );
    out
}

/// `pwnum.<family>.{calls,busy_s,gflop,gb}` from the decorator (zeros
/// where no decorator was installed).
pub fn kernel_metrics(m: &mut Metrics, timer: Option<&KernelTimer>) {
    for fam in Family::ALL {
        let t = timer.map(|t| t.totals(fam)).unwrap_or_default();
        let k = fam.key();
        m.count(format!("pwnum.{k}.calls"), t.calls);
        m.put(format!("pwnum.{k}.busy_s"), t.busy_s, "s");
        m.put(format!("pwnum.{k}.gflop"), t.flop as f64 * 1e-9, "Gflop");
        m.put(format!("pwnum.{k}.gb"), t.bytes as f64 * 1e-9, "GB");
    }
}

/// The exact per-step work counts (`ptim.*`) summed over a trajectory.
pub fn step_count_metrics(m: &mut Metrics, steps: &[StepStats]) {
    let sum = |f: fn(&StepStats) -> usize| steps.iter().map(|s| f(s) as u64).sum::<u64>();
    m.count("ptim.scf_iters", sum(|s| s.scf_iters));
    m.count("ptim.outer_iters", sum(|s| s.outer_iters));
    m.count("ptim.fock_applies", sum(|s| s.fock_applies));
    m.count("ptim.fock_solves_fp64", sum(|s| s.fock_solves_fp64));
    m.count("ptim.fock_solves_fp32", sum(|s| s.fock_solves_fp32));
    m.count("ptim.precision_promotions", sum(|s| s.precision_promotions));
}

/// The operator rows (`pwdft.*`) from the span table, plus the setup
/// stages timed by the benchmark.
pub fn operator_metrics(m: &mut Metrics, att: &Attribution, lda_s: f64, hyb_s: f64) {
    let mix = att.row("pwdft.mix");
    m.put("pwdft.mix.self_s", mix.self_s, "s");
    m.count("pwdft.mix.calls", mix.calls);
    m.put(
        "pwdft.xch_build.self_s",
        att.row("pwdft.xch_build").self_s,
        "s",
    );
    m.put(
        "pwdft.ace_apply.self_s",
        att.row("pwdft.ace_apply").self_s,
        "s",
    );
    m.put("pwdft.eval.self_s", att.row("pwdft.eval").self_s, "s");
    m.put("pwdft.scf_lda.busy_s", lda_s, "s");
    m.put("pwdft.scf_hybrid.busy_s", hyb_s, "s");
}

fn write_artifacts(dir: &Path, tr: &Trajectory, rec: &pwobs::Recorder) {
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("trace.json"), chrome_trace_json(rec))?;
        let mut stream = StepStream::new(std::fs::File::create(dir.join("steps.jsonl"))?);
        for (i, (s, wall)) in tr.stats.iter().zip(&tr.step_s).enumerate() {
            let rec = StepRecord::new(i as u64 + 1)
                .f("wall_s", *wall)
                .u("scf_iters", s.scf_iters as u64)
                .u("outer_iters", s.outer_iters as u64)
                .u("fock_applies", s.fock_applies as u64)
                .u("fock_solves_fp64", s.fock_solves_fp64 as u64)
                .u("fock_solves_fp32", s.fock_solves_fp32 as u64)
                .u("precision_promotions", s.precision_promotions as u64)
                .b("converged", s.converged)
                .f("residual", s.residual)
                .f("fs", (i as f64 + 1.0) * DT_AS * 1e-3);
            stream.emit(&rec)?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!(
            "warning: could not write trace artifacts to {}: {e}",
            dir.display()
        );
    }
}

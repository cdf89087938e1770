//! The distributed workload `dist_ring_p16`: consecutive PT-IM steps of
//! 64 bands on the 8³ silicon grid, band-distributed over 16 simulated
//! ranks (4 per node) of the Fugaku-like network, with the
//! ring-overlapped exchange and SHM-backed σ, inside one `Cluster::run`.
//! Every rank runs its kernels on one thread.
//!
//! The end-to-end step times are host wall time. The modelled time on the
//! simulated machine (the slowest rank's virtual clock) is reported per
//! layer as `mpisim.vs_per_fs`.

use crate::check;
use crate::layers::{Attribution, FRAMES};
use crate::report::{median, peak_rss_mb, per_step_minima, quantile, Metrics};
use crate::serial::{kernel_metrics, operator_metrics, step_count_metrics};
use crate::{artifact_dir, Opts, Outcome};
use mpisim::stats::{Category, Stats};
use mpisim::{Cluster, RankReport};
use ptim::distributed::{
    dist_ptim_step, gather_state, scatter_state, BandDistribution, DistConfig, ExchangeStrategy,
};
use ptim::laser::AU_TIME_FS;
use ptim::{HybridParams, LaserPulse, StepStats, TdState};
use pwdft::{Cell, DftSystem, Wavefunction};
use pwdft_bench::{
    dist_scale_net, DIST_SCALE_DIMS, DIST_SCALE_MAX_SCF, DIST_SCALE_RPN, DIST_SCALE_SOLVE_COST_S,
};
use pwnum::backend::default_backend;
use pwnum::CMat;
use std::collections::BTreeSet;
use std::time::Instant;

const RANKS: usize = 16;
const BANDS: usize = 64;
/// Propagator steps per cluster run.
const STEPS: usize = 8;
/// Time step (a.u.) and corrector iterations per step: the step of the
/// scaling runs (`pwdft_bench::measure_dist_step`), with no early exit
/// (tolerance 0), so every seed does the same work and the virtual clock
/// repeats exactly. One corrector is stable from a random start only at
/// this short step.
const DT: f64 = 0.1;
const MAX_SCF: usize = DIST_SCALE_MAX_SCF;
/// Cluster runs per timed run, at least: host wall of 16 rank threads
/// on a few cores is noisy, and a run is cheap.
const MIN_RUNS: usize = 5;
/// Extra set-up-only cluster runs (spawn, scatter, gather) per timed
/// run, added to the timed runs' set-ups for the `setup_s` median.
const SETUP_ONLY_RUNS: usize = 7;

fn fs() -> f64 {
    STEPS as f64 * DT * AU_TIME_FS
}

/// Seeded random orthonormal orbitals with finite-temperature-style
/// occupations, all above the Fock screening cutoff.
fn initial_state(sys: &DftSystem, seed: u64) -> TdState {
    let mut phi = Wavefunction::random(&sys.grid, BANDS, seed);
    phi.orthonormalize_lowdin();
    let occ: Vec<f64> = (0..BANDS).map(|i| 1.0 / (1.0 + 0.2 * i as f64)).collect();
    TdState {
        phi,
        sigma: CMat::from_real_diag(&occ),
        time: 0.0,
    }
}

/// What one rank hands back from a cluster run.
struct RankOut {
    scattered: Instant,
    first: Instant,
    last: Instant,
    step_s: Vec<f64>,
    vs: f64,
    stats: Stats,
    steps: Vec<StepStats>,
    failed_steps: Vec<(usize, String)>,
    sigma: CMat,
    gathered: Option<Result<(), String>>,
}

/// One cluster run: spawn, scatter, `steps` steps, gather.
struct ClusterRun {
    setup_s: f64,
    host_s: f64,
    /// Each step's host wall on its slowest rank.
    step_s: Vec<f64>,
    /// Virtual seconds each rank spent stepping.
    vs_per_rank: Vec<f64>,
    stats: Vec<Stats>,
    steps: Vec<StepStats>,
    failures: Vec<String>,
    failed: u64,
    /// Largest difference between any rank's σ and rank 0's.
    replica_diff: f64,
    reports: Vec<RankReport>,
}

impl ClusterRun {
    /// The modelled stepping time: the slowest rank's virtual clock.
    fn vs(&self) -> f64 {
        self.vs_per_rank.iter().copied().fold(0.0, f64::max)
    }
}

fn cluster_run(sys: &DftSystem, seed: u64, steps: usize, trace: bool) -> ClusterRun {
    let laser = LaserPulse::paper_pulse(0.04, 1.5);
    let cfg = DistConfig {
        strategy: ExchangeStrategy::RingOverlap,
        use_shm: true,
        hybrid: HybridParams {
            alpha: 0.25,
            omega: 0.2,
            ..Default::default()
        },
        solve_cost_s: DIST_SCALE_SOLVE_COST_S,
    };
    let t0 = Instant::now();
    let st = initial_state(sys, seed);
    let n0 = st.electron_count();
    if trace {
        pwobs::set_enabled(true);
    }
    let out = Cluster::new(RANKS, DIST_SCALE_RPN, dist_scale_net(RANKS)).run(|c| {
        let dist = BandDistribution::new(BANDS, c.size());
        let mut local = scatter_state(c, &st, &dist);
        let scattered = Instant::now();
        let vs0 = c.now();
        let mut step_s = Vec::with_capacity(steps);
        let mut step_stats = Vec::with_capacity(steps);
        let mut failed_steps = Vec::new();
        let first = Instant::now();
        for k in 0..steps {
            c.begin_step(k as u64);
            let t = Instant::now();
            let (next, stats) = {
                let _s = pwobs::span("bench.rank_step");
                dist_ptim_step(c, sys, &laser, &cfg, &dist, &local, DT, MAX_SCF, 0.0)
            };
            step_s.push(t.elapsed().as_secs_f64());
            local = next;
            step_stats.push(stats);
            if let Err(e) = check::check_sigma(&local.phi_local.data, &local.sigma, local.time, n0)
            {
                failed_steps.push((k, format!("rank {} step {}: {e}", c.rank(), k + 1)));
            }
        }
        let last = Instant::now();
        let vs = c.now() - vs0;
        let stats = c.stats.clone();
        // Stop recording before the gather, once every rank has stepped.
        c.barrier();
        if trace && c.rank() == 0 {
            pwobs::set_enabled(false);
        }
        c.barrier();
        let full = gather_state(c, &local, &dist);
        let gathered = (c.rank() == 0).then(|| check::check_state(&full, n0));
        RankOut {
            scattered,
            first,
            last,
            step_s,
            vs,
            stats,
            steps: step_stats,
            failed_steps,
            sigma: local.sigma,
            gathered,
        }
    });
    let ranks: Vec<&RankOut> = out.iter().map(|(r, _)| r).collect();
    let setup_s = ranks
        .iter()
        .map(|r| r.scattered - t0)
        .max()
        .expect("ranks")
        .as_secs_f64();
    let first = ranks.iter().map(|r| r.first).min().expect("ranks");
    let last = ranks.iter().map(|r| r.last).max().expect("ranks");
    let step_s = (0..steps)
        .map(|k| ranks.iter().map(|r| r.step_s[k]).fold(0.0, f64::max))
        .collect();

    let mut failed: BTreeSet<usize> = BTreeSet::new();
    let mut failures = Vec::new();
    for r in &ranks {
        for (k, msg) in &r.failed_steps {
            failed.insert(*k);
            failures.push(msg.clone());
        }
        if let Some(Err(e)) = &r.gathered {
            failed.insert(steps.saturating_sub(1));
            failures.push(format!("gathered state: {e}"));
        }
    }
    let replica_diff = ranks
        .iter()
        .map(|r| r.sigma.max_abs_diff(&ranks[0].sigma))
        .fold(0.0, f64::max);
    ClusterRun {
        setup_s,
        host_s: (last - first).as_secs_f64(),
        step_s,
        vs_per_rank: ranks.iter().map(|r| r.vs).collect(),
        stats: ranks.iter().map(|r| r.stats.clone()).collect(),
        steps: ranks[0].steps.clone(),
        failures,
        failed: failed.len() as u64,
        replica_diff,
        reports: out.iter().map(|(_, rep)| rep.clone()).collect(),
    }
}

pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        traced_run(opts)
    } else {
        timed(opts)
    }
}

fn timed(opts: &Opts) -> Outcome {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, DIST_SCALE_DIMS);
    let mut runs = Vec::new();
    let t0 = Instant::now();
    while runs.len() < MIN_RUNS || t0.elapsed().as_secs_f64() < opts.seconds {
        runs.push(cluster_run(&sys, opts.seed, STEPS, false));
    }
    let mut setup_s: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let mut out = Outcome::default();
    for _ in 0..SETUP_ONLY_RUNS {
        let r = cluster_run(&sys, opts.seed, 0, false);
        setup_s.push(r.setup_s);
        out.failures.extend(r.failures);
    }
    for r in &runs {
        out.attempted += STEPS as u64;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().cloned());
    }
    let repeats: Vec<&[f64]> = runs.iter().map(|r| r.step_s.as_slice()).collect();
    let steps = per_step_minima(&repeats);
    let samples: usize = repeats.iter().map(|r| r.len()).sum();
    let m = &mut out.metrics;
    m.put("s_per_fs", steps.iter().sum::<f64>() / fs(), "s");
    m.put("step_s_p50", quantile(&steps, 0.5), "s");
    m.put("step_s_p90", quantile(&steps, 0.9), "s");
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    out.notes = format!(
        "{} cluster runs of {STEPS} steps ({:.4} fs) on {RANKS} ranks, {samples} step samples \
         (each step timed by its fastest repeat), {} setups\n",
        runs.len(),
        fs(),
        setup_s.len()
    );
    out
}

fn traced_run(opts: &Opts) -> Outcome {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, DIST_SCALE_DIMS);
    let plain = cluster_run(&sys, opts.seed, STEPS, false);
    pwobs::reset();
    let tr = cluster_run(&sys, opts.seed, STEPS, true);
    let rec = pwobs::global();
    let att = Attribution::from_recorder(rec);
    let rank_step_s: f64 = FRAMES
        .iter()
        .filter_map(|f| rec.span_stat(f))
        .map(|s| s.total_ns as f64 * 1e-9)
        .sum();

    let mut out = Outcome::default();
    for r in [&plain, &tr] {
        out.attempted += STEPS as u64;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().cloned());
    }
    let m = &mut out.metrics;
    // `dist_ptim_step` runs on the process default backend, which the
    // benchmark does not replace: no kernel decorator here.
    kernel_metrics(m, None);
    let pool = default_backend().pool_stats();
    m.bytes(
        "pwnum.pool_peak_bytes",
        (pool.fp64.peak_bytes + pool.fp32.peak_bytes) as u64,
    );
    m.put("pwnum.thread_speedup", 0.0, "ratio");
    operator_metrics(m, &att, 0.0, 0.0);
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
    step_count_metrics(m, &tr.steps);
    m.count("ptim.ckpt.writes", 0);
    m.put("ptim.ckpt.write_s", 0.0, "s");
    m.put("ptim.ckpt.restore_s", 0.0, "s");
    m.bytes("ptim.ckpt.bytes", 0);
    m.put("ptim.dist.sigma_replica_diff", tr.replica_diff, "abs");
    mpisim_metrics(m, &tr);
    m.put(
        "pwobs.overhead_frac",
        tr.host_s / plain.host_s - 1.0,
        "ratio",
    );
    // Share of all recorded rank-thread self time that maps to a named
    // layer (the end-of-stepping barrier also records, outside the frames).
    let recorded_s = att.mapped_s() + att.unattributed_s;
    m.put("pwobs.tracked_frac", att.mapped_s() / recorded_s, "ratio");
    m.count("pwobs.dropped_events", rec.dropped_events());
    m.put("unattributed.self_s", att.unattributed_s, "s");

    let dir = artifact_dir("dist_ring_p16");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join("trace.json"),
            pwobs::export::chrome_trace_json(rec),
        )?;
        let ranks: String = tr.reports.iter().map(|r| r.to_json() + "\n").collect();
        std::fs::write(dir.join("ranks.jsonl"), ranks)
    };
    if let Err(e) = write() {
        eprintln!(
            "warning: could not write trace artifacts to {}: {e}",
            dir.display()
        );
    }
    out.notes = format!(
        "traced cluster run: {:.3} s host stepping, {:.4e} virtual s; layer split of \
         rank-thread stepping time ({rank_step_s:.3} s over {RANKS} ranks):\n{}artifacts in {}\n",
        tr.host_s,
        tr.vs(),
        att.table(rank_step_s),
        dir.display()
    );
    out
}

/// Traffic, time and memory of the stepping phase from the per-rank
/// stats (snapshotted before the final gather).
fn mpisim_metrics(m: &mut Metrics, run: &ClusterRun) {
    let s = &run.stats;
    let total = |f: fn(&Stats) -> u64| s.iter().map(f).sum::<u64>();
    let max = |f: &dyn Fn(&Stats) -> f64| s.iter().map(f).fold(0.0, f64::max);
    m.count("mpisim.msgs", total(|x| x.intra_msgs + x.inter_msgs));
    m.bytes("mpisim.bytes", total(|x| x.bytes_sent));
    m.bytes("mpisim.intra_bytes", total(|x| x.intra_bytes));
    m.bytes("mpisim.inter_bytes", total(|x| x.inter_bytes));
    m.put(
        "mpisim.wire_vs",
        max(&|x| x.intra_wire_s + x.inter_wire_s),
        "s",
    );
    m.put("mpisim.wait_vs", max(&|x| x.time(Category::Wait)), "s");
    let hidden: f64 = s.iter().map(|x| x.overlap_hidden_s).sum();
    let overlapped: f64 = s.iter().map(|x| x.overlap_total_s).sum();
    m.put("mpisim.overlap_hidden_frac", hidden / overlapped, "ratio");
    let vmin = run
        .vs_per_rank
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    m.put("mpisim.rank_skew", (run.vs() - vmin) / run.vs(), "ratio");
    m.bytes("mpisim.shm_bytes", total(|x| x.shm_bytes));
    m.bytes(
        "mpisim.unshared_equivalent_bytes",
        total(|x| x.unshared_equivalent_bytes),
    );
    m.count("mpisim.sched_wakeups", total(|x| x.sched_wakeups));
    m.put("mpisim.host_s_per_fs", run.host_s / fs(), "s");
    m.put("mpisim.vs_per_fs", run.vs() / fs(), "s");
}

/// The `mpisim.*` rows of a workload with no simulated cluster.
pub fn zero_mpisim_metrics(m: &mut Metrics) {
    m.count("mpisim.msgs", 0);
    for name in ["bytes", "intra_bytes", "inter_bytes"] {
        m.bytes(format!("mpisim.{name}"), 0);
    }
    m.put("mpisim.wire_vs", 0.0, "s");
    m.put("mpisim.wait_vs", 0.0, "s");
    m.put("mpisim.overlap_hidden_frac", 0.0, "ratio");
    m.put("mpisim.rank_skew", 0.0, "ratio");
    m.bytes("mpisim.shm_bytes", 0);
    m.bytes("mpisim.unshared_equivalent_bytes", 0);
    m.count("mpisim.sched_wakeups", 0);
    m.put("mpisim.host_s_per_fs", 0.0, "s");
    m.put("mpisim.vs_per_fs", 0.0, "s");
}

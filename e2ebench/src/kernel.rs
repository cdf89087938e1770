//! Kernel layer (`pwnum`): a [`Backend`] decorator owned by the benchmark
//! that counts and times every primitive family and derives *computed*
//! flop and byte counts from the call shapes.
//!
//! The counts come from operand sizes, not hardware counters:
//!
//! * a complex multiply-add is 8 flops; a complex element moves 16 bytes
//!   in fp64 and 8 in fp32;
//! * a batched transform pass is counted as one complex 3-D FFT per grid
//!   (`5 n log2 n` flops) reading and writing the grid once;
//! * a fused exchange pair solve is counted as its pair product, one
//!   screened-Poisson round trip (two FFTs plus the kernel multiply) and
//!   one scatter per nonzero weight.
//!
//! It is installed only in the traced run (through
//! [`ptim::TdEngine::with_backend`]), so end-to-end timings never pay for
//! its clock reads. Calls forward to the wrapped handle, so the wrapped
//! backend keeps its own overrides of the default trait methods.

use pwnum::backend::{Backend, BackendHandle, GridTransform, GridTransform32, PairTask, PoolStats};
use pwnum::gemm::Op;
use pwnum::{CMat, CMat32, Complex32, Complex64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The primitive families the decorator reports, in metric order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Gemm,
    Overlap,
    Rotate,
    Lincomb,
    Grid,
    Fft,
    Fft32,
    Xch,
    Xch32,
}

impl Family {
    pub const ALL: [Family; 9] = [
        Family::Gemm,
        Family::Overlap,
        Family::Rotate,
        Family::Lincomb,
        Family::Grid,
        Family::Fft,
        Family::Fft32,
        Family::Xch,
        Family::Xch32,
    ];

    /// Metric-name component (`pwnum.<key>.calls`, ...).
    pub fn key(self) -> &'static str {
        match self {
            Family::Gemm => "gemm",
            Family::Overlap => "overlap",
            Family::Rotate => "rotate",
            Family::Lincomb => "lincomb",
            Family::Grid => "grid",
            Family::Fft => "fft",
            Family::Fft32 => "fft32",
            Family::Xch => "xch",
            Family::Xch32 => "xch32",
        }
    }
}

/// Totals of one family since the decorator was built.
#[derive(Clone, Copy, Debug, Default)]
pub struct FamilyTotals {
    pub calls: u64,
    pub busy_s: f64,
    pub flop: u64,
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct Counters {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    flop: AtomicU64,
    bytes: AtomicU64,
}

/// Counting, timing decorator over a backend handle.
#[derive(Debug)]
pub struct KernelTimer {
    inner: BackendHandle,
    counters: [Counters; 9],
}

const C64: u64 = 16;
const C32: u64 = 8;

fn fft_flop(n: usize) -> u64 {
    let n = n as f64;
    (5.0 * n * n.max(2.0).log2()).round() as u64
}

fn op_dims(rows: usize, cols: usize, op: Op) -> (u64, u64) {
    match op {
        Op::None => (rows as u64, cols as u64),
        Op::Trans | Op::ConjTrans => (cols as u64, rows as u64),
    }
}

/// Bands in a band-major block of `len` elements with `band_len` per band.
fn bands(len: usize, band_len: usize) -> u64 {
    (len / band_len.max(1)) as u64
}

/// Computed cost of a fused pair-solve batch: per task the pair product
/// (6 flops/element), the round trip (two FFTs and a 2-flop kernel
/// multiply) and a 14-flop scatter per nonzero weight. `elem` is the
/// byte width of the solve precision; scatters accumulate into fp64.
fn pair_solve_cost(tasks: &[PairTask], ng: usize, elem: u64) -> (u64, u64) {
    let n = ng as u64;
    let scatters: u64 = tasks
        .iter()
        .map(|t| u64::from(t.w_fwd != 0.0) + u64::from(t.w_rev != 0.0))
        .sum();
    let count = tasks.len() as u64;
    let flop = count * (6 * n + 2 * fft_flop(ng) + 2 * n) + scatters * 14 * n;
    let bytes = count * (3 * elem * n + 4 * elem * n) + scatters * (2 * elem + 2 * C64) * n;
    (flop, bytes)
}

impl KernelTimer {
    pub fn new(inner: BackendHandle) -> Self {
        KernelTimer {
            inner,
            counters: Default::default(),
        }
    }

    #[inline]
    fn timed<R>(&self, fam: Family, flop: u64, bytes: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through these.
        let c = &self.counters[fam as usize];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.busy_ns.fetch_add(ns, Ordering::Relaxed);
        c.flop.fetch_add(flop, Ordering::Relaxed);
        c.bytes.fetch_add(bytes, Ordering::Relaxed);
        out
    }

    pub fn totals(&self, fam: Family) -> FamilyTotals {
        let c = &self.counters[fam as usize];
        FamilyTotals {
            calls: c.calls.load(Ordering::Relaxed),
            busy_s: c.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            flop: c.flop.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
        }
    }
}

impl Backend for KernelTimer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm(
        &self,
        alpha: Complex64,
        a: &CMat,
        op_a: Op,
        b: &CMat,
        op_b: Op,
        beta: Complex64,
        c0: Option<&CMat>,
    ) -> CMat {
        let (m, k) = op_dims(a.rows(), a.cols(), op_a);
        let (_, n) = op_dims(b.rows(), b.cols(), op_b);
        let c_reads = if c0.is_some() { m * n } else { 0 };
        let bytes = C64 * (m * k + k * n + m * n + c_reads);
        self.timed(Family::Gemm, 8 * m * n * k, bytes, || {
            self.inner.gemm(alpha, a, op_a, b, op_b, beta, c0)
        })
    }

    fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
        let (na, nb) = (bands(a.len(), band_len), bands(b.len(), band_len));
        let flop = 8 * na * nb * band_len as u64;
        let bytes = C64 * (a.len() as u64 + b.len() as u64 + na * nb);
        self.timed(Family::Overlap, flop, bytes, || {
            self.inner.overlap(a, b, band_len, scale)
        })
    }

    fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
        let (na, nout) = (bands(a.len(), band_len), bands(out.len(), band_len));
        let flop = 8 * na * nout * band_len as u64;
        let bytes = C64 * (a.len() + q.as_slice().len() + out.len()) as u64;
        self.timed(Family::Rotate, flop, bytes, || {
            self.inner.rotate(a, q, band_len, out)
        })
    }

    fn rotate_acc(
        &self,
        alpha: Complex64,
        a: &[Complex64],
        q: &CMat,
        band_len: usize,
        out: &mut [Complex64],
    ) {
        let (na, nout) = (bands(a.len(), band_len), bands(out.len(), band_len));
        let flop = 8 * na * nout * band_len as u64;
        let bytes = C64 * (a.len() + q.as_slice().len() + 2 * out.len()) as u64;
        self.timed(Family::Rotate, flop, bytes, || {
            self.inner.rotate_acc(alpha, a, q, band_len, out)
        })
    }

    fn lincomb(
        &self,
        ca: Complex64,
        a: &[Complex64],
        cb: Complex64,
        b: &[Complex64],
        out: &mut [Complex64],
    ) {
        let n = out.len() as u64;
        self.timed(Family::Lincomb, 14 * n, 3 * C64 * n, || {
            self.inner.lincomb(ca, a, cb, b, out)
        })
    }

    fn scale_by_real(&self, k: &[f64], field: &mut [Complex64]) {
        let n = field.len() as u64;
        let bytes = 2 * C64 * n + 8 * k.len() as u64;
        self.timed(Family::Grid, 2 * n, bytes, || {
            self.inner.scale_by_real(k, field)
        })
    }

    fn hadamard_conj(&self, a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
        let n = out.len() as u64;
        self.timed(Family::Grid, 6 * n, 3 * C64 * n, || {
            self.inner.hadamard_conj(a, b, out)
        })
    }

    fn hadamard_acc(&self, w: Complex64, a: &[Complex64], b: &[Complex64], acc: &mut [Complex64]) {
        let n = acc.len() as u64;
        self.timed(Family::Grid, 14 * n, 4 * C64 * n, || {
            self.inner.hadamard_acc(w, a, b, acc)
        })
    }

    fn hadamard_acc_conj(
        &self,
        w: Complex64,
        a: &[Complex64],
        b: &[Complex64],
        acc: &mut [Complex64],
    ) {
        let n = acc.len() as u64;
        self.timed(Family::Grid, 14 * n, 4 * C64 * n, || {
            self.inner.hadamard_acc_conj(w, a, b, acc)
        })
    }

    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        let ng = pass.grid_len();
        let flop = count as u64 * fft_flop(ng);
        let bytes = 2 * C64 * (count * ng) as u64;
        self.timed(Family::Fft, flop, bytes, || {
            self.inner.transform_batch(pass, data, count)
        })
    }

    fn fused_pair_solve(
        &self,
        solve: &dyn GridTransform,
        phi: &[Complex64],
        psi: &[Complex64],
        ng: usize,
        tasks: &[PairTask],
        out: &mut [Complex64],
    ) {
        let (flop, bytes) = pair_solve_cost(tasks, ng, C64);
        self.timed(Family::Xch, flop, bytes, || {
            self.inner.fused_pair_solve(solve, phi, psi, ng, tasks, out)
        })
    }

    fn fused_grid_passes(&self) -> bool {
        self.inner.fused_grid_passes()
    }

    fn take_buffer(&self, len: usize) -> Vec<Complex64> {
        self.inner.take_buffer(len)
    }

    fn take_buffer_copy(&self, src: &[Complex64]) -> Vec<Complex64> {
        self.inner.take_buffer_copy(src)
    }

    fn take_scratch(&self, len: usize) -> Vec<Complex64> {
        self.inner.take_scratch(len)
    }

    fn recycle_buffer(&self, buf: Vec<Complex64>) {
        self.inner.recycle_buffer(buf)
    }

    fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }

    fn reset_pool_peak(&self) {
        self.inner.reset_pool_peak()
    }

    fn gemm32(&self, alpha: Complex32, a: &CMat32, op_a: Op, b: &CMat32, op_b: Op) -> CMat32 {
        let (m, k) = op_dims(a.rows(), a.cols(), op_a);
        let (_, n) = op_dims(b.rows(), b.cols(), op_b);
        let bytes = C32 * (m * k + k * n + m * n);
        self.timed(Family::Gemm, 8 * m * n * k, bytes, || {
            self.inner.gemm32(alpha, a, op_a, b, op_b)
        })
    }

    fn overlap32(&self, a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32 {
        let (na, nb) = (bands(a.len(), band_len), bands(b.len(), band_len));
        let flop = 8 * na * nb * band_len as u64;
        let bytes = C32 * (a.len() as u64 + b.len() as u64 + na * nb);
        self.timed(Family::Overlap, flop, bytes, || {
            self.inner.overlap32(a, b, band_len, scale)
        })
    }

    fn rotate_acc32(
        &self,
        alpha: Complex32,
        a: &[Complex32],
        q: &CMat32,
        band_len: usize,
        out: &mut [Complex32],
    ) {
        let (na, nout) = (bands(a.len(), band_len), bands(out.len(), band_len));
        let flop = 8 * na * nout * band_len as u64;
        let q_len = (q.rows() * q.cols()) as u64;
        let bytes = C32 * (a.len() as u64 + q_len + 2 * out.len() as u64);
        self.timed(Family::Rotate, flop, bytes, || {
            self.inner.rotate_acc32(alpha, a, q, band_len, out)
        })
    }

    fn scale_by_real32(&self, k: &[f32], field: &mut [Complex32]) {
        let n = field.len() as u64;
        let bytes = 2 * C32 * n + 4 * k.len() as u64;
        self.timed(Family::Grid, 2 * n, bytes, || {
            self.inner.scale_by_real32(k, field)
        })
    }

    fn hadamard_conj32(&self, a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
        let n = out.len() as u64;
        self.timed(Family::Grid, 6 * n, 3 * C32 * n, || {
            self.inner.hadamard_conj32(a, b, out)
        })
    }

    fn hadamard_acc_promote(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        let n = acc.len() as u64;
        let comp_bytes = if comp.is_some() { 2 * C64 * n } else { 0 };
        let bytes = (2 * C32 + 2 * C64) * n + comp_bytes;
        self.timed(Family::Grid, 10 * n, bytes, || {
            self.inner.hadamard_acc_promote(w, a, b, acc, comp)
        })
    }

    fn hadamard_acc_promote_conj(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        let n = acc.len() as u64;
        let comp_bytes = if comp.is_some() { 2 * C64 * n } else { 0 };
        let bytes = (2 * C32 + 2 * C64) * n + comp_bytes;
        self.timed(Family::Grid, 10 * n, bytes, || {
            self.inner.hadamard_acc_promote_conj(w, a, b, acc, comp)
        })
    }

    fn transform_batch32(&self, pass: &dyn GridTransform32, data: &mut [Complex32], count: usize) {
        let ng = pass.grid_len();
        let flop = count as u64 * fft_flop(ng);
        let bytes = 2 * C32 * (count * ng) as u64;
        self.timed(Family::Fft32, flop, bytes, || {
            self.inner.transform_batch32(pass, data, count)
        })
    }

    fn fused_pair_solve32(
        &self,
        solve: &dyn GridTransform32,
        phi: &[Complex32],
        psi: &[Complex32],
        ng: usize,
        tasks: &[PairTask],
        out: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        let (flop, bytes) = pair_solve_cost(tasks, ng, C32);
        self.timed(Family::Xch32, flop, bytes, || {
            self.inner
                .fused_pair_solve32(solve, phi, psi, ng, tasks, out, comp)
        })
    }

    fn take_scratch32(&self, len: usize) -> Vec<Complex32> {
        self.inner.take_scratch32(len)
    }

    fn recycle_buffer32(&self, buf: Vec<Complex32>) {
        self.inner.recycle_buffer32(buf)
    }
}

//! Span → layer table: maps the program's existing `pwobs` span names to
//! the benchmark's layers, fixing known mislabels at the reader rather
//! than in the program (`gemm.anderson` is the mixing solve, not a GEMM;
//! `gemm.pt_update`, `gemm.natural_orbitals` and `gemm.constraints` are
//! step or operator work).
//!
//! Self time of a span the table does not name, and the self time of the
//! benchmark's own frame spans (`bench.step`, `bench.rank_step`), is
//! reported as `unattributed`.

use std::collections::BTreeMap;

/// The benchmark's per-step frame spans: their self time is the step
/// work no program span covers.
pub const FRAMES: [&str; 2] = ["bench.step", "bench.rank_step"];

/// Exact span names, checked before the prefix rules.
const EXACT: &[(&str, &str)] = &[
    ("gemm.anderson", "pwdft.mix"),
    ("xch.apply", "pwdft.xch_build"),
    ("xch.energy", "pwdft.xch_build"),
    ("xch.ace_build", "pwdft.xch_build"),
    ("xch.ace_apply", "pwdft.ace_apply"),
    ("grid.eval", "pwdft.eval"),
    ("gemm.natural_orbitals", "pwdft.eval"),
    ("gemm.pt_update", "ptim.pt_update"),
    ("gemm.constraints", "ptim.step_glue"),
    ("ckpt.write", "ptim.ckpt"),
    ("ckpt.restore", "ptim.ckpt"),
    ("bench.ckpt", "ptim.ckpt"),
    ("xch.ring_overlap", "ptim.dist_xch"),
    ("gemm.gemm", "pwnum.gemm"),
    ("gemm.gemm32", "pwnum.gemm"),
    ("gemm.overlap", "pwnum.overlap"),
    ("gemm.overlap32", "pwnum.overlap"),
    ("gemm.rotate", "pwnum.rotate"),
    ("gemm.rotate_acc", "pwnum.rotate"),
    ("gemm.rotate_acc32", "pwnum.rotate"),
    ("gemm.lincomb", "pwnum.lincomb"),
    ("fft.transform_batch", "pwnum.fft"),
    ("fft.transform_batch32", "pwnum.fft32"),
    ("xch.fused_pair_solve", "pwnum.xch"),
    ("xch.fused_pair_solve32", "pwnum.xch32"),
    ("fft.forward", "pwfft.fft3"),
    ("fft.inverse", "pwfft.fft3"),
    ("fft.many", "pwfft.fft3"),
];

/// Prefix rules for span families whose every member has one layer.
const PREFIX: &[(&str, &str)] = &[
    ("step.", "ptim.step_glue"),
    ("grid.", "pwnum.grid"),
    ("comm.", "mpisim.comm"),
];

/// The layer a span name maps to, or `None` when the table does not
/// name it (its self time is then unattributed).
pub fn layer_of(span: &str) -> Option<&'static str> {
    if let Some((_, layer)) = EXACT.iter().find(|(name, _)| *name == span) {
        return Some(layer);
    }
    PREFIX
        .iter()
        .find(|(prefix, _)| span.starts_with(prefix))
        .map(|(_, layer)| *layer)
}

/// Self time and calls summed per layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerRow {
    pub self_s: f64,
    pub calls: u64,
}

/// Per-layer attribution of everything the recorder holds.
pub struct Attribution {
    pub rows: BTreeMap<&'static str, LayerRow>,
    /// Frame self time plus the self time of unmapped spans.
    pub unattributed_s: f64,
    /// Unmapped span names, for the report.
    pub unmapped: Vec<&'static str>,
}

impl Attribution {
    pub fn from_recorder(rec: &pwobs::Recorder) -> Self {
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        let mut unattributed_s = 0.0;
        let mut unmapped = Vec::new();
        for (name, stat) in rec.span_stats() {
            let self_s = stat.self_ns as f64 * 1e-9;
            match layer_of(name) {
                Some(layer) => {
                    let row = rows.entry(layer).or_default();
                    row.self_s += self_s;
                    row.calls += stat.calls;
                }
                None => {
                    unattributed_s += self_s;
                    if !FRAMES.contains(&name) {
                        unmapped.push(name);
                    }
                }
            }
        }
        unmapped.sort_unstable();
        Attribution {
            rows,
            unattributed_s,
            unmapped,
        }
    }

    pub fn row(&self, layer: &str) -> LayerRow {
        self.rows.get(layer).copied().unwrap_or_default()
    }

    /// Self time attributed to named layers.
    pub fn mapped_s(&self) -> f64 {
        self.rows.values().map(|r| r.self_s).sum()
    }

    /// Human-readable table, largest layer first, against `total_s`.
    pub fn table(&self, total_s: f64) -> String {
        let mut rows: Vec<(&str, LayerRow)> = self.rows.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        let mut out = format!(
            "{:<18} {:>10} {:>8} {:>10}\n",
            "layer", "self_s", "share", "calls"
        );
        let share = |s: f64| {
            if total_s > 0.0 {
                100.0 * s / total_s
            } else {
                0.0
            }
        };
        for (layer, r) in rows {
            out += &format!(
                "{layer:<18} {:>10.4} {:>7.1}% {:>10}\n",
                r.self_s,
                share(r.self_s),
                r.calls
            );
        }
        out += &format!(
            "{:<18} {:>10.4} {:>7.1}%\n",
            "unattributed",
            self.unattributed_s,
            share(self.unattributed_s)
        );
        if !self.unmapped.is_empty() {
            out += &format!("unmapped spans: {}\n", self.unmapped.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_mislabels_leave_the_gemm_rows() {
        assert_eq!(layer_of("gemm.anderson"), Some("pwdft.mix"));
        assert_eq!(layer_of("gemm.pt_update"), Some("ptim.pt_update"));
        assert_eq!(layer_of("gemm.natural_orbitals"), Some("pwdft.eval"));
        assert_eq!(layer_of("gemm.constraints"), Some("ptim.step_glue"));
        assert_eq!(layer_of("grid.eval"), Some("pwdft.eval"));
        assert_eq!(layer_of("grid.hadamard_conj"), Some("pwnum.grid"));
        assert_eq!(layer_of("step.ptim_ace"), Some("ptim.step_glue"));
        assert_eq!(layer_of("gemm.something_new"), None);
        assert_eq!(layer_of("bench.step"), None);
    }
}

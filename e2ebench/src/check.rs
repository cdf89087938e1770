//! Physical invariants checked after every propagator step.

use ptim::TdState;
use pwnum::{CMat, Complex64};

/// Largest allowed departure of Φ from orthonormality.
pub const ORTHO_TOL: f64 = 1e-8;
/// Largest allowed departure of σ from Hermiticity.
pub const HERM_TOL: f64 = 1e-10;
/// Largest allowed drift of the electron count `2 tr σ` from its start.
pub const TRACE_TOL: f64 = 1e-8;

fn finite(z: &[Complex64]) -> bool {
    z.iter().all(|z| z.re.is_finite() && z.im.is_finite())
}

/// The checks that need only σ and a block of orbitals: finiteness,
/// σ Hermiticity and electron-count conservation. Holds on a rank's
/// local block as well as on a full state.
pub fn check_sigma(phi: &[Complex64], sigma: &CMat, time: f64, n0: f64) -> Result<(), String> {
    if !(time.is_finite() && finite(phi) && finite(sigma.as_slice())) {
        return Err("state is not finite".into());
    }
    let herm = sigma.hermiticity_error();
    if herm > HERM_TOL {
        return Err(format!("σ Hermiticity error {herm:e} > {HERM_TOL:e}"));
    }
    let drift = (2.0 * sigma.trace().re - n0).abs();
    if drift > TRACE_TOL {
        return Err(format!("|2 tr σ − N| = {drift:e} > {TRACE_TOL:e}"));
    }
    Ok(())
}

/// Every invariant of a full state, orthonormality of Φ included.
pub fn check_state(st: &TdState, n0: f64) -> Result<(), String> {
    check_sigma(&st.phi.data, &st.sigma, st.time, n0)?;
    let ortho = st.orthonormality_error();
    if ortho > ORTHO_TOL {
        return Err(format!("orthonormality error {ortho:e} > {ORTHO_TOL:e}"));
    }
    Ok(())
}

fn bitwise_equal_slices(x: &[Complex64], y: &[Complex64]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits())
}

/// Bitwise equality of two states (checkpoint round trips must be exact).
pub fn bitwise_equal(a: &TdState, b: &TdState) -> bool {
    a.time.to_bits() == b.time.to_bits()
        && bitwise_equal_slices(&a.phi.data, &b.phi.data)
        && bitwise_equal_slices(a.sigma.as_slice(), b.sigma.as_slice())
}

//! In-loop deblocking filter.
//!
//! Block transforms plus coarse quantisation leave visible discontinuities
//! at 4x4 block edges; H.264 removes them with an adaptive in-loop filter
//! applied to the reconstruction *after* the whole frame is decoded (so
//! intra prediction sees unfiltered samples, exactly as here) and *before*
//! the frame is used as a reference. This is a faithful simplification of
//! the H.264 design: one-tap edge smoothing with QP-adaptive thresholds
//! (`alpha`/`beta` gates, `tc` clipping), applied to every internal 4x4
//! edge.
//!
//! Encoder and decoder run the identical function on identical inputs, so
//! the closed loop stays bit-exact.

use vapp_media::Plane;

/// Edge-activity gate: only filter edges whose step is plausibly a coding
/// artefact (large real edges are left alone). Grows with QP.
fn alpha(qp: u8) -> i32 {
    // Roughly exponential in QP, clamped like the H.264 table endpoints.
    (0.8 * f64::powf(2.0, qp as f64 / 6.0)).min(255.0) as i32
}

/// Local-gradient gate.
fn beta(qp: u8) -> i32 {
    (0.5 * qp as f64).min(18.0) as i32
}

/// Maximum per-pixel correction.
fn tc(qp: u8) -> i32 {
    (1 + qp as i32 / 10).min(25)
}

/// One frame's QP-derived filter thresholds. Everything fits `i16`:
/// samples are `0..=255`, the correction's numerator stays within ±1300,
/// and `alpha <= 255`, `beta <= 18`, `tc <= 25`.
#[derive(Clone, Copy)]
struct EdgeFilter {
    a: i16,
    b: i16,
    c: i16,
}

impl EdgeFilter {
    fn new(qp: u8) -> Self {
        EdgeFilter {
            a: alpha(qp) as i16,
            b: beta(qp) as i16,
            c: tc(qp) as i16,
        }
    }

    /// Filters one edge pair `(p1, p0 | q0, q1)`, returning the new
    /// `(p0, q0)`. Branch-free: a gated-off edge gets a zero correction,
    /// which leaves both samples as they were, so rows of edges vectorise.
    #[inline(always)]
    fn pair(self, p1: u8, p0: u8, q0: u8, q1: u8) -> (u8, u8) {
        let (p1, p0, q0, q1) = (p1 as i16, p0 as i16, q0 as i16, q1 as i16);
        let on =
            ((p0 - q0).abs() < self.a) & ((p1 - p0).abs() < self.b) & ((q1 - q0).abs() < self.b);
        // H.263/H.264-style one-tap correction.
        let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-self.c, self.c) * on as i16;
        (
            (p0 + delta).clamp(0, 255) as u8,
            (q0 - delta).clamp(0, 255) as u8,
        )
    }

    /// Filters the horizontal edge between rows `p0` and `q0` across the
    /// whole width.
    fn rows(self, p1: &[u8], p0: &mut [u8], q0: &mut [u8], q1: &[u8]) {
        let n = p0.len();
        let (p1, q0, q1) = (&p1[..n], &mut q0[..n], &q1[..n]);
        for i in 0..n {
            (p0[i], q0[i]) = self.pair(p1[i], p0[i], q0[i], q1[i]);
        }
    }
}

/// Deblocks a reconstructed frame in place: all internal vertical and
/// horizontal 4x4-block edges, with thresholds driven by the frame QP.
///
/// Every edge reads two samples on each side and writes only the two
/// next to it, so edges four samples apart never touch each other's
/// inputs: the vertical edges run row by row over disjoint four-sample
/// windows, then the horizontal edges run as whole-row passes. Samples
/// past the last row or column read the border sample, as
/// [`Plane::sample`] would.
pub fn deblock_plane(plane: &mut Plane, qp: u8) {
    let _span = vapp_obs::span!("codec.deblock");
    let f = EdgeFilter::new(qp);
    let (w, h) = (plane.width(), plane.height());
    let data = plane.data_mut();

    // Vertical edges (filter across x = 4, 8, ...): the edge at x owns the
    // window x-2..x+2.
    for row in data.chunks_exact_mut(w) {
        let Some(tail) = row.get_mut(2..) else {
            continue;
        };
        let mut windows = tail.chunks_exact_mut(4);
        for win in &mut windows {
            (win[1], win[2]) = f.pair(win[0], win[1], win[2], win[3]);
        }
        // An edge at the last column (w % 4 == 1) has q1 clamped onto q0.
        if let [p1, p0, q0] = windows.into_remainder() {
            (*p0, *q0) = f.pair(*p1, *p0, *q0, *q0);
        }
    }

    // Horizontal edges (filter across y = 4, 8, ...).
    for y in (4..h).step_by(4) {
        let (above, below) = data.split_at_mut(y * w);
        let (p1, p0) = above[(y - 2) * w..].split_at_mut(w);
        let (q0, rest) = below.split_at_mut(w);
        if rest.len() >= w {
            f.rows(p1, p0, q0, &rest[..w]);
        } else {
            // q0 is the last row: q1 clamps onto it.
            let q1 = q0.to_vec();
            f.rows(p1, p0, q0, &q1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plane with a sharp step at x = 8 (a block edge).
    fn step_plane(step: u8) -> Plane {
        let mut p = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, if x < 8 { 100 } else { 100 + step });
            }
        }
        p
    }

    #[test]
    fn small_steps_are_smoothed() {
        let mut p = step_plane(8);
        deblock_plane(&mut p, 30);
        // The edge pixels must have moved toward each other.
        assert!(p.get(7, 5) > 100, "p0 untouched: {}", p.get(7, 5));
        assert!(p.get(8, 5) < 108, "q0 untouched: {}", p.get(8, 5));
    }

    #[test]
    fn large_real_edges_are_preserved() {
        let mut p = step_plane(120);
        let before = p.clone();
        deblock_plane(&mut p, 24);
        assert_eq!(p, before, "a 120-step real edge must not be filtered");
    }

    #[test]
    fn flat_areas_are_untouched() {
        let mut p = Plane::filled(32, 32, 77);
        let before = p.clone();
        deblock_plane(&mut p, 40);
        assert_eq!(p, before);
    }

    #[test]
    fn higher_qp_filters_more() {
        let mut weak = step_plane(16);
        let mut strong = step_plane(16);
        deblock_plane(&mut weak, 10);
        deblock_plane(&mut strong, 44);
        let moved_weak = (weak.get(7, 3) as i32 - 100).abs();
        let moved_strong = (strong.get(7, 3) as i32 - 100).abs();
        assert!(
            moved_strong >= moved_weak,
            "qp 44 should filter at least as hard: {moved_weak} vs {moved_strong}"
        );
    }

    #[test]
    fn deterministic() {
        let mut a = step_plane(10);
        let mut b = step_plane(10);
        deblock_plane(&mut a, 28);
        deblock_plane(&mut b, 28);
        assert_eq!(a, b);
    }
}

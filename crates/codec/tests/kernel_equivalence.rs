//! Property tests pinning the word-parallel codec kernels bit-identical to
//! their scalar references — the scalar paths stay the specification the
//! SWAR (and optional intrinsic) kernels must reproduce exactly, across
//! random blocks, non-multiple-of-8 widths and border geometries. The
//! per-block range-2 motion search likewise stays the specification for
//! the cell SAD map the encoder sums its partition searches from, and the
//! column-major per-sample deblocking loop for the row-major slice filter.

use vapp_check::{RngExt, StdRng};
use vapp_codec::deblock::deblock_plane;
use vapp_codec::inter::{
    mc_block_halfpel_into, search_sub_stats, CellSadMap, SearchStats, MAX_BLOCK_PIXELS, MV_LIMIT,
};
use vapp_codec::quant::{dequantize, forward_quant, quantize, MAX_QP};
use vapp_codec::transform::{forward4x4, inverse4x4, Block4x4};
use vapp_codec::types::{BlockGeom, MotionVector};
use vapp_media::Plane;

fn random_plane(rng: &mut StdRng, w: usize, h: usize) -> Plane {
    let data: Vec<u8> = (0..w * h).map(|_| rng.random::<u64>() as u8).collect();
    Plane::from_data(w, h, data)
}

/// Clamped scalar SAD — the definition `Plane::sad_bounded` must match
/// whenever the result is `<=` the bound.
#[allow(clippy::too_many_arguments)]
fn sad_scalar(
    cur: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    other: &Plane,
    rx: isize,
    ry: isize,
) -> u64 {
    let mut sum = 0u64;
    for dy in 0..h {
        for dx in 0..w {
            let a = cur.get(x + dx, y + dy) as i32;
            let b = other.sample(rx + dx as isize, ry + dy as isize) as i32;
            sum += a.abs_diff(b) as u64;
        }
    }
    sum
}

#[test]
fn swar_sad_matches_scalar_reference() {
    vapp_check::check("swar_sad_matches_scalar", 64, |rng| {
        let pw = rng.random_range(24..64);
        let ph = rng.random_range(24..64);
        let cur = random_plane(rng, pw, ph);
        let refp = random_plane(rng, pw, ph);
        // Deliberately non-multiple-of-8 widths and border-straddling
        // reference origins.
        let w = rng.random_range(1..=16usize.min(pw));
        let h = rng.random_range(1..=16usize.min(ph));
        let x = rng.random_range(0..=pw - w);
        let y = rng.random_range(0..=ph - h);
        let rx = rng.random_range(0..pw as i64 + 8) as isize - 4;
        let ry = rng.random_range(0..ph as i64 + 8) as isize - 4;
        let want = sad_scalar(&cur, x, y, w, h, &refp, rx, ry);
        assert_eq!(
            cur.sad(x, y, w, h, &refp, rx, ry),
            want,
            "w={w} h={h} x={x} y={y} rx={rx} ry={ry}"
        );
        // Bounded variant: exact at or below the bound, and never *under*
        // the bound when it bails early (so `> bound` comparisons agree).
        let bound = rng.random_range(0..want + 2);
        let got = cur.sad_bounded(x, y, w, h, &refp, rx, ry, bound);
        if want <= bound {
            assert_eq!(got, want, "bounded must be exact at/below bound");
        } else {
            assert!(got > bound, "early exit must still report excess");
        }
    });
}

#[test]
fn sad_slices_matches_scalar_on_ragged_lengths() {
    vapp_check::check("sad_slices_ragged", 64, |rng| {
        let n = rng.random_range(0..80usize);
        let a: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let b: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let want: u64 = a.iter().zip(&b).map(|(&x, &y)| x.abs_diff(y) as u64).sum();
        assert_eq!(vapp_media::kernels::sad_slices(&a, &b), want, "len={n}");
    });
}

#[test]
fn fused_transform_quant_matches_scalar_pair() {
    vapp_check::check("fused_forward_quant", 64, |rng| {
        let qp = rng.random_range(0..=MAX_QP as u64) as u8;
        let intra = rng.random::<u64>() & 1 == 1;
        let r: Block4x4 = core::array::from_fn(|_| rng.random_range(0..511) - 255);
        let want = quantize(&forward4x4(&r), qp, intra);
        assert_eq!(forward_quant(&r, qp, intra), want, "qp={qp} intra={intra}");
        // And the fused inverse on the levels the forward pass produced.
        assert_eq!(
            vapp_codec::quant::dequant_inverse(&want, qp),
            inverse4x4(&dequantize(&want, qp)),
            "qp={qp}"
        );
    });
}

/// Scalar half-pel motion compensation — clamped bilinear sampling, the
/// definition `mc_block_halfpel_into`'s word-parallel interior path must
/// reproduce byte for byte.
fn mc_halfpel_scalar(
    reference: &Plane,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mv: MotionVector,
) -> Vec<u8> {
    let bx = x as isize * 2 + mv.x as isize;
    let by = y as isize * 2 + mv.y as isize;
    let (ix, iy) = (bx.div_euclid(2), by.div_euclid(2));
    let (fx, fy) = (bx.rem_euclid(2), by.rem_euclid(2));
    let mut out = vec![0u8; w * h];
    for oy in 0..h {
        for ox in 0..w {
            let px = ix + ox as isize;
            let py = iy + oy as isize;
            let p00 = reference.sample(px, py) as u16;
            let v = match (fx, fy) {
                (0, 0) => p00,
                (1, 0) => (p00 + reference.sample(px + 1, py) as u16 + 1) >> 1,
                (0, 1) => (p00 + reference.sample(px, py + 1) as u16 + 1) >> 1,
                _ => {
                    let p10 = reference.sample(px + 1, py) as u16;
                    let p01 = reference.sample(px, py + 1) as u16;
                    let p11 = reference.sample(px + 1, py + 1) as u16;
                    (p00 + p10 + p01 + p11 + 2) >> 2
                }
            };
            out[oy * w + ox] = v as u8;
        }
    }
    out
}

#[test]
fn word_parallel_bilinear_matches_scalar_reference() {
    vapp_check::check("halfpel_bilinear", 64, |rng| {
        let pw = rng.random_range(24..64);
        let ph = rng.random_range(24..64);
        let refp = random_plane(rng, pw, ph);
        let w = rng.random_range(1..=16usize.min(pw));
        let h = rng.random_range(1..=16usize.min(ph));
        let x = rng.random_range(0..=pw - w);
        let y = rng.random_range(0..=ph - h);
        // Half-pel vectors reaching interior, border and out-of-plane
        // positions, covering all four (fx, fy) phases.
        let mv = MotionVector::new(
            rng.random_range(0..24) as i16 - 12,
            rng.random_range(0..24) as i16 - 12,
        );
        let want = mc_halfpel_scalar(&refp, x, y, w, h, mv);
        let mut got = [0u8; MAX_BLOCK_PIXELS];
        mc_block_halfpel_into(&refp, x, y, w, h, mv, &mut got[..w * h]);
        assert_eq!(
            &got[..w * h],
            &want[..],
            "w={w} h={h} x={x} y={y} mv=({},{})",
            mv.x,
            mv.y
        );
    });
}

#[test]
fn bi_average_into_matches_scalar_rounding() {
    vapp_check::check("bi_average_rounding", 64, |rng| {
        let n = rng.random_range(1..=MAX_BLOCK_PIXELS);
        let a: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let b: Vec<u8> = (0..n).map(|_| rng.random::<u64>() as u8).collect();
        let mut got = vec![0u8; n];
        vapp_codec::inter::bi_average_into(&a, &b, &mut got);
        for i in 0..n {
            let want = ((a[i] as u16 + b[i] as u16 + 1) >> 1) as u8;
            assert_eq!(got[i], want, "i={i} a={} b={}", a[i], b[i]);
        }
    });
}

/// A search centre in the unit `subpel` implies: near the block, far out
/// of the plane, or at the motion-vector limit (where candidates clamp).
fn random_center(rng: &mut StdRng, subpel: bool) -> MotionVector {
    let scale = if subpel { 2 } else { 1 };
    let mut component = || -> i16 {
        match rng.random_range(0..4u32) {
            0 | 1 => rng.random_range(0..25) as i16 - 12,
            2 => (rng.random_range(0..200) as i16 - 100) * scale,
            _ => {
                let edge = MV_LIMIT * scale + rng.random_range(0..7) as i16 - 3;
                if rng.random::<bool>() {
                    edge
                } else {
                    -edge
                }
            }
        }
    };
    MotionVector::new(component(), component())
}

#[test]
fn cell_sad_map_search_matches_per_block_range_two_search() {
    vapp_check::check("cell_sad_map_search", 96, |rng| {
        let pw = rng.random_range(16..72);
        let ph = rng.random_range(16..72);
        let cur = random_plane(rng, pw, ph);
        let refp = random_plane(rng, pw, ph);
        // Macroblock anywhere in the plane, borders included.
        let x = rng.random_range(0..=pw - 16);
        let y = rng.random_range(0..=ph - 16);
        let subpel = rng.random::<bool>();
        let center = random_center(rng, subpel);
        let mut map_stats = SearchStats::default();
        let map = CellSadMap::build(&cur, &refp, x, y, center, subpel, &mut map_stats);
        assert_eq!(map_stats.map_builds, 1);
        // Several blocks against one map, as mode decision uses it.
        for _ in 0..6 {
            let w = 4 * rng.random_range(1..=4usize);
            let h = 4 * rng.random_range(1..=4usize);
            let g = BlockGeom {
                dx: 4 * rng.random_range(0..=(16 - w) / 4),
                dy: 4 * rng.random_range(0..=(16 - h) / 4),
                w,
                h,
            };
            let mut want_stats = SearchStats::default();
            let want = search_sub_stats(
                &cur,
                &refp,
                x + g.dx,
                y + g.dy,
                w,
                h,
                center,
                2,
                subpel,
                &mut want_stats,
            );
            let mut got_stats = SearchStats::default();
            let got = map.search(g, &mut got_stats);
            let what =
                format!("plane {pw}x{ph} mb ({x},{y}) {g:?} center {center:?} subpel {subpel}");
            assert_eq!(got, want, "{what}: mv/sad differ");
            assert_eq!(got_stats, want_stats, "{what}: stats differ");
        }
    });
}

/// The per-sample deblocking loop the row-major filter replaced: vertical
/// edges column by column, then horizontal edges, through clamped
/// `get`/`set`/`sample` and an early-out gate.
fn deblock_reference(plane: &mut Plane, qp: u8) {
    let a = (0.8 * f64::powf(2.0, qp as f64 / 6.0)).min(255.0) as i32;
    let b = (0.5 * qp as f64).min(18.0) as i32;
    let c = (1 + qp as i32 / 10).min(25);
    let pair = |p1: i32, p0: i32, q0: i32, q1: i32| {
        if (p0 - q0).abs() >= a || (p1 - p0).abs() >= b || (q1 - q0).abs() >= b {
            return (p0, q0);
        }
        let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-c, c);
        ((p0 + delta).clamp(0, 255), (q0 - delta).clamp(0, 255))
    };
    let (w, h) = (plane.width(), plane.height());
    let mut x = 4;
    while x < w {
        for y in 0..h {
            let q1 = plane.sample(x as isize + 1, y as isize) as i32;
            let (np0, nq0) = pair(
                plane.get(x - 2, y) as i32,
                plane.get(x - 1, y) as i32,
                plane.get(x, y) as i32,
                q1,
            );
            plane.set(x - 1, y, np0 as u8);
            plane.set(x, y, nq0 as u8);
        }
        x += 4;
    }
    let mut y = 4;
    while y < h {
        for x in 0..w {
            let q1 = plane.sample(x as isize, y as isize + 1) as i32;
            let (np0, nq0) = pair(
                plane.get(x, y - 2) as i32,
                plane.get(x, y - 1) as i32,
                plane.get(x, y) as i32,
                q1,
            );
            plane.set(x, y - 1, np0 as u8);
            plane.set(x, y, nq0 as u8);
        }
        y += 4;
    }
}

#[test]
fn row_major_deblock_matches_per_sample_reference() {
    vapp_check::check("deblock_row_major", 96, |rng| {
        // Any size (edges at the last row/column included), smooth texture
        // with block steps so both gates open and close.
        let w = rng.random_range(1..48usize);
        let h = rng.random_range(1..48usize);
        let step = rng.random_range(0..40i32);
        let noise = rng.random_range(1..12i32);
        let data: Vec<u8> = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                let block = ((x / 4 + y / 4) % 3) as i32 * step;
                (100 + block + rng.random_range(0..noise)).clamp(0, 255) as u8
            })
            .collect();
        let qp = rng.random_range(0..=MAX_QP);
        let mut fast = Plane::from_data(w, h, data);
        let mut reference = fast.clone();
        deblock_plane(&mut fast, qp);
        deblock_reference(&mut reference, qp);
        assert_eq!(fast, reference, "{w}x{h} qp {qp}");
    });
}

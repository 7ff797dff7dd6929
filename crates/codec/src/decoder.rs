//! The total (never-failing) decoder, in two stages.
//!
//! Mirrors the macroblock syntax documented in [`crate::encoder`]. On an
//! undamaged stream the output is bit-exact with the encoder's own
//! reconstruction. On a damaged stream the decoder keeps going: every
//! value is clamped to its domain, variable-length reads are bounded, and
//! reads past the end of a payload produce deterministic garbage — the
//! error then propagates through contexts, predictive metadata and motion
//! compensation exactly as the paper's §3 describes, and resynchronises at
//! the next frame (or slice) boundary because each payload gets a fresh
//! entropy context.
//!
//! Decoding is split in two stages joined by [`vapp_par::par_pipeline`]:
//!
//! - **Parse** ([`parse_frame`]) reads a frame's payload into per-macroblock
//!   syntax — prediction mode, motion vectors, and the residual after
//!   dequantisation and inverse transform — one [`MbRow`] at a time. It
//!   depends only on the payload bytes and the frame's own [`MbState`]
//!   table (contexts and motion-vector prediction), never on a sample.
//! - **Reconstruct** ([`reconstruct_frame`]) turns those rows and the
//!   reference frames into samples: intra prediction, motion compensation,
//!   residual add, then the in-loop deblocking filter once the frame is
//!   whole. It reads no bits.
//!
//! With two workers the stages overlap, parsing running up to one frame of
//! rows ahead of reconstruction; at one worker, or inside another parallel
//! region, each frame is parsed and then reconstructed inline. Both stages
//! are sequential, deterministic functions of their inputs, so the output
//! is byte-identical either way.

use crate::deblock::deblock_plane;
use crate::encoder::{
    crop, intra_ctx_inc, mb_mv_pred, mvd_ctx_inc, neighbors, quadrant_blocks, skip_ctx_inc,
    slice_rows, MbState,
};
use crate::entropy::{CabacReader, CavlcReader, Element, EntropyMode, SymbolReader};
use crate::inter::{bi_average_into, mc_block_sub_into, MV_LIMIT};
use crate::intra::{predict_intra16, predict_intra4, Intra4Avail, IntraAvail};
use crate::quant::{dequantize, from_zigzag, MAX_QP};
use crate::syntax::{EncodedFrame, EncodedVideo, FrameHeader};
use crate::transform::{inverse4x4, Block4x4};
use crate::types::{
    FrameType, Intra4Mode, IntraMode, MotionVector, PartShape, PartitionLayout, PredDir, SubShape,
};
use vapp_media::{Frame, MbGrid, Plane, Video, MB_SIZE};

/// Decodes an encoded video into display order.
///
/// Total: corrupted payloads produce visually damaged frames, never a
/// panic. Headers are trusted (they live in precise storage in the
/// approximate-storage system, paper §4.4) and checked up front with
/// [`EncodedVideo::validate`].
///
/// # Panics
///
/// Panics if `stream` fails [`EncodedVideo::validate`] — bad dimensions,
/// a frame count that disagrees with the frames present, coding or display
/// indices out of place, or a reference to a frame not coded before.
/// [`EncodedVideo::from_bytes`] rejects every such stream and the encoder
/// never writes one, so anything they return decodes without panicking.
pub fn decode(stream: &EncodedVideo) -> Video {
    if let Err(e) = stream.validate() {
        panic!("decode: inconsistent stream headers: {e}");
    }
    let width = stream.header.width as usize;
    let height = stream.header.height as usize;
    let ctx = DecodeCtx {
        grid: MbGrid::for_frame(width, height),
        entropy: stream.header.entropy,
        subpel: stream.header.subpel,
        deblock: stream.header.deblock,
    };
    let frames_total = stream.frames.len();
    let _video_span = vapp_obs::span!("codec.video.decode", frames_total);

    // Indexed by coding index, which `validate` pins to the position.
    let mut dpb: Vec<Plane> = Vec::with_capacity(frames_total);
    vapp_par::par_pipeline(
        stream.frames.iter().collect(),
        ctx.grid.mb_rows(),
        |_, frame, emit| parse_frame(&ctx, frame, emit),
        |i, rows| {
            let recon = reconstruct_frame(&ctx, &stream.frames[i].header, &dpb, rows);
            dpb.push(recon);
        },
    );

    // Display indices are a permutation of the coding order (`validate`),
    // so every reference plane moves into exactly one display slot.
    let mut display: Vec<Option<Frame>> = (0..frames_total).map(|_| None).collect();
    for (f, recon) in stream.frames.iter().zip(dpb) {
        display[f.header.display_index as usize] =
            Some(Frame::from_plane(crop(recon, width, height)));
    }
    Video::from_frames(
        display
            .into_iter()
            .map(|f| f.expect("every display index decoded"))
            .collect(),
        stream.header.fps,
    )
}

/// What both stages need from the stream header.
struct DecodeCtx {
    grid: MbGrid,
    entropy: EntropyMode,
    subpel: bool,
    deblock: bool,
}

// ----------------------------------------------------------------- parse --

/// One macroblock row's syntax, as the parse stage hands it on.
struct MbRow {
    row: usize,
    /// The row above lies in the same slice (intra prediction may use it).
    top_avail: bool,
    mbs: Vec<MbSyntax>,
    /// Residuals of the coded 4x4 blocks: macroblock by macroblock, raster
    /// block order within each.
    residual: Vec<[i16; 16]>,
}

/// One macroblock's parsed syntax.
#[derive(Clone, Copy)]
struct MbSyntax {
    pred: MbPred,
    /// Bit `k` set when 4x4 block `k` (raster order) carries a residual.
    coded: u16,
}

/// How a macroblock is predicted.
#[derive(Clone, Copy)]
enum MbPred {
    Intra16(IntraMode),
    Intra4([Intra4Mode; 16]),
    /// Motion-compensated partitions, one [`PartMotion`] per block of the
    /// layout. A skipped macroblock is a 16x16 forward partition with no
    /// residual.
    Inter {
        layout: PartitionLayout,
        parts: [PartMotion; 16],
    },
}

/// One inter partition's direction and vectors (zero where unused).
#[derive(Clone, Copy)]
struct PartMotion {
    dir: PredDir,
    fwd: MotionVector,
    bwd: MotionVector,
}

impl PartMotion {
    const FORWARD_ZERO: PartMotion = PartMotion {
        dir: PredDir::Forward,
        fwd: MotionVector::ZERO,
        bwd: MotionVector::ZERO,
    };
}

/// Per-frame facts the macroblock parser needs.
#[derive(Clone, Copy)]
struct FrameSyntax {
    is_b: bool,
    /// The frame has a forward reference, so skip and inter are coded.
    inter: bool,
}

/// Parses one frame's payload, handing each macroblock row to `emit` in
/// raster order.
fn parse_frame(ctx: &DecodeCtx, frame: &EncodedFrame, emit: &mut dyn FnMut(MbRow)) {
    let ci = frame.header.coding_index;
    let frame_type = frame.header.frame_type;
    let _span = vapp_obs::span!("codec.decode.parse", ci, frame_type);
    let grid = &ctx.grid;
    let fs = FrameSyntax {
        is_b: frame_type == FrameType::B,
        inter: frame.header.ref_fwd.is_some(),
    };
    let mut states = vec![MbState::default(); grid.mb_count()];
    let base_qp = frame.header.qp.min(MAX_QP);

    let ranges = frame.slice_ranges();
    let row_groups = slice_rows(grid.mb_rows(), ranges.len().max(1));
    for (slice_idx, &rows) in row_groups.iter().enumerate() {
        let bytes = ranges
            .get(slice_idx)
            .map_or(&[][..], |r| &frame.payload[r.clone()]);
        match ctx.entropy {
            EntropyMode::Cabac => parse_slice(
                &mut CabacReader::new(bytes),
                grid,
                fs,
                &mut states,
                rows,
                base_qp,
                emit,
            ),
            EntropyMode::Cavlc => parse_slice(
                &mut CavlcReader::new(bytes),
                grid,
                fs,
                &mut states,
                rows,
                base_qp,
                emit,
            ),
        }
    }
}

fn parse_slice<R: SymbolReader>(
    r: &mut R,
    grid: &MbGrid,
    fs: FrameSyntax,
    states: &mut [MbState],
    (row_start, row_end): (usize, usize),
    base_qp: u8,
    emit: &mut dyn FnMut(MbRow),
) {
    let mut prev_qp = base_qp;
    for row in row_start..row_end {
        let mut out = MbRow {
            row,
            top_avail: row > row_start,
            mbs: Vec::with_capacity(grid.mb_cols()),
            residual: Vec::new(),
        };
        for col in 0..grid.mb_cols() {
            let mb = grid.mb_index(col, row);
            parse_mb(r, grid, fs, states, mb, row_start, &mut prev_qp, &mut out);
        }
        emit(out);
    }
}

#[allow(clippy::too_many_arguments)]
fn parse_mb<R: SymbolReader>(
    r: &mut R,
    grid: &MbGrid,
    fs: FrameSyntax,
    states: &mut [MbState],
    mb: usize,
    slice_top_row: usize,
    prev_qp: &mut u8,
    out: &mut MbRow,
) {
    let nb = neighbors(grid, mb, slice_top_row);
    let pred_fwd = mb_mv_pred(states, &nb, true);

    // --- skip flag ---
    if fs.inter && r.get_flag(Element::Skip, skip_ctx_inc(states, &nb)) {
        states[mb] = MbState {
            coded: true,
            skip: true,
            intra: false,
            mv_fwd: Some(pred_fwd),
            mv_bwd: None,
            mvd_mag: 0,
        };
        let mut parts = [PartMotion::FORWARD_ZERO; 16];
        parts[0].fwd = pred_fwd;
        out.mbs.push(MbSyntax {
            pred: MbPred::Inter {
                layout: PartitionLayout::whole(),
                parts,
            },
            coded: 0,
        });
        return;
    }

    // --- intra / inter ---
    let intra = !fs.inter || r.get_flag(Element::Intra, intra_ctx_inc(states, &nb));
    let mut state = MbState {
        coded: true,
        skip: false,
        intra,
        mv_fwd: None,
        mv_bwd: None,
        mvd_mag: 0,
    };

    let pred = if intra {
        if r.get_flag(Element::Intra4, 0) {
            // Interleaved per-block mode and residual, mirroring the
            // encoder's `code_intra4_mb`.
            let qp = parse_qp(r, prev_qp);
            let mut modes = [Intra4Mode::Dc; 16];
            let mut coded = 0u16;
            for (blk, mode) in modes.iter_mut().enumerate() {
                *mode = Intra4Mode::from_index(r.get_uint(Element::Intra4Mode, 0).min(4));
                if r.get_flag(Element::Blk4, blk % 4) {
                    coded |= 1 << blk;
                    out.residual.push(parse_residual(r, qp));
                }
            }
            states[mb] = state;
            out.mbs.push(MbSyntax {
                pred: MbPred::Intra4(modes),
                coded,
            });
            return;
        }
        MbPred::Intra16(IntraMode::from_index(
            r.get_uint(Element::IntraMode, 0).min(3),
        ))
    } else {
        let shape = PartShape::from_index(r.get_uint(Element::PartShape, 0).min(3));
        let mut layout = PartitionLayout {
            shape,
            subs: [SubShape::S8x8; 4],
        };
        if shape == PartShape::P8x8 {
            for sub in &mut layout.subs {
                *sub = SubShape::from_index(r.get_uint(Element::SubShape, 0).min(3));
            }
        }
        let mvd_inc = mvd_ctx_inc(states, &nb);
        let mut prev_fwd: Option<MotionVector> = None;
        let mut prev_bwd: Option<MotionVector> = None;
        let mut parts = [PartMotion::FORWARD_ZERO; 16];
        for (i, part) in parts.iter_mut().take(layout.blocks().len()).enumerate() {
            let dir = if fs.is_b {
                PredDir::from_index(r.get_uint(Element::PredDir, 0).min(2))
            } else {
                PredDir::Forward
            };
            part.dir = dir;
            if dir != PredDir::Backward {
                let (mv, mvd_mag) = parse_mv(r, prev_fwd.unwrap_or(pred_fwd), mvd_inc);
                if i == 0 {
                    state.mvd_mag = mvd_mag;
                }
                part.fwd = mv;
                prev_fwd = Some(mv);
                state.mv_fwd.get_or_insert(mv);
            }
            if fs.is_b && dir != PredDir::Forward {
                let pred = prev_bwd.unwrap_or_else(|| mb_mv_pred(states, &nb, false));
                let (mv, _) = parse_mv(r, pred, mvd_inc);
                part.bwd = mv;
                prev_bwd = Some(mv);
                state.mv_bwd.get_or_insert(mv);
            }
        }
        MbPred::Inter { layout, parts }
    };

    // --- qp delta, cbp, residual ---
    let qp = parse_qp(r, prev_qp);
    let mut cbp = [false; 4];
    for (q, c) in cbp.iter_mut().enumerate() {
        *c = r.get_flag(Element::Cbp, q);
    }
    let mut coded = 0u16;
    let mut blocks = [[0i16; 16]; 16];
    for (q, &quadrant_coded) in cbp.iter().enumerate() {
        if !quadrant_coded {
            continue;
        }
        for (s, &blk) in quadrant_blocks(q).iter().enumerate() {
            if r.get_flag(Element::Blk4, s) {
                coded |= 1 << blk;
                blocks[blk] = parse_residual(r, qp);
            }
        }
    }
    // Coded in quadrant order, handed on in raster order.
    for (blk, res) in blocks.iter().enumerate() {
        if coded >> blk & 1 == 1 {
            out.residual.push(*res);
        }
    }
    states[mb] = state;
    out.mbs.push(MbSyntax { pred, coded });
}

/// Reads a macroblock's QP delta and applies it to the running QP.
fn parse_qp<R: SymbolReader>(r: &mut R, prev_qp: &mut u8) -> u8 {
    let delta = r
        .get_sint(Element::QpDelta, 0)
        .clamp(-(MAX_QP as i32), MAX_QP as i32);
    let qp = (*prev_qp as i32 + delta).clamp(0, MAX_QP as i32) as u8;
    *prev_qp = qp;
    qp
}

/// Reads a motion-vector difference (x then y) and adds it to `pred`,
/// returning the vector and the difference's magnitude (context
/// modelling).
fn parse_mv<R: SymbolReader>(r: &mut R, pred: MotionVector, inc: usize) -> (MotionVector, u32) {
    let dx = clamp_mv(r.get_sint(Element::MvdX, inc));
    let dy = clamp_mv(r.get_sint(Element::MvdY, inc));
    let lim = MV_LIMIT as i32;
    let mv = MotionVector::new(
        (pred.x as i32 + dx as i32).clamp(-lim, lim) as i16,
        (pred.y as i32 + dy as i32).clamp(-lim, lim) as i16,
    );
    (mv, dx.unsigned_abs() as u32 + dy.unsigned_abs() as u32)
}

/// Clamps a decoded motion-vector difference to the legal domain.
fn clamp_mv(v: i32) -> i16 {
    v.clamp(-(MV_LIMIT as i32), MV_LIMIT as i32) as i16
}

/// Reads one 4x4 block's coefficients and returns its residual after
/// dequantisation and inverse transform. Saturating to `i16` changes no
/// sample: a prediction in `0..=255` plus any residual beyond ±255 clamps
/// to the same end of the range.
fn parse_residual<R: SymbolReader>(r: &mut R, qp: u8) -> [i16; 16] {
    inverse4x4(&dequantize(&parse_block_coeffs(r), qp))
        .map(|v| v.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
}

/// Mirror of the encoder's `code_block_coeffs`.
fn parse_block_coeffs<R: SymbolReader>(r: &mut R) -> Block4x4 {
    let mut zz: Block4x4 = [0; 16];
    for (i, z) in zz.iter_mut().enumerate() {
        let sig = r.get_flag(Element::Sig, i.min(14));
        if sig {
            let mag = r.get_uint(Element::Level, usize::from(i != 0)).min(1 << 15) + 1;
            let neg = r.get_sign();
            *z = if neg { -(mag as i32) } else { mag as i32 };
            let last = r.get_flag(Element::Last, i.min(14));
            if last {
                break;
            }
        }
    }
    from_zigzag(&zz)
}

// ----------------------------------------------------------- reconstruct --

/// A frame's reference planes and motion-vector precision.
struct Refs<'a> {
    fwd: Option<&'a Plane>,
    bwd: Option<&'a Plane>,
    subpel: bool,
}

/// Reconstructs one frame from its parsed rows and the frames coded before
/// it (`dpb`, by coding index), then deblocks it.
fn reconstruct_frame(
    ctx: &DecodeCtx,
    header: &FrameHeader,
    dpb: &[Plane],
    rows: &mut dyn Iterator<Item = MbRow>,
) -> Plane {
    let ci = header.coding_index;
    let frame_type = header.frame_type;
    let _span = vapp_obs::span!("codec.decode.recon", ci, frame_type);
    vapp_obs::counter!("codec.frame.decoded");
    let refs = Refs {
        fwd: header.ref_fwd.map(|r| &dpb[r as usize]),
        bwd: header.ref_bwd.map(|r| &dpb[r as usize]),
        subpel: ctx.subpel,
    };
    let mut recon = Plane::filled(
        ctx.grid.mb_cols() * MB_SIZE,
        ctx.grid.mb_rows() * MB_SIZE,
        128,
    );
    for row in rows {
        reconstruct_row(&refs, &mut recon, &row);
    }
    if ctx.deblock {
        deblock_plane(&mut recon, header.qp.min(MAX_QP));
    }
    recon
}

fn reconstruct_row(refs: &Refs<'_>, recon: &mut Plane, row: &MbRow) {
    let mb_y = row.row * MB_SIZE;
    let mut residual = row.residual.iter();
    for (col, mb) in row.mbs.iter().enumerate() {
        let mb_x = col * MB_SIZE;
        let avail = IntraAvail {
            left: col > 0,
            top: row.top_avail,
        };
        let pred = match &mb.pred {
            MbPred::Intra4(modes) => {
                // Each block predicts from the blocks reconstructed before
                // it, so prediction and store interleave.
                for (blk, &mode) in modes.iter().enumerate() {
                    let (bx, by) = (mb_x + (blk % 4) * 4, mb_y + (blk / 4) * 4);
                    let a4 = Intra4Avail {
                        left: blk % 4 > 0 || avail.left,
                        top: blk / 4 > 0 || avail.top,
                    };
                    let mut block = predict_intra4(recon, bx, by, a4, mode);
                    if mb.coded >> blk & 1 == 1 {
                        if let Some(res) = residual.next() {
                            add_residual(&mut block, 4, res);
                        }
                    }
                    for (y, src) in block.chunks_exact(4).enumerate() {
                        recon.row_mut(by + y)[bx..bx + 4].copy_from_slice(src);
                    }
                }
                continue;
            }
            MbPred::Intra16(mode) => predict_intra16(recon, mb_x, mb_y, avail, *mode),
            MbPred::Inter { layout, parts } => inter_pred(refs, mb_x, mb_y, layout, parts),
        };
        let mut block = pred;
        for blk in 0..16 {
            if mb.coded >> blk & 1 == 1 {
                if let Some(res) = residual.next() {
                    let at = (blk / 4) * 4 * MB_SIZE + (blk % 4) * 4;
                    add_residual(&mut block[at..], MB_SIZE, res);
                }
            }
        }
        for (y, src) in block.chunks_exact(MB_SIZE).enumerate() {
            recon.row_mut(mb_y + y)[mb_x..mb_x + MB_SIZE].copy_from_slice(src);
        }
    }
}

/// Adds a 4x4 residual to the samples at the start of `block` (rows
/// `stride` apart), clamping to `0..=255`.
fn add_residual(block: &mut [u8], stride: usize, res: &[i16; 16]) {
    for (y, res_row) in res.chunks_exact(4).enumerate() {
        for (p, &r) in block[y * stride..][..4].iter_mut().zip(res_row) {
            *p = (*p as i32 + r as i32).clamp(0, 255) as u8;
        }
    }
}

/// Builds a macroblock's motion-compensated prediction in stack buffers.
fn inter_pred(
    refs: &Refs<'_>,
    mb_x: usize,
    mb_y: usize,
    layout: &PartitionLayout,
    parts: &[PartMotion; 16],
) -> [u8; 256] {
    let mut pred = [0u8; 256];
    let mut block = [0u8; 256];
    let mut fwd = [0u8; 256];
    let mut bwd = [0u8; 256];
    let subpel = refs.subpel;
    for (g, m) in layout.blocks().iter().zip(parts) {
        let n = g.w * g.h;
        let (bx, by) = (mb_x + g.dx, mb_y + g.dy);
        let out = &mut block[..n];
        // Fall back to mid-gray prediction when a reference is missing
        // (corrupt direction in a frame without that reference).
        match (m.dir, refs.fwd, refs.bwd) {
            (PredDir::Forward, Some(rf), _) => {
                mc_block_sub_into(rf, bx, by, g.w, g.h, m.fwd, subpel, out);
            }
            (PredDir::Backward, _, Some(rb)) => {
                mc_block_sub_into(rb, bx, by, g.w, g.h, m.bwd, subpel, out);
            }
            (PredDir::Bi, Some(rf), Some(rb)) => {
                mc_block_sub_into(rf, bx, by, g.w, g.h, m.fwd, subpel, &mut fwd[..n]);
                mc_block_sub_into(rb, bx, by, g.w, g.h, m.bwd, subpel, &mut bwd[..n]);
                bi_average_into(&fwd[..n], &bwd[..n], out);
            }
            (_, Some(rf), _) => mc_block_sub_into(rf, bx, by, g.w, g.h, m.fwd, subpel, out),
            _ => out.fill(128),
        }
        for (y, src) in out.chunks_exact(g.w).enumerate() {
            pred[(g.dy + y) * MB_SIZE + g.dx..][..g.w].copy_from_slice(src);
        }
    }
    pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use vapp_media::Video;

    fn tiny_video(frames: usize) -> Video {
        let mut v = Video::new(48, 32, 25.0);
        for t in 0..frames {
            let mut f = Frame::new(48, 32);
            for y in 0..32 {
                for x in 0..48 {
                    let val = ((x * 5 + y * 3 + t * 7) % 200 + 20) as u8;
                    f.plane_mut().set(x, y, val);
                }
            }
            v.push(f);
        }
        v
    }

    #[test]
    fn clean_stream_matches_encoder_reconstruction() {
        let video = tiny_video(5);
        for entropy in [EntropyMode::Cabac, EntropyMode::Cavlc] {
            let cfg = EncoderConfig {
                entropy,
                bframes: 1,
                keyint: 4,
                ..EncoderConfig::default()
            };
            let result = Encoder::new(cfg).encode(&video);
            let decoded = decode(&result.stream);
            assert_eq!(
                decoded, result.reconstruction,
                "entropy {entropy:?}: decode != encoder recon"
            );
        }
    }

    #[test]
    fn corrupt_payload_never_panics_and_stays_in_frame() {
        let video = tiny_video(6);
        let result = Encoder::new(EncoderConfig {
            bframes: 0,
            keyint: 3,
            ..EncoderConfig::default()
        })
        .encode(&video);
        let mut stream = result.stream.clone();
        // Corrupt every byte of frame 1's payload (display frame 1).
        for b in stream.frames[1].payload.iter_mut() {
            *b = b.wrapping_mul(31).wrapping_add(17);
        }
        let decoded = decode(&stream);
        assert_eq!(decoded.len(), video.len());
        // Frame 0 is an I frame coded before the damage: identical.
        assert_eq!(
            decoded.get(0).unwrap(),
            result.reconstruction.get(0).unwrap()
        );
        // Frame 3 starts a new GOP (keyint 3): the damage cannot reach it.
        assert_eq!(
            decoded.get(3).unwrap(),
            result.reconstruction.get(3).unwrap()
        );
    }

    #[test]
    fn truncated_payload_decodes_totally() {
        let video = tiny_video(3);
        let result = Encoder::new(EncoderConfig::default()).encode(&video);
        let mut stream = result.stream;
        for f in &mut stream.frames {
            f.payload.truncate(f.payload.len() / 3);
        }
        let decoded = decode(&stream);
        assert_eq!(decoded.len(), 3);
    }
}

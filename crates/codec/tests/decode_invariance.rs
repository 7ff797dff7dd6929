//! The decoder's output on damaged streams is pinned to a digest, not
//! only to itself: a fixed set of seeded streams — CABAC and CAVLC, one
//! and three slices, B frames on, a clip with and one without padding —
//! gets byte flips, truncation or both, and an FNV-1a digest of every
//! decoded pixel must match the recorded value at 1, 2, 3 and 8 workers,
//! and when the decodes run nested inside a `par_map` (where the decoder's
//! parse/reconstruct pipeline runs inline).

use vapp_check::{RngExt, SeedableRng, StdRng};
use vapp_codec::{decode, EncodedVideo, Encoder, EncoderConfig, EntropyMode};
use vapp_media::Video;
use vapp_workloads::{ClipSpec, SceneKind};

/// FNV-1a 64 over every decoded stream's geometry and pixels, recorded
/// from the single-pass decoder this pipeline replaced.
const DECODED_DIGEST: u64 = 0xde5b_a1e7_3313_ce54;

/// How one case damages its payloads.
#[derive(Clone, Copy, Debug)]
enum Damage {
    Clean,
    Flips,
    Truncated,
    Both,
}

/// The seeded streams: every damage kind on every coder/slice setting of
/// both clips, each with the encoder's reconstruction and whether the
/// stream is undamaged.
fn cases() -> Vec<(EncodedVideo, Video, bool)> {
    let clips = [
        // 7x5 macroblocks, no padding.
        ClipSpec::new(112, 80, 10, SceneKind::MovingBlocks)
            .seed(21)
            .generate(),
        // 100x60 pads to 112x64 and is cropped back.
        ClipSpec::new(100, 60, 9, SceneKind::Panning)
            .seed(5)
            .generate(),
    ];
    let mut rng = StdRng::seed_from_u64(0xdec0_de14);
    let mut out = Vec::new();
    for video in &clips {
        for entropy in [EntropyMode::Cabac, EntropyMode::Cavlc] {
            for slices in [1u8, 3] {
                let enc = Encoder::new(EncoderConfig {
                    keyint: 6,
                    bframes: 2,
                    slices,
                    entropy,
                    ..EncoderConfig::default()
                })
                .encode(video);
                for damage in [
                    Damage::Clean,
                    Damage::Flips,
                    Damage::Truncated,
                    Damage::Both,
                ] {
                    let mut stream = enc.stream.clone();
                    for f in &mut stream.frames {
                        if matches!(damage, Damage::Truncated | Damage::Both) {
                            let keep = rng.random_range(0..=f.payload.len());
                            f.payload.truncate(keep);
                        }
                        if matches!(damage, Damage::Flips | Damage::Both) && !f.payload.is_empty() {
                            for _ in 0..1 + f.payload.len() / 64 {
                                let i = rng.random_range(0..f.payload.len());
                                f.payload[i] ^= 1 << rng.random_range(0..8u32);
                            }
                        }
                    }
                    let clean = matches!(damage, Damage::Clean);
                    out.push((stream, enc.reconstruction.clone(), clean));
                }
            }
        }
    }
    out
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn digest(decoded: &[Video]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for v in decoded {
        for dim in [v.width(), v.height(), v.len()] {
            fnv1a(&mut h, &(dim as u64).to_le_bytes());
        }
        for f in v.iter() {
            fnv1a(&mut h, f.plane().data());
        }
    }
    h
}

/// Clean streams decode to the encoder's reconstruction; damaged ones
/// (nearly all) do not, so the digest covers real damage.
fn check_recon(cases: &[(EncodedVideo, Video, bool)], decoded: &[Video], what: &str) {
    let (mut damaged, mut damaged_differ) = (0, 0);
    for (i, ((_, recon, clean), got)) in cases.iter().zip(decoded).enumerate() {
        if *clean {
            assert_eq!(
                got, recon,
                "{what}: case {i} clean decode != reconstruction"
            );
        } else {
            damaged += 1;
            damaged_differ += usize::from(got != recon);
        }
    }
    assert!(
        damaged_differ * 10 >= damaged * 9,
        "{what}: only {damaged_differ} of {damaged} damaged decodes differ from the reconstruction"
    );
}

#[test]
fn decoded_pixels_match_the_recorded_digest_at_any_worker_count() {
    let cases = cases();
    for threads in [1, 2, 3, 8] {
        let decoded: Vec<Video> =
            vapp_par::with_threads(threads, || cases.iter().map(|(s, ..)| decode(s)).collect());
        let what = format!("{threads} workers");
        check_recon(&cases, &decoded, &what);
        assert_eq!(
            digest(&decoded),
            DECODED_DIGEST,
            "{what}: decoded-pixel digest {:#018x}",
            digest(&decoded)
        );
    }
}

#[test]
fn nested_decodes_match_the_recorded_digest() {
    let cases = cases();
    let streams: Vec<&EncodedVideo> = cases.iter().map(|(s, ..)| s).collect();
    let decoded = vapp_par::with_threads(4, || vapp_par::par_map(streams, |_, s| decode(s)));
    check_recon(&cases, &decoded, "nested");
    assert_eq!(
        digest(&decoded),
        DECODED_DIGEST,
        "nested: decoded-pixel digest {:#018x}",
        digest(&decoded)
    );
}

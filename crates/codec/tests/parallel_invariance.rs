//! The encoder's parallel path — mode decision as a macroblock-row
//! wavefront, followed by a sequential coding pass — must never change
//! its output: at one worker or eight, with one slice or several, the
//! coded bytes, the reconstruction, every macroblock's bit span and the
//! search counters are identical.

use std::sync::Arc;
use vapp_codec::{EncodeResult, Encoder, EncoderConfig, EntropyMode};
use vapp_obs::registry::with_registry;
use vapp_obs::Registry;
use vapp_workloads::{ClipSpec, SceneKind};

/// The search counters the encoder records once per frame.
const SEARCH_COUNTERS: [&str; 5] = [
    "codec.sad.early_exit",
    "codec.search.fullpel_cands",
    "codec.search.map_builds",
    "codec.search.halfpel_cands",
    "codec.search.bipred_evals",
];

/// Encodes on `threads` workers into a fresh registry; returns the result
/// and the search counter totals.
fn encode_counted(
    enc: &Encoder,
    video: &vapp_media::Video,
    threads: usize,
) -> (EncodeResult, Vec<u64>) {
    let reg = Arc::new(Registry::new());
    let result = with_registry(reg.clone(), || {
        vapp_par::with_threads(threads, || enc.encode(video))
    });
    let counters = SEARCH_COUNTERS
        .iter()
        .map(|name| reg.counter(name).get())
        .collect();
    (result, counters)
}

#[test]
fn encoded_stream_is_thread_count_invariant() {
    // 7x5 macroblocks: enough rows for three slices and for several
    // wavefront rows in flight at once.
    let video = ClipSpec::new(112, 80, 10, SceneKind::MovingBlocks)
        .seed(21)
        .generate();
    for entropy in [EntropyMode::Cabac, EntropyMode::Cavlc] {
        for slices in [1u8, 3] {
            let cfg = EncoderConfig {
                keyint: 6,
                bframes: 2,
                slices,
                entropy,
                ..Default::default()
            };
            let enc = Encoder::new(cfg);
            let (seq, seq_counters) = encode_counted(&enc, &video, 1);
            assert!(
                seq_counters.iter().all(|&c| c > 0),
                "{entropy:?}/{slices}: every search counter must move: {seq_counters:?}"
            );
            for threads in [2, 3, 8] {
                let what = format!("{entropy:?}, {slices} slices, {threads} workers");
                let (par, par_counters) = encode_counted(&enc, &video, threads);
                assert_eq!(seq.stream, par.stream, "{what}: stream differs");
                assert_eq!(
                    seq.reconstruction, par.reconstruction,
                    "{what}: reconstruction differs"
                );
                // Per-macroblock bit_start/bit_end and dependencies.
                assert_eq!(seq.analysis, par.analysis, "{what}: analysis differs");
                assert_eq!(
                    seq_counters, par_counters,
                    "{what}: search counters {SEARCH_COUNTERS:?} differ"
                );
            }
        }
    }
}

//! `trials_720p`: the paper's Monte-Carlo evaluation loop (§6.4) on
//! encrypted approximate storage (§5).
//!
//! One 720p reference clip is encoded during set-up. Each trial splits
//! its payload into protection streams, encrypts them with AES-CTR,
//! damages each stream on MLC PCM at its ladder strength, decrypts,
//! merges, decodes and scores. The least-important level is stored
//! unprotected, so residual errors reach the decoder; no encoder work
//! happens here.
//!
//! As in the paper, the video is fixed across trials: [`TRIALS`] damage
//! draws, run [`TRIALS_PER_ROUND`] per round in a cycle, and
//! `psnr_loss_db` is their mean. A trial's ΔPSNR hinges on whether one of
//! its ~3 unprotected flips lands on a sensitive bit, so the mean of 64
//! draws still moves by ~30% (quartile spread) from one set of draws to
//! the next — too much for a regression bound. The clip and the damage
//! draws are therefore a fixed reference set, and the run seed draws the
//! AES key and the per-trial IVs: the cipher sees new inputs every run,
//! and `psnr_loss_db` moves only when the code does.

use vapp_codec::{decode, EncodedVideo, Encoder};
use vapp_crypto::{Block, CipherMode, Key};
use vapp_media::Video;
use vapp_metrics::video_psnr;
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_sim::derive_subseeds;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    merge_streams, mlc_pcm, split_streams, DependencyGraph, EcScheme, ImportanceMap, PivotTable,
    ProtectedStreams, Substrate,
};

use crate::ledger::Ledger;
use crate::metrics::{Metric, ObsTotals};
use crate::store::{encoder_config, FRAMES, HEIGHT, RAW_BER, WIDTH};
use crate::{Flow, Round};

/// Seeded trials behind `psnr_loss_db`.
pub const TRIALS: usize = 64;
/// Trials per round; round `r` runs slice `r % SLICES` of the trials.
pub const TRIALS_PER_ROUND: usize = 8;
/// Rounds in one pass over all trials.
pub const SLICES: usize = TRIALS / TRIALS_PER_ROUND;
/// Content seed of the reference clip.
const CLIP_SEED: u64 = 0x7e57_c11b;
/// Master seed of the reference damage draws.
const DAMAGE_SEED: u64 = 0xda3a_6e5e;
/// Importance thresholds between the four protection levels.
const THRESHOLDS: [f64; 3] = [32.0, 512.0, 8192.0];
/// Weakest level first: the bulk of the payload rides unprotected.
const LADDER: [EcScheme; 4] = [
    EcScheme::None,
    EcScheme::Bch(6),
    EcScheme::Bch(9),
    EcScheme::Bch(11),
];

/// The trials flow's inputs, built once per set-up.
pub struct TrialsFlow {
    video: Video,
    stream: EncodedVideo,
    table: PivotTable,
    clean_db: f64,
    substrate: std::sync::Arc<dyn Substrate>,
    key: Key,
    ivs: Vec<Block>,
    trial_seeds: Vec<u64>,
    rounds: usize,
}

/// One trial's damaged output.
struct Trial {
    decoded: Video,
    flips: u64,
}

/// The fixed reference clip every trial damages.
pub fn reference_clip() -> ClipSpec {
    ClipSpec::new(WIDTH, HEIGHT, FRAMES, SceneKind::Panning).seed(CLIP_SEED)
}

impl TrialsFlow {
    /// Encodes the reference clip and draws the key and IVs from
    /// `seed`.
    pub fn new(video: Video, seed: u64) -> Self {
        let enc = Encoder::new(encoder_config()).encode(&video);
        let graph = DependencyGraph::from_analysis(&enc.analysis);
        let importance = ImportanceMap::compute(&graph);
        let table = PivotTable::build(&enc.analysis, &importance, &THRESHOLDS);
        let clean_db = video_psnr(&video, &enc.reconstruction);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7419_a15e);
        let key: Key = rng.random();
        let ivs = (0..TRIALS).map(|_| rng.random()).collect();
        TrialsFlow {
            video,
            stream: enc.stream,
            table,
            clean_db,
            substrate: mlc_pcm(RAW_BER),
            key,
            ivs,
            trial_seeds: derive_subseeds(DAMAGE_SEED, TRIALS),
            rounds: 0,
        }
    }

    /// Damages every stream in place with per-level seeds derived from
    /// `seed`; returns the raw flips injected.
    fn corrupt(&self, streams: &mut ProtectedStreams, seed: u64) -> u64 {
        let seeds = derive_subseeds(seed, streams.level_data.len());
        let mut flips = 0;
        for (level, data) in streams.level_data.iter_mut().enumerate() {
            let t = LADDER[level.min(LADDER.len() - 1)].t();
            flips += self
                .substrate
                .corrupt_stream(data, streams.level_bits[level], t, true, seeds[level])
                .flips;
        }
        flips
    }

    /// The plaintext path: the same damage with no cipher in between.
    fn plaintext_trial(&self, seed: u64) -> Video {
        let mut streams = split_streams(&self.stream, &self.table);
        self.corrupt(&mut streams, seed);
        decode(&merge_streams(&self.stream, &self.table, &streams))
    }

    fn trial(&self, index: usize, ledger: &mut Ledger) -> Trial {
        let (seed, iv) = (self.trial_seeds[index], self.ivs[index]);
        let mut streams = ledger.time("core.split", || split_streams(&self.stream, &self.table));
        ledger.time("crypto.encrypt", || {
            streams.encrypt(CipherMode::Ctr, &self.key, &iv)
        });
        let flips = ledger.time("storage.corrupt", || self.corrupt(&mut streams, seed));
        ledger.time("crypto.decrypt", || {
            streams.decrypt(CipherMode::Ctr, &self.key, &iv)
        });
        let merged = ledger.time("core.merge", || {
            merge_streams(&self.stream, &self.table, &streams)
        });
        let decoded = ledger.time("codec.decode", || decode(&merged));
        Trial { decoded, flips }
    }
}

impl Flow for TrialsFlow {
    const NAME: &'static str = "trials";
    // One pass over every trial, and one rerun.
    const MIN_ROUNDS: usize = SLICES + 1;

    fn round(&mut self, ledger: &mut Ledger) -> Round {
        let slice = self.rounds % SLICES;
        let mut round = Round {
            replay: slice,
            ..Round::default()
        };
        let mut loss_sum = 0.0;
        let mut flips = 0;
        // Each round checks one of its trials against the plaintext path,
        // a different one on every pass over the slices.
        let sampled = (self.rounds / SLICES) % TRIALS_PER_ROUND;
        let mut sampled_decode = None;
        let first = slice * TRIALS_PER_ROUND;
        for i in 0..TRIALS_PER_ROUND {
            ledger.next_op();
            let start = std::time::Instant::now();
            let trial = self.trial(first + i, ledger);
            let db = ledger.time("metrics.psnr", || video_psnr(&self.video, &trial.decoded));
            round.wall += start.elapsed().as_secs_f64();
            round.ops += 1;
            if trial.decoded.len() != self.video.len() {
                round.fail(format!(
                    "trial {}: decode returned {} of {} frames",
                    first + i,
                    trial.decoded.len(),
                    self.video.len()
                ));
            }
            loss_sum += self.clean_db - db;
            flips += trial.flips;
            if i == sampled {
                sampled_decode = Some(trial.decoded);
            }
        }
        // §5 requirement 3, outside the timed window: damage to the
        // ciphertext decodes exactly like the same damage to plaintext.
        let plain = crate::unobserved(|| self.plaintext_trial(self.trial_seeds[first + sampled]));
        if sampled_decode.as_ref() != Some(&plain) {
            round.fail(format!(
                "trial {}: ciphertext damage decodes differently from plaintext damage",
                first + sampled
            ));
        }
        self.rounds += 1;
        let loss = loss_sum / TRIALS_PER_ROUND as f64;
        round.quality = vec![("psnr_loss_db", loss)];
        round.fingerprint = vec![("psnr_loss_db", loss.to_bits()), ("flips", flips)];
        round
    }

    fn end_to_end(rounds: &[Round]) -> Result<Vec<Metric>, String> {
        Ok(vec![
            crate::overall_rate("trials_per_s", rounds, 1.0)?,
            Metric::new(
                "psnr_loss_db",
                crate::replay_mean(rounds, "psnr_loss_db", SLICES)?,
            ),
        ])
    }

    fn per_layer(
        rounds: &[Round],
        ledger: &Ledger,
        obs: &ObsTotals,
    ) -> Result<Vec<Metric>, String> {
        let trials: u64 = rounds.iter().map(|r| r.ops).sum();
        let layer = |name| crate::traced_seconds_per_op(rounds, ledger, Self::NAME, name);
        let blocks = obs.counter("storage.bch.blocks");
        Ok(vec![
            Metric::new("codec.decode.s", layer("codec.decode")),
            Metric::new("core.split.s", layer("core.split")),
            Metric::new("core.merge.s", layer("core.merge")),
            Metric::new("crypto.encrypt.s", layer("crypto.encrypt")),
            Metric::new("crypto.decrypt.s", layer("crypto.decrypt")),
            Metric::new("storage.corrupt.s", layer("storage.corrupt")),
            Metric::new("metrics.psnr.s", layer("metrics.psnr")),
            Metric::new("storage.bch.blocks", blocks as f64 / trials as f64),
            Metric::new(
                "storage.bch.clean_frac",
                obs.counter("storage.bch.clean") as f64 / blocks.max(1) as f64,
            ),
            Metric::new(
                "storage.batch.dirty_lanes.mean",
                obs.hist_mean("storage.batch.dirty_lanes"),
            ),
        ])
    }
}

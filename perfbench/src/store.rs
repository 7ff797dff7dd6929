//! `store_720p`: the paper's unit of work (§5, §6.3) — a 720p clip
//! encoded, analysed, stored on MLC PCM at raw BER 1e-3 under the
//! `vapp store` ladder, loaded back, decoded and scored.
//!
//! A round is one Panning clip (search-heavy) and one LocalMotion clip
//! (skip-heavy), so every round does the same mix of encoder work and
//! rounds of one seed repeat exactly.

use vapp_codec::{decode, Encoder, EncoderConfig};
use vapp_media::Video;
use vapp_metrics::video_psnr;
use vapp_rand::rngs::StdRng;
use vapp_rand::SeedableRng;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::{
    mlc_pcm, ApproxStore, DependencyGraph, EcScheme, ImportanceMap, PivotTable, StoragePolicy,
};

use crate::ledger::Ledger;
use crate::metrics::{Metric, ObsTotals};
use crate::{Flow, Round};

/// Clip geometry: the paper's 720p operating point.
pub const WIDTH: usize = 1280;
/// See [`WIDTH`].
pub const HEIGHT: usize = 720;
/// Frames per clip: one I frame and seven P/B frames at keyint 24.
pub const FRAMES: usize = 8;
/// Raw bit error rate of the MLC substrate (the 90-day scrub point).
pub const RAW_BER: f64 = 1e-3;
/// Largest PSNR drop storage may cause (the paper's quality budget).
const PSNR_BUDGET_DB: f64 = 0.3;

/// The encoder settings of every 720p workload.
pub fn encoder_config() -> EncoderConfig {
    EncoderConfig {
        crf: 24,
        keyint: 24,
        bframes: 2,
        ..Default::default()
    }
}

/// The pair of clips one round stores, seeded from the run seed.
pub fn clip_specs(seed: u64) -> [ClipSpec; 2] {
    [
        ClipSpec::new(WIDTH, HEIGHT, FRAMES, SceneKind::Panning).seed(seed),
        ClipSpec::new(WIDTH, HEIGHT, FRAMES, SceneKind::LocalMotion).seed(seed.wrapping_add(1)),
    ]
}

/// The store flow's inputs, built once per set-up.
pub struct StoreFlow {
    clips: [Video; 2],
    encoder: Encoder,
    store: ApproxStore,
    thresholds: Vec<f64>,
    seed: u64,
    rounds: u64,
}

impl StoreFlow {
    /// Builds the flow over already generated clips.
    pub fn new(clips: [Video; 2], seed: u64) -> Self {
        let thresholds = vec![8.0, 128.0, 2048.0];
        StoreFlow {
            clips,
            encoder: Encoder::new(encoder_config()),
            store: ApproxStore::new(StoragePolicy {
                ladder_levels: vec![
                    EcScheme::Bch(6),
                    EcScheme::Bch(7),
                    EcScheme::Bch(9),
                    EcScheme::Bch(11),
                ],
                thresholds: thresholds.clone(),
                substrate: mlc_pcm(RAW_BER),
                exact_bch: true,
            }),
            thresholds,
            seed,
            rounds: 0,
        }
    }
}

impl Flow for StoreFlow {
    const NAME: &'static str = "store";
    const MIN_ROUNDS: usize = 2;

    fn round(&mut self, ledger: &mut Ledger) -> Round {
        let mut round = Round::default();
        let (mut payload_bits, mut cells, mut psnr) = (0u64, 0.0f64, 0.0f64);
        for (k, video) in self.clips.iter().enumerate() {
            ledger.next_op();
            let start = std::time::Instant::now();
            let enc = ledger.time("codec.encode", || self.encoder.encode(video));
            let (table, report) = ledger.time("core.analysis", || {
                let graph = DependencyGraph::from_analysis(&enc.analysis);
                let importance = ImportanceMap::compute(&graph);
                let table = PivotTable::build(&enc.analysis, &importance, &self.thresholds);
                let report = self
                    .store
                    .report(&enc.stream, &table, video.total_pixels() as u64);
                (table, report)
            });
            let mut rng = StdRng::seed_from_u64(self.seed ^ k as u64);
            let loaded = ledger.time("core.store_load", || {
                self.store.store_load(&enc.stream, &table, &mut rng)
            });
            let decoded = ledger.time("codec.decode", || decode(&loaded));
            let (stored_db, clean_db) = ledger.time("metrics.psnr", || {
                (
                    video_psnr(video, &decoded),
                    video_psnr(video, &enc.reconstruction),
                )
            });
            round.wall += start.elapsed().as_secs_f64();
            round.ops += 1;

            // Checks, outside the timed window. The clean decode is a
            // full extra decode, so it runs in the first round only;
            // later rounds are held to the first by the fingerprint.
            if self.rounds == 0 && crate::unobserved(|| decode(&enc.stream)) != enc.reconstruction {
                round.fail(format!(
                    "clip {k}: clean decode differs from the encoder's reconstruction"
                ));
            }
            if decoded.len() != video.len() {
                round.fail(format!(
                    "clip {k}: decode returned {} frames",
                    decoded.len()
                ));
            }
            // Written so that a NaN PSNR fails too.
            let within_budget = clean_db - stored_db <= PSNR_BUDGET_DB;
            if !within_budget {
                round.fail(format!(
                    "clip {k}: PSNR after storage {stored_db:.3} dB is more than \
                     {PSNR_BUDGET_DB} dB below error-free {clean_db:.3} dB"
                ));
            }
            payload_bits += enc.stream.payload_bits();
            cells += report.cells_per_pixel();
            psnr += stored_db;
        }
        self.rounds += 1;
        let n = self.clips.len() as f64;
        round.quality = vec![("cells_per_pixel", cells / n), ("psnr_db", psnr / n)];
        round.fingerprint = vec![
            ("codec.payload.bits", payload_bits),
            ("cells_per_pixel", (cells / n).to_bits()),
            ("psnr_db", (psnr / n).to_bits()),
        ];
        round
    }

    fn end_to_end(rounds: &[Round]) -> Result<Vec<Metric>, String> {
        let first = &rounds[0];
        Ok(vec![
            crate::overall_rate("store_fps", rounds, FRAMES as f64)?,
            Metric::new("cells_per_pixel", first.quality_value("cells_per_pixel")),
            Metric::new("psnr_db", first.quality_value("psnr_db")),
        ])
    }

    fn per_layer(
        rounds: &[Round],
        ledger: &Ledger,
        obs: &ObsTotals,
    ) -> Result<Vec<Metric>, String> {
        let clips: u64 = rounds.iter().map(|r| r.ops).sum();
        let per_clip = |v: f64| v / clips as f64;
        let layer = |name| crate::traced_seconds_per_op(rounds, ledger, Self::NAME, name);
        Ok(vec![
            Metric::new("codec.encode.s", layer("codec.encode")),
            Metric::new("codec.mb.search.s", per_clip(obs.span_s("codec.mb.search"))),
            Metric::new(
                "codec.mb.transform.s",
                per_clip(obs.span_s("codec.mb.transform")),
            ),
            Metric::new(
                "codec.sad.early_exit",
                per_clip(obs.counter("codec.sad.early_exit") as f64),
            ),
            Metric::new("par.busy_frac", obs.par_busy_frac()),
            Metric::new(
                "codec.payload.bits",
                per_clip(obs.counter("codec.payload.bits") as f64),
            ),
            Metric::new("core.analysis.s", layer("core.analysis")),
            Metric::new("core.store_load.s", layer("core.store_load")),
        ])
    }
}

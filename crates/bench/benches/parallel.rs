//! Scaling of the deterministic parallel layer: three workloads pinned to
//! 1 / 2 / 4 / 8 workers via `vapp_par::with_threads` — the
//! `measure_loss_curve` trial fan-out (`loss_curve_w*`), a CIF encode,
//! whose mode decision runs as a macroblock-row wavefront (`encode_w*`),
//! and the decode of that CIF stream, whose parse and reconstruction run
//! as a two-stage pipeline (`decode_w*`). By the vapp-par invariant the
//! outputs are byte-identical at every point on these curves — only
//! wall-clock moves — so the per-worker medians in `BENCH_parallel.json`
//! read directly as scaling curves.

use std::hint::black_box;
use vapp_bench::harness::Criterion;
use vapp_bench::{criterion_group, criterion_main};
use vapp_codec::{decode, Encoder, EncoderConfig};
use vapp_sim::Trials;
use vapp_workloads::{ClipSpec, SceneKind};
use videoapp::pipeline::measure_loss_curve;

fn bench_parallel(c: &mut Criterion) {
    let video = ClipSpec::new(112, 64, 8, SceneKind::MovingBlocks)
        .seed(7)
        .generate();
    let result = Encoder::new(EncoderConfig {
        keyint: 8,
        bframes: 2,
        ..EncoderConfig::default()
    })
    .encode(&video);
    let ranges = [0..result.stream.payload_bits()];
    let rates = [1e-4, 1e-3];

    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("loss_curve_w{workers}"), |b| {
            b.iter(|| {
                vapp_par::with_threads(workers, || {
                    black_box(measure_loss_curve(
                        &result.stream,
                        &video,
                        &ranges,
                        &rates,
                        Trials::new(8, 42),
                    ))
                })
            });
        });
    }
    // CIF (352x288), 8 frames, two B frames between anchors.
    let cif = ClipSpec::new(352, 288, 8, SceneKind::MovingBlocks)
        .seed(7)
        .generate();
    let cif_encoder = Encoder::new(EncoderConfig {
        bframes: 2,
        ..EncoderConfig::default()
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("encode_w{workers}"), |b| {
            b.iter(|| vapp_par::with_threads(workers, || black_box(cif_encoder.encode(&cif))));
        });
    }
    let cif_stream = cif_encoder.encode(&cif).stream;
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("decode_w{workers}"), |b| {
            b.iter(|| vapp_par::with_threads(workers, || black_box(decode(&cif_stream))));
        });
    }
    group.finish();
    // Expose the run's counters — notably the par.worker.* utilization
    // series — for scaling_check --obs (and VAPP_OBS_TRACE if set).
    vapp_obs::maybe_write_run_snapshot("parallel");
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);

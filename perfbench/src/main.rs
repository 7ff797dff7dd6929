//! perfbench — the repository's benchmark, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload store_720p|trials_720p|archive_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! One process sets up and runs all three flows — the 720p store flow,
//! the encrypted damage trials and the mixed archive fleet — with
//! `vapp-par` pinned to every available core. The named workload gets
//! most of the `--seconds` window, the other of store and trials most of
//! the rest and the archive flow about its minimum rounds, so every run
//! reports every end-to-end metric; rounds of the three flows
//! interleave, so each flow samples the whole window. Each flow repeats
//! fixed, seeded rounds of work: total work over total round time gives
//! the throughputs, and a round that reruns earlier seeded work must
//! reproduce its counts exactly (the determinism check). `--trace 1`
//! instead times every layer call, keeps the spans in memory, writes them
//! to `perfbench/out/` at the end and prints the per-layer metrics. The
//! last stdout line is the JSON result; the exit code is nonzero when any
//! correctness or determinism check fails.

mod archive;
mod ledger;
mod metrics;
mod stats;
mod store;
mod trials;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ledger::Ledger;
use metrics::{Metric, ObsTotals, END_TO_END, PER_LAYER};

/// The three workloads and the flow each one focuses on.
const WORKLOADS: [(&str, &str); 3] = [
    ("store_720p", store::StoreFlow::NAME),
    ("trials_720p", trials::TrialsFlow::NAME),
    ("archive_mixed", archive::ArchiveFlow::NAME),
];
/// Share of `--seconds` the named workload's flow measures.
const FOCUS_SHARE: f64 = 0.54;
/// Share of the archive flow beside another focus: its timings gate
/// nothing, so it runs about its minimum rounds and leaves the window to
/// the store and trials throughputs, which every run gates.
const ARCHIVE_COMPANION_SHARE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A workload flow: fixed, seeded rounds of work, repeated.
pub trait Flow {
    /// Flow name, as it appears in per-layer metrics and traces.
    const NAME: &'static str;
    /// Rounds the flow runs at least: enough that some round reruns
    /// earlier work (for the determinism check) and that a traced run
    /// has untraced and traced rounds.
    const MIN_ROUNDS: usize;
    /// Runs one round, timing layer calls through `ledger`.
    fn round(&mut self, ledger: &mut Ledger) -> Round;
    /// The flow's end-to-end metrics over untraced rounds.
    fn end_to_end(rounds: &[Round]) -> Result<Vec<Metric>, String>;
    /// The flow's per-layer metrics.
    fn per_layer(rounds: &[Round], ledger: &Ledger, obs: &ObsTotals)
        -> Result<Vec<Metric>, String>;
}

/// What one round of a flow produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Whether layer calls were traced in this round.
    pub traced: bool,
    /// Rounds with equal keys rerun the same seeded work.
    pub replay: usize,
    /// Seconds of timed work; checks run outside it.
    pub wall: f64,
    /// Ops completed: clips, trials or client requests.
    pub ops: u64,
    /// Seeded quality values (identical in every round of a seed).
    pub quality: Vec<(&'static str, f64)>,
    /// Latency samples, in microseconds.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Seeded counts that must repeat exactly in every round.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// The program's own counters, spans and histograms for the round.
    pub obs: ObsTotals,
}

impl Round {
    /// Records a failed check.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// A quality value by name.
    ///
    /// # Panics
    ///
    /// Panics if the flow did not record it (a bug in the flow).
    pub fn quality_value(&self, name: &str) -> f64 {
        self.quality
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("flow recorded no {name}"))
    }
}

/// Runs `f` against a throwaway metrics registry, so checks and set-up
/// do not count towards a round's program counters.
pub fn unobserved<T>(f: impl FnOnce() -> T) -> T {
    vapp_obs::registry::with_registry(Arc::new(vapp_obs::Registry::new()), f)
}

/// The mean of quality value `name` over replay keys `0..keys`, each
/// taken from its first round. Fails unless every key ran.
pub fn replay_mean(rounds: &[Round], name: &str, keys: usize) -> Result<f64, String> {
    let mut per_key = vec![None; keys];
    for r in rounds {
        per_key[r.replay].get_or_insert(r.quality_value(name));
    }
    let values: Option<Vec<f64>> = per_key.into_iter().collect();
    let values = values.ok_or_else(|| format!("{name}: not every replay key ran"))?;
    Ok(values.iter().sum::<f64>() / keys as f64)
}

/// Ops per second over all of `rounds`, each op weighing `per_op`
/// (frames per clip, say): total work over total timed seconds. The
/// host's speed drifts between a fast and a slow regime, so a median of
/// round rates flips between them; the overall rate moves only in
/// proportion to the time spent in each.
pub fn overall_rate(name: &'static str, rounds: &[Round], per_op: f64) -> Result<Metric, String> {
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall).sum();
    if ops == 0 || wall <= 0.0 {
        return Err(format!("{name}: no timed ops"));
    }
    Ok(Metric {
        samples: Some(ops as usize),
        ..Metric::new(name, ops as f64 * per_op / wall)
    })
}

/// Traced seconds in `layer` per op of `flow`'s traced rounds.
pub fn traced_seconds_per_op(rounds: &[Round], ledger: &Ledger, flow: &str, layer: &str) -> f64 {
    let ops: u64 = rounds.iter().filter(|r| r.traced).map(|r| r.ops).sum();
    let ns: u64 = ledger
        .spans()
        .iter()
        .filter(|s| s.flow == flow && s.name == layer)
        .map(|s| s.dur_ns)
        .sum();
    ns as f64 / 1e9 / ops.max(1) as f64
}

struct Args {
    workload: &'static str,
    focus: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(w, _)| *w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let &(workload, focus) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        focus,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything the three flows need before timing starts.
struct Inputs {
    store: store::StoreFlow,
    trials: trials::TrialsFlow,
    archive: archive::ArchiveFlow,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    // Generating the three 720p clips is most of set-up; they are
    // independent, so they render side by side.
    let [pan, local] = store::clip_specs(seed);
    let specs = vec![pan, local, trials::reference_clip()];
    let [pan, local, reference]: [_; 3] = vapp_par::par_map(specs, |_, spec| spec.generate())
        .try_into()
        .expect("three clips");
    Ok(Inputs {
        store: store::StoreFlow::new([pan, local], seed),
        trials: trials::TrialsFlow::new(reference, seed),
        archive: archive::ArchiveFlow::new(seed)?,
    })
}

/// One flow's share of the window and the rounds it ran.
struct FlowRun<'a> {
    name: &'static str,
    budget: f64,
    min_rounds: usize,
    round: Box<dyn FnMut(&mut Ledger) -> Round + 'a>,
    rounds: Vec<Round>,
    /// Seconds each round took, checks included.
    round_s: Vec<f64>,
}

impl<'a> FlowRun<'a> {
    fn new<F: Flow>(flow: &'a mut F, budget: f64) -> Self {
        FlowRun {
            name: F::NAME,
            budget,
            min_rounds: F::MIN_ROUNDS,
            round: Box::new(|ledger| flow.round(ledger)),
            rounds: Vec::new(),
            round_s: Vec::new(),
        }
    }

    fn used(&self) -> f64 {
        self.round_s.iter().sum()
    }

    /// Whether another round still fits the flow's share.
    fn wants_more(&self) -> bool {
        self.rounds.len() < self.min_rounds
            || self.used() + stats::median(&self.round_s).unwrap_or(0.0) <= self.budget
    }

    fn run_round(&mut self, trace: bool, ledger: &mut Ledger) {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured on the same inputs.
        let traced = trace && self.rounds.len() % 2 == 1;
        ledger.set_flow(self.name);
        ledger.set_tracing(traced);
        let reg = Arc::new(vapp_obs::Registry::new());
        let t = Instant::now();
        let mut round = vapp_obs::registry::with_registry(reg.clone(), || (self.round)(ledger));
        self.round_s.push(t.elapsed().as_secs_f64());
        ledger.set_tracing(false);
        round.traced = traced;
        round.obs = ObsTotals::from_snapshot(&reg.snapshot());
        self.rounds.push(round);
    }

    fn obs(&self) -> ObsTotals {
        let mut t = ObsTotals::default();
        for r in &self.rounds {
            t.absorb(&r.obs);
        }
        t
    }

    /// Failed checks, plus one failure per seeded count that a rerun
    /// did not reproduce.
    fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .rounds
            .iter()
            .flat_map(|r| r.failures.iter().map(|f| format!("{}: {f}", self.name)))
            .collect();
        let mut reruns = 0;
        for (i, r) in self.rounds.iter().enumerate() {
            let Some(j) = self.rounds[..i].iter().position(|p| p.replay == r.replay) else {
                continue;
            };
            reruns += 1;
            for ((name, a), (_, b)) in self.rounds[j].fingerprint.iter().zip(&r.fingerprint) {
                if a != b {
                    out.push(format!(
                        "{}: determinism: {name} is {b} in round {i} but {a} in round {j}",
                        self.name
                    ));
                }
            }
        }
        if reruns == 0 {
            out.push(format!(
                "{}: determinism: no round reran earlier work",
                self.name
            ));
        }
        out
    }

    fn traced_wall(&self) -> f64 {
        self.rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.wall)
            .sum()
    }

    /// Median traced round ÷ median untraced round − 1.
    fn trace_overhead(&self) -> f64 {
        let walls = |traced: bool| -> Vec<f64> {
            self.rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall)
                .collect()
        };
        match (stats::median(&walls(true)), stats::median(&walls(false))) {
            (Some(t), Some(u)) => t / u - 1.0,
            _ => 0.0,
        }
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak_rss_mb: no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let workers = vapp_par::available();
    vapp_par::set_threads(Some(workers));
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} workers {workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(unobserved(|| setup(args.seed))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.expect("set-up ran");

    let archive_share = if args.focus == archive::ArchiveFlow::NAME {
        FOCUS_SHARE
    } else {
        ARCHIVE_COMPANION_SHARE
    };
    let budget = |flow: &str| {
        args.seconds
            * if flow == args.focus {
                FOCUS_SHARE
            } else if flow == archive::ArchiveFlow::NAME {
                archive_share
            } else {
                1.0 - FOCUS_SHARE - archive_share
            }
    };
    let mut ledger = Ledger::new();
    let mut flows = [
        FlowRun::new(&mut inputs.store, budget(store::StoreFlow::NAME)),
        FlowRun::new(&mut inputs.trials, budget(trials::TrialsFlow::NAME)),
        FlowRun::new(&mut inputs.archive, budget(archive::ArchiveFlow::NAME)),
    ];
    // Interleave: always run the flow furthest behind its share.
    while let Some(next) = flows
        .iter_mut()
        .filter(|f| f.wants_more())
        .min_by(|a, b| (a.used() / a.budget).total_cmp(&(b.used() / b.budget)))
    {
        next.run_round(args.trace, &mut ledger);
    }
    let [store_run, trials_run, archive_run] = &flows;

    let failures: Vec<String> = flows.iter().flat_map(FlowRun::failures).collect();
    let attempted: u64 = flows
        .iter()
        .flat_map(|f| f.rounds.iter().map(|r| r.ops))
        .sum();
    let failed = (failures.len() as u64).min(attempted);

    let rows = if args.trace {
        let mut m = store::StoreFlow::per_layer(&store_run.rounds, &ledger, &store_run.obs())?;
        m.extend(trials::TrialsFlow::per_layer(
            &trials_run.rounds,
            &ledger,
            &trials_run.obs(),
        )?);
        m.extend(archive::ArchiveFlow::per_layer(
            &archive_run.rounds,
            &ledger,
            &archive_run.obs(),
        )?);
        let mut unattributed = 0.0;
        for f in &flows {
            let covered: u64 = ledger
                .spans()
                .iter()
                .filter(|s| s.flow == f.name)
                .map(|s| s.dur_ns)
                .sum();
            let covered = covered as f64 / 1e9;
            let wall = f.traced_wall();
            unattributed += wall - covered;
            let name = match f.name {
                "store" => "store.covered_frac",
                "trials" => "trials.covered_frac",
                _ => "archive.covered_frac",
            };
            m.push(Metric::new(name, covered / wall));
        }
        let focus = flows.iter().find(|f| f.name == args.focus).expect("focus");
        m.push(Metric::new(
            "obs.trace_overhead_frac",
            focus.trace_overhead(),
        ));
        m.push(Metric::new("unattributed.s", unattributed));
        m.push(Metric::new("par.workers", workers as f64));

        let path = format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        );
        let file = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::File::create(&path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        ledger
            .write_chrome_trace(std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "perfbench: wrote {} spans to {path} ({} dropped)",
            ledger.spans().len(),
            ledger.dropped()
        );
        metrics::in_table_order(&m, PER_LAYER)?
    } else {
        let mut m = vec![
            Metric::median("setup_s", &setup_s)?,
            Metric::new("peak_rss_mb", peak_rss_mb()?),
        ];
        m.extend(store::StoreFlow::end_to_end(&store_run.rounds)?);
        m.extend(trials::TrialsFlow::end_to_end(&trials_run.rounds)?);
        m.extend(archive::ArchiveFlow::end_to_end(&archive_run.rounds)?);
        metrics::in_table_order(&m, END_TO_END)?
    };

    for f in &flows {
        let walls: Vec<String> = f.rounds.iter().map(|r| format!("{:.3}", r.wall)).collect();
        println!(
            "perfbench: {} ran {} rounds, {} ops; round seconds [{}]",
            f.name,
            f.rounds.len(),
            f.rounds.iter().map(|r| r.ops).sum::<u64>(),
            walls.join(" ")
        );
    }
    print!("{}", metrics::render_table(&rows));
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        metrics::render_json(correct, attempted, failed, &rows)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

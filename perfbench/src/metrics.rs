//! The metric table, reported values, and their rendering.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract with
//! its reader: the run prints exactly these names, with these units, and
//! the repository's `BENCHMARK.json` must list the same (a unit test
//! holds the two together).

use std::collections::BTreeMap;

use vapp_obs::{Sketch, Snapshot};

use crate::stats;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, losses, memory).
    Lower,
    /// Larger is better (throughput, quality).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`, at most 64 characters).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("store_fps", "frame/s", Higher),
    def("cells_per_pixel", "cell/px", Lower),
    def("psnr_db", "dB", Higher),
    def("trials_per_s", "trial/s", Higher),
    def("psnr_loss_db", "dB", Lower),
    def("reject_frac", "frac", Lower),
    def("degraded_read_frac", "frac", Lower),
];

/// Per-layer metrics, reported by every traced run. Layer times are
/// seconds per op of the flow that calls the layer: per clip on the
/// store flow, per trial on the trials flow, per client request on the
/// archive flow. The archive flow's throughput and latencies sit here,
/// taken from the run's untraced rounds: its per-drain fan-out turns
/// CPU time stolen from the host into swings no regression bound holds.
pub const PER_LAYER: &[MetricDef] = &[
    def("codec.encode.s", "s", Lower),
    def("codec.mb.search.s", "s", Lower),
    def("codec.mb.transform.s", "s", Lower),
    def("codec.sad.early_exit", "count", Higher),
    def("par.busy_frac", "frac", Higher),
    def("par.workers", "count", Higher),
    def("codec.payload.bits", "bit", Lower),
    def("core.analysis.s", "s", Lower),
    def("core.store_load.s", "s", Lower),
    def("codec.decode.s", "s", Lower),
    def("core.split.s", "s", Lower),
    def("core.merge.s", "s", Lower),
    def("crypto.encrypt.s", "s", Lower),
    def("crypto.decrypt.s", "s", Lower),
    def("storage.corrupt.s", "s", Lower),
    def("metrics.psnr.s", "s", Lower),
    def("storage.bch.blocks", "count", Lower),
    def("storage.bch.clean_frac", "frac", Higher),
    def("storage.batch.dirty_lanes.mean", "count", Lower),
    def("archive_ops_per_s", "op/s", Higher),
    def("read_us_p50", "us", Lower),
    def("read_us_p99", "us", Lower),
    def("ingest_us_p99", "us", Lower),
    def("archive.submit.s", "s", Lower),
    def("archive.drain.s", "s", Lower),
    def("storage.batch.decode.s", "s", Lower),
    def("archive.cache.hit_frac", "frac", Higher),
    def("archive.cache.evictions", "count", Lower),
    def("archive.read_hit.us_p50", "us", Lower),
    def("archive.read_miss.us_p99", "us", Lower),
    def("archive.ingest.us_p99", "us", Lower),
    def("archive.drain.us_p99", "us", Lower),
    def("archive.compact.runs", "count", Lower),
    def("archive.compact.moved_blocks", "count", Lower),
    def("archive.queue.rejected", "count", Lower),
    def("store.covered_frac", "frac", Higher),
    def("trials.covered_frac", "frac", Higher),
    def("archive.covered_frac", "frac", Higher),
    def("obs.trace_overhead_frac", "frac", Lower),
    def("unattributed.s", "s", Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from the metric table.
    pub name: &'static str,
    /// The value, in the table's unit.
    pub value: f64,
    /// Samples behind a median or percentile.
    pub samples: Option<usize>,
}

impl Metric {
    /// A value with no sample count.
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value,
            samples: None,
        }
    }

    /// The median of `xs`.
    pub fn median(name: &'static str, xs: &[f64]) -> Result<Self, String> {
        let value = stats::median(xs).ok_or_else(|| format!("{name}: no samples"))?;
        Ok(Metric {
            name,
            value,
            samples: Some(xs.len()),
        })
    }

    /// The `q`-quantile of `xs`, refused when the tail is too thin.
    pub fn percentile(name: &'static str, xs: &[f64], q: f64) -> Result<Self, String> {
        let p = stats::percentile(xs, q).map_err(|e| format!("{name}: {e}"))?;
        Ok(Metric {
            name,
            value: p.value,
            samples: Some(p.samples),
        })
    }
}

/// Orders `metrics` as `table` lists them. Fails on a missing, extra,
/// repeated or non-finite metric.
pub fn in_table_order(
    metrics: &[Metric],
    table: &[MetricDef],
) -> Result<Vec<(MetricDef, Metric)>, String> {
    let mut out = Vec::with_capacity(table.len());
    for d in table {
        let mut found = metrics.iter().filter(|m| m.name == d.name);
        let m = found
            .next()
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if found.next().is_some() {
            return Err(format!("metric {} was reported twice", d.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", d.name, m.value));
        }
        out.push((*d, m.clone()));
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| !table.iter().any(|d| d.name == m.name))
    {
        return Err(format!("metric {} is not in the table", extra.name));
    }
    Ok(out)
}

/// The human-readable table printed before the result line.
pub fn render_table(rows: &[(MetricDef, Metric)]) -> String {
    let mut s = String::new();
    for (d, m) in rows {
        let n = m.samples.map(|n| format!("  n={n}")).unwrap_or_default();
        let v = if m.value != 0.0 && m.value.abs() < 1e-3 {
            format!("{:.4e}", m.value)
        } else {
            format!("{:.6}", m.value)
        };
        s.push_str(&format!(
            "{:<32} {v:>18} {:<8} {}{n}\n",
            d.name,
            d.unit,
            d.better.as_str()
        ));
    }
    s
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and every
/// metric with its unit. Values print with all their digits.
pub fn render_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(MetricDef, Metric)],
) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(d, m)| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                d.name, m.value, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Counters, span totals and histograms summed over rounds, each round
/// recorded in a registry of its own.
#[derive(Clone, Debug, Default)]
pub struct ObsTotals {
    counters: BTreeMap<String, u64>,
    span_ns: BTreeMap<String, u64>,
    hists: BTreeMap<String, Sketch>,
}

impl ObsTotals {
    /// The totals of one snapshot.
    pub fn from_snapshot(s: &Snapshot) -> Self {
        ObsTotals {
            counters: s.counters.iter().cloned().collect(),
            span_ns: s
                .spans
                .iter()
                .map(|sp| (sp.name.clone(), sp.total_ns))
                .collect(),
            hists: s
                .histograms
                .iter()
                .map(|h| (h.name.clone(), h.sketch.clone()))
                .collect(),
        }
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &ObsTotals) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.span_ns {
            *self.span_ns.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(v);
        }
    }

    /// A counter's total (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A span name's total duration in seconds, summed over threads.
    pub fn span_s(&self, name: &str) -> f64 {
        self.span_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// A histogram's mean (0 if never recorded).
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, Sketch::mean)
    }

    /// A histogram's `q`-quantile (0 if never recorded).
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        self.hists.get(name).map_or(0.0, |s| s.quantile(q))
    }

    /// Share of worker time spent inside parallel units, over every
    /// region that fanned out; 1 when none did.
    pub fn par_busy_frac(&self) -> f64 {
        let sum = |suffix: &str| -> u64 {
            self.counters
                .iter()
                .filter(|(k, _)| k.starts_with("par.worker.") && k.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        let (busy, idle) = (sum(".busy_ns"), sum(".idle_ns"));
        if busy + idle == 0 {
            1.0
        } else {
            busy as f64 / (busy + idle) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapp_obs::json::Value;

    /// Whether `name` is a valid metric name: a letter or digit, then
    /// letters, digits, `_`, `.` and `-`, at most 64 in all.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name repeats");
        for unit in END_TO_END.iter().chain(PER_LAYER).map(|d| d.unit) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(unit.len() <= 16 && unit.chars().all(ok), "{unit}");
        }
    }

    #[test]
    fn valid_name_rejects_what_the_contract_forbids() {
        assert!(valid_name("codec.mb.search.s"));
        assert!(valid_name("read_us_p99"));
        assert!(valid_name("2x-rate"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("quote\"d"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    /// The table in code and `BENCHMARK.json` list the same metrics.
    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = json
                .get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                    )
                })
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_in_table_order() {
        let table = &END_TO_END[..2];
        let metrics = [
            Metric::new("peak_rss_mb", 81.25),
            Metric::median("setup_s", &[0.5, 0.25, 2.0]).expect("median"),
        ];
        let rows = in_table_order(&metrics, table).expect("complete");
        let line = render_json(true, 12, 0, &rows);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 81.25, \"unit\": \"MB\"}}}"
        );
        assert!(Value::parse(&line).is_ok());
        assert!(in_table_order(&metrics[..1], table).is_err(), "missing");
        let nan = [metrics[0].clone(), Metric::new("setup_s", f64::NAN)];
        assert!(in_table_order(&nan, table).is_err(), "non-finite");
        let extra = [
            metrics[0].clone(),
            metrics[1].clone(),
            Metric::new("store_fps", 1.0),
        ];
        assert!(in_table_order(&extra, table).is_err(), "not in table");
    }
}

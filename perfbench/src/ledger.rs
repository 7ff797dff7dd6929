//! The benchmark's own layer timers.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Ledger::time`]. Untraced, that is a plain call. Traced, it records
//! a span — layer name, start, duration, flow and the op it belongs to —
//! into memory; [`Ledger::write_chrome_trace`] writes them out once the
//! run is over, so no I/O lands inside a timed window. Spans of one op
//! share its id, so a trace viewer groups a clip's encode → store →
//! decode, one damage trial, or one archive scheduling pass.

use std::io::Write;
use std::time::Instant;

/// Spans kept in memory; later spans are counted, not stored.
const SPAN_CAP: usize = 1 << 20;

/// One completed layer call.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer name, as reported in the per-layer metrics.
    pub name: &'static str,
    /// Start, nanoseconds since the ledger was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The op (clip, trial or archive pass) the call served.
    pub op: u64,
    /// The workload flow that issued the call.
    pub flow: &'static str,
}

/// In-memory span ledger; records only while tracing is on.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    tracing: bool,
    flow: &'static str,
    op: u64,
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl Ledger {
    /// An empty ledger, not tracing.
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            tracing: false,
            flow: "",
            op: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns span recording on or off (per measured round).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Names the flow that subsequent spans belong to.
    pub fn set_flow(&mut self, flow: &'static str) {
        self.flow = flow;
    }

    /// Starts a new op; subsequent spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` as one call into layer `name`, recording a span when
    /// tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRec {
                name,
                start_ns: ns(start.duration_since(self.origin)),
                dur_ns: ns(end.duration_since(start)),
                op: self.op,
                flow: self.flow,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Spans that did not fit in memory.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as chrome://tracing "complete" events: one
    /// process, one track per flow, the op id in `args`.
    pub fn write_chrome_trace(&self, mut out: impl Write) -> std::io::Result<()> {
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}{sep}",
                s.name,
                s.flow,
                s.flow,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
            )?;
        }
        writeln!(out, "],\"droppedSpans\":{}}}", self.dropped)?;
        out.flush()
    }
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_calls_record_nothing_and_traced_calls_carry_their_op() {
        let mut l = Ledger::new();
        l.set_flow("store");
        assert_eq!(l.time("codec.encode", || 7), 7);
        assert!(l.spans().is_empty());
        l.set_tracing(true);
        l.next_op();
        l.time("codec.encode", || ());
        l.next_op();
        l.time("codec.decode", || ());
        let ops: Vec<(&str, u64)> = l.spans().iter().map(|s| (s.name, s.op)).collect();
        assert_eq!(ops, [("codec.encode", 1), ("codec.decode", 2)]);
        assert!(l.spans().iter().all(|s| s.flow == "store"));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut l = Ledger::new();
        l.set_tracing(true);
        l.set_flow("archive");
        l.time("archive.submit", || ());
        l.time("archive.drain", || ());
        let mut buf = Vec::new();
        l.write_chrome_trace(&mut buf).expect("write trace");
        let text = String::from_utf8(buf).expect("utf-8");
        let v = vapp_obs::json::Value::parse(&text).expect("trace parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("archive.drain")
        );
    }
}

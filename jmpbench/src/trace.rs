//! The benchmark's own spans: one around every call it makes into a layer,
//! kept in memory per client and written out at exit.
//!
//! A span's *self time* is its duration minus its children's durations.
//! Direct children nest in time. Replay children do not: they re-run, after
//! the operation, work that happened inside the parent's interval on
//! threads the benchmark cannot time (a shell's pipeline, an applet's
//! callback), so the parent's self time is what the replays leave
//! unexplained.

use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub op: u64,
}

/// A timed call, possibly made on another thread (the probe application),
/// for the client to record as a span.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    pub fn run<R>(name: &'static str, f: impl FnOnce() -> R) -> (Timed, R) {
        let start = Instant::now();
        let result = f();
        let timed = Timed {
            name,
            start,
            end: Instant::now(),
        };
        (timed, result)
    }
}

/// One client's span buffer. When tracing is off every call is a no-op.
pub struct Spans {
    epoch: Instant,
    on: bool,
    pub buf: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, on: bool) -> Spans {
        Spans {
            epoch,
            on,
            buf: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.ns(Instant::now());
        self.buf.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        (self.buf.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32) {
        if idx != NO_PARENT {
            self.buf[idx as usize].end = self.ns(Instant::now());
        }
    }

    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            op,
        };
        self.buf.push(span);
        (self.buf.len() - 1) as u32
    }

    /// Records a replayed call under `parent`.
    pub fn add_timed(&mut self, timed: &Timed, parent: u32, op: u64) -> u32 {
        self.add(timed.name, timed.start, timed.end, parent, op)
    }
}

/// The layer a span name belongs to (`vm.classes.define` → `vm.classes`),
/// or `None` for the benchmark's own containers (`op`, `wait.*`,
/// `admin.*`), which are not program layers.
pub fn layer_of(name: &str) -> Option<&str> {
    if name == "op" || name.starts_with("wait.") || name.starts_with("admin.") {
        return None;
    }
    name.rfind('.').map(|i| &name[..i])
}

pub const LAYERS: [&str; 9] = [
    "shell",
    "core",
    "security",
    "vm.classes",
    "vm.interp",
    "vm.io",
    "vm.thread",
    "vfs",
    "awt",
];

#[derive(Default, Clone, Copy)]
pub struct LayerTotals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: i64,
}

/// Per-layer totals and per-span-name duration samples over the spans of
/// the measured operations.
#[derive(Default)]
pub struct Breakdown {
    pub layers: BTreeMap<&'static str, LayerTotals>,
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// Sum over measured operations of the self time of spans that are not
    /// in any layer (the operation root and the benchmark's waits).
    pub container_self_ns: i64,
}

impl Breakdown {
    pub fn add_client(&mut self, spans: &[Span], measured: &HashSet<u64>) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end - span.start;
            }
        }
        for (i, span) in spans.iter().enumerate() {
            let dur = span.end - span.start;
            let admin = span.name.starts_with("admin.");
            if !admin && !measured.contains(&span.op) {
                continue;
            }
            self.samples.entry(span.name).or_default().push(dur);
            if admin {
                continue;
            }
            let self_ns = dur as i64 - child_ns[i] as i64;
            match layer_of(span.name) {
                Some(layer) => {
                    let layer = LAYERS
                        .iter()
                        .copied()
                        .find(|l| *l == layer)
                        .unwrap_or_else(|| panic!("span {} has no known layer", span.name));
                    let totals = self.layers.entry(layer).or_default();
                    totals.count += 1;
                    totals.busy_ns += dur;
                    totals.self_ns += self_ns;
                }
                None => self.container_self_ns += self_ns,
            }
        }
    }

    /// Median duration of the spans named `name`, in nanoseconds (0 when the
    /// workload makes no such call).
    pub fn median_ns(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |v| crate::report::quantile_u64(v, 0.5))
    }
}

/// Writes every span as one tab-separated line:
/// `client name start_ns end_ns parent op` (parent is a line index within
/// the same client, `-` for a root).
pub fn write_spans(path: &std::path::Path, clients: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "client\tname\tstart_ns\tend_ns\tparent\top")?;
    for (client, spans) in clients.iter().enumerate() {
        for span in spans {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{client}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start, span.end, span.op
            )?;
        }
    }
    out.flush()
}

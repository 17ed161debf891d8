//! In-memory span recorder for the traced run.
//!
//! Every timed call into a layer is a span: it opens, may contain child
//! spans, and closes. A span's self time is its duration minus the
//! durations of its direct children. Two storage policies keep memory
//! bounded while every span still feeds the per-kind totals:
//!
//! * coarse kinds (replication, scheduling pass, job start, departure)
//!   are stored one record per span, each with its parent's id and the
//!   replication it belongs to;
//! * per-cycle kinds (network step, skip, send, drain, ...) are folded
//!   into one `(calls, ns)` aggregate per kind under their nearest stored
//!   ancestor.
//!
//! Records are kept only while `keep` is set (the first batch of a run),
//! and written out by [`Tracer::write_tsv`] when the benchmark ends.
//!
//! Spans are timed in ticks of [`ticks`] and converted to nanoseconds
//! against `Instant` over the tracer's whole life when read.

use std::io::Write;
use std::time::Instant;

/// What a span times. The first four kinds are coarse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole replication (the root of its spans).
    Rep,
    /// One scheduling pass.
    Pass,
    /// Starting one job: bookkeeping plus `pattern_messages`.
    Start,
    /// One job departure.
    Depart,
    /// `Network::step`.
    Step,
    /// `Network::skip_cycles`.
    Skip,
    /// `Network::skippable_cycles`.
    Skippable,
    /// `Network::send`.
    Send,
    /// `Network::drain_completions`.
    Drain,
    /// Handling a non-empty batch of packet completions.
    Absorb,
    /// `AllocationStrategy::allocate`.
    Allocate,
    /// `AllocationStrategy::feasible`.
    Feasible,
    /// `AllocationStrategy::release`.
    Release,
    /// Any `EventQueue` call.
    Desim,
    /// Drawing the next job from the workload source.
    NextJob,
    /// Opening a replication's trace cursor at its segment.
    Cursor,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 16;

const ALL: [Kind; KINDS] = [
    Kind::Rep,
    Kind::Pass,
    Kind::Start,
    Kind::Depart,
    Kind::Step,
    Kind::Skip,
    Kind::Skippable,
    Kind::Send,
    Kind::Drain,
    Kind::Absorb,
    Kind::Allocate,
    Kind::Feasible,
    Kind::Release,
    Kind::Desim,
    Kind::NextJob,
    Kind::Cursor,
];

impl Kind {
    /// Name used in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rep => "rep",
            Kind::Pass => "sched.pass",
            Kind::Start => "core.start",
            Kind::Depart => "core.depart",
            Kind::Step => "wormnet.step",
            Kind::Skip => "wormnet.skip",
            Kind::Skippable => "wormnet.skippable",
            Kind::Send => "wormnet.send",
            Kind::Drain => "wormnet.drain",
            Kind::Absorb => "core.absorb",
            Kind::Allocate => "alloc.allocate",
            Kind::Feasible => "alloc.feasible",
            Kind::Release => "alloc.release",
            Kind::Desim => "desim",
            Kind::NextJob => "workload.next_job",
            Kind::Cursor => "workload.cursor",
        }
    }

    fn coarse(self) -> bool {
        matches!(self, Kind::Rep | Kind::Pass | Kind::Start | Kind::Depart)
    }
}

/// Totals over every span of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations (ticks while recording, nanoseconds when read).
    pub ns: u64,
    /// Summed self times (likewise).
    pub self_ns: u64,
}

/// One stored coarse span.
#[derive(Debug, Clone, Copy)]
struct Record {
    kind: Kind,
    parent: u32,
    rep: u32,
    start: u64,
    end: u64,
}

/// Per-cycle calls folded under one stored span.
#[derive(Debug, Clone, Copy)]
struct Folded {
    parent: u32,
    kind: Kind,
    calls: u64,
    ticks: u64,
}

const NO_RECORD: u32 = u32::MAX;

/// A cheap monotonic tick counter: the time-stamp counter on x86_64 (a
/// read costs about 20 ns on a 2-vCPU Intel Xeon VM, against about 50 ns for
/// `Instant::now`, and a network cycle is timed by eight reads).
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks(_epoch: &Instant) -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter into registers; it
    // accesses no memory, and every x86_64 processor implements it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Nanoseconds since `epoch` where there is no time-stamp counter.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks(epoch: &Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

struct Frame {
    kind: Kind,
    t0: u64,
    child_ns: u64,
    record: u32,
}

/// The span recorder. Open spans form a stack; see the module docs.
pub struct Tracer {
    epoch: Instant,
    epoch_ticks: u64,
    stack: Vec<Frame>,
    /// `(calls, ns)` per kind folded under each open stored span, innermost
    /// last.
    acc: Vec<[(u64, u64); KINDS]>,
    records: Vec<Record>,
    folded: Vec<Folded>,
    totals: [Total; KINDS],
    rep: u32,
    /// Store records (the first batch); totals are kept regardless.
    pub keep: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        let epoch = Instant::now();
        Tracer {
            epoch_ticks: ticks(&epoch),
            epoch,
            stack: Vec::with_capacity(8),
            acc: Vec::with_capacity(8),
            records: Vec::new(),
            folded: Vec::new(),
            totals: [Total::default(); KINDS],
            rep: 0,
            keep: true,
        }
    }
}

impl Tracer {
    #[inline]
    fn now(&self) -> u64 {
        ticks(&self.epoch) - self.epoch_ticks
    }

    /// Nanoseconds per tick, measured over the tracer's life so far.
    fn ns_per_tick(&self) -> f64 {
        let ns = self.epoch.elapsed().as_nanos() as f64;
        let t = self.now();
        if t == 0 {
            1.0
        } else {
            ns / t as f64
        }
    }

    /// Sets the replication id stamped on the spans that follow.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span of `kind`.
    #[inline]
    pub fn enter(&mut self, kind: Kind) {
        let record = if self.keep && kind.coarse() {
            let parent = self
                .stack
                .iter()
                .rev()
                .map(|f| f.record)
                .find(|&r| r != NO_RECORD);
            self.acc.push([(0, 0); KINDS]);
            self.records.push(Record {
                kind,
                parent: parent.unwrap_or(NO_RECORD),
                rep: self.rep,
                start: 0,
                end: 0,
            });
            (self.records.len() - 1) as u32
        } else {
            NO_RECORD
        };
        let t0 = self.now();
        if record != NO_RECORD {
            self.records[record as usize].start = t0;
        }
        self.stack.push(Frame {
            kind,
            t0,
            child_ns: 0,
            record,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let t1 = self.now();
        let f = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let d = t1 - f.t0;
        let tot = &mut self.totals[f.kind as usize];
        tot.calls += 1;
        tot.ns += d;
        tot.self_ns += d.saturating_sub(f.child_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += d;
        }
        if f.record != NO_RECORD {
            self.records[f.record as usize].end = t1;
            let acc = self.acc.pop().expect("a stored span has an accumulator");
            for (k, &(calls, ticks)) in acc.iter().enumerate() {
                if calls > 0 {
                    self.folded.push(Folded {
                        parent: f.record,
                        kind: ALL[k],
                        calls,
                        ticks,
                    });
                }
            }
        } else if let Some(slot) = self.acc.last_mut().filter(|_| !f.kind.coarse()) {
            slot[f.kind as usize].0 += 1;
            slot[f.kind as usize].1 += d;
        }
    }

    /// Drops spans left open by a replication that panicked.
    pub fn reset_stack(&mut self) {
        self.stack.clear();
        self.acc.clear();
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        self.enter(kind);
        let r = f();
        self.exit();
        r
    }

    /// Totals per kind (indexed by `Kind as usize`) over every span closed
    /// so far, in nanoseconds.
    pub fn totals(&self) -> [Total; KINDS] {
        let k = self.ns_per_tick();
        self.totals.map(|t| Total {
            calls: t.calls,
            ns: (t.ns as f64 * k) as u64,
            self_ns: (t.self_ns as f64 * k) as u64,
        })
    }

    /// Writes the stored spans as tab-separated lines:
    /// `span <id> <parent|-> <rep> <kind> <start_ns> <end_ns>` for coarse
    /// spans and `fold <parent> <kind> <calls> <ns>` for folded calls.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let k = self.ns_per_tick();
        let ns = |t: u64| (t as f64 * k) as u64;
        writeln!(out, "# span\tid\tparent\trep\tkind\tstart_ns\tend_ns")?;
        writeln!(out, "# fold\tparent\tkind\tcalls\tns")?;
        for (id, r) in self.records.iter().enumerate() {
            let parent = if r.parent == NO_RECORD {
                "-".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(
                out,
                "span\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                r.rep,
                r.kind.name(),
                ns(r.start),
                ns(r.end)
            )?;
        }
        for f in &self.folded {
            writeln!(
                out,
                "fold\t{}\t{}\t{}\t{}",
                f.parent,
                f.kind.name(),
                f.calls,
                ns(f.ticks)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_folds_fine_calls() {
        let mut t = Tracer::default();
        t.enter(Kind::Rep);
        t.enter(Kind::Pass);
        t.span(Kind::Allocate, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span(Kind::Allocate, || ());
        t.exit();
        t.exit();
        let totals = t.totals();
        let [rep, pass, alloc] =
            [Kind::Rep, Kind::Pass, Kind::Allocate].map(|k| totals[k as usize]);
        assert_eq!((rep.calls, pass.calls, alloc.calls), (1, 1, 2));
        // equal up to rounding the tick-to-nanosecond conversion
        assert!(rep.self_ns.abs_diff(rep.ns - pass.ns) <= 2);
        assert!(pass.self_ns.abs_diff(pass.ns - alloc.ns) <= 2);
        assert!(alloc.ns >= 2_000_000);
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("span\t0\t-\t0\trep\t"));
        assert!(text.contains("span\t1\t0\t0\tsched.pass\t"));
        assert!(text.contains("fold\t1\talloc.allocate\t2\t"));
    }
}

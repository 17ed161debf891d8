//! The procsim benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! perfbench --write-fingerprints
//! ```
//!
//! With `--trace 0` it runs the workload's fixed replication batch
//! untraced, repeating whole batches for `--seconds`, checks every
//! replication, and prints the end-to-end metrics. With `--trace 1` it
//! runs the batch through the traced copy of the replication loop as well
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. See `README.md`.

mod check;
mod mirror;
mod spans;
mod workloads;

use check::Pinned;
use procsim_core::{run_points_on, RunMetrics, Simulator, WorkerPool};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::{Prepared, Size, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("rep_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("rep_ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 43] = [
    ("wormnet.step.calls", "count"),
    ("wormnet.skip.calls", "count"),
    ("wormnet.cycles_skipped", "count"),
    ("wormnet.skipped_frac", "ratio"),
    ("wormnet.step.ns_per_call", "ns"),
    ("wormnet.step.self_frac", "ratio"),
    ("wormnet.send.calls", "count"),
    ("wormnet.send.self_frac", "ratio"),
    ("wormnet.drain.self_frac", "ratio"),
    ("wormnet.skippable.self_frac", "ratio"),
    ("wormnet.active_mean", "count"),
    ("wormnet.packets", "count"),
    ("alloc.allocate.calls", "count"),
    ("alloc.allocate.ok_frac", "ratio"),
    ("alloc.allocate.ns_per_call", "ns"),
    ("alloc.allocate.self_frac", "ratio"),
    ("alloc.feasible.calls", "count"),
    ("alloc.feasible.reject_frac", "ratio"),
    ("alloc.release.ns_per_call", "ns"),
    ("alloc.fragments_mean", "count"),
    ("sched.pass.calls", "count"),
    ("sched.pass.self_frac", "ratio"),
    ("sched.attempts", "count"),
    ("sched.memo_skips", "count"),
    ("sched.queue_mean", "count"),
    ("sched.observe.calls", "count"),
    ("desim.events", "count"),
    ("desim.self_frac", "ratio"),
    ("workload.open_s", "s"),
    ("workload.next_job.calls", "count"),
    ("workload.next_job.ns_per_call", "ns"),
    ("workload.cursor.self_frac", "ratio"),
    ("core.start.self_frac", "ratio"),
    ("core.absorb.self_frac", "ratio"),
    ("core.depart.self_frac", "ratio"),
    ("core.loop.self_frac", "ratio"),
    ("pool.efficiency", "ratio"),
    ("pool.idle_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.mirror_ok", "bool"),
    ("trace.batches", "count"),
    ("trace.reps", "count"),
    ("trace.rep_s", "s"),
];

/// A round of set-ups repeats the set-up for `SETUP_ROUND_SECONDS`, at
/// least once and at most `SETUP_ROUND_MAX` times. The untraced run makes
/// a round before its first batch and after every batch, so set-up is
/// sampled over the whole run, as the replications are; `setup_s` is the
/// median of every set-up timed. The traced run makes one round of
/// `TRACED_SETUP_SECONDS` for `workload.open_s`.
const SETUP_ROUND_SECONDS: f64 = 0.01;
const SETUP_ROUND_MAX: usize = 100;
const TRACED_SETUP_SECONDS: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

/// One run's result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Pairs `catalogue` with `values`, which must name the same metrics in
    /// the same order.
    fn new(
        catalogue: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
        attempted: u64,
        failed: u64,
    ) -> Report {
        assert!(
            catalogue.iter().map(|m| m.0).eq(values.iter().map(|v| v.0)),
            "metric values out of step with the catalogue"
        );
        let metrics = catalogue
            .iter()
            .zip(values)
            .map(|(&(name, unit), &(_, v))| (name, unit, v))
            .collect();
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// [`guarded`], adding the seconds `f` took to `*acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> Result<T, String> {
    let t = Instant::now();
    let r = guarded(f);
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Whether to run another whole batch: while the run would end nearer to
/// `budget` with it than without it (batches are never cut short, so
/// every run measures the same replication mix).
fn another_batch(started: Instant, batch_started: Instant, budget: Duration) -> bool {
    started.elapsed() + batch_started.elapsed() / 2 < budget
}

/// Sets the workload up repeatedly for `seconds` (see
/// [`SETUP_ROUND_MAX`]), adding each set-up's host seconds to `setup_s`
/// and its workload-layer seconds to `open_s`; returns the last product.
fn set_up(
    a: &Args,
    fixture: Option<&std::path::Path>,
    seconds: f64,
    setup_s: &mut Vec<f64>,
    open_s: &mut Vec<f64>,
) -> Result<Prepared, String> {
    let started = Instant::now();
    let mut last = None;
    for _ in 0..SETUP_ROUND_MAX {
        if last.is_some() && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        drop(last.take());
        let t = Instant::now();
        let (p, open) = a.workload.setup(a.seed, a.size, fixture)?;
        setup_s.push(t.elapsed().as_secs_f64());
        open_s.push(open);
        last = Some(p);
    }
    Ok(last.expect("at least one set-up"))
}

/// The untraced run: end-to-end metrics.
///
/// Every replication, and for the pooled workload every config's pooled
/// point, is timed on its own and keeps its fastest host time over the
/// run. The host's speed moves by a third within seconds as other tenants
/// contend for its caches and memory, and that only ever slows the
/// program, so the fastest time is the one nearest the program's own
/// cost. `jobs_per_s` is the batch's jobs over the sum of those fastest
/// times (replications for serial workloads, pooled points for the
/// pooled one); `rep_p50_s` is the median fastest replication time.
fn run_plain(
    a: &Args,
    fixture: Option<&std::path::Path>,
    pinned: Option<&Pinned>,
) -> Result<Report, String> {
    let (mut setup_s, mut open_s) = (Vec::new(), Vec::new());
    let p = set_up(a, fixture, SETUP_ROUND_SECONDS, &mut setup_s, &mut open_s)?;
    let keys = p.keys();
    let reps = p.reps as usize;
    let budget = Duration::from_secs_f64(a.seconds);
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // fastest host seconds of each replication and of each pooled point
    let mut best_rep = vec![f64::INFINITY; keys.len()];
    let mut best_point = vec![f64::INFINITY; p.cfgs.len()];
    // each replication's first result, which its later runs must
    // reproduce bit for bit and its config's pooled point must equal
    let mut first: Vec<Result<RunMetrics, String>> = Vec::new();
    let mut batches = 0usize;
    loop {
        let batch_t = Instant::now();
        for i in 0..p.cfgs.len() {
            let point = p.pool.as_ref().map(|pool| {
                let t = Instant::now();
                let r = guarded(|| run_points_on(pool, &p.cfgs[i..=i], reps, reps));
                best_point[i] = best_point[i].min(t.elapsed().as_secs_f64());
                attempted += p.reps;
                r
            });
            for n in i * reps..(i + 1) * reps {
                let r = reference(&p, keys[n], &mut best_rep[n]);
                attempted += 1;
                if n == first.len() {
                    first.push(r);
                } else if r.as_ref().map(check::fingerprint).ok()
                    != first[n].as_ref().map(check::fingerprint).ok()
                {
                    eprintln!("{:?}: differs from its first run", keys[n]);
                    failed += 1;
                }
            }
            if let Some(point) = point {
                let serial: Option<Vec<RunMetrics>> = first[i * reps..(i + 1) * reps]
                    .iter()
                    .map(|r| r.as_ref().ok().cloned())
                    .collect();
                let ok = match (point, serial) {
                    (Ok(points), Some(s)) => check::pooled_matches(&points[0], &s),
                    _ => false,
                };
                if !ok {
                    eprintln!(
                        "{}: pooled result differs from the serial replications",
                        workloads::label(&p.cfgs[i])
                    );
                    failed += p.reps;
                }
            }
        }
        batches += 1;
        set_up(a, fixture, SETUP_ROUND_SECONDS, &mut setup_s, &mut open_s)?;
        if !another_batch(started, batch_t, budget) {
            break;
        }
    }
    let mut batch_jobs = 0.0f64;
    for (&(i, rep), r) in keys.iter().zip(&first) {
        let verdict = r
            .as_ref()
            .map_err(|e| format!("panicked: {e}"))
            .and_then(|m| check::replication(&p.cfgs[i], (i, rep), m, pinned).map(|_| m));
        match verdict {
            Ok(m) => batch_jobs += (p.cfgs[i].warmup_jobs as u64 + m.jobs) as f64,
            Err(e) => {
                eprintln!("{} rep {rep}: {e}", workloads::label(&p.cfgs[i]));
                failed += 1;
            }
        }
    }
    let batch_s: f64 = if p.pool.is_some() {
        best_point.iter().sum()
    } else {
        best_rep.iter().sum()
    };
    eprintln!(
        "{}: {attempted} replications in {batches} batches of {} ({batch_jobs} jobs each){}",
        a.workload.name(),
        keys.len(),
        if p.pool.is_some() {
            ", each config on the pool and then serially"
        } else {
            ""
        },
    );
    Ok(Report::new(
        &END_TO_END,
        &[
            ("jobs_per_s", batch_jobs / batch_s),
            ("rep_p50_s", median(&best_rep)),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mib", peak_rss_mib()),
            ("rep_ok_frac", 1.0 - ratio(failed as f64, attempted as f64)),
        ],
        attempted,
        failed,
    ))
}

/// Runs one replication through `Simulator::run`, lowering `*best` to its
/// host seconds if they are fewer.
fn reference(p: &Prepared, (i, rep): (usize, u64), best: &mut f64) -> Result<RunMetrics, String> {
    let mut dt = 0.0;
    let r = timed(&mut dt, || Simulator::new(&p.cfgs[i], rep).run());
    *best = best.min(dt);
    r
}

/// Runs the batch on the worker pool with timed replications; returns
/// `(sum of replication seconds, wall seconds)`.
fn pool_pass(pool: &WorkerPool, p: &Prepared) -> (f64, f64) {
    let (tx, rx) = mpsc::channel();
    let t = Instant::now();
    let keys = p.keys();
    for &(i, rep) in &keys {
        let (cfg, tx) = (p.cfgs[i].clone(), tx.clone());
        pool.submit(move || {
            let mut dt = 0.0;
            let _ = timed(&mut dt, || Simulator::new(&cfg, rep).run());
            let _ = tx.send(dt);
        });
    }
    drop(tx);
    let busy: f64 = rx.iter().take(keys.len()).sum();
    (busy, t.elapsed().as_secs_f64())
}

/// The traced run: per-layer metrics.
fn run_traced(a: &Args, fixture: Option<&std::path::Path>) -> Result<Report, String> {
    use spans::Kind;
    let mut open_s = Vec::new();
    let p = set_up(
        a,
        fixture,
        TRACED_SETUP_SECONDS,
        &mut Vec::new(),
        &mut open_s,
    )?;
    let keys = p.keys();
    let budget = Duration::from_secs_f64(a.seconds);
    let started = Instant::now();
    let mut tr = spans::Tracer::default();
    let mut c = mirror::Counters::default();
    let (mut plain_s, mut traced_s, mut loop_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut attempted, mut failed, mut divergent) = (0u64, 0u64, 0u64);
    let mut batches = 0u64;
    loop {
        let batch_t = Instant::now();
        for (n, &(i, rep)) in keys.iter().enumerate() {
            let cfg = &p.cfgs[i];
            tr.set_rep(n as u32);
            // alternate which side runs first, so neither always meets the
            // caches the other left behind
            let (plain, traced) = if (batches as usize + n).is_multiple_of(2) {
                let plain = timed(&mut plain_s, || Simulator::new(cfg, rep).run());
                (
                    plain,
                    timed(&mut traced_s, || {
                        mirror::run_traced(cfg, rep, &mut tr, &mut c)
                    }),
                )
            } else {
                let traced = timed(&mut traced_s, || {
                    mirror::run_traced(cfg, rep, &mut tr, &mut c)
                });
                (
                    timed(&mut plain_s, || Simulator::new(cfg, rep).run()),
                    traced,
                )
            };
            tr.reset_stack();
            attempted += 1;
            let verdict = plain
                .as_ref()
                .map_err(|e| format!("panicked: {e}"))
                .and_then(|m| check::replication(cfg, (i, rep), m, None).map(|_| m));
            match (&verdict, &traced) {
                (Ok(m), Ok(t)) if check::fingerprint(m) == check::fingerprint(t) => {}
                (Ok(_), _) => {
                    eprintln!(
                        "{} rep {rep}: traced copy diverges from Simulator::run",
                        workloads::label(cfg)
                    );
                    divergent += 1;
                    failed += 1;
                }
                (Err(e), _) => {
                    eprintln!("{} rep {rep}: {e}", workloads::label(cfg));
                    failed += 1;
                }
            }
        }
        loop_s += batch_t.elapsed().as_secs_f64();
        batches += 1;
        tr.keep = false;
        if !another_batch(started, batch_t, budget) {
            break;
        }
    }
    // serial workloads run on the calling thread: its busy time is the
    // untraced replications, its wall time the batch loop less the traced
    // replications (the rest is the checking done between them)
    let threads = p.pool.as_ref().map_or(1, |pool| pool.threads()) as f64;
    let (busy, wall) = match &p.pool {
        Some(pool) => pool_pass(pool, &p),
        None => (plain_s, loop_s - traced_s),
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let span_path = out_dir().join(format!("spans-{}.tsv", a.workload.name()));
    let mut f =
        std::io::BufWriter::new(std::fs::File::create(&span_path).map_err(|e| e.to_string())?);
    writeln!(
        f,
        "# {} seed {}: spans of the first traced batch",
        a.workload.name(),
        a.seed
    )
    .and_then(|_| tr.write_tsv(&mut f))
    .and_then(|_| f.flush())
    .map_err(|e| e.to_string())?;
    eprintln!(
        "spans of the first batch written to {}",
        span_path.display()
    );

    let b = batches as f64;
    let totals = tr.totals();
    let total = |k: Kind| totals[k as usize];
    let rep_ns = total(Kind::Rep).ns as f64;
    let calls = |k: Kind| total(k).calls as f64 / b;
    let self_frac = |k: Kind| ratio(total(k).self_ns as f64, rep_ns);
    let ns_per_call = |k: Kind| ratio(total(k).ns as f64, total(k).calls as f64);
    let step_calls = total(Kind::Step).calls as f64;
    let alloc_calls = total(Kind::Allocate).calls as f64;
    let pass_calls = total(Kind::Pass).calls as f64;
    let per_batch = |x: u64| x as f64 / b;
    Ok(Report::new(
        &PER_LAYER,
        &[
            ("wormnet.step.calls", calls(Kind::Step)),
            ("wormnet.skip.calls", calls(Kind::Skip)),
            ("wormnet.cycles_skipped", per_batch(c.cycles_skipped)),
            (
                "wormnet.skipped_frac",
                ratio(
                    c.cycles_skipped as f64,
                    c.cycles_skipped as f64 + step_calls,
                ),
            ),
            ("wormnet.step.ns_per_call", ns_per_call(Kind::Step)),
            ("wormnet.step.self_frac", self_frac(Kind::Step)),
            ("wormnet.send.calls", calls(Kind::Send)),
            ("wormnet.send.self_frac", self_frac(Kind::Send)),
            ("wormnet.drain.self_frac", self_frac(Kind::Drain)),
            ("wormnet.skippable.self_frac", self_frac(Kind::Skippable)),
            (
                "wormnet.active_mean",
                ratio(c.active_sum as f64, step_calls),
            ),
            ("wormnet.packets", per_batch(c.packets)),
            ("alloc.allocate.calls", calls(Kind::Allocate)),
            (
                "alloc.allocate.ok_frac",
                ratio(c.alloc_ok as f64, alloc_calls),
            ),
            ("alloc.allocate.ns_per_call", ns_per_call(Kind::Allocate)),
            ("alloc.allocate.self_frac", self_frac(Kind::Allocate)),
            ("alloc.feasible.calls", calls(Kind::Feasible)),
            (
                "alloc.feasible.reject_frac",
                ratio(
                    c.feasible_rejects as f64,
                    total(Kind::Feasible).calls as f64,
                ),
            ),
            ("alloc.release.ns_per_call", ns_per_call(Kind::Release)),
            (
                "alloc.fragments_mean",
                ratio(c.fragments_sum as f64, c.alloc_ok as f64),
            ),
            ("sched.pass.calls", calls(Kind::Pass)),
            ("sched.pass.self_frac", self_frac(Kind::Pass)),
            ("sched.attempts", per_batch(c.attempts)),
            ("sched.memo_skips", per_batch(c.memo_skips)),
            ("sched.queue_mean", ratio(c.queue_sum as f64, pass_calls)),
            ("sched.observe.calls", per_batch(c.observe_calls)),
            ("desim.events", per_batch(c.events)),
            ("desim.self_frac", self_frac(Kind::Desim)),
            ("workload.open_s", median(&open_s)),
            ("workload.next_job.calls", calls(Kind::NextJob)),
            ("workload.next_job.ns_per_call", ns_per_call(Kind::NextJob)),
            ("workload.cursor.self_frac", self_frac(Kind::Cursor)),
            ("core.start.self_frac", self_frac(Kind::Start)),
            ("core.absorb.self_frac", self_frac(Kind::Absorb)),
            ("core.depart.self_frac", self_frac(Kind::Depart)),
            ("core.loop.self_frac", self_frac(Kind::Rep)),
            ("pool.efficiency", ratio(busy, threads * wall)),
            ("pool.idle_s", threads * wall - busy),
            ("trace.overhead_frac", ratio(traced_s, plain_s) - 1.0),
            ("trace.mirror_ok", if divergent == 0 { 1.0 } else { 0.0 }),
            ("trace.batches", b),
            ("trace.reps", keys.len() as f64),
            ("trace.rep_s", ratio(rep_ns / 1e9, b * keys.len() as f64)),
        ],
        attempted,
        failed,
    ))
}

/// Regenerates `fingerprints/<workload>.txt` at the default seed.
fn write_fingerprints() -> Result<(), String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints"));
    for name in workloads::NAMES {
        let w = Workload::parse(name).expect("known name");
        let fixture_dir = out_dir().join(format!("fixture-{}", std::process::id()));
        let fixture = w
            .write_fixture(check::DEFAULT_SEED, Size::Full, &fixture_dir)
            .map_err(|e| e.to_string())?;
        let (p, _) = w.setup(check::DEFAULT_SEED, Size::Full, fixture.as_deref())?;
        let mut text = format!(
            "# {name}: per-replication RunMetrics fingerprints at seed {} (perfbench --write-fingerprints)\n",
            check::DEFAULT_SEED
        );
        for (i, rep) in p.keys() {
            let m = Simulator::new(&p.cfgs[i], rep).run();
            check::identities(&p.cfgs[i], &m).map_err(|e| format!("{name}: {e}"))?;
            text.push_str(&check::pinned_line(
                i,
                rep,
                &workloads::label(&p.cfgs[i]),
                &m,
            ));
            text.push('\n');
        }
        let _ = std::fs::remove_dir_all(&fixture_dir);
        std::fs::write(dir.join(format!("{name}.txt")), text).map_err(|e| e.to_string())?;
        eprintln!("pinned {name}");
    }
    Ok(())
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-fingerprints") {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!(
        "unknown workload {name:?} (one of {:?})",
        workloads::NAMES
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let size = if argv.iter().any(|a| a == "--tiny") {
        Size::Tiny
    } else {
        Size::Full
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match write_fingerprints() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned = (args.seed == check::DEFAULT_SEED && args.size == Size::Full)
        .then(|| check::parse_pinned(check::pinned_text(args.workload.name())));
    let pinned = match pinned.transpose() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fixture_dir = out_dir().join(format!("fixture-{}", std::process::id()));
    let result = args
        .workload
        .write_fixture(args.seed, args.size, &fixture_dir)
        .map_err(|e| format!("writing the trace fixture: {e}"))
        .and_then(|fixture| {
            if args.trace {
                run_traced(&args, fixture.as_deref())
            } else {
                run_plain(&args, fixture.as_deref(), pinned.as_ref())
            }
        });
    let _ = std::fs::remove_dir_all(&fixture_dir);
    match result {
        Ok(report) => {
            for (name, unit, v) in &report.metrics {
                println!("{:<32} {v:>16.6} {unit}", name);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_pinned_fingerprint_is_counted_as_a_failed_replication() {
        let a = Args {
            workload: Workload::ContigBackfill,
            seed: 4,
            seconds: 0.01,
            trace: false,
            size: Size::Tiny,
        };
        let (p, _) = a.workload.setup(a.seed, a.size, None).unwrap();
        let wrong: Pinned = p.keys().into_iter().map(|k| (k, 0)).collect();
        let good = run_plain(&a, None, None).unwrap();
        assert!(good.correct && good.failed == 0);
        let bad = run_plain(&a, None, Some(&wrong)).unwrap();
        assert!(!bad.correct);
        assert_eq!(bad.failed, wrong.len() as u64);
        let ok_frac = bad.metrics.iter().find(|m| m.0 == "rep_ok_frac").unwrap().2;
        assert_eq!(ok_frac, 1.0 - bad.failed as f64 / bad.attempted as f64);
        assert!(ok_frac < 1.0);
    }
}

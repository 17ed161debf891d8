//! Resumable campaign runner: expands a [`Scenario`] into its full
//! cross-product of experimental points, shards the missing ones through
//! a worker pool ([`crate::replicate::run_points_on`]), and
//! caches each completed point on disk under a content hash of its spec —
//! so an interrupted or extended campaign resumes for free, rerunning
//! only points whose results are not already cached.
//!
//! Determinism contract (pinned by `crates/core/tests/campaign_resume.rs`
//! and the CI golden steps):
//!
//! * Each point's seed derives from the campaign seed and its *seed
//!   slot* ([`derive_seed`]), never from execution order, and each point
//!   is an independent batch of replications — so running any subset of
//!   points produces bit-identical per-point results to running them
//!   all, at any thread count.
//! * Cache keys are FNV-1a content hashes of the canonical *spec string*
//!   (every code-relevant knob: mesh geometry, network constants,
//!   traffic pattern, topology, strategy, scheduler, workload + load,
//!   fidelity and stopping knobs, seed, and a format version; an
//!   offered-load point adds its load unit, a trace point its path and
//!   an FNV-1a hash of the file's bytes). Any fidelity change — or an
//!   edit of a replayed trace — re-keys exactly the affected points;
//!   cosmetic scenario edits (comments, output columns) change nothing.
//! * Expansion order is the declared matrix order (later axes fastest);
//!   all internal maps are `BTreeMap`s, so the merged CSV is identical
//!   however the campaign was sliced across runs (D001).
//!
//! Cache entries are written via temp-file + rename, so a campaign
//! killed mid-write never leaves a torn entry — at worst the in-flight
//! point is rerun on resume.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use simstats::StopReason;
use workload::{TraceError, TraceWorkload};

use crate::pool::WorkerPool;
use crate::replicate::{derive_seed, run_points_on, PointResult};
use crate::scenario::{LoadUnit, OutputSpec, PointSettings, Scenario, ScenarioError, WorkloadName};

/// Bump when the cache entry format or the spec string changes meaning:
/// stale-format entries then miss instead of corrupting a merge.
const CACHE_FORMAT: &str = "v1";

/// One expanded experimental point of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Position in expansion order (matrix order, later axes fastest).
    pub index: usize,
    /// Seed slot (over the `[seed]` axes; equals `index` by default).
    pub slot: u64,
    /// Fully resolved knobs.
    pub settings: PointSettings,
    /// The derived per-point seed ([`derive_seed`] of campaign seed and
    /// slot).
    pub seed: u64,
    /// Canonical spec string — the cache key preimage.
    pub spec: String,
    /// FNV-1a 64 hash of [`CampaignPoint::spec`], as 16 hex digits.
    pub hash: String,
    /// The opened trace file of a `trace` point (`None` otherwise).
    pub trace: Option<Arc<TraceWorkload>>,
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV1A_EMPTY: u64 = 0xcbf29ce484222325;

/// FNV-1a 64-bit: folds `bytes` into the running hash `h` (start from
/// [`FNV1A_EMPTY`]), so a file hashes chunk by chunk.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Opens the SWF file a `trace` knob names and hashes its bytes, read
/// in chunks. The message of an error names the path.
fn open_trace(path: &str) -> Result<(Arc<TraceWorkload>, u64), String> {
    let trace = TraceWorkload::open(path).map_err(|e| match e {
        TraceError::Io { message, .. } => format!("cannot read trace {path:?}: {message}"),
        other => format!("trace {path:?}: {other}"),
    })?;
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot read trace {path:?}: {e}"))?;
    let mut buf = vec![0u8; 1 << 16];
    let mut h = FNV1A_EMPTY;
    loop {
        match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => h = fnv1a(h, &buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("cannot read trace {path:?}: {e}")),
        }
    }
    Ok((Arc::new(trace), h))
}

/// Builds the canonical spec string of a point: every knob that can
/// change simulation output, in fixed order, plus the cache format
/// version. Cosmetic scenario properties (name, output layout) are
/// deliberately absent. The load unit and the trace (path and content
/// hash `trace_hash`) are appended only where they apply, so every
/// arrival-load point keeps the key it always had.
fn spec_string(s: &PointSettings, seed: u64, trace_hash: Option<u64>) -> String {
    let mut spec = format!(
        "{CACHE_FORMAT}|mesh={}x{}|ts={}|plen={}|pattern={}|topology={}|strategy={}|\
         scheduler={}|workload={}|load={}|num_mes={}|runtime_scale={}|warmup={}|measured={}|\
         min_reps={}|max_reps={}|precision=paper95-5|seed={}",
        s.mesh_w,
        s.mesh_l,
        s.ts,
        s.plen,
        s.pattern,
        s.topology,
        s.strategy,
        s.scheduler,
        s.workload.name(),
        s.load,
        s.num_mes,
        s.runtime_scale,
        s.warmup,
        s.measured,
        s.min_reps,
        s.max_reps,
        seed,
    );
    if s.load_unit == LoadUnit::Offered {
        spec.push_str("|load_unit=offered");
    }
    if let Some(h) = trace_hash {
        spec.push_str(&format!("|trace={}|trace_fnv1a={h:016x}", s.trace));
    }
    spec
}

/// Expands a scenario into its full cross-product of points, applying
/// knob precedence (builtin < defaults < matrix < override), deriving
/// per-point seeds from the seed slot, and opening each distinct trace
/// file once. A cross-knob conflict, an unreadable or malformed trace,
/// and a replication budget longer than its trace are errors at the
/// line of the knob that set them.
pub fn expand(s: &Scenario) -> Result<Vec<CampaignPoint>, ScenarioError> {
    // sizes of each axis, and which axes advance the seed slot
    let sizes: Vec<usize> = s.matrix.iter().map(|(_, vs)| vs.len()).collect();
    let total: usize = sizes.iter().product();
    let seed_axis: Vec<bool> = match &s.seed_axes {
        None => vec![true; s.matrix.len()],
        Some(axes) => s
            .matrix
            .iter()
            .map(|(k, _)| axes.iter().any(|a| a == k))
            .collect(),
    };

    let mut points = Vec::with_capacity(total);
    let mut traces: BTreeMap<String, (Arc<TraceWorkload>, u64)> = BTreeMap::new();
    // odometer over the axes: later axes vary fastest
    let mut idx = vec![0usize; s.matrix.len()];
    for index in 0..total {
        let mut settings = PointSettings::default();
        // knob -> (line, place) of the assignment that set it last
        let mut origin: BTreeMap<String, (usize, String)> = BTreeMap::new();
        let mut set = |settings: &mut PointSettings, k: &str, v, place: String| {
            let line = s.lines.get(&place).copied().unwrap_or(0);
            settings.apply(k, v, line, &place)?;
            origin.insert(k.to_string(), (line, place));
            Ok::<(), ScenarioError>(())
        };
        for (k, v) in &s.defaults {
            set(&mut settings, k, v, format!("defaults.{k}"))?;
        }
        for (axis, &i) in s.matrix.iter().zip(&idx) {
            let (k, vs) = axis;
            set(&mut settings, k, &vs[i], format!("matrix.{k}"))?;
        }
        for rule in &s.overrides {
            // match on the bare rendering of the point's current setting
            // (matrix axes and defaults knobs both work)
            let Some(current) = settings.knob_value(&rule.axis) else {
                return Err(ScenarioError::new(
                    rule.line,
                    format!("override.{}={}", rule.axis, rule.value),
                    "unknown axis",
                ));
            };
            if current == rule.value {
                for (k, v) in &rule.set {
                    set(&mut settings, k, v, format!("override.{}={}.{k}", rule.axis, rule.value))?;
                }
            }
        }
        // an error lands on the first blamed knob a scenario line set
        let blame = |knobs: &[&str], msg: String| {
            let (line, place) = knobs
                .iter()
                .find_map(|&k| origin.get(k).cloned())
                .unwrap_or_else(|| (0, format!("matrix point {index}")));
            ScenarioError::new(line, place, msg)
        };
        settings.validate().map_err(|(knobs, msg)| blame(knobs, msg))?;
        let trace = if settings.workload == WorkloadName::Trace {
            if !traces.contains_key(&settings.trace) {
                let opened = open_trace(&settings.trace).map_err(|msg| blame(&["trace"], msg))?;
                traces.insert(settings.trace.clone(), opened);
            }
            let (trace, hash) = &traces[&settings.trace];
            let budget = settings.warmup + settings.measured;
            if budget > trace.len() {
                return Err(blame(
                    &["measured", "warmup", "trace"],
                    format!(
                        "trace {:?} has {} jobs, fewer than warmup + measured = {budget}; a \
                         replication replays it at most once, so lower warmup or measured",
                        settings.trace,
                        trace.len()
                    ),
                ));
            }
            Some((trace.clone(), *hash))
        } else {
            None
        };

        // seed slot: odometer restricted to the seed axes, later fastest
        let mut slot = 0u64;
        for ((&i, &size), &counts) in idx.iter().zip(&sizes).zip(&seed_axis) {
            if counts {
                slot = slot * size as u64 + i as u64;
            }
        }
        let seed = derive_seed(s.seed, slot);
        let spec = spec_string(&settings, seed, trace.as_ref().map(|(_, h)| *h));
        let hash = format!("{:016x}", fnv1a(FNV1A_EMPTY, spec.as_bytes()));
        points.push(CampaignPoint {
            index,
            slot,
            settings,
            seed,
            spec,
            hash,
            trace: trace.map(|(t, _)| t),
        });

        // advance the odometer
        for a in (0..idx.len()).rev() {
            idx[a] += 1;
            if idx[a] < sizes[a] {
                break;
            }
            idx[a] = 0;
        }
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// the on-disk point cache
// ---------------------------------------------------------------------------

/// A campaign-runner failure: cache I/O or a scenario validation error
/// surfaced at run time.
#[derive(Debug)]
pub enum CampaignError {
    /// Scenario expansion failed.
    Scenario(ScenarioError),
    /// Cache directory or CSV I/O failed.
    Io {
        /// What the runner was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CampaignError::Scenario(e) => write!(f, "{e}"),
            CampaignError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ScenarioError> for CampaignError {
    fn from(e: ScenarioError) -> Self {
        CampaignError::Scenario(e)
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> CampaignError {
    let context = context.into();
    move |source| CampaignError::Io { context, source }
}

/// Serializes a completed point for the cache: the spec string (verified
/// on load, so a hash collision degrades to a rerun, never a wrong
/// merge) and the full-precision result.
fn render_entry(spec: &str, p: &PointResult) -> String {
    use core::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "procsim-campaign-point {CACHE_FORMAT}");
    let _ = writeln!(out, "spec {spec}");
    let _ = writeln!(out, "label {}", p.label);
    let _ = writeln!(out, "load {}", p.load);
    let _ = writeln!(out, "replications {}", p.replications);
    let stop = match p.stop {
        StopReason::Converged => "converged",
        StopReason::Budget => "budget",
        StopReason::NotStopped => "not-stopped",
    };
    let _ = writeln!(out, "stop {stop}");
    let means: Vec<String> = p.means.iter().map(|m| format!("{m}")).collect();
    let _ = writeln!(out, "means {}", means.join(" "));
    let cis: Vec<String> = p.ci95.iter().map(|c| format!("{c}")).collect();
    let _ = writeln!(out, "ci95 {}", cis.join(" "));
    out
}

/// Parses a cache entry back. `None` = unusable (wrong version, spec
/// mismatch, or corruption) — the caller treats it as a miss and reruns.
fn parse_entry(text: &str, want_spec: &str) -> Option<PointResult> {
    let mut lines = text.lines();
    if lines.next()? != format!("procsim-campaign-point {CACHE_FORMAT}") {
        return None;
    }
    let spec = lines.next()?.strip_prefix("spec ")?;
    if spec != want_spec {
        return None;
    }
    let label = lines.next()?.strip_prefix("label ")?.to_string();
    let load: f64 = lines.next()?.strip_prefix("load ")?.parse().ok()?;
    let replications: usize = lines.next()?.strip_prefix("replications ")?.parse().ok()?;
    let stop = match lines.next()?.strip_prefix("stop ")? {
        "converged" => StopReason::Converged,
        "budget" => StopReason::Budget,
        "not-stopped" => StopReason::NotStopped,
        _ => return None,
    };
    let mut means = [0.0f64; 6];
    for (slot, tok) in means
        .iter_mut()
        .zip(lines.next()?.strip_prefix("means ")?.split(' '))
    {
        *slot = tok.parse().ok()?;
    }
    let mut ci95 = [0.0f64; 6];
    for (slot, tok) in ci95
        .iter_mut()
        .zip(lines.next()?.strip_prefix("ci95 ")?.split(' '))
    {
        *slot = tok.parse().ok()?;
    }
    Some(PointResult {
        label,
        load,
        replications,
        stop,
        means,
        ci95,
    })
}

/// Atomically persists one completed point: write to a `.tmp` sibling,
/// then rename into place.
fn write_entry(dir: &Path, point: &CampaignPoint, p: &PointResult) -> Result<(), CampaignError> {
    let path = dir.join(format!("{}.point", point.hash));
    let tmp = dir.join(format!("{}.tmp", point.hash));
    std::fs::write(&tmp, render_entry(&point.spec, p))
        .map_err(io_err(format!("cannot write cache entry {}", tmp.display())))?;
    std::fs::rename(&tmp, &path)
        .map_err(io_err(format!("cannot commit cache entry {}", path.display())))
}

/// Loads a cached result for `point`, or `None` on any miss.
fn load_entry(dir: &Path, point: &CampaignPoint) -> Option<PointResult> {
    let path = dir.join(format!("{}.point", point.hash));
    let text = std::fs::read_to_string(path).ok()?;
    parse_entry(&text, &point.spec)
}

/// How many of `points` already have a usable cache entry in `dir`
/// (spec-verified, not just file-present) — the read-only probe behind
/// `procsim campaign --dry-run` and the pre-run status line.
pub fn cached_count(points: &[CampaignPoint], dir: &Path) -> usize {
    points.iter().filter(|p| load_entry(dir, p).is_some()).count()
}

// ---------------------------------------------------------------------------
// the runner
// ---------------------------------------------------------------------------

/// Caching knobs of one `run_campaign` invocation (orthogonal to the
/// results: caching changes wall-clock only).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Cache directory for completed points.
    pub cache_dir: PathBuf,
    /// Ignore (and overwrite) existing cache entries.
    pub force: bool,
}

/// The outcome of a campaign run.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One result per point, in expansion order.
    pub points: Vec<PointResult>,
    /// Which points were served from the cache (parallel to `points`).
    pub from_cache: Vec<bool>,
    /// Points executed this run.
    pub executed: usize,
    /// Points served from the cache.
    pub cached: usize,
    /// The merged CSV (header + one row per point, expansion order).
    pub csv: String,
}

/// Expands `scenario`, loads every cached point, runs the missing ones
/// on `pool`, persists them, and merges everything into the scenario's
/// CSV layout. The merged CSV is byte-identical to an uninterrupted
/// fresh run at any pool size, however the campaign was previously
/// sliced.
pub fn run_campaign(
    scenario: &Scenario,
    opts: &CampaignOptions,
    pool: &WorkerPool,
) -> Result<CampaignOutcome, CampaignError> {
    let points = expand(scenario)?;
    std::fs::create_dir_all(&opts.cache_dir).map_err(io_err(format!(
        "cannot create cache dir {}",
        opts.cache_dir.display()
    )))?;

    let mut results: Vec<Option<PointResult>> = Vec::with_capacity(points.len());
    for point in &points {
        results.push(if opts.force {
            None
        } else {
            load_entry(&opts.cache_dir, point)
        });
    }
    let cached = results.iter().filter(|r| r.is_some()).count();
    let from_cache: Vec<bool> = results.iter().map(Option::is_some).collect();

    // Group the missing points by their replication bounds: each group is
    // one `run_points_on` batch (the controller is per-batch). BTreeMap
    // keeps group order deterministic; within a group, expansion order is
    // preserved. Per-point results are independent of the grouping.
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, r) in results.iter().enumerate() {
        if r.is_none() {
            groups
                .entry((points[i].settings.min_reps, points[i].settings.max_reps))
                .or_default()
                .push(i);
        }
    }
    let executed: usize = groups.values().map(Vec::len).sum();

    for ((min_reps, max_reps), members) in &groups {
        let cfgs: Vec<crate::SimConfig> = members
            .iter()
            .map(|&i| points[i].settings.sim_config(points[i].seed, points[i].trace.as_ref()))
            .collect();
        let fresh = run_points_on(pool, &cfgs, *min_reps, *max_reps);
        for (&i, p) in members.iter().zip(fresh) {
            write_entry(&opts.cache_dir, &points[i], &p)?;
            results[i] = Some(p);
        }
    }

    let merged: Vec<PointResult> = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            debug_assert!(r.is_some(), "point {i} neither cached nor executed");
            // procsim-lint: allow(D004): invariant: every point was either loaded from cache or just executed above
            r.expect("invariant: campaign point resolved")
        })
        .collect();
    let csv = render_csv(scenario, &points, &merged)?;

    Ok(CampaignOutcome {
        points: merged,
        from_cache,
        executed,
        cached,
        csv,
    })
}

/// The six response metric names, in `PointResult::means` order.
const METRICS: [&str; 6] = [
    "turnaround",
    "service",
    "utilization",
    "blocking",
    "latency",
    "fragments",
];

/// One CSV field, quoted (RFC 4180) when it holds a comma, a quote or a
/// line break — e.g. the series label `Paging(0,snake-like)(FCFS)`.
///
/// ```
/// use procsim_core::csv_field;
/// assert_eq!(csv_field("GABL(FCFS)"), "GABL(FCFS)");
/// assert_eq!(csv_field("Paging(0,snake-like)(FCFS)"), "\"Paging(0,snake-like)(FCFS)\"");
/// assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
/// ```
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Assembles the campaign CSV per the scenario's `[output]` spec.
/// Unknown column names are a validation error (named here rather than
/// silently emitting empty cells).
fn render_csv(
    scenario: &Scenario,
    points: &[CampaignPoint],
    results: &[PointResult],
) -> Result<String, CampaignError> {
    let out_spec: &OutputSpec = &scenario.output;

    // header
    let mut header: Vec<String> = Vec::new();
    for col in &out_spec.columns {
        match col.as_str() {
            "means" => header.extend(METRICS.iter().map(|m| m.to_string())),
            "cis" => header.extend(METRICS.iter().map(|m| format!("ci_{m}"))),
            other => header.push(csv_field(other)),
        }
    }
    let mut csv = header.join(",");
    csv.push('\n');

    for (point, r) in points.iter().zip(results) {
        let mut row: Vec<String> = Vec::new();
        for col in &out_spec.columns {
            match col.as_str() {
                "series" => row.push(csv_field(&r.label)),
                "topology" => row.push(point.settings.topology.to_string()),
                // an offered-load point reports the ρ it asked for, not
                // the arrival rate it converts to
                "load" => row.push(match point.settings.load_unit {
                    LoadUnit::Offered => format!("{}", point.settings.load),
                    LoadUnit::Arrival => format!("{}", r.load),
                }),
                "reps" => row.push(r.replications.to_string()),
                "means" => row.extend(r.means.iter().map(|m| format!("{m}"))),
                "cis" => row.extend(r.ci95.iter().map(|c| format!("{c}"))),
                other => {
                    if let Some((_, v)) = out_spec.values.iter().find(|(k, _)| k == other) {
                        row.push(csv_field(v));
                    } else if let Some(v) = point.settings.knob_value(other) {
                        row.push(csv_field(&v));
                    } else {
                        return Err(CampaignError::Scenario(ScenarioError::new(
                            0,
                            format!("output.columns.{other}"),
                            "unknown column (built-ins: series, topology, load, reps, means, \
                             cis; or an [output.values] constant or knob name)",
                        )));
                    }
                }
            }
        }
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    Ok(csv)
}

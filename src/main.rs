//! `procsim` CLI — run a single configuration, a trace replay, or a
//! declarative campaign (every paper figure is one: `scenarios/figNN.toml`)
//! from the command line.
//!
//! ```text
//! procsim run   [--strategy gabl|paging0..3[-<indexing>]|mbs|ff|bf|random|mc]
//!               [--scheduler fcfs|ssd|sjf|ljf|easy|fcfs-window<N>]
//!               [--workload uniform|exponential|paragon|cm5]
//!               [--topology mesh|torus]
//!               [--load 0.0008] [--jobs 400] [--seed 42]
//!               [--reps N] [--threads N]
//! procsim trace <file.swf> [--load 0.7] [--strategy S|all] [--scheduler P]
//!               [--topology mesh|torus] [--scale 360] [--jobs N] [--reps R]
//!               [--seed K] [--csv PATH]
//! procsim gen-trace <out.swf> [--model paragon|cm5] [--jobs N] [--seed K]
//! procsim campaign <scenario.toml> [--cache DIR] [--csv PATH] [--force]
//!               [--dry-run] [--threads N]
//! ```
//!
//! `run` and `trace` take `--topology {mesh,torus}` (a campaign sets
//! `topology` in its scenario file): the same workload, strategy, and
//! seeds drive either network, so a mesh run and a torus run differ only
//! in the wraparound links and the dateline virtual channels — see
//! `docs/TOPOLOGIES.md`.
//!
//! `run` and `trace` build their points through [`PointSettings`], so
//! every strategy, scheduler and workload spelling (and its meaning) is
//! the scenario format's.
//!
//! A flag the subcommand does not take, a valued flag without its value,
//! an unknown name and a malformed number are usage errors: `error: …`
//! on stderr and exit status 2, never a silent default or a panic.
//!
//! `trace` replays an SWF archive file at a target **offered load**
//! (`--load 0.7` = the scaled trace occupies 70 % of machine capacity in
//! its own time domain; see `docs/WORKLOADS.md` for the math) and writes
//! one CSV row per (strategy, load) point. Replications run in parallel
//! on the shared worker pool; `--threads N` (or the `PROCSIM_THREADS`
//! environment variable) sets its size. The thread count never changes
//! results, only wall-clock time.

use procsim::{
    cached_count, csv_field, derive_seed, expand, run_campaign, run_point, run_points,
    write_swf_to, CampaignOptions, Cm5Model, ParagonModel, PointResult, PointSettings, Scenario,
    SimConfig, SimRng, StopReason, StrategyKind, TopologyKind, TraceWorkload,
};
use procsim_core::scenario::{LoadUnit, Value, WorkloadName};
use std::io::Write;
use std::str::FromStr;
use std::sync::Arc;

struct Args {
    map: std::collections::BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// The flags a subcommand accepts: options that take a value, then bare
/// switches (which never consume the following argument). `None` for
/// the usage screen, which takes no flags.
fn accepted_flags(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match cmd {
        "run" => (
            &[
                "strategy",
                "scheduler",
                "workload",
                "topology",
                "load",
                "jobs",
                "seed",
                "reps",
                "threads",
            ],
            &[],
        ),
        // `factor` is accepted only to die with its migration message
        "trace" => (
            &[
                "load",
                "strategy",
                "scheduler",
                "topology",
                "scale",
                "jobs",
                "reps",
                "seed",
                "csv",
                "threads",
                "factor",
            ],
            &[],
        ),
        "gen-trace" => (&["model", "jobs", "seed"], &[]),
        "campaign" => (&["cache", "csv", "threads"], &["force", "dry-run"]),
        _ => return None,
    })
}

fn parse_args(args: &[String], switches: &[&str]) -> Args {
    let mut map = std::collections::BTreeMap::new();
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if !switches.contains(&key) && i + 1 < args.len() && !args[i + 1].starts_with("--") {
                map.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Args {
        map,
        flags,
        positional,
    }
}

/// Dies on any flag outside the subcommand's accepted set, and on a
/// valued flag given without its value.
fn check_flags(a: &Args, values: &[&str], switches: &[&str]) {
    for key in a.map.keys() {
        if !values.contains(&key.as_str()) {
            die(&format!("unknown flag --{key}"));
        }
    }
    for key in &a.flags {
        if values.contains(&key.as_str()) {
            // the value was missing (or swallowed by a following flag);
            // falling back to a default would silently ignore the user
            die(&format!("--{key} needs a value"));
        }
        if !switches.contains(&key.as_str()) {
            die(&format!("unknown flag --{key}"));
        }
    }
}

/// Reads `--key` as a number (`None` when absent); a malformed value is
/// a usage error naming the flag.
fn num<T: std::str::FromStr>(a: &Args, key: &str) -> Option<T> {
    a.map.get(key).map(|s| {
        s.parse()
            .unwrap_or_else(|_| die(&format!("bad --{key} value '{s}' (expected a number)")))
    })
}

/// Parses a strategy, scheduler, workload or topology name with the
/// `FromStr` the scenario format shares; an unknown name is a usage
/// error listing the valid ones.
fn parse_name<T: FromStr<Err = String>>(name: &str) -> T {
    name.parse().unwrap_or_else(|e: String| die(&e))
}

/// Reads the named value of `--key`, or `default` when absent.
fn named<T: FromStr<Err = String>>(a: &Args, key: &str, default: &str) -> T {
    parse_name(a.map.get(key).map_or(default, String::as_str))
}

/// Holds a flag's value to the rule of the scenario knob `knob`, so the
/// CLI rejects exactly what a scenario file would; dies naming the flag.
fn check_as_knob(flag: &str, knob: &str, v: Value) {
    if let Err(e) = PointSettings::check_knob(knob, &v, 0, flag) {
        die(&format!("--{flag} {}", e.msg));
    }
}

/// `--load`, or `default` when absent: positive and finite, like the
/// `load` knob.
fn load_flag(a: &Args, default: f64) -> f64 {
    let load = num(a, "load").unwrap_or(default);
    check_as_knob("load", "load", Value::Float(load));
    load
}

/// `--jobs` (measured jobs), or `default` when absent: non-zero, like
/// the `measured` knob.
fn jobs_flag(a: &Args, default: usize) -> usize {
    let jobs = num(a, "jobs").unwrap_or(default);
    check_as_knob("jobs", "measured", Value::Int(i64::try_from(jobs).unwrap_or(i64::MAX)));
    jobs
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `procsim help` for usage");
    std::process::exit(2)
}

/// The `run` point: the scenario format's built-in paper defaults with
/// the flags on top.
fn config_from(a: &Args) -> SimConfig {
    let load = load_flag(a, 0.0008);
    let jobs = jobs_flag(a, 400);
    let workload = named(a, "workload", "uniform");
    if workload == WorkloadName::Trace {
        die("--workload trace needs a trace file: use `procsim trace <file.swf>`");
    }
    let settings = PointSettings {
        strategy: named(a, "strategy", "gabl"),
        scheduler: named(a, "scheduler", "fcfs"),
        workload,
        topology: named(a, "topology", "mesh"),
        load,
        warmup: (jobs / 4).max(10),
        measured: jobs,
        ..PointSettings::default()
    };
    settings.sim_config(num(a, "seed").unwrap_or(42), None)
}

fn print_result(p: &procsim::PointResult) {
    println!(
        "{:<18} load {:<9.5} turnaround {:>10.1} ±{:>7.1}  service {:>8.1}  util {:>5.3}  latency {:>7.1}  blocking {:>7.1}  [{} reps]",
        p.label,
        p.load,
        p.turnaround(),
        p.ci95[0],
        p.service(),
        p.utilization(),
        p.latency(),
        p.blocking(),
        p.replications
    );
}

fn print_point(cfg: &SimConfig, reps: usize) {
    print_result(&run_point(cfg, reps.max(2), reps.max(2) * 2));
}

/// Stable per-strategy substream index for [`derive_seed`] (FNV-1a over
/// the series label): a strategy's random streams are identical whether
/// it runs alone (`--strategy mbs`) or inside `--strategy all`, so
/// single-strategy runs reproduce the matching row of an all-strategies
/// CSV.
fn strategy_stream(label: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// `procsim trace <file.swf>`: replay an SWF trace at a target offered
/// load. Every (strategy) series is one experimental point; all points'
/// replications run as a single batch on the shared worker pool, so the
/// CSV is bit-identical at any thread count.
///
/// The trace is opened **streaming** ([`TraceWorkload::open`]): one
/// validating pass computes the scaling statistics, and replay re-reads
/// the file lazily — memory stays bounded however long the trace is, so
/// `gen-trace`-produced million-job fixtures replay without swapping.
/// `--reps 1` runs a single replication per strategy (no confidence
/// intervals) — the stress-replay mode CI's smoke step uses.
fn run_trace(a: &Args, reps: usize) {
    let path = a
        .positional
        .first()
        .unwrap_or_else(|| die("trace needs a .swf file path"));
    let load = load_flag(a, 0.7);
    let req_jobs = jobs_flag(a, 400);
    let scale: f64 = num(a, "scale").unwrap_or(360.0);
    check_as_knob("scale", "runtime_scale", Value::Float(scale));
    let trace = TraceWorkload::open(path).unwrap_or_else(|e| die(&e.to_string()));
    let (mesh_w, mesh_l) = procsim::PAPER_MESH;
    let machine = mesh_w as u32 * mesh_l as u32;
    match trace.summary() {
        Some(s) => println!("{s}"),
        None => die("trace too short"),
    }
    println!(
        "native offered load: {:.3} (on {} processors)\n",
        trace.offered_load(machine),
        machine
    );

    if a.map.contains_key("factor") {
        // the pre-offered-load flag; ignoring it silently would replay at
        // a different load than the caller asked for
        die(
            "--factor was replaced by --load (target offered load, e.g. 0.7); \
             a factor f corresponds to --load <native_load / f> — see docs/WORKLOADS.md",
        );
    }
    let topology: TopologyKind = named(a, "topology", "mesh");
    let factor = trace.factor_for_offered_load(machine, load);
    println!(
        "replaying at offered load {load} on the {topology} \
         (arrival-scaling factor f = {factor:.4}, f < 1 compresses)\n"
    );

    let strategies: Vec<StrategyKind> = match a.map.get("strategy").map(|s| s.as_str()) {
        None | Some("all") => StrategyKind::PAPER.to_vec(),
        Some(name) => vec![parse_name(name)],
    };
    let scheduler = named(a, "scheduler", "fcfs");
    let seed: u64 = num(a, "seed").unwrap_or(42);
    // a replication only sees trace.len() arrivals (the segment wraps the
    // stream exactly once), so cap warmup + measurement to what the trace
    // can feed
    let req_warmup = (req_jobs / 4).max(10);
    let (warmup, jobs) = trace.capped_budget(req_warmup, req_jobs);
    if (warmup, jobs) != (req_warmup, req_jobs) {
        eprintln!(
            "warning: trace has only {} jobs; measuring {jobs} after {warmup} warmup",
            trace.len()
        );
    }

    let trace = Arc::new(trace);
    let cfgs: Vec<SimConfig> = strategies
        .iter()
        .map(|&strategy| {
            let settings = PointSettings {
                strategy,
                scheduler,
                topology,
                workload: WorkloadName::Trace,
                load_unit: LoadUnit::Offered,
                load,
                runtime_scale: scale,
                warmup,
                measured: jobs,
                trace: path.clone(),
                ..PointSettings::default()
            };
            // same seed on either topology: a mesh and a torus replay of
            // one strategy see identical job streams (paired comparison)
            let seed = derive_seed(seed, strategy_stream(&strategy.to_string()));
            settings.sim_config(seed, Some(&trace))
        })
        .collect();
    // one batch: every strategy's replications share the worker pool
    let points: Vec<PointResult> = if reps <= 1 {
        eprintln!("note: --reps 1 runs one replication per strategy (no confidence intervals)");
        cfgs.iter()
            .map(|cfg| {
                let m = procsim::Simulator::new(cfg, 0).run();
                PointResult {
                    label: cfg.series_label(),
                    load: cfg.workload.load(),
                    replications: 1,
                    stop: StopReason::Budget,
                    means: m.response_vector(),
                    ci95: [0.0; 6],
                }
            })
            .collect()
    } else {
        run_points(&cfgs, reps, reps * 2)
    };
    for p in &points {
        print_result(p);
    }

    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".into());
    let csv_path = a
        .map
        .get("csv")
        .cloned()
        .unwrap_or_else(|| format!("results/trace_{stem}.csv"));
    match write_trace_csv(&csv_path, &stem, topology, factor, &points) {
        Ok(()) => eprintln!("wrote {csv_path}"),
        Err(e) => die(&format!("cannot write {csv_path}: {e}")),
    }
}

/// Writes the trace-replay CSV: one row per (series, load) point, full
/// float precision (shortest round-trip representation), so files diff
/// cleanly across runs and thread counts.
fn write_trace_csv(
    path: &str,
    trace_name: &str,
    topology: TopologyKind,
    factor: f64,
    points: &[PointResult],
) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "trace,series,topology,load,factor,reps,turnaround,service,utilization,blocking,latency,\
         fragments,ci_turnaround,ci_service,ci_utilization,ci_blocking,ci_latency,ci_fragments"
    )?;
    for p in points {
        write!(
            f,
            "{},{},{},{},{},{}",
            csv_field(trace_name),
            csv_field(&p.label),
            topology,
            p.load,
            factor,
            p.replications
        )?;
        for m in p.means {
            write!(f, ",{m}")?;
        }
        for c in p.ci95 {
            write!(f, ",{c}")?;
        }
        writeln!(f)?;
    }
    Ok(())
}

/// `procsim gen-trace <out.swf>`: write a synthetic SWF fixture (the
/// generator behind the checked-in sample; use larger `--jobs` for
/// stress fixtures — the model streams straight to the file, so a
/// million-job fixture is generated in O(1) memory).
fn run_gen_trace(a: &Args) {
    let out = a
        .positional
        .first()
        .unwrap_or_else(|| die("gen-trace needs an output .swf path"));
    let model = a.map.get("model").map(|s| s.as_str()).unwrap_or("paragon");
    let jobs: usize = num(a, "jobs").unwrap_or(600);
    if jobs < 2 {
        // a trace needs an inter-arrival time to scale; refuse before
        // creating a file nothing can replay
        die(&format!("--jobs must be at least 2 for a trace, got {jobs}"));
    }
    let seed: u64 = num(a, "seed").unwrap_or(2008);
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir: {e}")));
        }
    }
    let mut rng = SimRng::new(seed);
    let file =
        std::fs::File::create(out).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    let mut w = std::io::BufWriter::new(file);
    let written = (|| -> std::io::Result<usize> {
        write!(
            w,
            "; procsim synthetic SWF fixture (public domain: generated data, no production-log content)\n\
             ; regenerate with: procsim gen-trace {out} --model {model} --jobs {jobs} --seed {seed}\n"
        )?;
        let n = match model {
            "paragon" => {
                write_swf_to(&mut w, ParagonModel { jobs, ..Default::default() }.stream(&mut rng))?
            }
            "cm5" => write_swf_to(&mut w, Cm5Model { jobs, ..Default::default() }.stream(&mut rng))?,
            other => die(&format!("unknown model '{other}' (paragon or cm5)")),
        };
        w.flush()?;
        Ok(n)
    })()
    .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    assert_eq!(written, jobs);
    // re-open streaming: validates the file end-to-end and reports the
    // native load without holding the records
    let trace = TraceWorkload::open(out).expect("generated trace must parse");
    let (mesh_w, mesh_l) = procsim::PAPER_MESH;
    println!(
        "wrote {out}: {} jobs ({model} model, seed {seed}), native offered load {:.3} on {mesh_w}x{mesh_l}",
        trace.len(),
        trace.offered_load(mesh_w as u32 * mesh_l as u32)
    );
}

/// `procsim campaign <scenario.toml>`: expand a declarative scenario
/// into its cross-product of points, serve what the on-disk cache
/// already has, run the rest on the shared worker pool, and merge
/// everything into one CSV. Interrupt it freely: a rerun resumes from
/// the cache and the merged CSV is byte-identical to an uninterrupted
/// run at any thread count (see `docs/CAMPAIGNS.md`).
fn run_campaign_cmd(a: &Args) {
    let path = a
        .positional
        .first()
        .unwrap_or_else(|| die("campaign needs a scenario file path"));
    let scenario =
        Scenario::load(std::path::Path::new(path)).unwrap_or_else(|e| die(&e.to_string()));
    let points = expand(&scenario).unwrap_or_else(|e| die(&e.to_string()));
    let force = a.flags.iter().any(|f| f == "force");
    let dry_run = a.flags.iter().any(|f| f == "dry-run");
    let cache_dir = std::path::PathBuf::from(
        a.map
            .get("cache")
            .cloned()
            .unwrap_or_else(|| format!("results/campaign_cache/{}", scenario.name)),
    );
    let csv_path = a
        .map
        .get("csv")
        .cloned()
        .or_else(|| scenario.output.csv.clone())
        .unwrap_or_else(|| format!("results/campaign_{}.csv", scenario.name));

    let cached = if force {
        0
    } else {
        cached_count(&points, &cache_dir)
    };
    println!(
        "campaign '{}': {} points ({} cached, {} to run{})",
        scenario.name,
        points.len(),
        cached,
        points.len() - cached,
        if force { ", --force" } else { "" }
    );

    if dry_run {
        for p in &points {
            println!(
                "  [{:>3}] {}({}) {} load {} seed {:#x} hash {}",
                p.index,
                p.settings.strategy,
                p.settings.scheduler,
                p.settings.workload.name(),
                p.settings.load,
                p.seed,
                p.hash
            );
        }
        return;
    }

    let opts = CampaignOptions { cache_dir, force };
    // the shared pool, sized by --threads / PROCSIM_THREADS
    let outcome = run_campaign(&scenario, &opts, procsim::pool::global())
        .unwrap_or_else(|e| die(&e.to_string()));
    if let Some(dir) = std::path::Path::new(&csv_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
        }
    }
    std::fs::write(&csv_path, &outcome.csv)
        .unwrap_or_else(|e| die(&format!("cannot write {csv_path}: {e}")));
    println!(
        "wrote {csv_path} ({} executed, {} cached)",
        outcome.executed, outcome.cached
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map(|s| s.as_str()).unwrap_or("help");
    let accepted = accepted_flags(cmd);
    let switches = accepted.map_or(&[][..], |(_, switches)| switches);
    let a = parse_args(&argv[1.min(argv.len())..], switches);
    if let Some((values, switches)) = accepted {
        check_flags(&a, values, switches);
    }
    let reps: usize = num(&a, "reps").unwrap_or(3);
    if let Some(n) = num::<usize>(&a, "threads") {
        if !procsim::pool::configure_global(n.max(1)) {
            eprintln!("warning: worker pool already sized; --threads {n} ignored");
        }
    }

    match cmd {
        "run" => {
            print_point(&config_from(&a), reps);
        }
        "trace" => run_trace(&a, reps),
        "gen-trace" => run_gen_trace(&a),
        "campaign" => run_campaign_cmd(&a),
        "help" | "--help" | "-h" => {
            println!("procsim — 2D mesh processor allocation & scheduling simulator");
            println!("(IPDPS 2008 reproduction; see README.md)\n");
            println!("usage:");
            println!("  procsim run   [--strategy S] [--scheduler P] [--workload W] [--load L]");
            println!("                [--topology T] [--jobs N] [--seed K] [--reps R] [--threads T]");
            println!("  procsim trace <file.swf> [--load RHO] [--strategy S|all] [--scheduler P]");
            println!("                [--topology T] [--scale S] [--jobs N] [--reps R] [--seed K]");
            println!("                [--csv PATH]");
            println!("  procsim gen-trace <out.swf> [--model paragon|cm5] [--jobs N] [--seed K]");
            println!("  procsim campaign <scenario.toml> [--cache DIR] [--csv PATH] [--force]");
            println!("                [--dry-run] [--threads T]");
            println!();
            println!("campaign runs a declarative scenario file (see docs/CAMPAIGNS.md and");
            println!("scenarios/): the cross-product of its matrix, cached per point on disk,");
            println!("so interrupted or extended campaigns resume by rerunning only what's");
            println!("missing — output is byte-identical at any thread count. Every paper");
            println!("figure is one: procsim campaign scenarios/fig02.toml (figures 2-16),");
            println!("and so is every ablation (scenarios/ablation_*.toml) and the");
            println!("trace-vs-model comparison (scenarios/trace_vs_synthetic.toml).");
            println!();
            println!("strategies: gabl paging0..paging3 mbs ff bf random mc");
            println!("            paging<i>-<indexing> picks a page indexing (default row-major):");
            println!("            row-major shuffled-row-major snake-like shuffled-snake-like");
            println!("schedulers: fcfs ssd sjf ljf easy fcfs-window<N> (N >= 1)");
            println!("workloads:  uniform exponential paragon cm5 (a campaign also takes");
            println!("            trace; the CLI replays a trace with procsim trace)");
            println!("topologies: mesh torus   (docs/TOPOLOGIES.md)");
            println!();
            println!("trace --load is the target offered load (fraction of machine capacity");
            println!("in trace time, e.g. 0.7); see docs/WORKLOADS.md for the scaling math.");
            println!("traces replay as a streaming pipeline (bounded memory, any length);");
            println!("--reps 1 runs one replication per strategy (stress mode, no CIs)");
            println!();
            println!("replications run on a shared worker pool; size it with --threads N");
            println!("or PROCSIM_THREADS=N (results are identical for any thread count)");
        }
        other => die(&format!(
            "unknown command '{other}' (run, trace, gen-trace, campaign, help)"
        )),
    }
}

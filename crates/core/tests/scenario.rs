//! Test battery of the scenario format (`procsim campaign` config
//! files): per-field malformed-input coverage with structured errors
//! (line + dotted place, mirroring `SwfError`'s style), the
//! defaults/override precedence table, expansion order and seed-slot
//! semantics, trace-file knobs and their cache keys, and a property test
//! pinning the canonical-render round trip `parse(render(s)) == s`.

use procsim_core::scenario::{
    cli_scheduler_name, cli_strategy_name, Scenario, ScenarioError, Value, KNOBS,
};
use procsim_core::{expand, PageIndexing, PointSettings, SchedulerKind, StrategyKind};
use proptest::prelude::*;

/// A minimal valid scenario to splice malformed fragments into.
const MINIMAL: &str = "[campaign]\nname = \"t\"\nseed = 1\n\n[matrix]\nload = [0.001]\n";

fn parse_err(text: &str) -> ScenarioError {
    match Scenario::parse(text) {
        Err(e) => e,
        Ok(s) => panic!("expected a parse error, got {s:?}"),
    }
}

/// Asserts one malformed input: the error's line, and substrings of its
/// dotted place and message.
fn assert_err(text: &str, line: usize, place: &str, msg: &str) {
    let e = parse_err(text);
    assert_eq!(e.line, line, "line of {text:?}: got {e}");
    assert!(
        e.place.contains(place),
        "place of {text:?}: want {place:?} in {e}"
    );
    assert!(e.msg.contains(msg), "msg of {text:?}: want {msg:?} in {e}");
}

#[test]
fn minimal_scenario_parses() {
    let s = Scenario::parse(MINIMAL).expect("minimal scenario is valid");
    assert_eq!(s.name, "t");
    assert_eq!(s.seed, 1);
    assert_eq!(s.matrix.len(), 1);
    assert_eq!(s.matrix[0].0, "load");
}

#[test]
fn hex_seed_parses() {
    let s = Scenario::parse(&MINIMAL.replace("seed = 1", "seed = 0xF1F")).unwrap();
    assert_eq!(s.seed, 0xF1F);
}

// ---------------------------------------------------------------------------
// the malformed-input battery: every field, structured errors
// ---------------------------------------------------------------------------

#[test]
fn campaign_section_errors() {
    // missing required fields are whole-file errors (line 0)
    assert_err("[matrix]\nload = [0.001]\n", 0, "campaign.name", "missing");
    assert_err(
        "[campaign]\nname = \"t\"\n[matrix]\nload = [0.001]\n",
        0,
        "campaign.seed",
        "missing",
    );
    assert_err("[campaign]\nname = \"\"\nseed = 1\n", 2, "campaign.name", "non-empty");
    assert_err("[campaign]\nname = 3\nseed = 1\n", 2, "campaign.name", "must be a string");
    assert_err("[campaign]\nname = \"t\"\nseed = -4\n", 3, "campaign.seed", "non-negative");
    assert_err("[campaign]\nname = \"t\"\nseed = 1.5\n", 3, "campaign.seed", "integer");
    assert_err("[campaign]\nname = \"t\"\nseed = 0xZZ\n", 3, "campaign.seed", "invalid hex");
    assert_err("[campaign]\nname = \"t\"\nseed = 1\ncolor = \"red\"\n", 4, "campaign.color", "unknown key");
}

#[test]
fn structural_errors() {
    assert_err("[campaign\nname = \"t\"\n", 1, "section", "unterminated section header");
    assert_err("[frobnicate]\n", 1, "section", "unknown section");
    assert_err("name = \"t\"\n", 1, "line", "before any [section]");
    assert_err("[campaign]\nname \"t\"\n", 2, "line", "expected `key = value`");
    assert_err(
        &format!("{MINIMAL}[matrix]\nts = [3]\n"),
        7,
        "section",
        "duplicate section",
    );
    // a required section missing entirely
    assert_err("[campaign]\nname = \"t\"\nseed = 1\n", 0, "matrix", "at least one axis");
}

#[test]
fn value_literal_errors() {
    assert_err(&MINIMAL.replace("\"t\"", "\"t"), 2, "campaign.name", "unterminated string");
    assert_err(
        &MINIMAL.replace("[0.001]", "[0.001"),
        6,
        "matrix.load",
        "unterminated array",
    );
    assert_err(&MINIMAL.replace("[0.001]", "@bad"), 6, "matrix.load", "invalid value");
    assert_err(&MINIMAL.replace("[0.001]", "[]"), 6, "matrix.load", "at least one value");
    assert_err(&MINIMAL.replace("[0.001]", "0.001"), 6, "matrix.load", "expected an array");
    assert_err(&MINIMAL.replace("seed = 1", "seed = [1]"), 3, "campaign.seed", "single value");
}

#[test]
fn matrix_knob_errors() {
    // every error points at the exact defining line (line 6 of MINIMAL+1 fragment)
    let with = |axis: &str| format!("{MINIMAL}{axis}\n");
    assert_err(&with("load = [0.002]").replace("load = [0.001]", "load = [0.001]\nload = [0.002]"),
        7, "matrix.load", "duplicate matrix axis");
    assert_err(&with("frobnicate = [1]"), 7, "matrix.frobnicate", "unknown knob");
    assert_err(&with("strategy = [\"warpdrive\"]"), 7, "matrix.strategy", "unknown strategy");
    assert_err(&with("strategy = [3]"), 7, "matrix.strategy", "expected a quoted string");
    assert_err(&with("scheduler = [\"lifo\"]"), 7, "matrix.scheduler", "unknown scheduler");
    assert_err(&with("topology = [\"hypercube\"]"), 7, "matrix.topology", "");
    assert_err(&with("workload = [\"netflix\"]"), 7, "matrix.workload", "unknown workload");
    assert_err(&with("pattern = [\"gossip\"]"), 7, "matrix.pattern", "unknown pattern");
    assert_err(&with("strategy = [\"paging0-zigzag\"]"), 7, "matrix.strategy", "unknown page indexing");
    assert_err(&with("strategy = [\"paging4-snake-like\"]"), 7, "matrix.strategy", "unknown paging variant");
    assert_err(&with("scheduler = [\"fcfs-window0\"]"), 7, "matrix.scheduler", "N >= 1");
    assert_err(&with("scheduler = [\"fcfs-windowx\"]"), 7, "matrix.scheduler", "N >= 1");
    assert_err(&with("mesh_w = [0]"), 7, "matrix.mesh_w", "non-zero");
    assert_err(&with("mesh_w = [-3]"), 7, "matrix.mesh_w", "out of range");
    assert_err(&with("mesh_w = [70000]"), 7, "matrix.mesh_w", "out of range");
    assert_err(&with("min_reps = [1]"), 7, "matrix.min_reps", ">= 2");
    assert_err(&with("num_mes = [0.0]"), 7, "matrix.num_mes", "positive finite");
    assert_err(&with("num_mes = [\"five\"]"), 7, "matrix.num_mes", "expected a number");
    assert_err(&with("measured = [0]"), 7, "matrix.measured", "non-zero");
    assert_err(&with("warmup = [2.5]"), 7, "matrix.warmup", "expected an integer");
}

#[test]
fn defaults_knob_errors() {
    let text = "[campaign]\nname = \"t\"\nseed = 1\n[defaults]\nload = -1.0\n[matrix]\nts = [3]\n".to_string();
    assert_err(&text, 5, "defaults.load", "positive finite");
}

#[test]
fn seed_section_errors() {
    let base = |frag: &str| format!("{MINIMAL}[seed]\n{frag}\n");
    assert_err(&base("axis = [\"load\"]"), 8, "seed.axis", "unknown key");
    assert_err(&base("axes = [\"strategy\"]"), 0, "seed.axes", "not a matrix axis");
    assert_err(
        &base("axes = [\"load\", \"load\"]"),
        0,
        "seed.axes",
        "duplicate axis",
    );
    assert_err(&base("axes = [3]"), 8, "seed.axes", "must be strings");
}

#[test]
fn override_errors() {
    assert_err(
        &format!("{MINIMAL}[override.load]\nwarmup = 1\n"),
        7,
        "override",
        "must be [override.axis=value]",
    );
    assert_err(
        &format!("{MINIMAL}[override.strategy=mbs]\nwarmup = 1\n"),
        7,
        "override.strategy=mbs",
        "neither a matrix axis nor a defaults knob",
    );
    assert_err(
        &format!("{MINIMAL}[override.load=0.001]\nmin_reps = 0\n"),
        8,
        "override.load=0.001.min_reps",
        ">= 2",
    );
}

#[test]
fn output_section_errors() {
    assert_err(&format!("{MINIMAL}[output]\ncolumns = []\n"), 8, "output.columns", "at least one");
    assert_err(&format!("{MINIMAL}[output]\ncolumns = [9]\n"), 8, "output.columns", "must be strings");
    assert_err(&format!("{MINIMAL}[output]\ncsv = 9\n"), 8, "output.csv", "string path");
    assert_err(&format!("{MINIMAL}[output]\nshape = \"wide\"\n"), 8, "output.shape", "unknown key");
}

#[test]
fn error_display_carries_line_and_place() {
    let e = parse_err(&MINIMAL.replace("[0.001]", "[0.0]"));
    let shown = e.to_string();
    assert!(shown.contains("line 6"), "{shown}");
    assert!(shown.contains("[matrix.load]"), "{shown}");
}

/// Every strategy and scheduler spelling the scenario format (and the
/// CLI) prints parses back to the same value.
#[test]
fn strategy_and_scheduler_spellings_round_trip() {
    let mut strategies = vec![
        StrategyKind::Gabl,
        StrategyKind::Mbs,
        StrategyKind::FirstFit,
        StrategyKind::BestFit,
        StrategyKind::Random,
        StrategyKind::Mc,
    ];
    for size_index in 0..=3 {
        for indexing in PageIndexing::ALL {
            strategies.push(StrategyKind::Paging {
                size_index,
                indexing,
            });
        }
    }
    for k in strategies {
        let name = cli_strategy_name(k);
        assert_eq!(name.parse::<StrategyKind>(), Ok(k), "{name}");
    }
    let mut schedulers = vec![
        SchedulerKind::Fcfs,
        SchedulerKind::Ssd,
        SchedulerKind::SjfArea,
        SchedulerKind::LjfArea,
        SchedulerKind::EasyBackfill,
    ];
    schedulers.extend((1..=8).map(SchedulerKind::FcfsWindow));
    for k in schedulers {
        let name = cli_scheduler_name(k);
        assert_eq!(name.parse::<SchedulerKind>(), Ok(k), "{name}");
    }
    // the explicit row-major spelling is accepted too
    assert_eq!("paging1-row-major".parse::<StrategyKind>(), "paging1".parse());
}

/// Every knob the parser accepts renders back through `knob_value`, and
/// vice versa, so overrides and output columns can name any of them.
#[test]
fn every_knob_renders() {
    let settings = PointSettings::default();
    for k in KNOBS {
        let v = settings.knob_value(k).unwrap_or_else(|| panic!("{k} does not render"));
        let value = match v.parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => match v.parse::<f64>() {
                Ok(f) => Value::Float(f),
                Err(_) => Value::Str(v.clone()),
            },
        };
        PointSettings::check_knob(k, &value, 1, k).unwrap_or_else(|e| panic!("{k} = {v}: {e}"));
    }
    assert_eq!(settings.knob_value("seed"), None, "seed is campaign-level");
}

// ---------------------------------------------------------------------------
// precedence and expansion semantics
// ---------------------------------------------------------------------------

#[test]
fn precedence_table() {
    // built-in < [defaults] < matrix < [override]; each point witnesses
    // one rung of the ladder
    let s = Scenario::parse(
        "[campaign]\nname = \"prec\"\nseed = 7\n\
         [defaults]\nwarmup = 7\nts = 4\n\
         [matrix]\nmeasured = [50, 60]\n\
         [override.measured=60]\nwarmup = 9\n",
    )
    .unwrap();
    let points = expand(&s).unwrap();
    assert_eq!(points.len(), 2);

    let builtin = PointSettings::default();
    let p0 = &points[0].settings;
    let p1 = &points[1].settings;
    // untouched knobs keep the built-in paper defaults
    assert_eq!(p0.mesh_w, builtin.mesh_w);
    assert_eq!(p0.plen, builtin.plen);
    // [defaults] overrides built-ins
    assert_eq!(p0.ts, 4);
    assert_ne!(builtin.ts, 4);
    // matrix value overrides defaults (and the axis varies per point)
    assert_eq!((p0.measured, p1.measured), (50, 60));
    // the override fires only on the matching point and beats [defaults]
    assert_eq!((p0.warmup, p1.warmup), (7, 9));
}

#[test]
fn expansion_is_later_axes_fastest() {
    let s = Scenario::parse(
        "[campaign]\nname = \"order\"\nseed = 7\n\
         [matrix]\nstrategy = [\"gabl\", \"mbs\"]\nload = [0.001, 0.002, 0.003]\n",
    )
    .unwrap();
    let points = expand(&s).unwrap();
    assert_eq!(points.len(), 6);
    let got: Vec<(String, f64)> = points
        .iter()
        .map(|p| (p.settings.knob_value("strategy").unwrap(), p.settings.load))
        .collect();
    // strategy outer, load fastest — matrix file order
    assert_eq!(got[0], ("gabl".into(), 0.001));
    assert_eq!(got[1], ("gabl".into(), 0.002));
    assert_eq!(got[2], ("gabl".into(), 0.003));
    assert_eq!(got[3], ("mbs".into(), 0.001));
    // default seed slot = expansion index
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.slot, i as u64);
        assert_eq!(p.index, i);
        assert_eq!(p.seed, procsim_core::derive_seed(7, i as u64));
    }
    // all six points get distinct seeds
    let mut seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 6);
}

#[test]
fn seed_axes_pair_excluded_axes() {
    // the mesh_vs_torus pattern: topology excluded from the slot, so a
    // mesh point and its torus twin share the derived seed
    let s = Scenario::parse(
        "[campaign]\nname = \"pair\"\nseed = 7\n\
         [matrix]\ntopology = [\"mesh\", \"torus\"]\nload = [0.001, 0.002]\n\
         [seed]\naxes = [\"load\"]\n",
    )
    .unwrap();
    let points = expand(&s).unwrap();
    assert_eq!(points.len(), 4);
    assert_eq!(points[0].seed, points[2].seed, "mesh/torus twins share streams");
    assert_eq!(points[1].seed, points[3].seed);
    assert_ne!(points[0].seed, points[1].seed, "different loads differ");
    // specs (and so cache keys) still differ: topology is in the spec
    assert_ne!(points[0].hash, points[2].hash);
}

/// The spec string (the cache-key preimage) of a default point is pinned:
/// warm caches and golden cache keys survive only while it is unchanged.
#[test]
fn default_point_spec_string_is_stable() {
    let points = expand(&Scenario::parse(MINIMAL).unwrap()).unwrap();
    assert_eq!(
        points[0].spec,
        "v1|mesh=16x22|ts=3|plen=8|pattern=all-to-all|topology=mesh|strategy=GABL|\
         scheduler=FCFS|workload=uniform|load=0.001|num_mes=5|runtime_scale=360|warmup=100|\
         measured=400|min_reps=3|max_reps=5|precision=paper95-5|seed=4654667239342140049"
    );
    assert_eq!(points[0].hash, "b3fa3ac7a0f63471");
}

/// Points that differ only in traffic pattern or page indexing are
/// different experiments, so they must not share a cache key (or run
/// with seed-paired streams and be served one another's results).
#[test]
fn pattern_and_indexing_are_in_the_cache_key() {
    let s = Scenario::parse(
        "[campaign]\nname = \"keys\"\nseed = 7\n\
         [matrix]\npattern = [\"all-to-all\", \"ring\"]\n\
         strategy = [\"paging0\", \"paging0-snake-like\"]\n\
         [seed]\naxes = []\n",
    );
    // an empty seed-axes list is legal: every point shares one seed
    let points = expand(&s.unwrap()).unwrap();
    let mut hashes: Vec<&str> = points.iter().map(|p| p.hash.as_str()).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), 4, "{points:#?}");
    assert!(points[3].spec.contains("|pattern=ring|"), "{}", points[3].spec);
    assert!(points[3].spec.contains("|strategy=Paging(0,snake-like)|"), "{}", points[3].spec);
}

/// Every checked-in scenario loads and expands to points with distinct
/// cache keys, and every golden CSV
/// other than the `procsim trace` golden has the scenario that
/// regenerates it, so CI's golden loop (which walks the scenarios with
/// a golden) can never skip one. No simulation runs.
#[test]
fn checked_in_scenarios_load_and_cover_every_golden() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // trace paths resolve against the working directory, and the
    // checked-in scenarios name theirs from the repository root (every
    // other test here uses absolute paths)
    std::env::set_current_dir(&root).unwrap();
    let stems = |dir: &str, ext: &str| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    let scenarios = stems("scenarios", "toml");
    for name in &scenarios {
        let path = root.join(format!("scenarios/{name}.toml"));
        let s = Scenario::load(&path).unwrap_or_else(|e| panic!("{name}.toml: {e}"));
        assert_eq!(&s.name, name, "campaign name must match the file stem");
        let points = expand(&s).unwrap_or_else(|e| panic!("{name}.toml: {e}"));
        assert!(!points.is_empty(), "{name}.toml expands to no points");
        // one cache key per point: a collision would serve one point's
        // cached result for another
        let mut hashes: Vec<&str> = points.iter().map(|p| p.hash.as_str()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), points.len(), "{name}.toml has colliding cache keys");
    }
    for id in 2..=16 {
        let fig = format!("fig{id:02}");
        assert!(
            scenarios.contains(&fig),
            "paper figure {id} has no scenarios/{fig}.toml"
        );
    }
    for golden in stems("results/golden", "csv") {
        if golden == "trace_sample" {
            continue; // the `procsim trace` golden, not a campaign
        }
        assert!(
            scenarios.contains(&golden),
            "results/golden/{golden}.csv has no scenarios/{golden}.toml"
        );
    }
}

#[test]
fn expand_rejects_contradictory_reps() {
    let s = Scenario::parse(
        "[campaign]\nname = \"bad\"\nseed = 1\n\
         [defaults]\nmax_reps = 3\n\
         [matrix]\nmin_reps = [4]\n",
    )
    .unwrap();
    let e = expand(&s).unwrap_err();
    assert!(e.msg.contains("max_reps"), "{e}");
}

// ---------------------------------------------------------------------------
// trace files and load units
// ---------------------------------------------------------------------------

/// The checked-in SWF sample (600 jobs).
const SAMPLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/traces/sdsc_sample.swf");

/// A scratch path unique to this test process.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("procsim_scenario_{}_{name}", std::process::id()))
}

fn expand_err(text: &str) -> ScenarioError {
    let s = Scenario::parse(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    match expand(&s) {
        Err(e) => e,
        Ok(points) => panic!("expected an expansion error, got {} points", points.len()),
    }
}

/// Asserts one expansion error: its line, place and a message substring.
fn assert_expand_err(text: &str, line: usize, place: &str, msg: &str) {
    let e = expand_err(text);
    assert_eq!((e.line, e.place.as_str()), (line, place), "{e}");
    assert!(e.msg.contains(msg), "want {msg:?} in {e}");
}

/// A trace campaign on `path`, with `extra` lines appended to `[defaults]`
/// (lines 1-3 are the campaign header; `trace` is line 5).
fn trace_scenario(path: &str, extra: &str) -> String {
    format!(
        "[campaign]\nname = \"t\"\nseed = 1\n[defaults]\ntrace = {path:?}\n{extra}\
         [matrix]\nworkload = [\"trace\"]\nload = [0.5]\n"
    )
}

#[test]
fn trace_errors_name_the_knob_line_and_place() {
    let offered = "load_unit = \"offered\"\n";

    // a missing file, and a malformed SWF line (the SWF line is named too)
    let missing = scratch("missing.swf");
    let missing = missing.to_str().unwrap();
    assert_expand_err(&trace_scenario(missing, offered), 5, "defaults.trace", "cannot read trace");
    let bad = scratch("bad.swf");
    std::fs::write(&bad, "; header\n1 0 3 100 32 -1 -1 32\n2 oops 3 100 32 -1 -1 32\n").unwrap();
    let e = expand_err(&trace_scenario(bad.to_str().unwrap(), offered));
    assert_eq!((e.line, e.place.as_str()), (5, "defaults.trace"), "{e}");
    assert!(e.msg.contains("SWF line 3") && e.msg.contains("submit time"), "{e}");
    let _ = std::fs::remove_file(&bad);

    // the trace workload without a file: blamed on the workload axis
    assert_expand_err(
        "[campaign]\nname = \"t\"\nseed = 1\n[defaults]\nload_unit = \"offered\"\n\
         [matrix]\nworkload = [\"trace\"]\n",
        7,
        "matrix.workload",
        "add trace = \"<path.swf>\"",
    );

    // trace with an arrival load: on load_unit when a line set it, else
    // on the workload
    assert_expand_err(
        &trace_scenario(SAMPLE, "load_unit = \"arrival\"\n"),
        6,
        "defaults.load_unit",
        "set load_unit = \"offered\"",
    );
    assert_expand_err(&trace_scenario(SAMPLE, ""), 7, "matrix.workload", "set load_unit = \"offered\"");

    // an offered load on a workload that reads only arrival rates
    for w in ["uniform", "exponential", "cm5"] {
        assert_expand_err(
            &format!(
                "[campaign]\nname = \"t\"\nseed = 1\n[defaults]\nload_unit = \"offered\"\n\
                 [matrix]\nworkload = [{w:?}]\n"
            ),
            5,
            "defaults.load_unit",
            "set load_unit = \"arrival\"",
        );
    }

    // a replication budget longer than the 600-job sample, here blamed on
    // an override's line
    let long = format!(
        "{}[override.workload=trace]\nmeasured = 550\n",
        trace_scenario(SAMPLE, offered)
    );
    assert_expand_err(
        &long,
        11,
        "override.workload=trace.measured",
        "has 600 jobs, fewer than warmup + measured = 650",
    );

    // the values themselves are checked at parse time
    assert_err(&format!("{MINIMAL}[defaults]\nload_unit = \"rho\"\n"), 8, "defaults.load_unit", "arrival, offered");
    assert_err(&format!("{MINIMAL}[defaults]\ntrace = 3\n"), 8, "defaults.trace", "quoted string");
}

/// Offered-load and trace points add the load unit, the trace path and
/// a hash of the trace's bytes to their cache keys: editing one record
/// of a replayed trace re-keys its points and no others.
#[test]
fn trace_content_is_in_the_cache_key() {
    let copy = scratch("copy.swf");
    std::fs::copy(SAMPLE, &copy).unwrap();
    let text = format!(
        "[campaign]\nname = \"t\"\nseed = 1\n\
         [defaults]\ntrace = {:?}\nload_unit = \"offered\"\n\
         [matrix]\nworkload = [\"trace\", \"paragon\"]\nload = [0.5, 0.7]\n",
        copy.to_str().unwrap()
    );
    let s = Scenario::parse(&text).unwrap();
    let before = expand(&s).unwrap();
    assert_eq!(before.len(), 4);
    for p in &before[..2] {
        assert!(p.trace.as_ref().is_some_and(|t| t.len() == 600), "{p:?}");
        let tail = format!("|load_unit=offered|trace={}|trace_fnv1a=", copy.to_str().unwrap());
        assert!(p.spec.contains(&tail), "{}", p.spec);
    }
    for p in &before[2..] {
        assert!(p.trace.is_none());
        assert!(p.spec.ends_with("|load_unit=offered"), "{}", p.spec);
    }

    // one record's runtime changes, its line length does not
    let original = std::fs::read_to_string(&copy).unwrap();
    let edited = original.replacen("\n1 233 -1 2818 ", "\n1 233 -1 2819 ", 1);
    assert_ne!(edited, original);
    std::fs::write(&copy, edited).unwrap();
    let after = expand(&s).unwrap();
    for (b, a) in before.iter().zip(&after) {
        let is_trace = b.settings.workload.name() == "trace";
        assert_eq!(b.hash != a.hash, is_trace, "{} -> {}", b.spec, a.spec);
    }
    let _ = std::fs::remove_file(&copy);
}

// ---------------------------------------------------------------------------
// canonical-render round trip (property)
// ---------------------------------------------------------------------------

/// Distinct load values (duplicates within an axis would make two
/// expansion points genuinely identical, which is valid but defeats the
/// hash-uniqueness property below).
fn arb_floats() -> impl Strategy<Value = Vec<Value>> {
    collection::vec(1u32..100_000, 1..4).prop_map(|mut ns| {
        ns.sort_unstable();
        ns.dedup();
        ns.into_iter()
            .map(|n| Value::Float(n as f64 / 1000.0))
            .collect()
    })
}

/// A non-empty subset of the strategy spellings (bitmask => no dups).
fn arb_strategy_axis() -> impl Strategy<Value = Vec<Value>> {
    const NAMES: [&str; 8] = [
        "gabl", "paging0", "paging2", "mbs", "ff", "bf", "random", "mc",
    ];
    (1u16..256).prop_map(|mask| {
        NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| Value::Str((*s).into()))
            .collect()
    })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            // name, seed, defaults knobs (warmup, optional num_mes)
            (0u32..1000).prop_map(|n| format!("camp{n}")),
            0u64..(1 << 62),
            0u64..300,
            prop_oneof![
                Just(None),
                (1u32..10_000).prop_map(|n| Some(Value::Float(n as f64 / 100.0))),
            ],
        ),
        (
            // matrix: always a load axis; optional strategy/scheduler/topology
            arb_floats(),
            prop_oneof![Just(None), arb_strategy_axis().prop_map(Some)],
            any::<bool>(),
            any::<bool>(),
        ),
        // seed axes bitmask, override toggle, output toggles
        (0u8..8, any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((name, seed, warmup, num_mes), (loads, strategies, scheds, topos), knobs)| {
                let (seed_mask, with_override, with_columns, with_csv) = knobs;
                let mut defaults: Vec<(String, Value)> =
                    vec![("warmup".into(), Value::Int(warmup as i64))];
                if let Some(v) = num_mes {
                    defaults.push(("num_mes".into(), v));
                }
                let mut matrix: Vec<(String, Vec<Value>)> = vec![("load".into(), loads)];
                if let Some(vs) = strategies {
                    matrix.push(("strategy".into(), vs));
                }
                if scheds {
                    matrix.push((
                        "scheduler".into(),
                        vec![Value::Str("fcfs".into()), Value::Str("ssd".into())],
                    ));
                }
                if topos {
                    matrix.push((
                        "topology".into(),
                        vec![Value::Str("mesh".into()), Value::Str("torus".into())],
                    ));
                }
                let seed_axes = if seed_mask == 0 {
                    None
                } else {
                    Some(
                        matrix
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| seed_mask & (1 << i) != 0)
                            .map(|(_, (k, _))| k.clone())
                            .collect(),
                    )
                };
                let overrides = if with_override {
                    vec![procsim_core::scenario::OverrideRule {
                        axis: "load".into(),
                        value: matrix[0].1[0].render_bare(),
                        set: vec![("measured".into(), Value::Int(33))],
                        line: 0,
                    }]
                } else {
                    Vec::new()
                };
                let mut output = procsim_core::scenario::OutputSpec::default();
                if with_columns {
                    output.columns = vec!["series".into(), "load".into(), "means".into()];
                    output.values = vec![("figure".into(), "9".into())];
                }
                if with_csv {
                    output.csv = Some(format!("results/{name}.csv"));
                }
                Scenario {
                    name,
                    seed,
                    defaults,
                    matrix,
                    seed_axes,
                    overrides,
                    output,
                    lines: Default::default(),
                }
            },
        )
}

/// `OverrideRule::line` and `Scenario::lines` are provenance (where a
/// header or an assignment sat in the file), not content — clear them
/// before comparing a constructed scenario with its re-parse.
fn strip_lines(mut s: Scenario) -> Scenario {
    for r in &mut s.overrides {
        r.line = 0;
    }
    s.lines.clear();
    s
}

proptest! {
    #[test]
    fn render_parse_round_trip(s in arb_scenario()) {
        let rendered = s.render();
        let back = Scenario::parse(&rendered)
            .unwrap_or_else(|e| panic!("render produced unparseable text: {e}\n{rendered}"));
        prop_assert_eq!(strip_lines(back.clone()), strip_lines(s));
        // and render∘parse is a fixed point (canonical form is stable)
        prop_assert_eq!(back.render(), rendered);
    }

    #[test]
    fn expansion_size_is_the_axis_product(s in arb_scenario()) {
        let want: usize = s.matrix.iter().map(|(_, vs)| vs.len()).product();
        let points = expand(&s).unwrap();
        prop_assert_eq!(points.len(), want);
        // hashes are unique across the expansion: every point caches
        // under its own key (seed or knobs must differ somewhere)
        let mut hashes: Vec<&str> = points.iter().map(|p| p.hash.as_str()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        prop_assert_eq!(hashes.len(), points.len());
    }
}

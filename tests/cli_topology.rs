//! CLI tests of flag parsing — the `--topology` run dimension, the
//! scenario-format names `run` shares (workloads, windowed schedulers),
//! and the usage errors (exit 2) for unknown flags, unknown names and
//! malformed numbers — and torus trace replay through the real binary.

use std::process::Command;

const SAMPLE: &str = "results/traces/sdsc_sample.swf";

fn procsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_procsim"))
        .args(args)
        .output()
        .expect("procsim binary runs")
}

/// A tiny deterministic `run` invocation, varying only the topology args.
fn tiny_run(topology_args: &[&str]) -> std::process::Output {
    let mut args = vec![
        "run", "--strategy", "gabl", "--load", "0.002", "--jobs", "30", "--reps", "2", "--seed",
        "9",
    ];
    args.extend_from_slice(topology_args);
    procsim(&args)
}

#[test]
fn run_accepts_both_topologies() {
    let mesh = tiny_run(&["--topology", "mesh"]);
    let torus = tiny_run(&["--topology", "torus"]);
    assert!(mesh.status.success(), "{}", String::from_utf8_lossy(&mesh.stderr));
    assert!(torus.status.success(), "{}", String::from_utf8_lossy(&torus.stderr));
    // same seeds, same workload — only the wraparound links differ, and
    // they must actually change the simulated physics
    assert_ne!(
        mesh.stdout, torus.stdout,
        "topology knob had no effect on the run"
    );
    // defaulting to mesh is part of the CLI contract (paper protocol)
    let default = tiny_run(&[]);
    assert_eq!(default.stdout, mesh.stdout, "default topology must be mesh");
}

/// Asserts `args` is a usage error (exit 2) naming `flag` as unknown, and
/// that nothing ran.
fn assert_unknown_flag(args: &[&str], flag: &str) {
    let out = tiny_run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

/// `--torus` used to be an alias for `--topology torus`. The alias is
/// retired: it must not silently run the default mesh, so it is a usage
/// error naming the flag, while `--topology torus` still runs.
#[test]
fn legacy_torus_flag_is_an_alias() {
    assert_unknown_flag(&["--torus"], "--torus");
    let named = tiny_run(&["--topology", "torus"]);
    assert!(named.status.success(), "{}", String::from_utf8_lossy(&named.stderr));
}

#[test]
fn contradictory_topology_flags_are_rejected() {
    // with the alias retired, `--topology mesh --torus` fails on the
    // unknown flag rather than running either topology
    assert_unknown_flag(&["--topology", "mesh", "--torus"], "--torus");
}

#[test]
fn removed_and_misspelled_flags_are_rejected() {
    // a typo must not silently run the defaults (mesh, GABL)
    assert_unknown_flag(&["--stratgy", "mbs"], "--stratgy");
    // ... and neither may the retired `sweep` subcommand
    let out = procsim(&["sweep", "--loads", "0.001"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'sweep'"), "{stderr}");
}

/// Asserts `args` is a usage error (exit 2) whose message names `flag`
/// with `why`, and that nothing ran.
fn assert_rejected(args: &[&str], flag: &str, why: &str) {
    let out = procsim(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("--{flag} {why}")), "{args:?}: {stderr}");
}

#[test]
fn degenerate_load_and_job_count_are_rejected() {
    // the scenario knobs' rules: load positive and finite, measured
    // (`--jobs`) non-zero
    for load in ["0", "-1", "nan", "inf"] {
        assert_rejected(&["run", "--load", load, "--jobs", "30"], "load", "must be a positive finite");
    }
    assert_rejected(&["run", "--jobs", "0"], "jobs", "must be non-zero");
}

#[test]
fn malformed_number_is_a_usage_error() {
    // exit 2 with the flag named, not a panic (exit 101)
    let out = procsim(&["run", "--reps", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--reps"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unknown_topology_is_rejected_with_the_valid_set() {
    let out = tiny_run(&["--topology", "ring"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown topology 'ring'"),
        "stderr should name the bad value: {stderr}"
    );
    assert!(
        stderr.contains("mesh") && stderr.contains("torus"),
        "stderr should list the valid topologies: {stderr}"
    );
}

#[test]
fn unknown_workload_is_rejected_with_the_valid_set() {
    let out = tiny_run(&["--workload", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload 'bogus'"), "{stderr}");
    for name in ["uniform", "exponential", "paragon", "cm5"] {
        assert!(stderr.contains(name), "stderr should list {name}: {stderr}");
    }
}

#[test]
fn windowed_scheduler_runs_and_a_zero_window_is_rejected() {
    let out = tiny_run(&["--scheduler", "fcfs-window4"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("GABL(FCFS-W4)"), "{stdout}");

    let out = tiny_run(&["--scheduler", "fcfs-window0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fcfs-window<N> with N >= 1"), "{stderr}");
}

#[test]
fn bare_topology_flag_is_rejected() {
    // a missing value must not silently fall back to mesh
    let out = tiny_run(&["--topology"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--topology needs a value"), "{stderr}");
    // ... including when the next token is another flag
    let out = tiny_run(&["--topology", "--seed", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--topology needs a value"), "{stderr}");
}

#[test]
fn trace_replays_the_swf_sample_on_a_torus() {
    let dir = std::env::temp_dir();
    let csv = dir.join("procsim_trace_torus_smoke.csv");
    let out = procsim(&[
        "trace", SAMPLE, "--load", "0.7", "--jobs", "60", "--reps", "2", "--seed", "42",
        "--topology", "torus", "--csv", csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("on the torus"),
        "replay banner should name the topology: {stdout}"
    );
    let text = std::fs::read_to_string(&csv).expect("CSV written");
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(
        header.starts_with("trace,series,topology,"),
        "topology is a CSV column: {header}"
    );
    let rows: Vec<&str> = lines.collect();
    assert!(rows.len() >= 3, "one row per PAPER strategy");
    for row in &rows {
        assert_eq!(row.split(',').nth(2), Some("torus"), "row: {row}");
    }
}

#[test]
fn torus_trace_csv_is_thread_count_invariant() {
    let dir = std::env::temp_dir();
    let run = |threads: &str, name: &str| {
        let csv = dir.join(name);
        let out = procsim(&[
            "trace", SAMPLE, "--load", "0.7", "--jobs", "60", "--reps", "2", "--seed", "42",
            "--topology", "torus", "--threads", threads, "--csv", csv.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&csv).expect("CSV written")
    };
    let a = run("1", "procsim_torus_t1.csv");
    let b = run("4", "procsim_torus_t4.csv");
    assert_eq!(a, b, "torus trace CSV must not depend on worker-pool size");
}

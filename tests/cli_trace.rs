//! Integration tests of the `procsim trace` pipeline on the checked-in
//! SWF sample (`results/traces/sdsc_sample.swf`): the CLI must reproduce
//! the committed golden CSV, be bit-identical at any worker-pool size,
//! and the sample must calibrate `factor_for_load` exactly.
//!
//! These run the real binary (integration tests execute from the package
//! root, where the relative `results/` paths resolve).

use procsim::{load_for_factor, TraceWorkload};
use std::process::Command;

const SAMPLE: &str = "results/traces/sdsc_sample.swf";
const GOLDEN: &str = "results/golden/trace_sample.csv";

fn run_trace_cli(extra: &[&str], csv_path: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_procsim"))
        .args(["trace", SAMPLE, "--load", "0.7", "--seed", "42", "--csv", csv_path])
        .args(extra)
        .output()
        .expect("procsim binary runs");
    assert!(
        out.status.success(),
        "procsim trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(csv_path).expect("CSV written")
}

#[test]
fn cli_reproduces_committed_golden_csv() {
    // exactly the CI command: any drift in workload generation, seeding,
    // scheduling, or CSV formatting shows up as a golden diff here first.
    // Run it at explicit worker-pool sizes 1 and 4: the streaming replay
    // refactor must be byte-invariant to both the old materialized path
    // (the golden pins that) and the thread count.
    let want = std::fs::read_to_string(GOLDEN).expect("golden file checked in");
    let dir = std::env::temp_dir();
    for threads in ["1", "4"] {
        let csv = dir.join(format!("procsim_trace_golden_check_t{threads}.csv"));
        let got = run_trace_cli(
            &["--jobs", "120", "--reps", "2", "--threads", threads],
            csv.to_str().unwrap(),
        );
        assert_eq!(
            got, want,
            "CSV from `procsim trace {SAMPLE} --load 0.7 --threads {threads}` diverged \
             from {GOLDEN}; if the change is intentional, regenerate the golden \
             (see docs/WORKLOADS.md)"
        );
    }
}

#[test]
fn cli_csv_is_thread_count_invariant() {
    let dir = std::env::temp_dir();
    let csv1 = dir.join("procsim_trace_t1.csv");
    let csv4 = dir.join("procsim_trace_t4.csv");
    let small = |threads: &str, path: &std::path::Path| {
        run_trace_cli(
            &["--jobs", "60", "--reps", "2", "--threads", threads],
            path.to_str().unwrap(),
        )
    };
    let a = small("1", &csv1);
    let b = small("4", &csv4);
    assert_eq!(a, b, "trace CSV must not depend on worker-pool size");
    assert!(a.lines().count() >= 4, "header + one row per PAPER strategy");
}

#[test]
fn cli_reports_malformed_swf_with_line_number() {
    let dir = std::env::temp_dir();
    let bad = dir.join("procsim_bad.swf");
    std::fs::write(&bad, "; header\n1 0 3 100 32 -1 -1 32\n2 oops 3 100 32 -1 -1 32\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_procsim"))
        .args(["trace", bad.to_str().unwrap()])
        .output()
        .expect("procsim binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 3") && stderr.contains("submit time"),
        "error should locate the bad line and field, got: {stderr}"
    );
}

#[test]
fn degenerate_load_and_job_count_are_rejected() {
    // exit 2 before the trace is even summarized, as for `procsim run`
    for (flag, value, why) in [
        ("load", "0", "must be a positive finite"),
        ("load", "nan", "must be a positive finite"),
        ("load", "inf", "must be a positive finite"),
        ("jobs", "0", "must be non-zero"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_procsim"))
            .args(["trace", SAMPLE, &format!("--{flag}"), value])
            .output()
            .expect("procsim binary runs");
        assert_eq!(out.status.code(), Some(2), "--{flag} {value}");
        assert!(out.stdout.is_empty(), "--{flag} {value}: nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("--{flag} {why}")), "{stderr}");
    }
}

#[test]
fn checked_in_sample_calibrates_factor_for_load() {
    let text = std::fs::read_to_string(SAMPLE).expect("sample checked in");
    let trace = TraceWorkload::from_swf(&text).expect("sample parses");
    assert_eq!(trace.len(), 600, "sample is the documented 600-job fixture");

    // the sample mirrors the paper's quoted SDSC Paragon statistics
    let mean_ia = trace.mean_interarrival_s();
    assert!(
        (mean_ia - 1186.7).abs() / 1186.7 < 0.05,
        "mean inter-arrival {mean_ia} drifted from the Paragon's 1186.7 s"
    );

    // factor_for_load round-trips: the factor derived for a target
    // offered load, pushed back through load_for_factor, recovers the
    // arrival-rate load it encodes...
    let machine = 352u32;
    for rho in [0.3, 0.5, 0.7, 1.0, 1.5] {
        let f = trace.factor_for_offered_load(machine, rho);
        let lambda = trace.arrival_load(machine, rho);
        assert!(
            (load_for_factor(mean_ia, f) - lambda).abs() < 1e-12,
            "factor_for_load/load_for_factor round trip at rho={rho}"
        );
        // ...and actually rescaling the sample's submit times by f
        // realizes the target offered load
        let scaled: Vec<_> = trace
            .iter_records()
            .map(|r| procsim::TraceRecord {
                submit_s: r.submit_s * f,
                ..r
            })
            .collect();
        let realized = TraceWorkload::new(scaled).unwrap().offered_load(machine);
        assert!(
            (realized - rho).abs() < 1e-9,
            "rho target {rho}, realized {realized}"
        );
    }

    // native load at factor 1
    let native = trace.offered_load(machine);
    assert!(
        (trace.factor_for_offered_load(machine, native) - 1.0).abs() < 1e-12,
        "replaying at the native load must leave arrivals untouched"
    );
}

//! The segment-replay adaptor ([`SegmentReplay`]) against a naive
//! oracle: the segment/rebase/wrap arithmetic written out once more over
//! a materialized job list, as a straight loop with eager bookkeeping.
//! Both cursors the simulator feeds the adaptor — a materialized list
//! ([`replay_jobs`]) and a streamed trace ([`TraceWorkload::stream_jobs`],
//! memory- and file-backed) — must yield exactly the oracle's jobs.

use desim::Time;
use std::sync::Arc;
use workload::{replay_jobs, write_swf, JobSpec, SegmentReplay, TraceRecord, TraceWorkload};

/// Replication `rep`'s segment of `jobs` when a run consumes `needed`
/// jobs: start at `rep × stride` (stride `needed mod len`, at least 1),
/// rebase arrivals to the segment start, continue after a wrap at the
/// tail's rebased time + 1, stop after one pass.
fn oracle(jobs: &[JobSpec], rep: u64, needed: usize) -> Vec<JobSpec> {
    let len = jobs.len();
    let stride = (needed % len).max(1);
    let mut pos = (rep as usize * stride) % len;
    let mut base: Time = jobs[pos].arrive;
    let mut shift: Time = 0;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let rebased = jobs[pos].arrive.saturating_sub(base) + shift;
        out.push(JobSpec {
            id: pos as u64,
            arrive: rebased,
            ..jobs[pos]
        });
        pos += 1;
        if pos == len {
            pos = 0;
            base = jobs[0].arrive;
            shift = rebased + 1;
        }
    }
    out
}

fn jobs_with_arrivals(arrivals: &[Time]) -> Vec<JobSpec> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &arrive)| JobSpec {
            id: 1000 + i as u64, // not the index: replay renumbers
            arrive,
            a: 1 + (i % 3) as u16,
            b: 1 + (i % 4) as u16,
            msgs_per_node: 2 + i as u32,
            service_demand: i as f64,
        })
        .collect()
}

/// Checks the materialized cursor against the oracle for every
/// replication in `reps` and every budget in `needs`.
fn assert_matches_oracle(jobs: &[JobSpec], reps: std::ops::Range<u64>, needs: &[usize]) {
    let shared = Arc::new(jobs.to_vec());
    for &needed in needs {
        for rep in reps.clone() {
            let got: Vec<JobSpec> = replay_jobs(shared.clone(), rep, needed).collect();
            assert_eq!(got, oracle(jobs, rep, needed), "rep {rep}, needed {needed}");
        }
    }
}

#[test]
fn mid_trace_start_wraps_after_the_tail() {
    let jobs = jobs_with_arrivals(&[3, 10, 12, 30, 31, 45, 60, 62, 80, 99]);
    // needed 7: rep 1 starts at record 7, so the tail (7..10) comes
    // first and the prefix follows at the tail's time + 1
    let got: Vec<JobSpec> = replay_jobs(Arc::new(jobs.clone()), 1, 7).collect();
    let arrivals: Vec<Time> = got.iter().map(|j| j.arrive).collect();
    assert_eq!(arrivals, [0, 18, 37, 38, 45, 47, 65, 66, 80, 95]);
    let ids: Vec<u64> = got.iter().map(|j| j.id).collect();
    assert_eq!(ids, [7, 8, 9, 0, 1, 2, 3, 4, 5, 6]);
    assert_matches_oracle(&jobs, 0..12, &[1, 3, 7, 9]);
}

#[test]
fn budget_of_a_whole_pass_or_more_falls_back_to_a_small_stride() {
    let jobs = jobs_with_arrivals(&[0, 5, 9, 14, 20, 21, 33]);
    // needed a multiple of len: stride 1, so replications still differ
    let firsts: Vec<u64> = (0..4)
        .map(|rep| replay_jobs(Arc::new(jobs.clone()), rep, 14).next().unwrap().id)
        .collect();
    assert_eq!(firsts, [0, 1, 2, 3]);
    assert_matches_oracle(&jobs, 0..10, &[7, 14, 10, 100]);
}

#[test]
fn unsorted_arrivals_saturate_the_rebase() {
    // records before the segment start's arrival rebase to 0 (plus the
    // post-wrap shift), never underflow
    let jobs = jobs_with_arrivals(&[50, 10, 70, 5, 90, 0, 40]);
    let got: Vec<JobSpec> = replay_jobs(Arc::new(jobs.clone()), 1, 4).collect();
    let arrivals: Vec<Time> = got.iter().map(|j| j.arrive).collect();
    assert_eq!(arrivals, [0, 0, 0, 1, 1, 21, 1]);
    assert_matches_oracle(&jobs, 0..8, &[1, 4, 6, 7]);
}

#[test]
fn two_record_trace() {
    let jobs = jobs_with_arrivals(&[100, 250]);
    let got: Vec<JobSpec> = replay_jobs(Arc::new(jobs.clone()), 1, 1).collect();
    assert_eq!(
        got.iter().map(|j| (j.id, j.arrive)).collect::<Vec<_>>(),
        [(1, 0), (0, 1)]
    );
    assert_matches_oracle(&jobs, 0..5, &[1, 2, 3, 5]);
}

#[test]
fn one_pass_then_exhausted() {
    let jobs = Arc::new(jobs_with_arrivals(&[0, 1, 2, 3, 4]));
    let mut seg = replay_jobs(jobs, 3, 2);
    assert_eq!(seg.by_ref().count(), 5);
    assert_eq!(seg.next(), None);
}

#[test]
fn streamed_trace_matches_the_oracle_over_its_materialized_jobs() {
    let records: Vec<TraceRecord> = (0..23)
        .map(|i| TraceRecord {
            submit_s: (i * i) as f64 * 7.0 + i as f64,
            size: 1 + (i * 5 % 40) as u32,
            runtime_s: 60.0 + 13.0 * i as f64,
        })
        .collect();
    let text = write_swf(&records);
    let path = std::env::temp_dir().join(format!("segment_replay_{}.swf", std::process::id()));
    std::fs::write(&path, &text).unwrap();
    let memory = TraceWorkload::from_swf(&text).unwrap();
    let file = TraceWorkload::open(&path).unwrap();
    assert!(file.is_streaming());
    let (rho, scale) = (0.6, 90.0);
    let materialized = memory.jobs_at_load(16, 22, rho, scale);
    for trace in [&memory, &file] {
        for needed in [5, 17, 23, 40] {
            for rep in 0..6 {
                let got: Vec<JobSpec> = SegmentReplay::new(trace.len(), rep, needed, |start| {
                    trace.stream_jobs(16, 22, rho, scale, start)
                })
                .collect();
                assert_eq!(got, oracle(&materialized, rep, needed), "rep {rep}, needed {needed}");
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

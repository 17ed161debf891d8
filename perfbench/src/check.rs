//! Output checks: accounting identities every replication must satisfy,
//! bit-exact fingerprints pinned at the default seed, and the pooled
//! `run_points_on` result against the serial replications.

use procsim_core::{PointResult, RunMetrics, SimConfig};
use simstats::Replications;
use std::collections::BTreeMap;

/// The seed whose per-replication fingerprints are pinned in
/// `perfbench/fingerprints/`.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a over every field of `m`, floats by their bits: two runs share a
/// fingerprint only if their metrics agree bit for bit (up to hashing).
pub fn fingerprint(m: &RunMetrics) -> u64 {
    let t = &m.turnaround_stats;
    let words = [
        m.jobs,
        m.mean_turnaround.to_bits(),
        m.mean_service.to_bits(),
        m.utilization.to_bits(),
        m.mean_packet_blocking.to_bits(),
        m.mean_packet_latency.to_bits(),
        m.mean_wait.to_bits(),
        m.mean_fragments.to_bits(),
        m.packets,
        m.end_time,
        t.count(),
        t.mean().to_bits(),
        t.variance().to_bits(),
        t.min().to_bits(),
        t.max().to_bits(),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The accounting identities of one replication: turnaround = service +
/// wait to 1e-6 relative, 0 < utilization ≤ 1, fragments ≥ 1, and at
/// least the configured number of measured jobs.
pub fn identities(cfg: &SimConfig, m: &RunMetrics) -> Result<(), String> {
    let sum = m.mean_service + m.mean_wait;
    if (m.mean_turnaround - sum).abs() > 1e-6 * m.mean_turnaround.abs().max(1.0) {
        return Err(format!(
            "turnaround {} != service + wait {}",
            m.mean_turnaround, sum
        ));
    }
    if !(m.utilization > 0.0 && m.utilization <= 1.0) {
        return Err(format!("utilization {} outside (0, 1]", m.utilization));
    }
    if m.mean_fragments.is_nan() || m.mean_fragments < 1.0 {
        return Err(format!("mean fragments {} < 1", m.mean_fragments));
    }
    if (m.jobs as usize) < cfg.measured_jobs {
        return Err(format!(
            "{} measured jobs < configured {}",
            m.jobs, cfg.measured_jobs
        ));
    }
    Ok(())
}

/// Pinned fingerprints, keyed by `(config index, rep)`.
pub type Pinned = BTreeMap<(usize, u64), u64>;

/// Parses a fingerprint file: `<config> <rep> <label> <hex>` per line,
/// `#` comments.
pub fn parse_pinned(text: &str) -> Result<Pinned, String> {
    let mut out = Pinned::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            [cfg, rep, _label, hex] => cfg
                .parse()
                .ok()
                .zip(rep.parse().ok())
                .zip(u64::from_str_radix(hex, 16).ok()),
            _ => None,
        };
        let ((cfg, rep), fp) = parsed.ok_or(format!("fingerprint line {}: malformed", n + 1))?;
        out.insert((cfg, rep), fp);
    }
    Ok(out)
}

/// Formats one fingerprint line (the inverse of [`parse_pinned`]).
pub fn pinned_line(cfg: usize, rep: u64, label: &str, m: &RunMetrics) -> String {
    format!("{cfg} {rep} {label} {:016x}", fingerprint(m))
}

/// The fingerprints pinned for a workload at [`DEFAULT_SEED`].
pub fn pinned_text(workload: &str) -> &'static str {
    match workload {
        "paper_mesh" => include_str!("../fingerprints/paper_mesh.txt"),
        "paragon_trace" => include_str!("../fingerprints/paragon_trace.txt"),
        "contig_backfill" => include_str!("../fingerprints/contig_backfill.txt"),
        _ => "",
    }
}

/// Checks one replication: its identities and, when `pinned` is given,
/// its fingerprint.
pub fn replication(
    cfg: &SimConfig,
    key: (usize, u64),
    m: &RunMetrics,
    pinned: Option<&Pinned>,
) -> Result<(), String> {
    identities(cfg, m)?;
    if let Some(p) = pinned {
        match p.get(&key) {
            Some(&fp) if fp == fingerprint(m) => {}
            Some(&fp) => {
                return Err(format!(
                    "fingerprint {:016x} != pinned {fp:016x}",
                    fingerprint(m)
                ));
            }
            None => return Err("no pinned fingerprint".to_string()),
        }
    }
    Ok(())
}

/// Whether a pooled point equals the controller fed, in replication
/// order, with the serial replications `serial` — bit for bit.
pub fn pooled_matches(point: &PointResult, serial: &[RunMetrics]) -> bool {
    let k = serial.len();
    if k < 2 || point.replications != k {
        return false;
    }
    let mut ctl = Replications::paper(6, k, k);
    for m in serial {
        ctl.record(&m.response_vector());
    }
    (0..6).all(|i| {
        ctl.mean(i).to_bits() == point.means[i].to_bits()
            && ctl.ci95(i).to_bits() == point.ci95[i].to_bits()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Size, Workload};

    fn tiny_run() -> (SimConfig, RunMetrics) {
        let (p, _) = Workload::ContigBackfill.setup(3, Size::Tiny, None).unwrap();
        let cfg = p.cfgs[0].clone();
        let m = procsim_core::Simulator::new(&cfg, 0).run();
        (cfg, m)
    }

    #[test]
    fn a_wrong_pinned_fingerprint_fails_the_replication() {
        let (cfg, m) = tiny_run();
        let mut pinned = Pinned::new();
        pinned.insert((0, 0), fingerprint(&m));
        assert!(replication(&cfg, (0, 0), &m, Some(&pinned)).is_ok());
        pinned.insert((0, 0), fingerprint(&m) ^ 1);
        assert!(replication(&cfg, (0, 0), &m, Some(&pinned)).is_err());
        assert!(replication(&cfg, (0, 1), &m, Some(&pinned)).is_err());
    }

    #[test]
    fn identities_catch_broken_accounting() {
        let (cfg, m) = tiny_run();
        assert!(identities(&cfg, &m).is_ok());
        let mut bad = m.clone();
        bad.mean_wait += 1.0;
        assert!(identities(&cfg, &bad).is_err());
        let mut bad = m.clone();
        bad.utilization = 1.5;
        assert!(identities(&cfg, &bad).is_err());
        let mut bad = m;
        bad.jobs = cfg.measured_jobs as u64 - 1;
        assert!(identities(&cfg, &bad).is_err());
    }

    #[test]
    fn pinned_lines_round_trip() {
        let (_, m) = tiny_run();
        let text = format!(
            "# header\n{}\n",
            pinned_line(2, 1, "FirstFit(EASY)@0.2", &m)
        );
        let p = parse_pinned(&text).unwrap();
        assert_eq!(p.get(&(2, 1)), Some(&fingerprint(&m)));
        assert!(parse_pinned("1 2 x").is_err());
    }

    #[test]
    fn every_pinned_file_parses() {
        for name in crate::workloads::NAMES {
            let p = parse_pinned(pinned_text(name)).unwrap();
            assert!(!p.is_empty(), "{name} has no pinned fingerprints");
        }
    }
}

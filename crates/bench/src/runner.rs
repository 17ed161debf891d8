//! Fidelity knobs and the shared batch engine of the experiment
//! binaries that have no scenario-file port yet (the paper's figures run
//! through `procsim campaign scenarios/figNN.toml`).

use procsim_core::{PointResult, SimConfig};

/// Experiment fidelity and execution knobs.
///
/// Start from [`RunMode::quick`] or [`RunMode::full`] (the paper's
/// protocol) and adjust fields as needed; [`RunMode::from_args`] builds
/// one from an experiment binary's command line. The `threads` knob only
/// changes wall-clock time, never results — see
/// [`procsim_core::run_points_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMode {
    /// Completed jobs discarded as warmup per replication.
    pub warmup: usize,
    /// Completed jobs measured per replication.
    pub measured: usize,
    /// Minimum replications per point.
    pub min_reps: usize,
    /// Replication budget per point.
    pub max_reps: usize,
    /// Worker threads (`--threads N`); `None` defers to the global pool's
    /// size (`PROCSIM_THREADS` or the machine's available parallelism).
    pub threads: Option<usize>,
}

impl RunMode {
    /// Reduced job counts and replication caps — minutes per experiment.
    pub fn quick() -> RunMode {
        RunMode {
            warmup: 100,
            measured: 400,
            min_reps: 3,
            max_reps: 5,
            threads: None,
        }
    }

    /// The paper's protocol: 1000 measured jobs per run, replicate to the
    /// 95 % CI / 5 % relative-error criterion (capped at 20).
    pub fn full() -> RunMode {
        RunMode {
            warmup: 200,
            measured: 1000,
            min_reps: 5,
            max_reps: 20,
            threads: None,
        }
    }

    /// Parses the experiment-binary command line: `--full` selects the
    /// paper's protocol and `--threads N` pins the worker count. Any other
    /// argument prints `error: …` and exits with status 2, so a flag the
    /// binary does not implement (such as `--topology`) is never silently
    /// ignored.
    pub fn from_args() -> RunMode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        RunMode::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// [`RunMode::from_args`] over an explicit argument list.
    fn parse(args: &[String]) -> Result<RunMode, String> {
        let mut full = false;
        let mut threads = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => full = true,
                "--threads" => {
                    let n = it
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .ok_or("--threads needs a positive integer")?;
                    threads = Some(n);
                }
                other => {
                    return Err(format!(
                        "unknown argument {other} (this binary takes --full and --threads N)"
                    ))
                }
            }
        }
        let mut mode = if full {
            RunMode::full()
        } else {
            RunMode::quick()
        };
        mode.threads = threads;
        Ok(mode)
    }

    /// Whether this mode is at (or beyond) paper-grade fidelity.
    pub fn is_full(&self) -> bool {
        self.measured >= RunMode::full().measured
    }

    /// Human-readable fidelity tag for progress messages.
    pub fn label(&self) -> &'static str {
        if self.is_full() {
            "full"
        } else {
            "quick"
        }
    }
}

/// Shared preamble of the ablation / future-work binaries: parses
/// `--full` and `--threads N`, sizes the global worker pool, and returns
/// whether paper-grade fidelity was requested. All the binary's points
/// then go through [`run_sweep`] as one batch.
pub fn ablation_args() -> bool {
    let mode = RunMode::from_args();
    if let Some(n) = mode.threads {
        if !procsim_core::pool::configure_global(n) {
            eprintln!("warning: global pool already sized; --threads {n} ignored");
        }
    }
    mode.is_full()
}

/// Shared engine of the ablation / future-work binaries: builds one
/// config per combo (`make_cfg` receives the combo's index, for seed
/// derivation à la [`procsim_core::derive_seed`]), runs the whole batch on the shared
/// worker pool, and hands each `(index, combo, result)` to `row` in
/// input order (print the table there; a blank group separator is
/// emitted every `group` rows).
pub fn run_sweep<T: Copy>(
    combos: &[T],
    group: usize,
    min_reps: usize,
    max_reps: usize,
    make_cfg: impl Fn(usize, T) -> SimConfig,
    mut row: impl FnMut(T, &PointResult),
) {
    let cfgs: Vec<SimConfig> = combos
        .iter()
        .enumerate()
        .map(|(i, &combo)| make_cfg(i, combo))
        .collect();
    let points = procsim_core::run_points(&cfgs, min_reps, max_reps);
    for (i, (&combo, p)) in combos.iter().zip(&points).enumerate() {
        row(combo, p);
        if group > 0 && (i + 1) % group == 0 {
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunMode, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunMode::parse(&args)
    }

    #[test]
    fn run_mode_flags() {
        let q = RunMode::quick();
        let f = RunMode::full();
        assert!(q.measured < f.measured);
        assert_eq!(f.measured, 1000, "paper protocol: 1000 measured jobs");
        assert_eq!((f.min_reps, f.max_reps), (5, 20));
        assert_eq!(q.threads, None);
        assert_eq!(q.label(), "quick");
        assert_eq!(f.label(), "full");
    }

    #[test]
    fn parse_accepts_full_and_threads_in_any_order() {
        assert_eq!(parse(&[]), Ok(RunMode::quick()));
        let mut want = RunMode::full();
        want.threads = Some(3);
        assert_eq!(parse(&["--threads", "3", "--full"]), Ok(want));
        assert_eq!(parse(&["--full", "--threads", "3"]), Ok(want));
    }

    #[test]
    fn parse_rejects_anything_else() {
        let err = parse(&["--topology", "torus"]).unwrap_err();
        assert!(err.contains("unknown argument --topology"), "{err}");
        assert!(parse(&["--golden"]).is_err());
        for bad in [&["--threads"][..], &["--threads", "0"], &["--threads", "x"]] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.contains("--threads needs a positive integer"),
                "{bad:?}: {err}"
            );
        }
    }
}

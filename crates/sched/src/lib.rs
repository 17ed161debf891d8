//! # mesh-sched — job scheduling strategies
//!
//! The paper evaluates two scheduling strategies (§4):
//!
//! * **FCFS** — the request that arrived first is considered first;
//!   "allocation attempts stop when they fail for the current FIFO queue
//!   head" (no bypassing, so a large blocked job holds up the queue).
//! * **SSD** (Shortest-Service-Demand) — the job with the shortest
//!   *processor service demand* is considered first; adopted "because it
//!   is expected to reduce performance loss due to FCFS blocking".
//!
//! Additional strategies beyond the paper, used by ablation benches:
//! SJF/LJF by requested area, and a bounded look-ahead window variant of
//! FCFS (a reservation-free form of backfilling).
//!
//! A scheduler here is a policy over the *waiting queue only*: the core
//! simulator asks for the attempt order each scheduling pass, tries to
//! allocate the listed jobs in order until the policy's blocking rule
//! stops the pass, and removes jobs that start.

use desim::Time;
use std::collections::VecDeque;

/// A job waiting for processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// Simulator-wide job identifier.
    pub job_id: u64,
    /// Arrival time (queue order for FCFS).
    pub arrive: Time,
    /// Requested sub-mesh width.
    pub a: u16,
    /// Requested sub-mesh length.
    pub b: u16,
    /// A-priori service demand estimate (total packets to be sent for the
    /// stochastic workload; scaled trace runtime for the real workload).
    /// This is the quantity SSD sorts by.
    pub service_demand: f64,
}

impl QueuedJob {
    /// Requested processor count.
    pub fn area(&self) -> u32 {
        self.a as u32 * self.b as u32
    }
}

/// A running job's footprint, as reported to reservation-aware policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// Processors held.
    pub procs: u32,
    /// Estimated completion time (the simulator calibrates an online
    /// demand→time factor; estimates need only be mutually consistent).
    pub est_completion: Time,
}

/// A waiting-queue policy.
pub trait Scheduler {
    /// Name as used in the paper's figure labels ("FCFS", "SSD").
    fn name(&self) -> String;

    /// Adds an arriving job to the queue.
    fn enqueue(&mut self, job: QueuedJob);

    /// Queue length.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the job ids that may be attempted in one scheduling pass
    /// into `out` (cleared first), in attempt order. The pass stops at
    /// the first job whose allocation fails, except that window policies
    /// list several candidates and the pass stops only after all listed
    /// candidates fail. Filling a caller-owned buffer lets the
    /// simulator's hot loop reuse one allocation across every pass
    /// instead of building a fresh `Vec` per iteration.
    fn attempt_order_into(&self, out: &mut Vec<u64>);

    /// Convenience wrapper around [`Scheduler::attempt_order_into`]
    /// collecting into a fresh `Vec` (tests, diagnostics, and the
    /// differential reference pass).
    fn attempt_order(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.attempt_order_into(&mut out);
        out
    }

    /// Removes a job that has been allocated (or cancelled).
    fn remove(&mut self, job_id: u64) -> Option<QueuedJob>;

    /// Clears the queue between replications.
    fn clear(&mut self);

    /// Whether this policy uses [`Scheduler::observe`] — lets the
    /// simulator skip building the running-set snapshot otherwise.
    fn wants_observation(&self) -> bool {
        false
    }

    /// Reservation hook: reservation-aware policies (EASY backfilling)
    /// receive the running set, the current free-processor count and the
    /// clock before each scheduling pass. Default: ignored.
    fn observe(&mut self, _running: &[RunningJob], _free: u32, _now: Time) {}

    /// Estimated service time of a queued job, used by reservation-aware
    /// policies. Updated by the simulator's online calibration. Default:
    /// ignored.
    fn set_demand_time_factor(&mut self, _factor: f64) {}
}

/// Policy selector for configs and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// First-come-first-served (paper default; head-of-line blocking).
    Fcfs,
    /// Shortest-Service-Demand first (paper §4).
    Ssd,
    /// Shortest-area-first (smallest processor request first).
    SjfArea,
    /// Largest-area-first.
    LjfArea,
    /// FCFS that may bypass a blocked head, trying up to `window` queued
    /// jobs in arrival order each pass.
    FcfsWindow(usize),
    /// EASY backfilling: FCFS order with a reservation for the queue
    /// head; a later job may start only if its estimated completion does
    /// not push past the head's reservation time.
    EasyBackfill,
}

impl SchedulerKind {
    /// The paper's two policies.
    pub const PAPER: [SchedulerKind; 2] = [SchedulerKind::Fcfs, SchedulerKind::Ssd];

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::Fcfs => Box::new(Fcfs::new()),
            SchedulerKind::Ssd => Box::new(Ssd::new()),
            SchedulerKind::SjfArea => Box::new(ByKey::new("SJF", |j| {
                (j.area() as f64, j.arrive)
            })),
            SchedulerKind::LjfArea => Box::new(ByKey::new("LJF", |j| {
                (-(j.area() as f64), j.arrive)
            })),
            SchedulerKind::FcfsWindow(w) => Box::new(FcfsWindow::new(w)),
            SchedulerKind::EasyBackfill => Box::new(EasyBackfill::new()),
        }
    }
}

impl core::str::FromStr for SchedulerKind {
    type Err = String;

    /// Parses the CLI / scenario-file spelling: `fcfs`, `ssd`, `sjf`,
    /// `ljf`, `easy`, and `fcfs-window<N>` for [`SchedulerKind::FcfsWindow`]
    /// with `N >= 1` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Ok(SchedulerKind::Fcfs),
            "ssd" => Ok(SchedulerKind::Ssd),
            "sjf" => Ok(SchedulerKind::SjfArea),
            "ljf" => Ok(SchedulerKind::LjfArea),
            "easy" => Ok(SchedulerKind::EasyBackfill),
            other => match other.strip_prefix("fcfs-window") {
                Some(n) => match n.parse::<usize>() {
                    Ok(w) if w >= 1 => Ok(SchedulerKind::FcfsWindow(w)),
                    _ => Err(format!(
                        "bad window in scheduler '{other}' (fcfs-window<N> with N >= 1)"
                    )),
                },
                None => Err(format!(
                    "unknown scheduler '{other}' (fcfs, ssd, sjf, ljf, easy, fcfs-window<N>)"
                )),
            },
        }
    }
}

impl core::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            SchedulerKind::Fcfs => write!(f, "FCFS"),
            SchedulerKind::Ssd => write!(f, "SSD"),
            SchedulerKind::SjfArea => write!(f, "SJF"),
            SchedulerKind::LjfArea => write!(f, "LJF"),
            SchedulerKind::FcfsWindow(w) => write!(f, "FCFS-W{w}"),
            SchedulerKind::EasyBackfill => write!(f, "EASY"),
        }
    }
}

/// First-Come-First-Served.
#[derive(Debug, Default)]
pub struct Fcfs {
    q: VecDeque<QueuedJob>,
}

impl Fcfs {
    /// An empty FCFS queue.
    pub fn new() -> Self {
        Fcfs::default()
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> String {
        "FCFS".into()
    }

    fn enqueue(&mut self, job: QueuedJob) {
        self.q.push_back(job);
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn attempt_order_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.q.front().map(|j| j.job_id));
    }

    fn remove(&mut self, job_id: u64) -> Option<QueuedJob> {
        let pos = self.q.iter().position(|j| j.job_id == job_id)?;
        self.q.remove(pos)
    }

    fn clear(&mut self) {
        self.q.clear();
    }
}

/// Shortest-Service-Demand. Ties broken by arrival time then id, so the
/// order is total and deterministic.
#[derive(Debug, Default)]
pub struct Ssd {
    jobs: Vec<QueuedJob>,
}

impl Ssd {
    /// An empty SSD queue.
    pub fn new() -> Self {
        Ssd::default()
    }

    fn front(&self) -> Option<&QueuedJob> {
        self.jobs.iter().min_by(|x, y| {
            x.service_demand
                .total_cmp(&y.service_demand)
                .then(x.arrive.cmp(&y.arrive))
                .then(x.job_id.cmp(&y.job_id))
        })
    }
}

impl Scheduler for Ssd {
    fn name(&self) -> String {
        "SSD".into()
    }

    fn enqueue(&mut self, job: QueuedJob) {
        self.jobs.push(job);
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn attempt_order_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.front().map(|j| j.job_id));
    }

    fn remove(&mut self, job_id: u64) -> Option<QueuedJob> {
        let pos = self.jobs.iter().position(|j| j.job_id == job_id)?;
        Some(self.jobs.swap_remove(pos))
    }

    fn clear(&mut self) {
        self.jobs.clear();
    }
}

/// Generic priority policy over a key function (used for SJF/LJF).
pub struct ByKey {
    label: &'static str,
    key: fn(&QueuedJob) -> (f64, Time),
    jobs: Vec<QueuedJob>,
}

impl ByKey {
    /// A queue ordered by `key` (ascending), labelled `label`.
    pub fn new(label: &'static str, key: fn(&QueuedJob) -> (f64, Time)) -> Self {
        ByKey {
            label,
            key,
            jobs: Vec::new(),
        }
    }
}

impl Scheduler for ByKey {
    fn name(&self) -> String {
        self.label.into()
    }

    fn enqueue(&mut self, job: QueuedJob) {
        self.jobs.push(job);
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn attempt_order_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.jobs
                .iter()
                .min_by(|x, y| {
                    let (kx, ax) = (self.key)(x);
                    let (ky, ay) = (self.key)(y);
                    kx.total_cmp(&ky)
                        .then(ax.cmp(&ay))
                        .then(x.job_id.cmp(&y.job_id))
                })
                .map(|j| j.job_id),
        );
    }

    fn remove(&mut self, job_id: u64) -> Option<QueuedJob> {
        let pos = self.jobs.iter().position(|j| j.job_id == job_id)?;
        Some(self.jobs.swap_remove(pos))
    }

    fn clear(&mut self) {
        self.jobs.clear();
    }
}

/// FCFS with a bounded bypass window: each pass may attempt the first
/// `window` queued jobs in arrival order (a reservation-free backfill).
/// `FcfsWindow(1)` is exactly FCFS.
#[derive(Debug)]
pub struct FcfsWindow {
    q: VecDeque<QueuedJob>,
    window: usize,
}

impl FcfsWindow {
    /// FCFS with a bypass window of `window` >= 1 queued jobs.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        FcfsWindow {
            q: VecDeque::new(),
            window,
        }
    }
}

impl Scheduler for FcfsWindow {
    fn name(&self) -> String {
        format!("FCFS-W{}", self.window)
    }

    fn enqueue(&mut self, job: QueuedJob) {
        self.q.push_back(job);
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn attempt_order_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.q.iter().take(self.window).map(|j| j.job_id));
    }

    fn remove(&mut self, job_id: u64) -> Option<QueuedJob> {
        let pos = self.q.iter().position(|j| j.job_id == job_id)?;
        self.q.remove(pos)
    }

    fn clear(&mut self) {
        self.q.clear();
    }
}

/// EASY backfilling (Lifka's scheme adapted to processor counts):
/// strict FCFS for the head; any later job may be offered this pass iff
/// (a) it fits in the processors free right now, and (b) starting it now
/// would not delay the head's *reservation* — the earliest time the
/// running jobs' estimated completions free enough processors for the
/// head.
#[derive(Debug, Default)]
pub struct EasyBackfill {
    q: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
    free: u32,
    now: Time,
    /// Online demand→cycles factor maintained by the simulator.
    factor: f64,
}

impl EasyBackfill {
    /// An empty EASY-backfilling queue.
    pub fn new() -> Self {
        EasyBackfill {
            factor: 1.0,
            ..Default::default()
        }
    }

    /// Earliest time `procs_needed` processors are expected free, given
    /// the running jobs' estimated completions.
    fn reservation_time(&self, procs_needed: u32) -> Time {
        if self.free >= procs_needed {
            return self.now;
        }
        let mut jobs: Vec<RunningJob> = self.running.clone();
        jobs.sort_by_key(|r| r.est_completion);
        let mut free = self.free;
        for r in &jobs {
            free += r.procs;
            if free >= procs_needed {
                return r.est_completion.max(self.now);
            }
        }
        // estimates do not cover the request (stale info): no reservation
        Time::MAX
    }
}

impl Scheduler for EasyBackfill {
    fn name(&self) -> String {
        "EASY".into()
    }

    fn enqueue(&mut self, job: QueuedJob) {
        self.q.push_back(job);
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn attempt_order_into(&self, out: &mut Vec<u64>) {
        out.clear();
        let Some(head) = self.q.front() else {
            return;
        };
        out.push(head.job_id);
        if self.q.len() > 1 {
            let reservation = self.reservation_time(head.area());
            for j in self.q.iter().skip(1) {
                if j.area() > self.free {
                    continue; // cannot start now anyway
                }
                let est_done = self
                    .now
                    .saturating_add((j.service_demand * self.factor).round() as Time);
                if est_done <= reservation {
                    out.push(j.job_id);
                }
            }
        }
    }

    fn remove(&mut self, job_id: u64) -> Option<QueuedJob> {
        let pos = self.q.iter().position(|j| j.job_id == job_id)?;
        self.q.remove(pos)
    }

    fn clear(&mut self) {
        self.q.clear();
        self.running.clear();
        self.free = 0;
        self.now = 0;
    }

    fn wants_observation(&self) -> bool {
        true
    }

    fn observe(&mut self, running: &[RunningJob], free: u32, now: Time) {
        self.running.clear();
        self.running.extend_from_slice(running);
        self.free = free;
        self.now = now;
    }

    fn set_demand_time_factor(&mut self, factor: f64) {
        if factor.is_finite() && factor > 0.0 {
            self.factor = factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, arrive: Time, area: (u16, u16), demand: f64) -> QueuedJob {
        QueuedJob {
            job_id: id,
            arrive,
            a: area.0,
            b: area.1,
            service_demand: demand,
        }
    }

    #[test]
    fn fcfs_strict_arrival_order() {
        let mut s = Fcfs::new();
        s.enqueue(job(1, 10, (2, 2), 9.0));
        s.enqueue(job(2, 20, (1, 1), 1.0));
        assert_eq!(s.attempt_order(), vec![1]);
        s.remove(1);
        assert_eq!(s.attempt_order(), vec![2]);
        s.remove(2);
        assert!(s.attempt_order().is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn fcfs_only_offers_head() {
        let mut s = Fcfs::new();
        s.enqueue(job(1, 0, (16, 22), 100.0)); // huge blocked head
        s.enqueue(job(2, 1, (1, 1), 1.0));
        // FCFS never bypasses: only the head is offered
        assert_eq!(s.attempt_order(), vec![1]);
    }

    #[test]
    fn ssd_orders_by_demand_not_arrival() {
        let mut s = Ssd::new();
        s.enqueue(job(1, 0, (4, 4), 50.0));
        s.enqueue(job(2, 5, (8, 8), 10.0));
        s.enqueue(job(3, 9, (1, 1), 30.0));
        assert_eq!(s.attempt_order(), vec![2]);
        s.remove(2);
        assert_eq!(s.attempt_order(), vec![3]);
        s.remove(3);
        assert_eq!(s.attempt_order(), vec![1]);
    }

    #[test]
    fn ssd_tie_break_by_arrival() {
        let mut s = Ssd::new();
        s.enqueue(job(5, 9, (1, 1), 10.0));
        s.enqueue(job(6, 3, (1, 1), 10.0));
        assert_eq!(s.attempt_order(), vec![6]);
    }

    #[test]
    fn sjf_ljf_order_by_area() {
        let mut sjf = SchedulerKind::SjfArea.build();
        let mut ljf = SchedulerKind::LjfArea.build();
        for s in [&mut sjf, &mut ljf] {
            s.enqueue(job(1, 0, (4, 4), 1.0)); // 16
            s.enqueue(job(2, 1, (2, 2), 9.0)); // 4
            s.enqueue(job(3, 2, (8, 8), 5.0)); // 64
        }
        assert_eq!(sjf.attempt_order(), vec![2]);
        assert_eq!(ljf.attempt_order(), vec![3]);
    }

    #[test]
    fn window_offers_k_candidates_in_arrival_order() {
        let mut s = FcfsWindow::new(3);
        for i in 0..5 {
            s.enqueue(job(i, i, (1, 1), 1.0));
        }
        assert_eq!(s.attempt_order(), vec![0, 1, 2]);
        s.remove(1); // bypassed head stays; removing mid-queue works
        assert_eq!(s.attempt_order(), vec![0, 2, 3]);
    }

    #[test]
    fn window_one_is_fcfs() {
        let mut w = FcfsWindow::new(1);
        let mut f = Fcfs::new();
        for i in 0..4 {
            let j = job(i, i, (2, 2), 1.0);
            w.enqueue(j);
            f.enqueue(j);
        }
        assert_eq!(w.attempt_order(), f.attempt_order());
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut s = Fcfs::new();
        assert!(s.remove(42).is_none());
        s.enqueue(job(1, 0, (1, 1), 1.0));
        assert!(s.remove(42).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_empties_all_kinds() {
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::Ssd,
            SchedulerKind::SjfArea,
            SchedulerKind::LjfArea,
            SchedulerKind::FcfsWindow(4),
        ] {
            let mut s = kind.build();
            s.enqueue(job(1, 0, (2, 3), 4.0));
            s.enqueue(job(2, 1, (3, 2), 2.0));
            s.clear();
            assert!(s.is_empty());
            assert!(s.attempt_order().is_empty());
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(SchedulerKind::Fcfs.to_string(), "FCFS");
        assert_eq!(SchedulerKind::Ssd.to_string(), "SSD");
        assert_eq!(SchedulerKind::FcfsWindow(8).to_string(), "FCFS-W8");
        assert_eq!(SchedulerKind::EasyBackfill.to_string(), "EASY");
    }

    #[test]
    fn easy_offers_head_when_queue_nonempty() {
        let mut s = EasyBackfill::new();
        s.enqueue(job(1, 0, (16, 22), 100.0));
        s.enqueue(job(2, 1, (1, 1), 1.0));
        // no observation yet: free = 0, nothing backfills, head offered
        assert_eq!(s.attempt_order(), vec![1]);
    }

    #[test]
    fn easy_backfills_short_job_behind_blocked_head() {
        let mut s = EasyBackfill::new();
        s.enqueue(job(1, 0, (16, 22), 1000.0)); // head needs 352 procs
        s.enqueue(job(2, 1, (2, 2), 10.0)); // tiny short job
        // one running job holds 100 procs until t=500; 252 free now
        s.observe(
            &[RunningJob {
                procs: 100,
                est_completion: 500,
            }],
            252,
            0,
        );
        s.set_demand_time_factor(1.0);
        // head's reservation: all 352 only at t=500; job 2 (est 10 cycles,
        // fits in 252 free) finishes well before 500 -> backfilled
        assert_eq!(s.attempt_order(), vec![1, 2]);
    }

    #[test]
    fn easy_refuses_backfill_that_delays_head() {
        let mut s = EasyBackfill::new();
        s.enqueue(job(1, 0, (16, 22), 1000.0));
        s.enqueue(job(2, 1, (2, 2), 10_000.0)); // long job
        s.observe(
            &[RunningJob {
                procs: 100,
                est_completion: 500,
            }],
            252,
            0,
        );
        s.set_demand_time_factor(1.0);
        // job 2 would run until t=10000 > reservation 500: not offered
        assert_eq!(s.attempt_order(), vec![1]);
    }

    #[test]
    fn easy_backfill_requires_fitting_now() {
        let mut s = EasyBackfill::new();
        s.enqueue(job(1, 0, (16, 22), 1000.0));
        s.enqueue(job(2, 1, (10, 10), 1.0)); // short but 100 procs
        s.observe(
            &[RunningJob {
                procs: 300,
                est_completion: 500,
            }],
            52,
            0,
        );
        s.set_demand_time_factor(1.0);
        // 100 > 52 free: cannot backfill regardless of estimate
        assert_eq!(s.attempt_order(), vec![1]);
    }
}

//! A traced copy of `Simulator::run`.
//!
//! The simulator's internals are private, so the traced run drives each
//! replication through this copy of the replication loop. It makes the
//! same calls, in the same order, into `EventQueue`, the job source,
//! `Scheduler`, `AllocationStrategy` (including the release-epoch failure
//! memo), `pattern_messages` and `Network` that
//! `crates/core/src/simulator.rs` makes, and wraps each call in a span.
//! It must reproduce `Simulator::run`'s `RunMetrics` bit for bit; the
//! traced run checks that on every replication (`trace.mirror_ok`), and
//! its per-layer numbers are void when it does not hold.
//!
//! Only the job sources the benchmark's workloads use are copied:
//! stochastic arrivals and streaming trace replay. The copy is meant to
//! be deleted once the simulator carries its own probe layer.

use crate::spans::{Kind, Tracer};
use desim::{EventQueue, SimRng, Time};
use mesh2d::{Coord, Mesh};
use mesh_alloc::{Allocation, AllocationStrategy};
use mesh_sched::{QueuedJob, RunningJob, Scheduler};
use procsim_core::{derive_seed, RunMetrics, SimConfig, TopologyKind, WorkloadSpec};
use simstats::{TimeWeighted, Welford};
use std::collections::{BTreeMap, HashMap, VecDeque};
use workload::{JobSpec, ScaledJobs, StochasticGen};
use wormnet::{pattern_messages, Network, Topology};

/// Exact work counters of the traced replications (they repeat exactly
/// for a given configuration).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Cycles skipped by `skip_cycles`.
    pub cycles_skipped: u64,
    /// Sum over stepped cycles of `active_count()` before the step.
    pub active_sum: u64,
    /// Packets delivered (completions drained).
    pub packets: u64,
    /// Successful allocations.
    pub alloc_ok: u64,
    /// `feasible` calls that rejected the shape.
    pub feasible_rejects: u64,
    /// Sum of fragments over successful allocations.
    pub fragments_sum: u64,
    /// Queued candidates considered by scheduling passes.
    pub attempts: u64,
    /// Candidates skipped by the release-epoch failure memo.
    pub memo_skips: u64,
    /// Sum over passes of the queue length at pass start.
    pub queue_sum: u64,
    /// `Scheduler::observe` calls.
    pub observe_calls: u64,
    /// Events popped from the event queue.
    pub events: u64,
}

#[derive(Debug)]
enum Ev {
    Arrival(JobSpec),
    LocalDone(u64),
}

const RANK_BITS: u32 = 20;

fn encode_tag(job: u64, rank: usize) -> u64 {
    (job << RANK_BITS) | rank as u64
}

fn decode_tag(tag: u64) -> (u64, usize) {
    (tag >> RANK_BITS, (tag & ((1 << RANK_BITS) - 1)) as usize)
}

struct JobState {
    spec: JobSpec,
    start: Time,
    alloc: Option<Allocation>,
    sends: Vec<VecDeque<Coord>>,
    outstanding: u32,
    lat_sum: u64,
    blk_sum: u64,
    pkts: u64,
}

enum Source {
    Stochastic {
        gen: StochasticGen,
        clock: Time,
        next_id: u64,
    },
    Stream {
        jobs: ScaledJobs,
        last_id: u64,
        base: Option<Time>,
        shift: Time,
        remaining: usize,
    },
}

struct Mirror<'t> {
    cfg: SimConfig,
    mesh: Mesh,
    strategy: Box<dyn AllocationStrategy>,
    scheduler: Box<dyn Scheduler>,
    net: Network,
    events: EventQueue<Ev>,
    now: Time,
    wl_rng: SimRng,
    pat_rng: SimRng,
    source: Source,
    jobs: BTreeMap<u64, JobState>,
    completed: usize,
    util: TimeWeighted,
    turn: Welford,
    serv: Welford,
    wait: Welford,
    frag: Welford,
    pkt_lat_sum: u64,
    pkt_blk_sum: u64,
    pkt_count: u64,
    next_internal_id: u64,
    demand_time_factor: f64,
    attempt_buf: Vec<u64>,
    running_snapshot: Vec<RunningJob>,
    snapshot_stale: bool,
    failed_shapes: HashMap<(u16, u16), u64>,
    memo_enabled: bool,
    tr: &'t mut Tracer,
    c: &'t mut Counters,
}

/// Runs replication `rep` of `cfg` through the traced copy of the
/// replication loop, recording spans into `tr` and work counts into `c`.
///
/// # Panics
/// Panics on a workload kind the copy does not mirror (materialized
/// traces), and wherever `Simulator::run` itself would panic.
pub fn run_traced(cfg: &SimConfig, rep: u64, tr: &mut Tracer, c: &mut Counters) -> RunMetrics {
    tr.enter(Kind::Rep);
    let mut rep_rng = SimRng::new(derive_seed(cfg.seed, rep));
    let wl_rng = rep_rng.substream(1);
    let pat_rng = rep_rng.substream(2);
    let strat_seed = rep_rng.substream(3).raw();
    let mesh = Mesh::new(cfg.mesh_w, cfg.mesh_l);
    let strategy = cfg.strategy.build(&mesh, strat_seed);
    let scheduler = cfg.scheduler.build();
    let topo = match cfg.topology {
        TopologyKind::Mesh => Topology::new(cfg.mesh_w, cfg.mesh_l),
        TopologyKind::Torus => Topology::new_torus(cfg.mesh_w, cfg.mesh_l),
    };
    let net = Network::with_topology(topo, cfg.ts);
    let needed = cfg.warmup_jobs + cfg.measured_jobs;
    let source = match &cfg.workload {
        WorkloadSpec::Stochastic {
            sides,
            load,
            num_mes,
        } => Source::Stochastic {
            gen: StochasticGen {
                mesh_w: cfg.mesh_w,
                mesh_l: cfg.mesh_l,
                sides: *sides,
                load: *load,
                num_mes_mean: *num_mes,
            },
            clock: 0,
            next_id: 0,
        },
        WorkloadSpec::Trace {
            trace,
            load,
            runtime_scale,
        } => {
            let len = trace.len();
            let stride = (needed % len).max(1);
            let pos = (rep as usize).wrapping_mul(stride) % len;
            let jobs = tr.span(Kind::Cursor, || {
                trace.stream_jobs(cfg.mesh_w, cfg.mesh_l, *load, *runtime_scale, pos)
            });
            Source::Stream {
                jobs,
                last_id: (len - 1) as u64,
                base: None,
                shift: 0,
                remaining: len,
            }
        }
        _ => panic!("the traced copy mirrors only stochastic and streaming-trace workloads"),
    };
    let memo_enabled = strategy.failure_persists_until_release();
    let mut m = Mirror {
        cfg: cfg.clone(),
        mesh,
        strategy,
        scheduler,
        net,
        events: EventQueue::new(),
        now: 0,
        wl_rng,
        pat_rng,
        source,
        jobs: BTreeMap::new(),
        completed: 0,
        util: TimeWeighted::new(0, 0.0),
        turn: Welford::new(),
        serv: Welford::new(),
        wait: Welford::new(),
        frag: Welford::new(),
        pkt_lat_sum: 0,
        pkt_blk_sum: 0,
        pkt_count: 0,
        next_internal_id: 0,
        demand_time_factor: 1.0,
        attempt_buf: Vec::new(),
        running_snapshot: Vec::new(),
        snapshot_stale: false,
        failed_shapes: HashMap::new(),
        memo_enabled,
        tr,
        c,
    };
    let metrics = m.run_inner();
    m.tr.exit();
    metrics
}

impl Mirror<'_> {
    fn schedule(&mut self, at: Time, ev: Ev) {
        let events = &mut self.events;
        self.tr.span(Kind::Desim, || events.schedule(at, ev));
    }

    fn pop_due(&mut self) -> Option<(Time, Ev)> {
        let (events, now) = (&mut self.events, self.now);
        let r = self.tr.span(Kind::Desim, || events.pop_due(now));
        self.c.events += r.is_some() as u64;
        r
    }

    fn schedule_next_arrival(&mut self) {
        let now = self.now;
        let job = match &mut self.source {
            Source::Stochastic {
                gen,
                clock,
                next_id,
            } => {
                let rng = &mut self.wl_rng;
                let id = *next_id;
                let job = self.tr.span(Kind::NextJob, || gen.next_job(id, clock, rng));
                *next_id += 1;
                job
            }
            Source::Stream {
                jobs,
                last_id,
                base,
                shift,
                remaining,
            } => {
                if *remaining == 0 {
                    return;
                }
                *remaining -= 1;
                let Some(mut job) = self.tr.span(Kind::NextJob, || jobs.next()) else {
                    return;
                };
                let b = *base.get_or_insert(job.arrive);
                let rebased = job.arrive.saturating_sub(b) + *shift;
                if job.id == *last_id {
                    *base = None;
                    *shift = rebased + 1;
                }
                job.arrive = now.max(rebased);
                job
            }
        };
        self.schedule(job.arrive.max(now), Ev::Arrival(job));
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(mut spec) => {
                let id = self.next_internal_id;
                self.next_internal_id += 1;
                spec.id = id;
                self.scheduler.enqueue(QueuedJob {
                    job_id: id,
                    arrive: spec.arrive,
                    a: spec.a,
                    b: spec.b,
                    service_demand: spec.service_demand,
                });
                self.jobs.insert(
                    id,
                    JobState {
                        spec,
                        start: Time::MAX,
                        alloc: None,
                        sends: Vec::new(),
                        outstanding: 0,
                        lat_sum: 0,
                        blk_sum: 0,
                        pkts: 0,
                    },
                );
                self.schedule_next_arrival();
            }
            Ev::LocalDone(id) => self.depart(id),
        }
    }

    fn schedule_pass(&mut self) {
        self.tr.enter(Kind::Pass);
        self.c.queue_sum += self.scheduler.len() as u64;
        if self.scheduler.wants_observation() {
            if self.snapshot_stale {
                let factor = self.demand_time_factor;
                self.running_snapshot.clear();
                self.running_snapshot.extend(
                    self.jobs
                        .values()
                        .filter(|js| js.start != Time::MAX)
                        .map(|js| RunningJob {
                            procs: js.alloc.as_ref().map_or(0, |a| a.size()),
                            est_completion: js.start
                                + (js.spec.service_demand * factor).round() as Time,
                        }),
                );
                self.snapshot_stale = false;
            }
            self.scheduler
                .observe(&self.running_snapshot, self.mesh.free_count(), self.now);
            self.scheduler
                .set_demand_time_factor(self.demand_time_factor);
            self.c.observe_calls += 1;
        }
        let mut order = std::mem::take(&mut self.attempt_buf);
        loop {
            self.scheduler.attempt_order_into(&mut order);
            if order.is_empty() {
                break;
            }
            let mut started = false;
            for &id in &order {
                self.c.attempts += 1;
                let (a, b) = {
                    let js = self.jobs.get(&id).expect("queued job without state");
                    (js.spec.a, js.spec.b)
                };
                let rel = self.mesh.release_epoch();
                if self.memo_enabled && self.failed_shapes.get(&(a, b)) == Some(&rel) {
                    self.c.memo_skips += 1;
                    continue;
                }
                let (strategy, mesh) = (&self.strategy, &self.mesh);
                if !self
                    .tr
                    .span(Kind::Feasible, || strategy.feasible(mesh, a, b))
                {
                    self.c.feasible_rejects += 1;
                    if self.memo_enabled {
                        self.failed_shapes.insert((a, b), rel);
                    }
                    continue;
                }
                let (strategy, mesh) = (&mut self.strategy, &mut self.mesh);
                if let Some(alloc) = self
                    .tr
                    .span(Kind::Allocate, || strategy.allocate(mesh, a, b))
                {
                    self.c.alloc_ok += 1;
                    self.c.fragments_sum += alloc.fragments() as u64;
                    self.scheduler.remove(id).expect("job vanished from queue");
                    self.start_job(id, alloc);
                    started = true;
                    break;
                }
                if self.memo_enabled {
                    self.failed_shapes.insert((a, b), rel);
                }
            }
            if !started {
                break;
            }
        }
        self.attempt_buf = order;
        self.tr.exit();
    }

    fn start_job(&mut self, id: u64, alloc: Allocation) {
        self.tr.enter(Kind::Start);
        self.util.update(self.now, self.mesh.used_count() as f64);
        self.snapshot_stale = true;
        let js = self.jobs.get_mut(&id).expect("started job without state");
        js.start = self.now;
        js.alloc = Some(alloc);
        let nodes = js.alloc.as_ref().expect("alloc just set").nodes();
        let msgs_per_node = js.spec.msgs_per_node;
        let msgs = pattern_messages(self.cfg.pattern, nodes, msgs_per_node, &mut self.pat_rng);
        if msgs.is_empty() {
            let local = msgs_per_node as Time * (self.cfg.plen + self.cfg.ts) as Time;
            let at = self.now + local.max(1);
            self.schedule(at, Ev::LocalDone(id));
            self.tr.exit();
            return;
        }
        let mut rank_index: Vec<(Coord, u32)> = nodes
            .iter()
            .enumerate()
            .map(|(r, &c)| (c, r as u32))
            .collect();
        rank_index.sort_unstable_by_key(|&(c, _)| (c.y, c.x));
        let mut sends: Vec<VecDeque<Coord>> = vec![VecDeque::new(); nodes.len()];
        for (src, dst) in &msgs {
            let i = rank_index
                .binary_search_by_key(&(src.y, src.x), |&(c, _)| (c.y, c.x))
                .expect("pattern message from outside the allocation");
            sends[rank_index[i].1 as usize].push_back(*dst);
        }
        js.outstanding = msgs.len() as u32;
        js.sends = sends;
        let alloc = js.alloc.as_ref().expect("alloc set above");
        let first: Vec<(usize, Coord, Coord)> = js
            .sends
            .iter_mut()
            .enumerate()
            .filter_map(|(r, q)| q.pop_front().map(|d| (r, alloc.nodes()[r], d)))
            .collect();
        for (rank, src, dst) in first {
            let (net, plen, now) = (&mut self.net, self.cfg.plen, self.now);
            self.tr.span(Kind::Send, || {
                net.send(src, dst, plen, encode_tag(id, rank), now)
            });
        }
        self.tr.exit();
    }

    fn depart(&mut self, id: u64) {
        self.tr.enter(Kind::Depart);
        self.snapshot_stale = true;
        let js = self.jobs.remove(&id).expect("departure of unknown job");
        if let Some(alloc) = js.alloc {
            let frags = alloc.fragments();
            let (strategy, mesh) = (&mut self.strategy, &mut self.mesh);
            self.tr
                .span(Kind::Release, || strategy.release(mesh, alloc));
            self.util.update(self.now, self.mesh.used_count() as f64);
            self.completed += 1;
            if self.completed == self.cfg.warmup_jobs {
                self.util.reset_at(self.now);
            }
            if js.spec.service_demand > 0.0 {
                let obs = (self.now - js.start) as f64 / js.spec.service_demand;
                self.demand_time_factor = 0.95 * self.demand_time_factor + 0.05 * obs;
            }
            if self.completed > self.cfg.warmup_jobs {
                self.turn.push((self.now - js.spec.arrive) as f64);
                self.serv.push((self.now - js.start) as f64);
                self.wait.push((js.start - js.spec.arrive) as f64);
                self.frag.push(frags as f64);
                self.pkt_lat_sum += js.lat_sum;
                self.pkt_blk_sum += js.blk_sum;
                self.pkt_count += js.pkts;
            }
        }
        self.tr.exit();
    }

    fn absorb_network_completions(&mut self) -> bool {
        let net = &mut self.net;
        let completions = self.tr.span(Kind::Drain, || net.drain_completions());
        if completions.is_empty() {
            return false;
        }
        self.tr.enter(Kind::Absorb);
        self.c.packets += completions.len() as u64;
        let mut done: Vec<u64> = Vec::new();
        for c in completions {
            let (job_id, rank) = decode_tag(c.tag);
            let js = self
                .jobs
                .get_mut(&job_id)
                .expect("packet completion for unknown job");
            js.lat_sum += c.latency;
            js.blk_sum += c.blocked;
            js.pkts += 1;
            js.outstanding -= 1;
            if let Some(dst) = js.sends[rank].pop_front() {
                let src = js.alloc.as_ref().expect("send for unallocated job").nodes()[rank];
                let (net, plen, now) = (&mut self.net, self.cfg.plen, self.now);
                self.tr.span(Kind::Send, || {
                    net.send(src, dst, plen, encode_tag(job_id, rank), now)
                });
            }
            if js.outstanding == 0 {
                done.push(job_id);
            }
        }
        let any = !done.is_empty();
        for id in done {
            self.depart(id);
        }
        self.tr.exit();
        any
    }

    fn drain_due(&mut self) -> bool {
        let mut any = false;
        while let Some((_, ev)) = self.pop_due() {
            self.handle(ev);
            any = true;
        }
        any
    }

    fn run_inner(&mut self) -> RunMetrics {
        self.schedule_next_arrival();
        let target = self.cfg.warmup_jobs + self.cfg.measured_jobs;
        while self.completed < target {
            if self.net.is_idle() {
                let events = &mut self.events;
                match self.tr.span(Kind::Desim, || events.pop()) {
                    Some((t, ev)) => {
                        self.c.events += 1;
                        self.now = t;
                        self.handle(ev);
                        self.drain_due();
                        self.schedule_pass();
                    }
                    None => break,
                }
            } else if let leap @ 1.. = {
                let net = &self.net;
                self.tr.span(Kind::Skippable, || net.skippable_cycles())
            } {
                let mut stop = self.now + leap;
                let events = &self.events;
                if let Some(te) = self.tr.span(Kind::Desim, || events.peek_time()) {
                    stop = stop.min(te);
                }
                let (net, k) = (&mut self.net, stop - self.now);
                self.tr.span(Kind::Skip, || net.skip_cycles(k));
                self.c.cycles_skipped += k;
                self.now = stop;
                if self.drain_due() {
                    self.schedule_pass();
                }
            } else {
                self.now += 1;
                self.c.active_sum += self.net.active_count() as u64;
                let (net, now) = (&mut self.net, self.now);
                self.tr.span(Kind::Step, || net.step(now));
                let departed = self.absorb_network_completions();
                let evented = self.drain_due();
                if departed || evented {
                    self.schedule_pass();
                }
            }
        }
        let measured = self.completed.saturating_sub(self.cfg.warmup_jobs) as u64;
        RunMetrics {
            jobs: measured,
            mean_turnaround: self.turn.mean(),
            mean_service: self.serv.mean(),
            utilization: self.util.average(self.now) / self.mesh.size() as f64,
            mean_packet_blocking: if self.pkt_count == 0 {
                0.0
            } else {
                self.pkt_blk_sum as f64 / self.pkt_count as f64
            },
            mean_packet_latency: if self.pkt_count == 0 {
                0.0
            } else {
                self.pkt_lat_sum as f64 / self.pkt_count as f64
            },
            mean_wait: self.wait.mean(),
            mean_fragments: self.frag.mean(),
            packets: self.pkt_count,
            end_time: self.now,
            turnaround_stats: self.turn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fingerprint;
    use crate::workloads::{Size, Workload, NAMES};

    #[test]
    fn the_copy_matches_simulator_run_on_one_config_of_each_workload() {
        let dir = crate::out_dir().join("test-fixture-mirror");
        for name in NAMES {
            let w = Workload::parse(name).unwrap();
            let fixture = w.write_fixture(9, Size::Tiny, &dir).unwrap();
            let (p, _) = w.setup(9, Size::Tiny, fixture.as_deref()).unwrap();
            let cfg = &p.cfgs[p.cfgs.len() - 1];
            let plain = procsim_core::Simulator::new(cfg, 1).run();
            let (mut tr, mut c) = (Tracer::default(), Counters::default());
            let traced = run_traced(cfg, 1, &mut tr, &mut c);
            assert_eq!(fingerprint(&plain), fingerprint(&traced), "{name}");
            assert_eq!(plain.end_time, traced.end_time, "{name}");
            assert!(
                tr.totals()[Kind::Rep as usize].calls == 1 && c.events > 0,
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

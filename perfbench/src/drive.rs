//! The closed-loop round driver shared by every workload.
//!
//! A workload is a fixed [`Schedule`] (rounds, evaluation cadence,
//! membership events) replayed over one or more *lanes*, each a trainer
//! with its own traffic accountant. Lanes step in lockstep, round by
//! round, so a traced lane and its untraced twin see the same inputs and
//! interleave on the same cores. Every `Trainer::step`,
//! `Trainer::set_worker_active` and `Trainer::evaluate` call is timed
//! from outside; nothing in the trainers is modified.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_core::{RoundCtx, RoundReport, ScenarioEvent, ScheduledEvent, TimeModel, Trainer};
use saps_data::Dataset;
use saps_netsim::{BandwidthMatrix, TrafficAccountant};
use saps_runtime::{Executor, ParallelismPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The widest executor the benchmark uses: the machine's cores, capped
/// at 2 so figures are comparable across hosts with at least two cores.
pub fn executor() -> Executor {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Executor::new(ParallelismPolicy::Threads(cores.min(2)))
}

/// Slowest link of a workload's network, MB/s.
const MIN_LINK_MBPS: f64 = 2.0;

/// A workload's network: every link uniform on `[2, 5]` MB/s — the
/// paper's `uniform_random` environment with its slow tail cut off —
/// drawn from a fixed environment seed. The run seed varies data,
/// initialization, batch sampling, masks and matching, not the network.
/// Both choices keep modeled time comparable across seeds. Rounds whose
/// recently-connected graph is not yet connected (Algorithm 3) match
/// over any link, so over a (0, 5] draw one near-zero link swung
/// cumulative `fleet-wire` modeled time between 2.7 s and 18.8 s over
/// five seeds; with a 0.5 MB/s floor `resnet-compute`'s still spread
/// 20% across ten seeds, with 2 MB/s 7%.
pub fn network(workers: usize) -> BandwidthMatrix {
    let mut rng = StdRng::seed_from_u64(0x5EED_F00D);
    let base = BandwidthMatrix::uniform_random(workers, 5.0 - MIN_LINK_MBPS, &mut rng);
    // `from_raw` zeroes the diagonal again.
    let raw: Vec<f64> = base.as_slice().iter().map(|v| v + MIN_LINK_MBPS).collect();
    BandwidthMatrix::from_raw(workers, &raw)
}

/// Everything a round sees that is not the trainer.
pub struct Env {
    pub bw: BandwidthMatrix,
    pub time: TimeModel,
    pub exec: Executor,
    pub seed: u64,
    pub val: Dataset,
    pub eval_samples: usize,
    pub workers: usize,
    /// Mean local partition size (training samples / workers).
    pub mean_part: f64,
}

/// A fixed round schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub rounds: usize,
    /// Evaluate after every `eval_every`-th round and after the last.
    pub eval_every: usize,
    /// Membership events (`WorkerLeave` / `WorkerJoin` only).
    pub events: Vec<ScheduledEvent>,
}

/// What one lane did, timed from outside the trainer.
#[derive(Debug, Default, Clone)]
pub struct LaneLog {
    pub round_ms: Vec<f64>,
    pub member_ms: Vec<f64>,
    /// Whether each entry of `member_ms` was a join (else a leave).
    pub member_joins: Vec<bool>,
    pub eval_ms: Vec<f64>,
    pub loss_bits: Vec<u32>,
    pub comm_bits: Vec<u64>,
    pub eval_bits: Vec<u32>,
    pub samples: f64,
    pub modeled_s: f64,
    pub final_acc: f32,
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds of this lane's own calls: steps, evaluations and
    /// membership changes.
    pub wall_s: f64,
    pub errors: Vec<String>,
}

impl LaneLog {
    pub fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    /// The trajectory fingerprint: per-round loss and modeled-time bits
    /// plus every evaluation's bits.
    pub fn trajectory(&self) -> (&[u32], &[u64], &[u32]) {
        (&self.loss_bits, &self.comm_bits, &self.eval_bits)
    }
}

/// One trainer driven through the schedule.
pub struct Lane<'a> {
    pub trainer: &'a mut dyn Trainer,
    pub traffic: TrafficAccountant,
    pub log: LaneLog,
}

impl<'a> Lane<'a> {
    pub fn new(trainer: &'a mut dyn Trainer, workers: usize) -> Self {
        Lane {
            trainer,
            traffic: TrafficAccountant::new(workers),
            log: LaneLog::default(),
        }
    }
}

/// Callbacks into the workload between timed calls (never inside one).
pub enum Event<'a> {
    Stepped {
        lane: usize,
        round: usize,
        report: &'a RoundReport,
        /// When the step call started and returned.
        span: (Instant, Instant),
    },
    Membership {
        lane: usize,
        rank: usize,
        active: bool,
        ms: f64,
    },
    Evaluated {
        lane: usize,
        ms: f64,
    },
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Drives `lanes` through `sched` in lockstep. A lane whose step or
/// membership change fails stops; the failure lands in its log.
pub fn run_lanes(env: &Env, sched: &Schedule, lanes: &mut [Lane<'_>], hook: &mut dyn FnMut(Event)) {
    let mut active = vec![true; env.workers];
    let mut events = sched.events.clone();
    events.sort_by_key(|e| e.round);
    let mut next = 0usize;
    let mut dead = vec![false; lanes.len()];
    for round in 0..sched.rounds {
        while next < events.len() && events[next].round <= round {
            let (rank, join) = match events[next].event {
                ScenarioEvent::WorkerLeave { rank } => (rank, false),
                ScenarioEvent::WorkerJoin { rank } => (rank, true),
                ref other => panic!("schedules carry membership events only, got {other:?}"),
            };
            next += 1;
            for (i, lane) in lanes.iter_mut().enumerate() {
                if dead[i] {
                    continue;
                }
                let t0 = Instant::now();
                let res = catch_unwind(AssertUnwindSafe(|| {
                    lane.trainer.set_worker_active(rank, join)
                }));
                let dt = t0.elapsed().as_secs_f64();
                lane.log.wall_s += dt;
                lane.log.member_ms.push(dt * 1e3);
                lane.log.member_joins.push(join);
                let err = match res {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(e.to_string()),
                    Err(p) => Some(panic_text(p)),
                };
                if let Some(e) = err {
                    lane.log
                        .errors
                        .push(format!("round {round}: membership {rank}: {e}"));
                    dead[i] = true;
                    continue;
                }
                hook(Event::Membership {
                    lane: i,
                    rank,
                    active: join,
                    ms: dt * 1e3,
                });
            }
            active[rank] = join;
        }
        let n_active = active.iter().filter(|a| **a).count();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if dead[i] {
                continue;
            }
            lane.log.attempted += 1;
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = RoundCtx::new(round, &env.bw, &mut lane.traffic, env.seed)
                    .with_executor(env.exec)
                    .with_time_model(env.time);
                lane.trainer.step(&mut ctx)
            }));
            let t1 = Instant::now();
            let dt = (t1 - t0).as_secs_f64();
            lane.log.wall_s += dt;
            let rep = match res {
                Ok(rep) if rep.mean_loss.is_finite() => rep,
                Ok(rep) => {
                    lane.log.failed += 1;
                    lane.log
                        .errors
                        .push(format!("round {round}: loss {}", rep.mean_loss));
                    dead[i] = true;
                    continue;
                }
                Err(p) => {
                    lane.log.failed += 1;
                    lane.log
                        .errors
                        .push(format!("round {round}: {}", panic_text(p)));
                    dead[i] = true;
                    continue;
                }
            };
            lane.log.round_ms.push(dt * 1e3);
            lane.log.loss_bits.push(rep.mean_loss.to_bits());
            lane.log.comm_bits.push(rep.round_time_s.to_bits());
            lane.log.modeled_s += rep.round_time_s;
            lane.log.samples += rep.epochs_advanced * env.mean_part * n_active as f64;
            hook(Event::Stepped {
                lane: i,
                round,
                report: &rep,
                span: (t0, t1),
            });
        }
        if (round + 1) % sched.eval_every == 0 || round + 1 == sched.rounds {
            for (i, lane) in lanes.iter_mut().enumerate() {
                if dead[i] {
                    continue;
                }
                let t0 = Instant::now();
                let acc = lane.trainer.evaluate(&env.val, env.eval_samples);
                let dt = t0.elapsed().as_secs_f64();
                lane.log.wall_s += dt;
                lane.log.eval_ms.push(dt * 1e3);
                lane.log.eval_bits.push(acc.to_bits());
                lane.log.final_acc = acc;
                hook(Event::Evaluated {
                    lane: i,
                    ms: dt * 1e3,
                });
            }
        }
    }
}

/// No-op hook for lanes nobody observes.
pub fn no_hook(_: Event) {}

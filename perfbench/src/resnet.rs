//! `resnet-compute`: SAPS-PSGD on the in-memory driver, compute-bound.
//!
//! ResNet-20 (scaled) — the `resnet_tiny` conv net at batch 32 — on 8
//! workers, c = 10, `uniform_random` bandwidth, analytic time model,
//! periodic evaluation on 1 000 validation samples; one worker leaves
//! and rejoins mid-episode. `nn`/`tensor` do almost all the work.
//!
//! The traced run drives a [`ComposedSaps`] — the round composed from
//! the same public calls `SapsPsgd::step` makes, each wrapped in a span —
//! in lockstep with an untraced `SapsPsgd`, and requires both to agree
//! bit for bit every round.

use crate::drive::{self, Env, Lane, Schedule};
use crate::report::{median, Checks, Metrics};
use crate::trace::Trace;
use crate::{ledger_common, Det, Episode, Traced, Workload};
use rand::rngs::StdRng;
use saps_compress::codec;
use saps_compress::mask::RandomMask;
use saps_core::{
    build_replicas, saps_round_report, zoo, ConfigError, PartitionStrategy, RoundCtx, RoundReport,
    SapsConfig, SapsControl, SapsPsgd, TimeModel, Trainer, Worker,
};
use saps_data::{Dataset, SyntheticSpec};
use saps_netsim::{to_mb, BandwidthMatrix};
use saps_nn::Model;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const WORKERS: usize = 8;
const ROUNDS: usize = 12;

fn factory(rng: &mut StdRng) -> Model {
    saps_nn::zoo::resnet_tiny(rng)
}

fn config(seed: u64) -> SapsConfig {
    SapsConfig {
        workers: WORKERS,
        compression: 10.0,
        lr: 0.1,
        batch_size: 32,
        seed,
        ..SapsConfig::default()
    }
}

fn schedule() -> Schedule {
    Schedule {
        rounds: ROUNDS,
        eval_every: ROUNDS / 2,
        events: zoo::flash_crowd(WORKERS, &[WORKERS - 1], ROUNDS / 3, 2 * ROUNDS / 3),
    }
}

/// Data, partitions and environment for one seed.
fn inputs(seed: u64) -> (Vec<Dataset>, Env) {
    // The ResNet-20 (scaled) data of `saps_bench::Workload::resnet_scaled`,
    // with enough samples for a 1 000-sample validation split.
    let spec = SyntheticSpec {
        feature_dim: 256,
        num_classes: 4,
        num_samples: 4_000,
        noise: 2.2,
        class_separation: 0.8,
        mixing_taps: 4,
    };
    let (train, val) = spec.generate(seed).split(0.25, seed);
    let parts = PartitionStrategy::Iid.apply(&train, WORKERS, seed);
    let env = Env {
        bw: drive::network(WORKERS),
        time: TimeModel::Analytic,
        exec: drive::executor(),
        seed,
        eval_samples: 1_000,
        workers: WORKERS,
        mean_part: train.len() as f64 / WORKERS as f64,
        val,
    };
    (parts, env)
}

pub struct ResnetCompute;

impl Workload for ResnetCompute {
    fn episode(&mut self, seed: u64, _checks: &mut Checks) -> Episode {
        let t0 = Instant::now();
        let (parts, env) = inputs(seed);
        let mut algo = SapsPsgd::with_partitions(config(seed), parts, &env.bw, factory)
            .expect("valid resnet-compute config");
        algo.evaluate(&env.val, env.eval_samples);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut lanes = [Lane::new(&mut algo, WORKERS)];
        drive::run_lanes(&env, &schedule(), &mut lanes, &mut drive::no_hook);
        let [lane] = lanes;
        let det = Det {
            final_val_acc: f64::from(lane.log.final_acc),
            modeled_time_s: lane.log.modeled_s,
            worker_mb: to_mb(lane.traffic.max_worker_total()),
            wire_mb: to_mb(lane.traffic.grand_total_sent() + lane.traffic.server_total()),
        };
        Episode {
            setup_s,
            lanes: vec![("saps".into(), lane.log)],
            det,
        }
    }

    fn traced(&mut self, seed: u64, trace: &Rc<RefCell<Trace>>, checks: &mut Checks) -> Traced {
        let (parts, env) = inputs(seed);
        let mut reference =
            SapsPsgd::with_partitions(config(seed), parts.clone(), &env.bw, factory)
                .expect("valid resnet-compute config");
        let mut composed = ComposedSaps::new(config(seed), parts, &env.bw, trace.clone())
            .expect("valid resnet-compute config");
        let mut lanes = [
            Lane::new(&mut reference, WORKERS),
            Lane::new(&mut composed, WORKERS),
        ];
        drive::run_lanes(&env, &schedule(), &mut lanes, &mut drive::no_hook);
        let [reference, composed] = lanes;
        for r in 0..reference.log.rounds().min(composed.log.rounds()) {
            let (a, b) = (reference.traffic.rounds()[r], composed.traffic.rounds()[r]);
            checks.check(a == b, || {
                format!(
                    "resnet-compute: round {r} accountant differs: SapsPsgd {a:?}, composed {b:?}"
                )
            });
        }
        checks.check(
            reference.log.trajectory() == composed.log.trajectory(),
            || {
                "resnet-compute: the composed round diverged from SapsPsgd::step \
             (loss, modeled time or accuracy bits)"
                    .into()
            },
        );
        Traced {
            reference_ms: reference.log.round_ms.clone(),
            traced_ms: composed.log.round_ms.clone(),
            lanes: vec![composed.log],
        }
    }

    fn ledger(&self, trace: &Trace, m: &mut Metrics, checks: &mut Checks) {
        ledger_common(trace, m);
        let spans = &trace.spans;
        let rounds = spans.durations("round").len();
        let round_ns: f64 = spans.total("round").0 as f64;
        let layers = spans.layer_self_ns("round");
        let share =
            |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / round_ns.max(1.0);
        m.put("nn.sgd_share", share("nn"), "share");
        let eval_ms: Vec<f64> = spans
            .durations("nn.eval")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        m.put("nn.eval_ms", median(&eval_ms), "ms");
        for layer in ["nn", "core", "compress", "netsim"] {
            m.put(format!("layer.{layer}_share"), share(layer), "share");
        }
        let uncovered = share("round");
        let uncovered_ms = round_ns * uncovered / 1e6 / rounds.max(1) as f64;
        m.put("trace.coverage", 1.0 - uncovered, "share");
        m.put("trace.uncovered_ms", uncovered_ms, "ms");
        checks.check(1.0 - uncovered >= 0.95, || {
            format!(
                "resnet-compute: named layer spans cover {:.1}% of round wall time (< 95%); \
                 uncovered `round` self time {uncovered_ms:.3} ms/round",
                100.0 * (1.0 - uncovered)
            )
        });
    }
}

/// SAPS-PSGD's round composed from the public calls
/// [`SapsPsgd::step`] makes, one span per layer:
/// `core.plan` (`SapsControl::begin_round` + `global_pairs`), `nn.sgd`
/// (`Executor::par_map` over `Worker::sgd_step`, one lane span per
/// task), `compress.mask` (`RandomMask::regenerate`),
/// `compress.exchange` (`sparse_payload_into` + `merge_sparse`),
/// `netsim.account` (`TrafficAccountant`), `netsim.price`
/// (`TimeModel::price_p2p`) and `core.report` (`saps_round_report`).
pub struct ComposedSaps {
    cfg: SapsConfig,
    control: SapsControl,
    workers: Vec<Worker>,
    eval_model: Model,
    n_params: usize,
    mask: RandomMask,
    pay_a: Vec<f32>,
    pay_b: Vec<f32>,
    trace: Rc<RefCell<Trace>>,
}

impl ComposedSaps {
    pub fn new(
        cfg: SapsConfig,
        parts: Vec<Dataset>,
        bw: &BandwidthMatrix,
        trace: Rc<RefCell<Trace>>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let (workers, eval_model) = build_replicas(parts, cfg.seed, factory);
        let n_params = eval_model.num_params();
        let s = trace.borrow_mut().spans.open("core.coordinator_new", None);
        let mut control = SapsControl::new(bw, cfg.bthres, cfg.tthres, cfg.seed);
        control.set_shard_size(cfg.shard_size);
        trace.borrow_mut().spans.close(s);
        Ok(ComposedSaps {
            cfg,
            control,
            workers,
            eval_model,
            n_params,
            mask: RandomMask::from_indices(n_params, Vec::new()),
            pay_a: Vec::new(),
            pay_b: Vec::new(),
            trace,
        })
    }
}

impl Trainer for ComposedSaps {
    fn name(&self) -> &'static str {
        "SAPS-PSGD"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        let trace = self.trace.clone();
        let mut trace = trace.borrow_mut();
        let Trace { spans: log, tally } = &mut *trace;
        let r = Some(ctx.round() as u64);
        let root = log.open("round", r);

        let s = log.open("core.plan", r);
        let ranks = self.control.active_ranks();
        let plan = self.control.begin_round();
        let pairs = self.control.global_pairs(&plan.matching);
        log.close(s);

        let fork = log.open("nn.sgd", r);
        let (bs, lr) = (self.cfg.batch_size, self.cfg.lr);
        let control = &self.control;
        let step_workers: Vec<&mut Worker> = self
            .workers
            .iter_mut()
            .enumerate()
            .filter_map(|(r, w)| control.is_active(r).then_some(w))
            .collect();
        let timed = ctx.exec.par_map(step_workers, |_, w| {
            let t0 = Instant::now();
            let st = w.sgd_step(bs, lr);
            (st, t0, Instant::now())
        });
        log.close(fork);

        let s = log.open("compress.mask", r);
        self.mask.regenerate(
            self.n_params,
            self.cfg.compression,
            plan.mask_seed,
            plan.round,
        );
        let payload_bytes = codec::sparse_shared_mask_bytes(self.mask.nnz());
        log.close(s);

        let s = log.open("compress.exchange", r);
        for &(ri, rj) in &pairs {
            let ComposedSaps {
                workers,
                mask,
                pay_a,
                pay_b,
                ..
            } = self;
            workers[ri].sparse_payload_into(mask, pay_a);
            workers[rj].sparse_payload_into(mask, pay_b);
            workers[ri].merge_sparse(mask, pay_b);
            workers[rj].merge_sparse(mask, pay_a);
        }
        log.close(s);

        let s = log.open("netsim.account", r);
        let mut transfers = Vec::with_capacity(2 * pairs.len());
        for &(ri, rj) in &pairs {
            ctx.traffic.record_p2p(ri, rj, payload_bytes);
            ctx.traffic.record_p2p(rj, ri, payload_bytes);
            transfers.push((ri, rj, payload_bytes));
            transfers.push((rj, ri, payload_bytes));
        }
        ctx.traffic.end_round();
        log.close(s);

        let s = log.open("netsim.price", r);
        let timing = ctx.price_p2p(&transfers);
        log.close(s);

        let s = log.open("core.report", r);
        let mean_part = ranks
            .iter()
            .map(|&r| self.workers[r].data_len())
            .sum::<usize>() as f64
            / ranks.len().max(1) as f64;
        let stats: Vec<(f32, f32)> = timed.iter().map(|t| t.0).collect();
        let rep = saps_round_report(&stats, &pairs, ctx.bw, &timing, bs, mean_part);
        log.close(s);
        log.close(root);

        for &(_, t0, t1) in &timed {
            log.lane("nn.sgd_step", fork, t0, t1);
            tally.push("nn.task_ms", (t1 - t0).as_secs_f64() * 1e3);
        }
        tally.push("compress.nnz", self.mask.nnz() as f64);
        tally.push(
            "core.matched_share",
            2.0 * pairs.len() as f64 / ranks.len().max(1) as f64,
        );
        tally.push("netsim.flows", transfers.len() as f64);
        tally.push(
            "netsim.retransmit_segments",
            timing.retransmit_segments as f64,
        );
        rep
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let s = self.trace.borrow_mut().spans.open("nn.eval", None);
        let ranks = self.control.active_ranks();
        let mut avg = vec![0.0f32; self.n_params];
        for &r in &ranks {
            for (a, v) in avg.iter_mut().zip(&self.workers[r].flat()) {
                *a += v;
            }
        }
        let inv = 1.0 / ranks.len() as f32;
        for a in &mut avg {
            *a *= inv;
        }
        self.eval_model.set_flat_params(&avg);
        let acc = self.eval_model.evaluate(val, max_samples);
        self.trace.borrow_mut().spans.close(s);
        acc
    }

    fn model_len(&self) -> usize {
        self.n_params
    }

    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        let s = self.trace.borrow_mut().spans.open("core.membership", None);
        let res = self.control.set_active(rank, active);
        self.trace.borrow_mut().spans.close(s);
        res
    }
}

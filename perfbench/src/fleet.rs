//! `fleet-wire`: SAPS-PSGD on the cluster driver, control- and wire-bound.
//!
//! 512 workers over the loopback transport, the tiny MLP
//! (`SyntheticSpec::tiny`, `mlp[16,32,4]`, batch 4), c = 50,
//! `uniform_random` bandwidth, packet time model (RTT 20 ms, 0.1 % seeded
//! loss), and a two-worker `zoo::flash_crowd` cohort that leaves and
//! rejoins. Planning (`SapsControl::begin_round`), packet pricing,
//! framing and the transport do the work; `nn` does little.
//!
//! The traced run drives a [`ClusterTrainer`] over the
//! [`TimingTransport`] decorator in lockstep with an untraced twin, and
//! after every call replays the call's own inputs layer by layer: the
//! captured frames (`proto`), the plan sequence of an identically seeded
//! `SapsControl` (`core`), the transfer set (`netsim`), the mask
//! (`compress`) and the local SGD steps of an identically built fleet
//! (`nn`). Whatever of the step's wall time the transport and the
//! replays do not account for is the cluster nodes' own time.

use crate::drive::{self, Env, Event, Lane, Schedule};
use crate::replay;
use crate::report::{median, Checks, Metrics};
use crate::trace::Trace;
use crate::wire::TimingTransport;
use crate::{ledger_common, Det, Episode, Traced, Workload};
use rand::rngs::StdRng;
use saps_cluster::{ClusterTrainer, LoopbackTransport, WireTap};
use saps_compress::mask::RandomMask;
use saps_core::{
    build_replicas, zoo, PartitionStrategy, SapsConfig, SapsControl, TimeModel, Trainer, Worker,
};
use saps_data::{Dataset, SyntheticSpec};
use saps_netsim::packet::PacketConfig;
use saps_netsim::{to_mb, BandwidthMatrix};
use saps_nn::Model;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

const WORKERS: usize = 512;
const ROUNDS: usize = 200;
const COHORT: [usize; 2] = [101, 409];

fn factory(rng: &mut StdRng) -> Model {
    saps_nn::zoo::mlp(&[16, 32, 4], rng)
}

fn config(seed: u64) -> SapsConfig {
    SapsConfig {
        workers: WORKERS,
        compression: 50.0,
        lr: 0.1,
        batch_size: 4,
        seed,
        ..SapsConfig::default()
    }
}

fn schedule() -> Schedule {
    Schedule {
        rounds: ROUNDS,
        eval_every: ROUNDS / 2,
        events: zoo::flash_crowd(WORKERS, &COHORT, ROUNDS / 4, ROUNDS / 2),
    }
}

fn inputs(seed: u64) -> (Vec<Dataset>, Env) {
    let ds = SyntheticSpec::tiny()
        .samples(WORKERS * 16 + 2_048)
        .generate(seed);
    let (train, val) = ds.split(2_048.0 / ds.len() as f64, seed);
    let parts = PartitionStrategy::Iid.apply(&train, WORKERS, seed);
    let env = Env {
        bw: drive::network(WORKERS),
        time: TimeModel::packet(
            PacketConfig::default()
                .with_rtt(0.02)
                .with_loss(0.001)
                .with_seed(seed),
        ),
        exec: drive::executor(),
        seed,
        eval_samples: 1_000,
        workers: WORKERS,
        mean_part: train.len() as f64 / WORKERS as f64,
        val,
    };
    (parts, env)
}

/// The layer replays of the traced lane, fed by the driver's events.
struct Replayer {
    control: SapsControl,
    workers: Vec<Worker>,
    mask: RandomMask,
    compression: f64,
    n_params: usize,
    pay_a: Vec<f32>,
    pay_b: Vec<f32>,
}

impl Replayer {
    fn new(cfg: &SapsConfig, parts: Vec<Dataset>, bw: &BandwidthMatrix, trace: &mut Trace) -> Self {
        let (workers, eval_model) = build_replicas(parts, cfg.seed, factory);
        let s = trace.spans.open("core.coordinator_new", None);
        let mut control = SapsControl::new(bw, cfg.bthres, cfg.tthres, cfg.seed);
        control.set_shard_size(cfg.shard_size);
        trace.spans.close(s);
        let n_params = eval_model.num_params();
        Replayer {
            control,
            workers,
            mask: RandomMask::from_indices(n_params, Vec::new()),
            compression: cfg.compression,
            n_params,
            pay_a: Vec::new(),
            pay_b: Vec::new(),
        }
    }

    /// Replays one traced step; `wire` is what it put through the
    /// decorator.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        env: &Env,
        cfg: &SapsConfig,
        round: usize,
        step_ms: f64,
        modeled_s: f64,
        wire: crate::wire::WireRound,
        trace: &mut Trace,
        checks: &mut Checks,
    ) {
        let r = Some(round as u64);
        let c = wire.counters;
        let root = trace.spans.open("replay", r);
        let proto_ms = replay::proto(&wire.frames, r, trace, checks);

        let plan = trace.spans.open("core.plan", r);
        let ranks = self.control.active_ranks();
        let round_plan = self.control.begin_round();
        let pairs = self.control.global_pairs(&round_plan.matching);
        trace.spans.close(plan);

        let mask = trace.spans.open("compress.mask", r);
        self.mask.regenerate(
            self.n_params,
            self.compression,
            round_plan.mask_seed,
            round_plan.round,
        );
        trace.spans.close(mask);
        let exchange = trace.spans.open("compress.exchange", r);
        for &(ri, rj) in &pairs {
            let Replayer {
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
        trace.spans.close(exchange);

        // The data-plane transfers the wire carried must be exactly the
        // replayed plan's pairs, both directions.
        let by_dir: BTreeMap<(usize, usize), u64> = wire
            .transfers
            .iter()
            .map(|&(s, d, frame, _)| ((s as usize, d as usize), frame))
            .collect();
        let directions: Vec<(usize, usize)> =
            pairs.iter().flat_map(|&(i, j)| [(i, j), (j, i)]).collect();
        let planned: BTreeSet<(usize, usize)> = directions.iter().copied().collect();
        let carried: BTreeSet<(usize, usize)> = by_dir.keys().copied().collect();
        checks.check(planned == carried, || {
            format!(
                "fleet-wire round {round}: the replayed plan pairs {} directions, the wire carried {}",
                planned.len(),
                carried.len()
            )
        });
        // Priced in plan order on full frame sizes, as the driver does.
        let priced: Vec<(usize, usize, u64)> = directions
            .iter()
            .filter_map(|&(s, d)| by_dir.get(&(s, d)).map(|&b| (s, d, b)))
            .collect();
        let (timing, price_ms) = replay::price(&env.time, &env.bw, &priced, r, trace);
        checks.check(timing.total_s.to_bits() == modeled_s.to_bits(), || {
            format!(
                "fleet-wire round {round}: replayed pricing {} s differs from the round's {modeled_s} s",
                timing.total_s
            )
        });

        let fork = trace.spans.open("nn.sgd", r);
        let (bs, lr) = (cfg.batch_size, cfg.lr);
        let control = &self.control;
        let step_workers: Vec<&mut Worker> = self
            .workers
            .iter_mut()
            .enumerate()
            .filter_map(|(r, w)| control.is_active(r).then_some(w))
            .collect();
        let timed = env.exec.par_map(step_workers, |_, w| {
            let t0 = Instant::now();
            w.sgd_step(bs, lr);
            t0.elapsed().as_secs_f64() * 1e3
        });
        trace.spans.close(fork);
        trace.spans.close(root);

        let spans = &trace.spans;
        let (plan_ms, nn_ms) = (spans.ms(plan), spans.ms(fork));
        let compress_ms = spans.ms(mask) + spans.ms(exchange);
        let (send_ms, recv_ms) = (c.send_ns as f64 / 1e6, c.recv_ns as f64 / 1e6);
        let t = &mut trace.tally;
        // Hundreds of tiny tasks a round: tallied, not kept as spans.
        for ms in timed {
            t.push("nn.task_ms", ms);
        }
        t.push("step_ms", step_ms);
        t.push("send_ms", send_ms);
        t.push("recv_ms", recv_ms);
        t.push("recv_calls", c.recv_calls as f64);
        t.push("recv_hits", c.recv_hits as f64);
        t.push("proto_ms", proto_ms);
        t.push("plan_ms", plan_ms);
        t.push("price_ms", price_ms);
        t.push("nn_ms", nn_ms);
        t.push("compress_ms", compress_ms);
        t.push(
            "node_self_ms",
            step_ms - send_ms - recv_ms - proto_ms - plan_ms - price_ms - nn_ms - compress_ms,
        );
        t.push("compress.nnz", self.mask.nnz() as f64);
        t.push(
            "core.matched_share",
            2.0 * pairs.len() as f64 / ranks.len().max(1) as f64,
        );
    }
}

pub struct FleetWire;

impl Workload for FleetWire {
    fn episode(&mut self, seed: u64, checks: &mut Checks) -> Episode {
        let t0 = Instant::now();
        let (parts, env) = inputs(seed);
        let tap = WireTap::new();
        let mut trainer =
            ClusterTrainer::loopback(config(seed), parts, &env.bw, factory, tap.clone())
                .expect("valid fleet-wire config");
        trainer.evaluate(&env.val, env.eval_samples);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut lanes = [Lane::new(&mut trainer, WORKERS)];
        drive::run_lanes(&env, &schedule(), &mut lanes, &mut drive::no_hook);
        let [lane] = lanes;
        let wire = tap.snapshot();
        checks.check(wire.data_bytes == lane.traffic.grand_total_sent(), || {
            format!(
                "fleet-wire: wire data bytes {} != accountant worker-row bytes {}",
                wire.data_bytes,
                lane.traffic.grand_total_sent()
            )
        });
        Episode {
            setup_s,
            det: Det {
                final_val_acc: f64::from(lane.log.final_acc),
                modeled_time_s: lane.log.modeled_s,
                worker_mb: to_mb(lane.traffic.max_worker_total()),
                wire_mb: to_mb(wire.total_bytes),
            },
            lanes: vec![("saps".into(), lane.log)],
        }
    }

    fn traced(&mut self, seed: u64, trace: &Rc<RefCell<Trace>>, checks: &mut Checks) -> Traced {
        let (parts, env) = inputs(seed);
        let cfg = config(seed);
        let tap_ref = WireTap::new();
        let mut reference = ClusterTrainer::loopback(
            cfg.clone(),
            parts.clone(),
            &env.bw,
            factory,
            tap_ref.clone(),
        )
        .expect("valid fleet-wire config");
        let tap = WireTap::new();
        let (transport, probe) = TimingTransport::new(LoopbackTransport::new(tap.clone()));
        let mut traced = ClusterTrainer::with_transport(
            cfg.clone(),
            parts.clone(),
            &env.bw,
            factory,
            transport,
            tap.clone(),
        )
        .expect("valid fleet-wire config");
        let mut replayer = Replayer::new(&cfg, parts, &env.bw, &mut trace.borrow_mut());
        let mut lanes = [
            Lane::new(&mut reference, WORKERS),
            Lane::new(&mut traced, WORKERS),
        ];
        drive::run_lanes(&env, &schedule(), &mut lanes, &mut |ev: Event| {
            let mut t = trace.borrow_mut();
            match ev {
                Event::Stepped {
                    lane: 1,
                    round,
                    report,
                    span,
                    ..
                } => {
                    t.spans.record("round", span.0, span.1, Some(round as u64));
                    let ms = (span.1 - span.0).as_secs_f64() * 1e3;
                    replayer.round(
                        &env,
                        &cfg,
                        round,
                        ms,
                        report.round_time_s,
                        probe.take(),
                        &mut t,
                        checks,
                    );
                }
                Event::Membership {
                    lane: 1,
                    rank,
                    active,
                    ..
                } => {
                    replay::proto(&probe.take().frames, None, &mut t, checks);
                    let s = t.spans.open("core.membership", None);
                    let res = replayer.control.set_active(rank, active);
                    t.spans.close(s);
                    checks.check(res.is_ok(), || {
                        format!("fleet-wire: replayed membership {rank}: {res:?}")
                    });
                }
                Event::Evaluated { lane: 1, ms } => {
                    replay::proto(&probe.take().frames, None, &mut t, checks);
                    t.tally.push("eval_ms", ms);
                }
                _ => {}
            }
        });
        let [reference, traced] = lanes;
        checks.check(
            reference.log.trajectory() == traced.log.trajectory(),
            || "fleet-wire: the traced cluster's trajectory differs from the untraced one".into(),
        );
        for (name, lane, tap) in [
            ("untraced", &reference, &tap_ref),
            ("traced", &traced, &tap),
        ] {
            let data = tap.snapshot().data_bytes;
            checks.check(data == lane.traffic.grand_total_sent(), || {
                format!(
                    "fleet-wire ({name}): wire data bytes {data} != accountant worker-row bytes {}",
                    lane.traffic.grand_total_sent()
                )
            });
        }
        Traced {
            reference_ms: reference.log.round_ms.clone(),
            traced_ms: traced.log.round_ms.clone(),
            lanes: vec![traced.log],
        }
    }

    fn ledger(&self, trace: &Trace, m: &mut Metrics, _checks: &mut Checks) {
        ledger_common(trace, m);
        let t = &trace.tally;
        let step = t.sum("step_ms").max(f64::MIN_POSITIVE);
        let share = |k: &str| t.sum(k) / step;
        m.put("nn.sgd_share", share("nn_ms"), "share");
        m.put("layer.nn_share", share("nn_ms"), "share");
        m.put("layer.core_share", share("plan_ms"), "share");
        m.put("layer.compress_share", share("compress_ms"), "share");
        m.put("layer.netsim_share", share("price_ms"), "share");
        m.put("layer.proto_share", share("proto_ms"), "share");
        m.put(
            "layer.cluster_share",
            (t.sum("send_ms") + t.sum("recv_ms") + t.sum("node_self_ms")) / step,
            "share",
        );
        m.put(
            "cluster.node_self_ms",
            median(t.values("node_self_ms")),
            "ms",
        );
        m.put("nn.eval_ms", median(t.values("eval_ms")), "ms");
    }
}

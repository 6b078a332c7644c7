//! `baselines-dense`: the seven baselines under both drivers.
//!
//! PSGD, TopK-PSGD, FedAvg, S-FedAvg, D-PSGD, DCD-PSGD and RandomChoose
//! on CIFAR10-CNN (scaled) — a 67k-parameter MLP — with 16 workers,
//! `uniform_random` bandwidth and the fluid DES (5 ms latency,
//! contention). Each algorithm runs its schedule under the in-memory
//! driver and then under `BaselineClusterTrainer`; one worker leaves and
//! rejoins mid-run, which makes PSGD and TopK-PSGD resync it over the
//! chunked model plane. A few large dense frames per round, no matching.
//!
//! The traced run adds a second cluster lane over the
//! [`TimingTransport`] decorator, stepped in lockstep with the untraced
//! cluster, and replays its frames (`proto`) and data-plane transfer set
//! (`netsim`) after every call.

use crate::drive::{self, Env, Event, Lane, LaneLog, Schedule};
use crate::replay;
use crate::report::{median, Checks, Metrics};
use crate::trace::Trace;
use crate::wire::TimingTransport;
use crate::{ledger_common, Det, Episode, Traced, Workload, BASELINES};
use saps_bench::Workload as PaperWorkload;
use saps_cluster::{BaselineClusterTrainer, BaselineKind, LoopbackTransport, Transport, WireTap};
use saps_core::{zoo, AlgorithmSpec, BuildCtx, PartitionStrategy, TimeModel, Trainer};
use saps_data::Dataset;
use saps_netsim::to_mb;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 16;
const ROUNDS: usize = 6;
const CHURN_RANK: usize = WORKERS - 1;

/// The paper's baseline settings (Section IV-A) with compression scaled
/// to the model size, as `saps_bench::paper_lineup` does.
fn spec(key: &str, c_scale: f64) -> (AlgorithmSpec, BaselineKind) {
    let c = |v: f64| (v / c_scale).max(1.0);
    match key {
        "psgd" => (AlgorithmSpec::Psgd, BaselineKind::Psgd),
        "topk" => (
            AlgorithmSpec::TopK {
                compression: c(1000.0),
            },
            BaselineKind::TopK {
                compression: c(1000.0),
            },
        ),
        "fedavg" => (
            AlgorithmSpec::FedAvg {
                participation: 0.5,
                local_steps: 5,
            },
            BaselineKind::FedAvg {
                participation: 0.5,
                local_steps: 5,
            },
        ),
        "sfedavg" => (
            AlgorithmSpec::SFedAvg {
                participation: 0.5,
                local_steps: 5,
                compression: c(100.0),
            },
            BaselineKind::SFedAvg {
                participation: 0.5,
                local_steps: 5,
                compression: c(100.0),
            },
        ),
        "dpsgd" => (AlgorithmSpec::DPsgd, BaselineKind::DPsgd),
        "dcd" => {
            let dc = 4.0_f64.min(c(4.0)).max(1.5);
            (
                AlgorithmSpec::DcdPsgd { compression: dc },
                BaselineKind::DcdPsgd { compression: dc },
            )
        }
        "random" => (
            AlgorithmSpec::RandomChoose {
                compression: c(100.0),
            },
            BaselineKind::RandomChoose {
                compression: c(100.0),
            },
        ),
        other => unreachable!("unknown baseline {other}"),
    }
}

fn schedule() -> Schedule {
    Schedule {
        rounds: ROUNDS,
        eval_every: ROUNDS,
        events: zoo::flash_crowd(WORKERS, &[CHURN_RANK], ROUNDS / 3, 2 * ROUNDS / 3),
    }
}

struct Inputs {
    paper: PaperWorkload,
    parts: Vec<Dataset>,
    env: Env,
}

fn inputs(seed: u64) -> Inputs {
    let paper = PaperWorkload::cifar10_scaled();
    let (train, val) = paper.dataset(seed);
    let parts = PartitionStrategy::Iid.apply(&train, WORKERS, seed);
    let env = Env {
        bw: drive::network(WORKERS),
        time: TimeModel::event_driven(0.005),
        exec: drive::executor(),
        seed,
        eval_samples: val.len(),
        workers: WORKERS,
        mean_part: train.len() as f64 / WORKERS as f64,
        val,
    };
    Inputs { paper, parts, env }
}

impl Inputs {
    fn memory(&self, spec: &AlgorithmSpec) -> Box<dyn Trainer> {
        let factory = self.paper.factory();
        saps_baselines::registry()
            .build(
                spec,
                BuildCtx {
                    partitions: self.parts.clone(),
                    bw: &self.env.bw,
                    batch_size: self.paper.batch_size,
                    lr: self.paper.lr,
                    seed: self.env.seed,
                    factory: Arc::new(factory),
                },
            )
            .expect("valid baselines-dense spec")
    }

    fn cluster<T: Transport>(
        &self,
        kind: BaselineKind,
        transport: T,
        tap: WireTap,
    ) -> BaselineClusterTrainer<T> {
        BaselineClusterTrainer::with_transport(
            kind,
            self.parts.clone(),
            self.paper.factory(),
            self.env.seed,
            self.paper.batch_size,
            self.paper.lr,
            transport,
            tap,
        )
        .expect("valid baselines-dense spec")
        // Chunk-serving peers rank by the bandwidth matrix, as the
        // cluster registry builds them.
        .with_bandwidth(&self.env.bw)
    }
}

fn same_losses(key: &str, what: &str, a: &LaneLog, b: &LaneLog, checks: &mut Checks) {
    checks.check(
        a.loss_bits == b.loss_bits && a.eval_bits == b.eval_bits,
        || format!("baselines-dense {key}: {what} per-round loss or accuracy bits differ"),
    );
}

pub struct BaselinesDense;

impl Workload for BaselinesDense {
    fn episode(&mut self, seed: u64, checks: &mut Checks) -> Episode {
        let t0 = Instant::now();
        let inp = inputs(seed);
        let mut setup_s = t0.elapsed().as_secs_f64();
        let (env, sched) = (&inp.env, schedule());
        let mut lanes = Vec::new();
        let mut det = Det {
            final_val_acc: 0.0,
            modeled_time_s: 0.0,
            worker_mb: 0.0,
            wire_mb: 0.0,
        };
        for key in BASELINES {
            let (spec, kind) = spec(key, inp.paper.c_scale);

            let t0 = Instant::now();
            let mut mem = inp.memory(&spec);
            mem.evaluate(&env.val, env.eval_samples);
            setup_s += t0.elapsed().as_secs_f64();
            let mut run = [Lane::new(mem.as_mut(), WORKERS)];
            drive::run_lanes(env, &sched, &mut run, &mut drive::no_hook);
            let [mem_lane] = run;

            let t0 = Instant::now();
            let tap = WireTap::new();
            let mut clu = inp.cluster(kind, LoopbackTransport::new(tap.clone()), tap.clone());
            clu.evaluate(&env.val, env.eval_samples);
            setup_s += t0.elapsed().as_secs_f64();
            let mut run = [Lane::new(&mut clu, WORKERS)];
            drive::run_lanes(env, &sched, &mut run, &mut drive::no_hook);
            let [clu_lane] = run;

            same_losses(
                key,
                "memory vs cluster",
                &mem_lane.log,
                &clu_lane.log,
                checks,
            );
            det.final_val_acc += f64::from(mem_lane.log.final_acc) / BASELINES.len() as f64;
            for lane in [&mem_lane, &clu_lane] {
                det.modeled_time_s += lane.log.modeled_s;
                det.worker_mb += to_mb(lane.traffic.max_worker_total());
            }
            let wire = tap.snapshot();
            det.wire_mb += to_mb(wire.total_bytes);
            // Worker rows bill each payload's values once, at its sender.
            // Parameter-server downloads come from the server, which has
            // no worker row, so they show only in the receive rows.
            let t = &clu_lane.traffic;
            let mut rows = t.grand_total_sent();
            if matches!(
                kind,
                BaselineKind::FedAvg { .. } | BaselineKind::SFedAvg { .. }
            ) {
                rows += (0..WORKERS).map(|r| t.worker_recv(r)).sum::<u64>();
            }
            checks.check(wire.data_bytes == rows, || {
                format!(
                    "baselines-dense {key}: wire data bytes {} != accountant worker-row bytes {rows}",
                    wire.data_bytes
                )
            });
            lanes.push((format!("{key}/memory"), mem_lane.log));
            lanes.push((format!("{key}/cluster"), clu_lane.log));
        }
        Episode {
            setup_s,
            lanes,
            det,
        }
    }

    fn traced(&mut self, seed: u64, trace: &Rc<RefCell<Trace>>, checks: &mut Checks) -> Traced {
        let inp = inputs(seed);
        let (env, sched) = (&inp.env, schedule());
        let mut out = Traced {
            lanes: Vec::new(),
            reference_ms: Vec::new(),
            traced_ms: Vec::new(),
        };
        for key in BASELINES {
            let (spec, kind) = spec(key, inp.paper.c_scale);
            let mut mem = inp.memory(&spec);
            let mut run = [Lane::new(mem.as_mut(), WORKERS)];
            drive::run_lanes(env, &sched, &mut run, &mut drive::no_hook);
            let [mem_lane] = run;

            let tap_ref = WireTap::new();
            let mut reference = inp.cluster(kind, LoopbackTransport::new(tap_ref.clone()), tap_ref);
            let tap = WireTap::new();
            let (transport, probe) = TimingTransport::new(LoopbackTransport::new(tap.clone()));
            let mut traced = inp.cluster(kind, transport, tap);
            let mut run = [
                Lane::new(&mut reference, WORKERS),
                Lane::new(&mut traced, WORKERS),
            ];
            drive::run_lanes(env, &sched, &mut run, &mut |ev: Event| {
                let mut t = trace.borrow_mut();
                match ev {
                    Event::Stepped {
                        lane: 1,
                        round,
                        span,
                        ..
                    } => {
                        let r = Some(round as u64);
                        let wire = probe.take();
                        t.spans.record("round", span.0, span.1, r);
                        let root = t.spans.open("replay", r);
                        let proto_ms = replay::proto(&wire.frames, r, &mut t, checks);
                        let priced: Vec<(usize, usize, u64)> = wire
                            .transfers
                            .iter()
                            .map(|&(s, d, frame, _)| (s as usize, d as usize, frame))
                            .collect();
                        let (_, price_ms) = replay::price(&env.time, &env.bw, &priced, r, &mut t);
                        t.spans.close(root);
                        let c = wire.counters;
                        let step_ms = (span.1 - span.0).as_secs_f64() * 1e3;
                        let (send_ms, recv_ms) = (c.send_ns as f64 / 1e6, c.recv_ns as f64 / 1e6);
                        let tally = &mut t.tally;
                        tally.push("step_ms", step_ms);
                        tally.push("send_ms", send_ms);
                        tally.push("recv_ms", recv_ms);
                        tally.push("recv_calls", c.recv_calls as f64);
                        tally.push("recv_hits", c.recv_hits as f64);
                        tally.push("proto_ms", proto_ms);
                        tally.push("price_ms", price_ms);
                    }
                    Event::Membership {
                        lane: 1,
                        active,
                        ms,
                        ..
                    } => {
                        replay::proto(&probe.take().frames, None, &mut t, checks);
                        if active && matches!(key, "psgd" | "topk") {
                            t.tally.push("resync_ms", ms);
                        }
                    }
                    Event::Evaluated { lane: 1, .. } => {
                        replay::proto(&probe.take().frames, None, &mut t, checks);
                    }
                    _ => {}
                }
            });
            let [reference, traced] = run;
            same_losses(
                key,
                "memory vs cluster",
                &mem_lane.log,
                &reference.log,
                checks,
            );
            same_losses(
                key,
                "untraced vs traced cluster",
                &reference.log,
                &traced.log,
                checks,
            );
            let mut t = trace.borrow_mut();
            t.tally
                .push(&format!("mem_ms.{key}"), median(&mem_lane.log.round_ms));
            t.tally
                .push(&format!("clu_ms.{key}"), median(&reference.log.round_ms));
            for ms in &mem_lane.log.eval_ms {
                t.tally.push("eval_ms", *ms);
            }
            out.reference_ms.extend(&reference.log.round_ms);
            out.traced_ms.extend(&traced.log.round_ms);
            out.lanes.push(mem_lane.log);
            out.lanes.push(traced.log);
        }
        out
    }

    fn ledger(&self, trace: &Trace, m: &mut Metrics, _checks: &mut Checks) {
        ledger_common(trace, m);
        let t = &trace.tally;
        for key in BASELINES {
            let mem = median(t.values(&format!("mem_ms.{key}")));
            let clu = median(t.values(&format!("clu_ms.{key}")));
            m.put(format!("baselines.step_ms.{key}"), mem, "ms");
            m.put(format!("cluster.step_ms.{key}"), clu, "ms");
            m.put(
                format!("cluster.overhead_ratio.{key}"),
                clu / mem.max(f64::MIN_POSITIVE),
                "ratio",
            );
        }
        m.put("cluster.resync_ms", median(t.values("resync_ms")), "ms");
        m.put("nn.eval_ms", median(t.values("eval_ms")), "ms");
        // Shares of the traced cluster step. The baselines' arithmetic
        // is not replayed, so it is represented by the same algorithm's
        // in-memory step, and the cluster share counts only transport
        // time: the shares need not add up to 1 here.
        let clu: f64 = BASELINES
            .iter()
            .map(|k| t.sum(&format!("clu_ms.{k}")))
            .sum();
        let mem: f64 = BASELINES
            .iter()
            .map(|k| t.sum(&format!("mem_ms.{k}")))
            .sum();
        let step = t.sum("step_ms").max(f64::MIN_POSITIVE);
        m.put(
            "layer.baselines_share",
            mem / clu.max(f64::MIN_POSITIVE),
            "share",
        );
        m.put("layer.proto_share", t.sum("proto_ms") / step, "share");
        m.put("layer.netsim_share", t.sum("price_ms") / step, "share");
        m.put(
            "layer.cluster_share",
            (t.sum("send_ms") + t.sum("recv_ms")) / step,
            "share",
        );
    }
}

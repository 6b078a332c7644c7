//! Replays of a traced cluster round's own inputs, timed layer by layer.
//!
//! The cluster drivers encode, decode, plan and price inside one
//! `Trainer::step` call that the benchmark can only time as a whole. The
//! traced run therefore re-runs those layers on exactly what the round
//! used: every frame the [`crate::wire::TimingTransport`] forwarded is
//! decoded and re-encoded (`proto`), which must reproduce it byte for
//! byte; and the round's data-plane transfer set is priced again under
//! the workload's time model (`netsim`).

use crate::report::Checks;
use crate::trace::Trace;
use bytes::Bytes;
use saps_core::{RoundTiming, TimeModel};
use saps_netsim::BandwidthMatrix;
use saps_proto::{frame, Message, TrafficClass};

/// Decodes and re-encodes `frames` under one `proto.decode` and one
/// `proto.encode` span, tallying frames and bytes per traffic class.
/// Returns the two spans' summed wall time in ms.
pub fn proto(frames: &[Bytes], round: Option<u64>, trace: &mut Trace, checks: &mut Checks) -> f64 {
    let Trace { spans, tally } = trace;
    for f in frames {
        let class = frame::peek(f)
            .ok()
            .flatten()
            .and_then(|info| Message::traffic_class_of(info.tag));
        let key = match class {
            Some(TrafficClass::DataPlane) => "data",
            Some(TrafficClass::ModelPlane) => "model",
            _ => "control",
        };
        let (frames_key, bytes_key) = match key {
            "data" => ("proto.frames.data", "proto.bytes.data"),
            "model" => ("proto.frames.model", "proto.bytes.model"),
            _ => ("proto.frames.control", "proto.bytes.control"),
        };
        tally.push(frames_key, 1.0);
        tally.push(bytes_key, f.len() as f64);
    }
    let kb = frames.iter().map(|f| f.len()).sum::<usize>() as f64 / 1024.0;
    tally.push("proto.kb", kb);

    let dec = spans.open("proto.decode", round);
    let decoded: Vec<Result<Message, _>> = frames.iter().map(|f| frame::decode(f)).collect();
    spans.close(dec);
    let enc = spans.open("proto.encode", round);
    let encoded: Vec<Option<Bytes>> = decoded
        .iter()
        .map(|m| m.as_ref().ok().map(frame::encode))
        .collect();
    spans.close(enc);

    let bad = frames
        .iter()
        .zip(&encoded)
        .position(|(f, e)| e.as_ref() != Some(f));
    checks.check(bad.is_none(), || {
        let i = bad.unwrap_or_default();
        match &decoded[i] {
            Err(err) => format!("round {round:?}: captured frame {i} does not decode: {err}"),
            Ok(m) => format!(
                "round {round:?}: frame {i} ({}) re-encodes to different bytes",
                m.label()
            ),
        }
    });
    spans.ms(dec) + spans.ms(enc)
}

/// Prices `transfers` as one round of concurrent pairwise flows under a
/// `netsim.price` span. Returns the timing and the span's wall time in ms.
pub fn price(
    time: &TimeModel,
    bw: &BandwidthMatrix,
    transfers: &[(usize, usize, u64)],
    round: Option<u64>,
    trace: &mut Trace,
) -> (RoundTiming, f64) {
    let s = trace.spans.open("netsim.price", round);
    let timing = time.price_p2p(bw, transfers, &[]);
    trace.spans.close(s);
    let ms = trace.spans.ms(s);
    trace.tally.push("netsim.flows", transfers.len() as f64);
    trace.tally.push(
        "netsim.retransmit_segments",
        timing.retransmit_segments as f64,
    );
    (timing, ms)
}

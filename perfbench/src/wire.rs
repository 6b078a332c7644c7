//! A timing [`Transport`] decorator for the traced cluster runs.
//!
//! It wraps any transport (the benchmark wraps
//! [`saps_cluster::LoopbackTransport`]) and, per call, counts sends,
//! receives and empty polls, framed bytes and the wall time spent inside
//! the wrapped transport. It also keeps every frame it forwarded so the
//! traced run can replay the round's proto work, and meters the frames
//! into a private [`WireTap`] whose transfer log gives the round's
//! data-plane transfer set. Frames pass through untouched, so a cluster
//! driven through the decorator trains bit-identically to one without it.

use bytes::Bytes;
use saps_cluster::{Addr, ClusterError, Transport, WireTap, WireTransfer};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Per-call counters accumulated since the last [`WireProbe::take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCounters {
    pub send_calls: u64,
    pub recv_calls: u64,
    /// Receives that returned a frame.
    pub recv_hits: u64,
    pub bytes_sent: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
}

/// What one round put through the decorator.
#[derive(Debug, Default)]
pub struct WireRound {
    pub counters: WireCounters,
    /// Every frame sent, in send order.
    pub frames: Vec<Bytes>,
    /// Worker-to-worker data-plane transfers `(src, dst, frame, values)`.
    pub transfers: Vec<WireTransfer>,
}

#[derive(Debug, Default)]
struct ProbeInner {
    counters: WireCounters,
    frames: Vec<Bytes>,
}

/// The shared handle the benchmark reads the decorator through.
#[derive(Debug, Clone, Default)]
pub struct WireProbe {
    inner: Arc<Mutex<ProbeInner>>,
    tap: WireTap,
}

impl WireProbe {
    fn lock(&self) -> MutexGuard<'_, ProbeInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Drains everything recorded since the last call.
    pub fn take(&self) -> WireRound {
        let mut g = self.lock();
        WireRound {
            counters: std::mem::take(&mut g.counters),
            frames: std::mem::take(&mut g.frames),
            transfers: self.tap.take_transfers(),
        }
    }
}

/// The decorator itself.
#[derive(Debug)]
pub struct TimingTransport<T: Transport> {
    inner: T,
    probe: WireProbe,
}

impl<T: Transport> TimingTransport<T> {
    /// Wraps `inner`; read what it records through the returned probe.
    pub fn new(inner: T) -> (Self, WireProbe) {
        let probe = WireProbe::default();
        (
            TimingTransport {
                inner,
                probe: probe.clone(),
            },
            probe,
        )
    }
}

impl<T: Transport> Transport for TimingTransport<T> {
    fn send(&mut self, from: Addr, to: Addr, frame: Bytes) -> Result<(), ClusterError> {
        let keep = frame.clone();
        let t0 = Instant::now();
        let res = self.inner.send(from, to, frame);
        let dt = t0.elapsed().as_nanos() as u64;
        self.probe.tap.record(from, to, &keep);
        let mut g = self.probe.lock();
        g.counters.send_calls += 1;
        g.counters.send_ns += dt;
        g.counters.bytes_sent += keep.len() as u64;
        g.frames.push(keep);
        res
    }

    fn recv(&mut self, at: Addr) -> Result<Option<(Addr, Bytes)>, ClusterError> {
        let t0 = Instant::now();
        let res = self.inner.recv(at);
        let dt = t0.elapsed().as_nanos() as u64;
        let mut g = self.probe.lock();
        g.counters.recv_calls += 1;
        g.counters.recv_ns += dt;
        if matches!(res, Ok(Some(_))) {
            g.counters.recv_hits += 1;
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_cluster::LoopbackTransport;
    use saps_proto::{frame, Message};

    #[test]
    fn forwards_frames_and_counts_calls() {
        let (mut t, probe) = TimingTransport::new(LoopbackTransport::new(WireTap::new()));
        let f = frame::encode(&Message::MaskedPayload {
            round: 0,
            values: vec![1.0; 4],
        });
        t.send(Addr::Worker(0), Addr::Worker(1), f.clone()).unwrap();
        assert_eq!(
            t.recv(Addr::Worker(1)).unwrap(),
            Some((Addr::Worker(0), f.clone()))
        );
        assert_eq!(t.recv(Addr::Worker(1)).unwrap(), None);
        let round = probe.take();
        assert_eq!(round.counters.send_calls, 1);
        assert_eq!(round.counters.recv_calls, 2);
        assert_eq!(round.counters.recv_hits, 1);
        assert_eq!(round.counters.bytes_sent, f.len() as u64);
        assert_eq!(round.frames, vec![f.clone()]);
        assert_eq!(round.transfers, vec![(0, 1, f.len() as u64, 16)]);
        assert!(probe.take().frames.is_empty());
    }
}

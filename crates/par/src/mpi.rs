//! An in-process message-passing runtime (the MPI analogue, Figs. 5–6).
//!
//! Ranks run as OS threads; every ordered pair of ranks is connected by an
//! unbounded byte channel, and payloads are *serialized to bytes* on send —
//! so communication volume is real and counted, which is what the
//! [`crate::machine`] simulator's communication model is calibrated from.
//! The paper's own distributed-memory results were produced the same way:
//! "the distributed memory behavior is simulated by the operating system
//! through MPI on a 2-processor-12-core machine" (§5.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

use crate::error::ParError;

/// A communicator endpoint owned by one rank.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Vec<u8>>>,
    receivers: Vec<Receiver<Vec<u8>>>,
    barrier: Arc<Barrier>,
    bytes_sent: Arc<AtomicU64>,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm").field("rank", &self.rank).field("size", &self.size).finish()
    }
}

impl Comm {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Total bytes sent by *all* ranks so far (monotone counter shared by
    /// the universe) — the raw input to the communication-cost model.
    pub fn universe_bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Sends a byte payload to `dst`.
    ///
    /// # Errors
    ///
    /// * [`ParError::RankOutOfRange`] for an invalid destination;
    /// * [`ParError::Disconnected`] if the destination already exited.
    pub fn send_bytes(&self, dst: usize, payload: Vec<u8>) -> Result<(), ParError> {
        if dst >= self.size {
            return Err(ParError::RankOutOfRange { rank: dst, size: self.size });
        }
        self.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.senders[dst].send(payload).map_err(|_| ParError::Disconnected { peer: dst })
    }

    /// Blocking receive of the next payload sent by `src`.
    ///
    /// # Errors
    ///
    /// * [`ParError::RankOutOfRange`] for an invalid source;
    /// * [`ParError::Disconnected`] if the source exited without sending.
    pub fn recv_bytes(&self, src: usize) -> Result<Vec<u8>, ParError> {
        if src >= self.size {
            return Err(ParError::RankOutOfRange { rank: src, size: self.size });
        }
        self.receivers[src].recv().map_err(|_| ParError::Disconnected { peer: src })
    }

    /// Sends a slice of f64 values (little-endian encoded).
    ///
    /// # Errors
    ///
    /// Same as [`Comm::send_bytes`].
    pub fn send_f64s(&self, dst: usize, values: &[f64]) -> Result<(), ParError> {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.send_bytes(dst, bytes)
    }

    /// Receives a slice of f64 values from `src`.
    ///
    /// # Errors
    ///
    /// * the errors of [`Comm::recv_bytes`];
    /// * [`ParError::MalformedMessage`] if the payload is not a whole
    ///   number of f64 values.
    pub fn recv_f64s(&self, src: usize) -> Result<Vec<f64>, ParError> {
        let bytes = self.recv_bytes(src)?;
        if bytes.len() % 8 != 0 {
            return Err(ParError::MalformedMessage {
                detail: format!("payload of {} bytes is not f64-aligned", bytes.len()),
            });
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Synchronizes all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// The set of ranks. [`Universe::run`] spawns one thread per rank and
/// returns each rank's result, ordered by rank.
#[derive(Debug, Clone, Copy)]
pub struct Universe;

impl Universe {
    /// Runs `f` on `size` ranks and collects their results in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or if any rank panics.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        assert!(size > 0, "universe needs at least one rank");
        // Build the size×size channel mesh.
        let mut txs: Vec<Vec<Option<Sender<Vec<u8>>>>> = Vec::new();
        let mut rxs: Vec<Vec<Option<Receiver<Vec<u8>>>>> = Vec::new();
        for _ in 0..size {
            txs.push((0..size).map(|_| None).collect());
            rxs.push((0..size).map(|_| None).collect());
        }
        for s in 0..size {
            for d in 0..size {
                let (tx, rx) = channel();
                txs[s][d] = Some(tx);
                rxs[d][s] = Some(rx);
            }
        }
        let barrier = Arc::new(Barrier::new(size));
        let bytes_sent = Arc::new(AtomicU64::new(0));
        let mut comms: Vec<Comm> = Vec::with_capacity(size);
        for (rank, (tx_row, rx_row)) in txs.into_iter().zip(rxs).enumerate() {
            comms.push(Comm {
                rank,
                size,
                senders: tx_row.into_iter().map(|t| t.expect("mesh built")).collect(),
                receivers: rx_row.into_iter().map(|r| r.expect("mesh built")).collect(),
                barrier: Arc::clone(&barrier),
                bytes_sent: Arc::clone(&bytes_sent),
            });
        }
        std::thread::scope(|scope| {
            let f = &f;
            // Spawn every rank before joining any, then join in rank order.
            let handles: Vec<_> =
                comms.into_iter().map(|comm| scope.spawn(move || f(comm))).collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = Universe::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_f64s(next, &[comm.rank() as f64]).unwrap();
            let got = comm.recv_f64s(prev).unwrap();
            got[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn gather_to_root() {
        let results = Universe::run(5, |comm| {
            if comm.rank() == 0 {
                let mut total = 0.0;
                for src in 1..comm.size() {
                    total += comm.recv_f64s(src).unwrap().iter().sum::<f64>();
                }
                total
            } else {
                let data: Vec<f64> = (0..comm.rank()).map(|i| i as f64 + 1.0).collect();
                comm.send_f64s(0, &data).unwrap();
                0.0
            }
        });
        // Σ over ranks 1..5 of Σ 1..=rank = 1 + 3 + 6 + 10 = 20
        assert_eq!(results[0], 20.0);
    }

    #[test]
    fn byte_accounting() {
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_f64s(1, &[1.0; 100]).unwrap();
            } else {
                let _ = comm.recv_f64s(0).unwrap();
            }
            comm.barrier();
            comm.universe_bytes_sent()
        });
        assert_eq!(results[0], 800);
        assert_eq!(results[1], 800);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Universe::run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn rank_errors() {
        Universe::run(2, |comm| {
            assert!(matches!(
                comm.send_bytes(9, vec![]),
                Err(ParError::RankOutOfRange { rank: 9, size: 2 })
            ));
            assert!(comm.recv_bytes(9).is_err());
        });
    }

    #[test]
    fn malformed_f64_payload() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, vec![1, 2, 3]).unwrap();
            } else {
                assert!(matches!(comm.recv_f64s(0), Err(ParError::MalformedMessage { .. })));
            }
        });
    }

    #[test]
    fn self_send_works() {
        Universe::run(1, |comm| {
            comm.send_f64s(0, &[42.0]).unwrap();
            assert_eq!(comm.recv_f64s(0).unwrap(), vec![42.0]);
        });
    }
}

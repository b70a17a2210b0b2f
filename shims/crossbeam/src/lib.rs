//! Offline stand-in for the `crossbeam` crate.
//!
//! One subset is provided: `channel`, used by the threaded transport and
//! implemented over `std::sync::mpsc`. Semantics relied upon by
//! `sedna-net::threaded` — unbounded FIFO per sender, `recv_timeout`,
//! `try_iter`, send-to-closed returns `Err` — all hold for std channels.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};

    /// Creates an unbounded MPSC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn roundtrip_and_timeout() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_iter_drains() {
        let (tx, rx) = unbounded();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}

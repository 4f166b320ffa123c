//! Offline stand-in for the two `crossbeam` pieces the workspace uses
//! (`channel::bounded` and `queue::SegQueue`), for the hermetic
//! `oe-e2e` benchmark build. Mutex + condvar, no spinning.

pub mod queue {
    use std::collections::VecDeque;
    use std::sync::{Mutex, PoisonError};

    /// Unbounded MPMC FIFO.
    #[derive(Debug)]
    pub struct SegQueue<T>(Mutex<VecDeque<T>>);

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> SegQueue<T> {
        pub const fn new() -> Self {
            SegQueue(Mutex::new(VecDeque::new()))
        }

        pub fn push(&self, v: T) {
            self.guard().push_back(v);
        }

        pub fn pop(&self) -> Option<T> {
            self.guard().pop_front()
        }

        pub fn len(&self) -> usize {
            self.guard().len()
        }

        pub fn is_empty(&self) -> bool {
            self.guard().is_empty()
        }

        fn guard(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        buf: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn guard(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Chan<T>>);
    pub struct Receiver<T>(Arc<Chan<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum SendTimeoutError<T> {
        Timeout(T),
        Disconnected(T),
    }
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("Timeout(..)"),
                SendTimeoutError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// A channel holding at most `cap` messages (`cap` 0 is served as 1:
    /// the workspace never asks for a rendezvous channel).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(cap.max(1))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(usize::MAX)
    }

    fn with_cap<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                buf: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    impl<T> Sender<T> {
        pub fn send(&self, v: T) -> Result<(), SendError<T>> {
            match self.send_until(v, None) {
                Ok(()) => Ok(()),
                Err(SendTimeoutError::Timeout(v)) | Err(SendTimeoutError::Disconnected(v)) => {
                    Err(SendError(v))
                }
            }
        }

        pub fn send_timeout(&self, v: T, limit: Duration) -> Result<(), SendTimeoutError<T>> {
            self.send_until(v, Some(Instant::now() + limit))
        }

        fn send_until(&self, v: T, until: Option<Instant>) -> Result<(), SendTimeoutError<T>> {
            let mut s = self.0.guard();
            loop {
                if s.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(v));
                }
                if s.buf.len() < s.cap {
                    s.buf.push_back(v);
                    drop(s);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                s = match until {
                    None => self.0.not_full.wait(s).unwrap_or_else(PoisonError::into_inner),
                    Some(t) => {
                        let now = Instant::now();
                        if now >= t {
                            return Err(SendTimeoutError::Timeout(v));
                        }
                        self.0
                            .not_full
                            .wait_timeout(s, t - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        pub fn recv_timeout(&self, limit: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(Instant::now() + limit))
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut s = self.0.guard();
            match s.buf.pop_front() {
                Some(v) => {
                    drop(s);
                    self.0.not_full.notify_one();
                    Ok(v)
                }
                None if s.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        fn recv_until(&self, until: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut s = self.0.guard();
            loop {
                if let Some(v) = s.buf.pop_front() {
                    drop(s);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                s = match until {
                    None => self.0.not_empty.wait(s).unwrap_or_else(PoisonError::into_inner),
                    Some(t) => {
                        let now = Instant::now();
                        if now >= t {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        self.0
                            .not_empty
                            .wait_timeout(s, t - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.guard().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.guard().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self.0.guard();
            s.senders -= 1;
            if s.senders == 0 {
                drop(s);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut s = self.0.guard();
            s.receivers -= 1;
            if s.receivers == 0 {
                drop(s);
                self.0.not_full.notify_all();
            }
        }
    }
}

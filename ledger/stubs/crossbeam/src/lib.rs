//! Offline stand-in for the subset of `crossbeam` this repository
//! uses: `channel::{bounded, unbounded}` multi-producer multi-consumer
//! queues. One mutex-guarded `VecDeque` and two condition variables,
//! so it is slower under contention than the published lock-free
//! channel; the benchmark's numbers are the stand-in's.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// `None` is unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Chan<T>>);
    pub struct Receiver<T>(Arc<Chan<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> SendError<T> {
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    /// A channel holding at most `cap` messages. The published crate
    /// makes capacity 0 a rendezvous; this stand-in rounds it up to 1,
    /// which no non-test code in the repository depends on.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if self.0.cap.map_or(true, |c| st.queue.len() < c) {
                    st.queue.push_back(msg);
                    drop(st);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                st = self
                    .0
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.0.cap.is_some_and(|c| st.queue.len() >= c) {
                return Err(TrySendError::Full(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Takes the head of the queue and wakes one blocked sender.
        fn pop(&self, st: &mut MutexGuard<'_, State<T>>) -> Option<T> {
            let msg = st.queue.pop_front()?;
            if self.0.cap.is_some() {
                self.0.not_full.notify_one();
            }
            Some(msg)
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(msg) = self.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match self.pop(&mut st) {
                Some(msg) => Ok(msg),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(msg) = self.pop(&mut st) {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .0
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator that ends when every sender is gone.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.0.not_full.notify_all();
            }
        }
    }
}

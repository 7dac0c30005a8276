//! A one-way stop flag for the service's sleeping liveness loops — the
//! coordinator's heartbeat sweeper and the worker's heartbeat sender.
//! Raising it ends their sleep at once, so a finished session does not
//! wait out the rest of a heartbeat tick before it can return.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
pub(crate) struct StopFlag {
    raised: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl StopFlag {
    /// Whether the flag has been raised.
    pub(crate) fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the flag and wakes every sleeper.
    pub(crate) fn raise(&self) {
        self.raised.store(true, Ordering::SeqCst);
        // Notifying under the lock orders the wake-up after any sleeper's
        // check of the flag, so none can miss it.
        let _guard = self.lock.lock().expect("stop flag poisoned");
        self.wake.notify_all();
    }

    /// Sleeps for `timeout`, or until the flag is raised if that comes
    /// first. Returns whether the flag is raised.
    pub(crate) fn sleep(&self, timeout: Duration) -> bool {
        let guard = self.lock.lock().expect("stop flag poisoned");
        drop(
            self.wake
                .wait_timeout_while(guard, timeout, |()| !self.is_raised())
                .expect("stop flag poisoned"),
        );
        self.is_raised()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test measures that a raised flag cuts a 60 s sleep short"
    )]
    fn raising_wakes_a_long_sleep_at_once() {
        let flag = Arc::new(StopFlag::default());
        assert!(!flag.sleep(Duration::from_millis(1)), "times out unraised");
        let sleeper = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                (flag.sleep(Duration::from_secs(60)), t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        flag.raise();
        let (raised, slept) = sleeper.join().unwrap();
        assert!(raised);
        assert!(slept < Duration::from_secs(10), "slept {slept:?}");
        assert!(
            flag.sleep(Duration::from_secs(60)),
            "a raised flag never sleeps"
        );
    }
}

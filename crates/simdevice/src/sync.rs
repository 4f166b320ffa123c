//! The workspace's locks: `std::sync` with poisoning absorbed here, once.
//!
//! A thread that panics under a guard already fails its test or takes
//! its server worker down with a message of its own; turning every later
//! `lock()` on the same structure into a second, unrelated panic only
//! buries that message. So `lock` / `read` / `write` hand back the guard
//! whether or not a previous holder panicked, and no call site sees a
//! `LockResult`.

use std::sync::{self, PoisonError};

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion; `lock` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(v: T) -> Self {
        Mutex(sync::Mutex::new(v))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reader-writer lock; `read` and `write` cannot fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(v: T) -> Self {
        RwLock(sync::RwLock::new(v))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_the_guard_does_not_wedge_later_callers() {
        let m = Arc::new(Mutex::new(1u32));
        let rw = Arc::new(RwLock::new(1u32));
        let (m2, rw2) = (m.clone(), rw.clone());
        let _ = std::thread::spawn(move || {
            let _a = m2.lock();
            let _b = rw2.write();
            panic!("poison both");
        })
        .join();
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
    }
}

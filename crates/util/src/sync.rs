//! One poison-tolerant mutex lock for the workspace.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex whether or not a thread panicked while holding it.
///
/// For critical sections that are a handful of field assignments or one
/// collection push — nothing that can unwind half-done — so the data behind
/// a poisoned lock is still valid and a panic elsewhere must not turn every
/// later lock into a second panic.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_mutex_still_locks() {
        let m = Arc::new(Mutex::new(7));
        let held = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = held.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }
}

//! The workspace's one parallel primitive: a deterministic fork-join map on
//! `std::thread::scope`. Its callers are the root-parallel ordering-search
//! streams and [`crate::PlanningSession::plan_many`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `f(0) .. f(n - 1)` on up to `threads` scoped worker threads and
/// returns the results **in index order**. The index → thread assignment
/// is work-stealing (an atomic counter) and deliberately irrelevant to the
/// output: callers pass pure functions of the index, so the returned
/// vector is identical no matter which thread ran which task. With one
/// effective thread (or one task) everything runs inline, no threads
/// spawned.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub(crate) fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                // Each index is claimed by exactly one thread, so the slot
                // is always empty here.
                let _ = slots[index].set(f(index));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index reports a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_at_any_thread_count() {
        let square = |i: usize| i * i;
        let expected: Vec<usize> = (0..37).map(square).collect();
        for threads in [1usize, 2, 5, 64] {
            assert_eq!(parallel_map_indexed(37, threads, square), expected);
        }
        assert_eq!(parallel_map_indexed(0, 4, square), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(1, 4, square), vec![0]);
    }
}

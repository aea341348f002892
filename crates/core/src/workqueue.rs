//! The classic workqueue scheduler (Cirne et al. \[6\]).
//!
//! "One example of the worker-centric scheduling is the traditional
//! workqueue algorithm, which dispatches a task in FIFO order to an idle
//! worker" (§2.3). Workqueue ignores data location entirely — it is the
//! no-locality control in ablations.

use std::collections::VecDeque;
use std::sync::Arc;

use gridsched_storage::SiteStore;
use gridsched_workload::{TaskId, Workload};

use crate::ids::WorkerId;
use crate::scheduler::{Assignment, CompletionOutcome, Scheduler};

/// FIFO pull scheduler.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gridsched_core::{Scheduler, Workqueue};
/// use gridsched_workload::coadd::CoaddConfig;
///
/// let wl = Arc::new(CoaddConfig::small(0).generate());
/// let sched = Workqueue::new(wl);
/// assert_eq!(sched.name(), "workqueue");
/// ```
#[derive(Debug)]
pub struct Workqueue {
    queue: VecDeque<TaskId>,
    total: usize,
    completed: usize,
}

impl Workqueue {
    /// Creates a workqueue over `workload`, dispensing tasks in id order.
    #[must_use]
    pub fn new(workload: Arc<Workload>) -> Self {
        let total = workload.task_count();
        Workqueue {
            queue: (0..total as u32).map(TaskId).collect(),
            total,
            completed: 0,
        }
    }
}

impl Scheduler for Workqueue {
    fn name(&self) -> String {
        "workqueue".to_string()
    }

    fn on_worker_idle(&mut self, _worker: WorkerId, _store: &SiteStore) -> Assignment {
        match self.queue.pop_front() {
            Some(t) => Assignment::Run(t),
            None => Assignment::Finished,
        }
    }

    fn on_task_complete(&mut self, _worker: WorkerId, _task: TaskId) -> CompletionOutcome {
        self.completed += 1;
        CompletionOutcome::default()
    }

    fn on_worker_lost(&mut self, _worker: WorkerId, in_flight: Option<TaskId>) -> bool {
        // FIFO semantics: the lost task goes back to the head so it is
        // retried before untouched work.
        match in_flight {
            Some(task) => {
                self.queue.push_front(task);
                true
            }
            None => false,
        }
    }

    fn unfinished(&self) -> usize {
        self.total - self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SiteId;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::coadd::CoaddConfig;

    #[test]
    fn fifo_order() {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let mut q = Workqueue::new(wl);
        let store = SiteStore::new(10, EvictionPolicy::Lru);
        let w = WorkerId::new(SiteId(0), 0);
        for expect in 0..5u32 {
            match q.on_worker_idle(w, &store) {
                Assignment::Run(t) => assert_eq!(t, TaskId(expect)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn finishes_when_drained() {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let n = wl.task_count();
        let mut q = Workqueue::new(wl);
        let store = SiteStore::new(10, EvictionPolicy::Lru);
        let w = WorkerId::new(SiteId(0), 0);
        for _ in 0..n {
            match q.on_worker_idle(w, &store) {
                Assignment::Run(t) => {
                    q.on_task_complete(w, t);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(q.on_worker_idle(w, &store), Assignment::Finished);
        assert_eq!(q.unfinished(), 0);
    }
}

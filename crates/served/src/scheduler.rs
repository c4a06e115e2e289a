//! Admission-controlled job queue with per-tenant quotas and same-shape
//! batching.
//!
//! One `SchedulerState` is shared by every solver-group leader: leaders
//! block in [`SchedulerState::next_batch`], and whichever leader wins the
//! lock claims the head-of-line job plus up to `max_batch - 1` queued
//! jobs with the same [`BatchKey`] — those share one distributed Hamiltonian
//! build. Jobs carrying a fault plan are always claimed solo so an injected
//! fault can never ride along with another tenant's work. A claim changes
//! no job: every job of a batch runs the solver its spec carries.
//!
//! A claimed batch is finished by the group that claimed it, and a failed
//! build fails its jobs there, so a job never re-enters the queue.

use crate::job::{AdmissionError, JobCore};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct QueueInner {
    queue: VecDeque<Arc<JobCore>>,
    shutdown: bool,
}

/// Shared scheduler core: the admission queue plus its quota knobs.
pub(crate) struct SchedulerState {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    /// Max jobs one tenant may have queued at once.
    pub max_queued_per_tenant: usize,
    /// Max jobs queued across all tenants.
    pub queue_capacity: usize,
    /// Max same-shape jobs per shared-build batch.
    pub max_batch: usize,
}

impl SchedulerState {
    pub fn new(max_queued_per_tenant: usize, queue_capacity: usize, max_batch: usize) -> Self {
        SchedulerState {
            inner: Mutex::new(QueueInner { queue: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            max_queued_per_tenant,
            queue_capacity,
            max_batch: max_batch.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit `core` to the queue, enforcing shutdown, global capacity, and
    /// the per-tenant quota (in that order).
    pub fn submit(&self, core: Arc<JobCore>) -> Result<(), AdmissionError> {
        let mut g = self.lock();
        if g.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        if g.queue.len() >= self.queue_capacity {
            return Err(AdmissionError::QueueFull { limit: self.queue_capacity });
        }
        let tenant = core.spec.tenant;
        let queued = g.queue.iter().filter(|j| j.spec.tenant == tenant).count();
        if queued >= self.max_queued_per_tenant {
            return Err(AdmissionError::TenantQueueFull {
                tenant,
                limit: self.max_queued_per_tenant,
            });
        }
        g.queue.push_back(core);
        drop(g);
        self.cv.notify_all();
        Ok(())
    }

    /// Block until work is available, then claim the head-of-line job plus
    /// every queued same-key batchable twin (up to `max_batch`). Returns
    /// `None` once the service is shut down *and* the queue is drained —
    /// shutdown is graceful; admitted jobs still run.
    pub fn next_batch(&self) -> Option<Vec<Arc<JobCore>>> {
        let mut g = self.lock();
        loop {
            if let Some(head) = g.queue.pop_front() {
                let mut batch = vec![head];
                // A head with a fault plan runs alone; otherwise absorb
                // queued batchable twins so the whole batch shares one
                // Hamiltonian build.
                if batch[0].batchable() {
                    let key = batch[0].key;
                    let mut i = 0;
                    while i < g.queue.len() && batch.len() < self.max_batch {
                        let j = &g.queue[i];
                        if j.key == key && j.batchable() {
                            batch.push(g.queue.remove(i).expect("index in range"));
                        } else {
                            i += 1;
                        }
                    }
                }
                return Some(batch);
            }

            if g.shutdown {
                return None;
            }
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Refuse new work and wake every blocked leader. Already-queued jobs
    /// still execute (graceful drain).
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, TenantId};
    use lrtddft::synthetic_problem;
    use std::sync::atomic::Ordering;

    fn sched(max_per_tenant: usize, capacity: usize, max_batch: usize) -> SchedulerState {
        SchedulerState::new(max_per_tenant, capacity, max_batch)
    }

    fn spec(tenant: TenantId, n_c: usize) -> JobSpec {
        JobSpec::new(tenant, Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, n_c)))
    }

    #[test]
    fn quota_and_capacity_are_enforced() {
        let s = sched(2, 3, 8);
        assert!(s.submit(JobCore::new(spec(1, 2))).is_ok());
        assert!(s.submit(JobCore::new(spec(1, 2))).is_ok());
        assert_eq!(
            s.submit(JobCore::new(spec(1, 2))),
            Err(AdmissionError::TenantQueueFull { tenant: 1, limit: 2 })
        );
        assert!(s.submit(JobCore::new(spec(2, 2))).is_ok()); // other tenant fine
        assert_eq!(
            s.submit(JobCore::new(spec(3, 2))),
            Err(AdmissionError::QueueFull { limit: 3 })
        );
        // Exactly the three admitted jobs are queued (one key, one claim).
        assert_eq!(s.next_batch().unwrap().len(), 3);
    }

    #[test]
    fn next_batch_groups_same_key_jobs_and_leaves_others() {
        let s = sched(8, 64, 8);
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        s.submit(JobCore::new(spec(2, 3))).unwrap(); // different structure
        s.submit(JobCore::new(spec(3, 2))).unwrap(); // same key as head
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].spec.tenant, 1);
        assert_eq!(batch[1].spec.tenant, 3);
        assert!(batch.iter().all(|j| j.key == batch[0].key));
        // The mismatched job is untouched and next in line.
        let rest = s.next_batch().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].spec.tenant, 2);
    }

    #[test]
    fn max_batch_caps_the_claim() {
        let s = sched(64, 64, 2);
        for t in 0..4 {
            s.submit(JobCore::new(spec(t, 2))).unwrap();
        }
        assert_eq!(s.next_batch().unwrap().len(), 2);
        assert_eq!(s.next_batch().unwrap().len(), 2);
    }

    #[test]
    fn faulted_jobs_never_share_a_batch() {
        let s = sched(8, 64, 8);
        let faulted = spec(1, 2).with_fault_plan(
            faultkit::FaultPlan::new(7).with("ham.v_tilde", 0, faultkit::FaultKind::NanPoison),
        );
        s.submit(JobCore::new(faulted)).unwrap();
        s.submit(JobCore::new(spec(2, 2))).unwrap(); // same structure, clean
        let first = s.next_batch().unwrap();
        assert_eq!(first.len(), 1, "faulted head must run solo");
        let second = s.next_batch().unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].spec.tenant, 2);
    }

    #[test]
    fn clean_head_skips_queued_faulted_twin() {
        let s = sched(8, 64, 8);
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        let faulted = spec(2, 2).with_fault_plan(
            faultkit::FaultPlan::new(7).with("ham.v_tilde", 0, faultkit::FaultKind::NanPoison),
        );
        s.submit(JobCore::new(faulted)).unwrap();
        s.submit(JobCore::new(spec(3, 2))).unwrap();
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.len(), 2, "clean twins batch around the faulted job");
        assert_eq!(batch[1].spec.tenant, 3);
    }

    #[test]
    fn shutdown_drains_then_returns_none() {
        let s = sched(8, 64, 8);
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        s.shutdown();
        assert_eq!(s.submit(JobCore::new(spec(2, 2))), Err(AdmissionError::ShuttingDown));
        assert!(s.next_batch().is_some(), "queued work survives shutdown");
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn concurrent_submit_during_drain_never_hangs_and_loses_no_job() {
        // Race 8 submitter threads against shutdown: every submit either
        // lands (and is later claimed) or gets the typed ShuttingDown error;
        // the drain accounts for exactly the accepted jobs.
        for round in 0..20 {
            let s = Arc::new(sched(64, 64, 1));
            let accepted = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let submitters: Vec<_> = (0..8u64)
                .map(|t| {
                    let s = Arc::clone(&s);
                    let accepted = Arc::clone(&accepted);
                    std::thread::spawn(move || match s.submit(JobCore::new(spec(t, 2))) {
                        Ok(()) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(AdmissionError::ShuttingDown) => {}
                        Err(e) => panic!("unexpected admission error: {e}"),
                    })
                })
                .collect();
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            s.shutdown();
            for t in submitters {
                t.join().unwrap();
            }
            let mut claimed = 0;
            while let Some(batch) = s.next_batch() {
                claimed += batch.len();
            }
            assert_eq!(claimed, accepted.load(Ordering::Relaxed));
        }
    }
}

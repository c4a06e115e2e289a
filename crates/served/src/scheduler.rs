//! Admission-controlled job queue with per-tenant quotas, same-shape
//! batching, and the claim that decides how many ranks run a batch.
//!
//! Every rank of the serving pool blocks in [`SchedulerState::next_work`].
//! A claim takes the head-of-line job plus up to `max_batch - 1` queued
//! jobs with the same [`BatchKey`](crate::BatchKey), which share one
//! Hamiltonian build; every job still runs the solver its spec carries.
//!
//! Width rule: a group's leader (its rank 0) claims a batch for the whole
//! group when every follower is idle, and for itself alone otherwise; a
//! follower joins the wide batch its leader published, else claims a batch
//! alone, but only while its leader is busy. So an idle group always goes
//! wide (one job finishes soonest) and a loaded group runs one batch per
//! rank (the most jobs finish). The ranks that claim a batch finish it, a
//! failed build included, so a job never re-enters the queue.

use crate::job::{AdmissionError, JobCore};
use crate::service::ServeConfig;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// What a rank runs next: a batch on its whole group (every rank of the
/// group gets it) or on itself alone, or nothing, the service being shut
/// down and its queue drained.
pub(crate) enum Work {
    Wide(Vec<Arc<JobCore>>),
    Alone(Vec<Arc<JobCore>>),
    Quit,
}

/// Claim state of one solver group.
#[derive(Default)]
struct GroupState {
    /// Bumped by each wide batch the leader publishes.
    generation: u64,
    /// The last wide batch, until every follower has taken it.
    wide: Option<Vec<Arc<JobCore>>>,
    /// Followers that have not yet taken `wide`.
    joins_left: usize,
    /// The leader waits in `next_work`.
    leader_idle: bool,
    /// Followers waiting in `next_work` with nothing claimed.
    idle_followers: usize,
}

struct QueueInner {
    queue: VecDeque<Arc<JobCore>>,
    shutdown: bool,
    groups: Vec<GroupState>,
}

/// Shared scheduler core: the admission queue, every group's claim state,
/// and the quotas, batch cap and group size of `config`.
pub(crate) struct SchedulerState {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    config: ServeConfig,
    /// Ranks of a group besides its leader.
    followers: usize,
}

impl SchedulerState {
    pub fn new(config: &ServeConfig) -> Self {
        let groups = (0..config.groups).map(|_| GroupState::default()).collect();
        SchedulerState {
            inner: Mutex::new(QueueInner { queue: VecDeque::new(), shutdown: false, groups }),
            cv: Condvar::new(),
            config: *config,
            followers: config.ranks / config.groups - 1,
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
        let (limit, tenant) = (self.config.queue_capacity, core.spec.tenant);
        if g.queue.len() >= limit {
            return Err(AdmissionError::QueueFull { limit });
        }
        let limit = self.config.max_queued_per_tenant;
        if g.queue.iter().filter(|j| j.spec.tenant == tenant).count() >= limit {
            return Err(AdmissionError::TenantQueueFull { tenant, limit });
        }
        g.queue.push_back(core);
        drop(g);
        self.cv.notify_all();
        Ok(())
    }

    /// Block until the calling rank — group `group`'s leader if `leader`,
    /// else one of its followers — has work, and claim it by the width
    /// rule. `seen` is the rank's generation of the last wide batch it
    /// joined (start at 0). Returns [`Work::Quit`] once the service is shut
    /// down *and* the queue is drained: admitted jobs still run.
    pub fn next_work(&self, group: usize, leader: bool, seen: &mut u64) -> Work {
        let mut g = self.lock();
        let st = &mut g.groups[group];
        if leader {
            st.leader_idle = true;
        } else {
            st.idle_followers += 1;
        }
        self.cv.notify_all();
        loop {
            let QueueInner { queue, shutdown, groups } = &mut *g;
            let st = &mut groups[group];
            if !leader && st.generation != *seen {
                // The leader counted this follower out when it published.
                *seen = st.generation;
                st.joins_left -= 1;
                let wide = if st.joins_left == 0 { st.wide.take() } else { st.wide.clone() };
                return Work::Wide(wide.expect("a wide batch waits for every follower"));
            }
            if !queue.is_empty() && (leader || !st.leader_idle) {
                let batch = self.claim(queue);
                let wide = leader && st.idle_followers == self.followers;
                if leader {
                    st.leader_idle = false;
                } else {
                    st.idle_followers -= 1;
                }
                if wide {
                    // Every follower waits here: count each out until it joins.
                    st.generation += 1;
                    st.joins_left = std::mem::take(&mut st.idle_followers);
                    st.wide = (st.joins_left > 0).then(|| batch.clone());
                }
                drop(g);
                self.cv.notify_all();
                return if wide { Work::Wide(batch) } else { Work::Alone(batch) };
            }
            if *shutdown && queue.is_empty() {
                return Work::Quit;
            }
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Take the head-of-line job plus every queued same-key twin (up to
    /// `max_batch`), so the whole batch shares one Hamiltonian build.
    fn claim(&self, queue: &mut VecDeque<Arc<JobCore>>) -> Vec<Arc<JobCore>> {
        let head = queue.pop_front().expect("claimed from a non-empty queue");
        let key = head.key;
        let mut batch = vec![head];
        let mut i = 0;
        while i < queue.len() && batch.len() < self.config.max_batch {
            if queue[i].key == key {
                batch.push(queue.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        batch
    }

    /// Block until every rank of every group waits in `next_work`.
    pub fn wait_ready(&self) {
        let idle = |s: &GroupState| s.leader_idle && s.idle_followers == self.followers;
        let _ready = self.cv.wait_while(self.lock(), |g| !g.groups.iter().all(idle));
    }

    /// Refuse new work and wake every blocked rank. Already-queued jobs
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
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Duration;

    fn sched(max_per_tenant: usize, capacity: usize, max_batch: usize) -> SchedulerState {
        SchedulerState::new(&ServeConfig {
            ranks: 1,
            groups: 1,
            max_queued_per_tenant: max_per_tenant,
            queue_capacity: capacity,
            max_batch,
            ..Default::default()
        })
    }

    /// One group of a leader and one follower.
    fn pair() -> Arc<SchedulerState> {
        Arc::new(SchedulerState::new(&ServeConfig { ranks: 2, groups: 1, ..Default::default() }))
    }

    fn spec(tenant: TenantId, n_c: usize) -> JobSpec {
        JobSpec::new(tenant, Arc::new(synthetic_problem([8, 8, 8], 6.0, 2, n_c)))
    }

    /// The one rank of a one-rank group: its claims always run wide.
    fn claim_on_one_rank(s: &SchedulerState) -> Option<Vec<Arc<JobCore>>> {
        match s.next_work(0, true, &mut 0) {
            Work::Wide(batch) => Some(batch),
            Work::Alone(_) => panic!("a one-rank group has no follower to be busy"),
            Work::Quit => None,
        }
    }

    fn tenants(work: &Work) -> (&'static str, Vec<TenantId>) {
        let (kind, batch) = match work {
            Work::Wide(b) => ("wide", b),
            Work::Alone(b) => ("alone", b),
            Work::Quit => return ("quit", vec![]),
        };
        (kind, batch.iter().map(|j| j.spec.tenant).collect())
    }

    /// Block until `n` followers of group 0 wait in `next_work`; fails the
    /// test after five seconds.
    fn until_followers_wait(s: &SchedulerState, n: usize) {
        let (_g, t) = s
            .cv
            .wait_timeout_while(s.lock(), WAIT, |g| g.groups[0].idle_followers < n)
            .unwrap();
        assert!(!t.timed_out(), "{n} followers never waited with nothing claimed");
    }

    /// How long a test lets a rank wait for work it should get.
    const WAIT: Duration = Duration::from_secs(5);

    /// `next_work` for a rank of group 0, on a thread of its own, carrying
    /// its `seen` generation in and out.
    fn spawn_rank(s: &Arc<SchedulerState>, leader: bool, seen: u64) -> Receiver<(Work, u64)> {
        let (tx, rx) = channel();
        let s = Arc::clone(s);
        std::thread::spawn(move || {
            let mut seen = seen;
            let work = s.next_work(0, leader, &mut seen);
            let _ = tx.send((work, seen));
        });
        rx
    }

    /// What a spawned rank got; fails the test, rather than hang it, if the
    /// rank still waits after five seconds.
    fn within(rank: Receiver<(Work, u64)>) -> (Work, u64) {
        rank.recv_timeout(WAIT).expect("the rank still waits for work it should have")
    }

    fn next_work(s: &Arc<SchedulerState>, leader: bool) -> Work {
        within(spawn_rank(s, leader, 0)).0
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
        assert_eq!(claim_on_one_rank(&s).unwrap().len(), 3);
    }

    #[test]
    fn a_claim_groups_same_key_jobs_and_leaves_others() {
        let s = sched(8, 64, 8);
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        s.submit(JobCore::new(spec(2, 3))).unwrap(); // different structure
        s.submit(JobCore::new(spec(3, 2))).unwrap(); // same key as head
        let batch = claim_on_one_rank(&s).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].spec.tenant, 1);
        assert_eq!(batch[1].spec.tenant, 3);
        assert!(batch.iter().all(|j| j.key == batch[0].key));
        // The mismatched job is untouched and next in line.
        let rest = claim_on_one_rank(&s).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].spec.tenant, 2);
    }

    #[test]
    fn max_batch_caps_the_claim() {
        let s = sched(64, 64, 2);
        for t in 0..4 {
            s.submit(JobCore::new(spec(t, 2))).unwrap();
        }
        assert_eq!(claim_on_one_rank(&s).unwrap().len(), 2);
        assert_eq!(claim_on_one_rank(&s).unwrap().len(), 2);
    }

    #[test]
    fn an_idle_group_goes_wide() {
        let s = pair();
        let (lead, follow) = (spawn_rank(&s, true, 0), spawn_rank(&s, false, 0));
        s.wait_ready();
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        assert_eq!(tenants(&within(lead).0), ("wide", vec![1]));
        assert_eq!(tenants(&within(follow).0), ("wide", vec![1]));
        assert!(s.lock().groups[0].wide.is_none(), "the last follower to join drops the batch");
    }

    #[test]
    fn a_busy_leader_lets_a_follower_claim_alone() {
        let s = pair();
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        s.submit(JobCore::new(spec(2, 3))).unwrap();
        // The follower is busy (not in `next_work`): the leader runs alone.
        assert_eq!(tenants(&next_work(&s, true)), ("alone", vec![1]));
        // The leader is busy now: the follower takes the next batch alone.
        assert_eq!(tenants(&next_work(&s, false)), ("alone", vec![2]));
    }

    #[test]
    fn an_idle_leader_makes_the_follower_leave_the_job_to_it() {
        let s = pair();
        s.lock().groups[0].leader_idle = true; // as a leader blocked in `next_work`
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        let follow = spawn_rank(&s, false, 0);
        until_followers_wait(&s, 1);
        assert_eq!(s.lock().queue.len(), 1, "the follower left the job queued");
        assert_eq!(tenants(&next_work(&s, true)), ("wide", vec![1]));
        assert_eq!(tenants(&within(follow).0), ("wide", vec![1]));
    }

    #[test]
    fn a_published_wide_batch_is_joined_before_quit() {
        let s = pair();
        s.lock().groups[0].leader_idle = true; // as a leader blocked in `next_work`
        let follow = spawn_rank(&s, false, 0);
        until_followers_wait(&s, 1);
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        s.shutdown();
        // The queue is empty and shut down once the leader has claimed, yet
        // the follower takes the published batch before it quits.
        assert_eq!(tenants(&next_work(&s, true)), ("wide", vec![1]));
        let (first, seen) = within(follow);
        assert_eq!(tenants(&first), ("wide", vec![1]));
        assert_eq!(tenants(&within(spawn_rank(&s, false, seen)).0), ("quit", vec![]));
        assert_eq!(tenants(&next_work(&s, true)), ("quit", vec![]));
    }

    #[test]
    fn shutdown_drains_then_every_rank_quits() {
        let s = pair();
        s.submit(JobCore::new(spec(1, 2))).unwrap();
        s.submit(JobCore::new(spec(2, 3))).unwrap();
        s.shutdown();
        assert_eq!(s.submit(JobCore::new(spec(3, 2))), Err(AdmissionError::ShuttingDown));
        // Queued work survives shutdown, claimed by both ranks.
        assert_eq!(tenants(&next_work(&s, true)), ("alone", vec![1]));
        assert_eq!(tenants(&next_work(&s, false)), ("alone", vec![2]));
        assert_eq!(tenants(&next_work(&s, false)), ("quit", vec![]));
        assert_eq!(tenants(&next_work(&s, true)), ("quit", vec![]));
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
            while let Some(batch) = claim_on_one_rank(&s) {
                claimed += batch.len();
            }
            assert_eq!(claimed, accepted.load(Ordering::Relaxed));
        }
    }
}

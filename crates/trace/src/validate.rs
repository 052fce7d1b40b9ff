//! Structural validation of traces.

use std::collections::HashMap;

use dgrace_vc::Tid;

use crate::{Event, LockId, Trace};

/// A structural defect in a trace.
///
/// Validation checks well-formedness of the *schedule*, not race freedom:
/// a racy trace is perfectly valid; a trace where a thread releases a lock
/// it does not hold is not (it could never have been observed from a real
/// pthreads execution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A thread other than the main thread acted before being forked.
    UnforkedThread {
        /// The offending thread.
        tid: Tid,
        /// Index of the offending event.
        at: usize,
    },
    /// A thread was forked twice.
    DoubleFork {
        /// The twice-forked thread.
        tid: Tid,
        /// Index of the second fork.
        at: usize,
    },
    /// A thread acted after being joined.
    ActedAfterJoin {
        /// The offending thread.
        tid: Tid,
        /// Index of the offending event.
        at: usize,
    },
    /// A join of a thread that was never forked.
    JoinOfUnforked {
        /// The joined thread.
        tid: Tid,
        /// Index of the join.
        at: usize,
    },
    /// A release of a lock the thread does not hold.
    ReleaseWithoutAcquire {
        /// The releasing thread.
        tid: Tid,
        /// The lock.
        lock: LockId,
        /// Index of the release.
        at: usize,
    },
    /// An acquire of a lock that is already held (no recursion modeled).
    AcquireOfHeldLock {
        /// The acquiring thread.
        tid: Tid,
        /// The lock.
        lock: LockId,
        /// Index of the acquire.
        at: usize,
    },
    /// A memory access of zero length or an alloc of zero bytes.
    EmptyAccess {
        /// Index of the offending event.
        at: usize,
    },
    /// A read-release of a rwlock the thread holds no read lock on.
    ReadReleaseWithoutAcquire {
        /// The releasing thread.
        tid: Tid,
        /// The rwlock.
        lock: LockId,
        /// Index of the release.
        at: usize,
    },
    /// A write-acquire while readers hold the rwlock, or a read-acquire
    /// while a writer holds it.
    RwLockConflict {
        /// The acquiring thread.
        tid: Tid,
        /// The rwlock.
        lock: LockId,
        /// Index of the acquire.
        at: usize,
    },
    /// A barrier departure without a matching arrival by the thread.
    BarrierDepartWithoutArrive {
        /// The departing thread.
        tid: Tid,
        /// The barrier.
        bar: LockId,
        /// Index of the departure.
        at: usize,
    },
    /// A join of a thread that still holds a lock (or a rwlock read
    /// hold). A real pthread cannot return from its start routine with a
    /// mutex held and still be joinable in a well-formed schedule; a
    /// detector replaying such a trace would see a lock that can never be
    /// released.
    ThreadJoinedHoldingLock {
        /// The joined thread.
        tid: Tid,
        /// A lock it still holds.
        lock: LockId,
        /// Index of the join.
        at: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnforkedThread { tid, at } => {
                write!(f, "event {at}: thread {tid} acts before being forked")
            }
            ValidationError::DoubleFork { tid, at } => {
                write!(f, "event {at}: thread {tid} forked twice")
            }
            ValidationError::ActedAfterJoin { tid, at } => {
                write!(f, "event {at}: thread {tid} acts after being joined")
            }
            ValidationError::JoinOfUnforked { tid, at } => {
                write!(f, "event {at}: join of never-forked thread {tid}")
            }
            ValidationError::ReleaseWithoutAcquire { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} releases {lock:?} it does not hold"
                )
            }
            ValidationError::AcquireOfHeldLock { tid, lock, at } => {
                write!(f, "event {at}: thread {tid} acquires already-held {lock:?}")
            }
            ValidationError::EmptyAccess { at } => {
                write!(f, "event {at}: zero-sized alloc/free")
            }
            ValidationError::ReadReleaseWithoutAcquire { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} read-releases {lock:?} it does not hold"
                )
            }
            ValidationError::RwLockConflict { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} acquires {lock:?} against existing holders"
                )
            }
            ValidationError::BarrierDepartWithoutArrive { tid, bar, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} departs {bar:?} without arriving"
                )
            }
            ValidationError::ThreadJoinedHoldingLock { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} joined while still holding {lock:?}"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks that a trace is a plausible pthreads schedule.
///
/// Returns the first defect found, or `Ok(())`. The trace decoder runs
/// the same checks inline on every event it yields (see
/// [`DecodeStats::invalid`](crate::DecodeStats::invalid)).
pub fn validate(trace: &Trace) -> Result<(), ValidationError> {
    let mut v = Validator::default();
    trace.iter().try_for_each(|ev| v.check(ev))
}

/// Where a thread is in its fork/join life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Life {
    Unforked,
    Live,
    Joined,
}

/// The schedule checker as a state machine fed one event at a time.
///
/// Fork/join state is dense, indexed by thread id: it is probed on every
/// event but changes only at forks and joins. Lock, rwlock and barrier
/// state is keyed by object id and touched only by sync events. A
/// validator that has reported a defect has undefined state; callers stop
/// feeding it at the first error.
#[derive(Debug)]
pub(crate) struct Validator {
    /// Index of the next event, reported as `at`.
    next: usize,
    /// Life of each thread id; ids past the end are unforked.
    threads: Vec<Life>,
    /// Which thread holds each lock right now.
    held: HashMap<LockId, Tid>,
    /// Read holders of each rwlock (same id space as plain locks).
    read_held: HashMap<LockId, Vec<Tid>>,
    /// Pending barrier arrivals.
    arrived: HashMap<LockId, Vec<Tid>>,
}

impl Default for Validator {
    fn default() -> Self {
        Validator {
            next: 0,
            // The main thread exists before any fork.
            threads: vec![Life::Live],
            held: HashMap::new(),
            read_held: HashMap::new(),
            arrived: HashMap::new(),
        }
    }
}

impl Validator {
    fn life(&self, tid: Tid) -> Life {
        self.threads
            .get(tid.index())
            .copied()
            .unwrap_or(Life::Unforked)
    }

    fn set_life(&mut self, tid: Tid, life: Life) {
        if tid.index() >= self.threads.len() {
            self.threads.resize(tid.index() + 1, Life::Unforked);
        }
        self.threads[tid.index()] = life;
    }

    /// Checks the next event of the schedule and advances the state.
    #[inline]
    pub(crate) fn check(&mut self, ev: &Event) -> Result<(), ValidationError> {
        let at = self.next;
        self.next += 1;
        let actor = ev.tid();
        match self.life(actor) {
            Life::Live if ev.is_access() => Ok(()),
            Life::Live => self.check_sync(ev, at),
            Life::Unforked => Err(ValidationError::UnforkedThread { tid: actor, at }),
            Life::Joined => Err(ValidationError::ActedAfterJoin { tid: actor, at }),
        }
    }

    /// The rules for everything but plain accesses, by a live actor.
    fn check_sync(&mut self, ev: &Event, at: usize) -> Result<(), ValidationError> {
        match *ev {
            Event::Fork { child, .. } => {
                if self.life(child) != Life::Unforked {
                    return Err(ValidationError::DoubleFork { tid: child, at });
                }
                self.set_life(child, Life::Live);
            }
            Event::Join { child, .. } => {
                if self.life(child) == Life::Unforked {
                    return Err(ValidationError::JoinOfUnforked { tid: child, at });
                }
                // The lowest-numbered lock still held, so the report does
                // not depend on hash order.
                let still_held = self
                    .held
                    .iter()
                    .filter(|&(_, &t)| t == child)
                    .map(|(&lock, _)| lock)
                    .min()
                    .or_else(|| {
                        self.read_held
                            .iter()
                            .filter(|(_, holders)| holders.contains(&child))
                            .map(|(&lock, _)| lock)
                            .min()
                    });
                if let Some(lock) = still_held {
                    return Err(ValidationError::ThreadJoinedHoldingLock {
                        tid: child,
                        lock,
                        at,
                    });
                }
                self.set_life(child, Life::Joined);
            }
            Event::Acquire { tid, lock } => {
                if self.held.contains_key(&lock) {
                    return Err(ValidationError::AcquireOfHeldLock { tid, lock, at });
                }
                if self.read_held.get(&lock).is_some_and(|r| !r.is_empty()) {
                    return Err(ValidationError::RwLockConflict { tid, lock, at });
                }
                self.held.insert(lock, tid);
            }
            Event::Release { tid, lock } => {
                if self.held.get(&lock) != Some(&tid) {
                    return Err(ValidationError::ReleaseWithoutAcquire { tid, lock, at });
                }
                self.held.remove(&lock);
            }
            Event::AcquireRead { tid, lock } => {
                if self.held.contains_key(&lock) {
                    return Err(ValidationError::RwLockConflict { tid, lock, at });
                }
                self.read_held.entry(lock).or_default().push(tid);
            }
            Event::ReleaseRead { tid, lock } => {
                let holders = self.read_held.entry(lock).or_default();
                match holders.iter().position(|&t| t == tid) {
                    Some(i) => {
                        holders.swap_remove(i);
                    }
                    None => {
                        return Err(ValidationError::ReadReleaseWithoutAcquire { tid, lock, at })
                    }
                }
            }
            Event::CvSignal { .. } | Event::CvWait { .. } => {
                // The waiter protocol (hold the mutex across the wait) is
                // the program's business; any signal/wait order is a
                // schedule some execution can produce.
            }
            Event::BarrierArrive { tid, bar } => {
                self.arrived.entry(bar).or_default().push(tid);
            }
            Event::BarrierDepart { tid, bar } => {
                let waiting = self.arrived.entry(bar).or_default();
                match waiting.iter().position(|&t| t == tid) {
                    Some(i) => {
                        waiting.swap_remove(i);
                    }
                    None => {
                        return Err(ValidationError::BarrierDepartWithoutArrive { tid, bar, at })
                    }
                }
            }
            Event::Alloc { size, .. } | Event::Free { size, .. } => {
                if size == 0 {
                    return Err(ValidationError::EmptyAccess { at });
                }
            }
            Event::Read { .. } | Event::Write { .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessSize, TraceBuilder};

    #[test]
    fn valid_program_passes() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire(1u32, 0u32)
            .write(1u32, 0x10u64, AccessSize::U32)
            .release(1u32, 0u32)
            .join(0u32, 1u32);
        assert_eq!(validate(&b.build()), Ok(()));
    }

    #[test]
    fn unforked_thread_rejected() {
        let mut b = TraceBuilder::new();
        b.read(3u32, 0u64, AccessSize::U8);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::UnforkedThread { tid: Tid(3), at: 0 })
        );
    }

    #[test]
    fn release_without_acquire_rejected() {
        let mut b = TraceBuilder::new();
        b.release(0u32, 5u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::ReleaseWithoutAcquire { .. })
        ));
    }

    #[test]
    fn release_by_other_thread_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire(0u32, 5u32).release(1u32, 5u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::ReleaseWithoutAcquire { .. })
        ));
    }

    #[test]
    fn double_acquire_rejected() {
        let mut b = TraceBuilder::new();
        b.acquire(0u32, 5u32).acquire(0u32, 5u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::AcquireOfHeldLock { .. })
        ));
    }

    #[test]
    fn act_after_join_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .join(0u32, 1u32)
            .read(1u32, 0u64, AccessSize::U8);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::ActedAfterJoin { tid: Tid(1), at: 2 })
        ));
    }

    #[test]
    fn double_fork_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).fork(0u32, 1u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::DoubleFork { tid: Tid(1), at: 1 })
        ));
    }

    #[test]
    fn join_of_unforked_rejected() {
        let mut b = TraceBuilder::new();
        b.join(0u32, 7u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::JoinOfUnforked { tid: Tid(7), at: 0 })
        ));
    }

    #[test]
    fn zero_sized_alloc_rejected() {
        let mut b = TraceBuilder::new();
        b.alloc(0u32, 0x100u64, 0);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::EmptyAccess { at: 0 })
        );
    }

    #[test]
    fn join_while_holding_lock_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire(1u32, 5u32).join(0u32, 1u32);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(1),
                lock: LockId(5),
                at: 2,
            })
        );
    }

    #[test]
    fn join_while_holding_read_lock_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire_read(1u32, 5u32).join(0u32, 1u32);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(1),
                lock: LockId(5),
                at: 2,
            })
        );
    }

    #[test]
    fn join_while_holding_several_locks_names_the_lowest() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire(1u32, 9u32)
            .acquire(1u32, 4u32)
            .acquire_read(1u32, 2u32)
            .acquire(1u32, 7u32)
            .join(0u32, 1u32);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(1),
                lock: LockId(4),
                at: 5,
            })
        );
    }

    #[test]
    fn join_after_release_passes() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire(1u32, 5u32)
            .release(1u32, 5u32)
            .acquire_read(1u32, 6u32)
            .release_read(1u32, 6u32)
            .join(0u32, 1u32);
        assert_eq!(validate(&b.build()), Ok(()));
    }

    #[test]
    fn join_while_other_thread_holds_lock_passes() {
        // Only the joined thread's holds matter, not unrelated holders.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire(0u32, 5u32).join(0u32, 1u32);
        assert_eq!(validate(&b.build()), Ok(()));
    }
}

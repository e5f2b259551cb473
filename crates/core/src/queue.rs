//! The waiting computation queue.
//!
//! "The waiting computation queue was kept in a known order and ... such
//! conflicting computations would be placed ahead of the normal
//! computations in the queue and, thus, given higher priority."
//!
//! Two segments implement that order: an *elevated* segment (released
//! conflicting/enabled computations, FIFO) ahead of per-job *normal*
//! segments (FIFO within a job, round-robin across jobs so that a
//! multi-parallel-job-stream environment shares the machine).
//!
//! # Segment lifetime and seek cost
//!
//! A job's normal segment exists only while the job has work in flight.
//! It opens on the job's first push and joins a small vector of open
//! segments kept sorted by job id. When the job finishes, the engine
//! calls [`WaitingQueue::close`], which hands the (empty) deque to a spare
//! pool; the next job to open a segment takes it back, so a steady-state
//! service stream allocates nothing per job.
//!
//! The round-robin cursor still names a job id in `0..jobs`. A seek
//! starts at the first open segment whose job is at or after the cursor
//! and wraps over the open segments only, which visits segments in
//! exactly the order a scan over every job's segment would, skipping
//! only segments that are necessarily empty. So a seek costs O(open
//! jobs), not O(jobs ever submitted), and the queue holds
//! O(peak open jobs) segments rather than one per job in the stream.

use crate::descriptor::QueueClass;
use crate::ids::{DescId, JobId};
use std::collections::VecDeque;

/// The executive's waiting computation queue.
#[derive(Debug, Default)]
pub struct WaitingQueue {
    elevated: VecDeque<DescId>,
    /// Open normal segments, sorted by job id.
    open: Vec<(u32, VecDeque<DescId>)>,
    /// Deques of closed segments, kept for reuse.
    spare: Vec<VecDeque<DescId>>,
    /// Number of job streams: the round-robin cursor wraps modulo this.
    jobs: usize,
    /// Slots reserved in a freshly allocated segment.
    segment_cap: usize,
    rr_cursor: usize,
    len: usize,
}

/// Initial per-segment capacity: enough for every release of a typical
/// phase (two tasks per processor on a large machine) before the segment
/// deques ever reallocate.
const SEGMENT_CAPACITY: usize = 128;

impl WaitingQueue {
    /// Queue serving `jobs` job streams (≥ 1). Allocates only the
    /// elevated segment; a normal segment is allocated (or recycled) when
    /// its job first pushes.
    pub fn new(jobs: usize) -> WaitingQueue {
        Self::with_capacity(jobs, SEGMENT_CAPACITY)
    }

    /// Queue serving `jobs` job streams with `cap` slots pre-reserved in
    /// the elevated segment and in each normal segment it opens (sized
    /// from the expected task count per phase).
    pub fn with_capacity(jobs: usize, cap: usize) -> WaitingQueue {
        assert!(jobs > 0, "need at least one job stream");
        WaitingQueue {
            elevated: VecDeque::with_capacity(cap),
            open: Vec::new(),
            spare: Vec::new(),
            jobs,
            segment_cap: cap,
            rr_cursor: 0,
            len: 0,
        }
    }

    /// Total queued descriptions.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of open normal segments: jobs that have pushed and not yet
    /// been closed (diagnostics).
    pub fn open_segments(&self) -> usize {
        self.open.len()
    }

    /// Append to the back of the given class ("behind the current phase
    /// description" for universal successors is achieved by normal-class
    /// FIFO order).
    #[inline]
    pub fn push_back(&mut self, id: DescId, class: QueueClass, job: JobId) {
        self.len += 1;
        match class {
            QueueClass::Elevated => self.elevated.push_back(id),
            QueueClass::Normal => self.segment(job).push_back(id),
        }
    }

    /// Push to the *front* of the given class. Used for split remainders so
    /// the current phase keeps its place ahead of anything queued behind it.
    #[inline]
    pub fn push_front(&mut self, id: DescId, class: QueueClass, job: JobId) {
        self.len += 1;
        match class {
            QueueClass::Elevated => self.elevated.push_front(id),
            QueueClass::Normal => self.segment(job).push_front(id),
        }
    }

    /// Close `job`'s normal segment: the job has finished and queues no
    /// more work. The segment's deque goes to the spare pool for the next
    /// job to open. Closing a job with no open segment does nothing, and
    /// so does closing one whose segment still holds entries: those stay
    /// queued, in order, and the segment stays open until a later close
    /// finds it drained. Pop order never depends on which empty segments
    /// are open.
    pub fn close(&mut self, job: JobId) {
        if let Ok(i) = self.open.binary_search_by_key(&job.0, |s| s.0) {
            if self.open[i].1.is_empty() {
                let (_, seg) = self.open.remove(i);
                self.spare.push(seg);
            }
        }
    }

    /// Pop the next description: elevated first, then round-robin over the
    /// jobs' normal segments.
    pub fn pop(&mut self) -> Option<DescId> {
        if let Some(id) = self.elevated.pop_front() {
            self.len -= 1;
            return Some(id);
        }
        self.pop_normal()
    }

    /// Pop the first description within the leading `window` entries (in
    /// [`WaitingQueue::pop`] order) for which `pred` holds; when none
    /// matches, pop the head. This is the data-proximity assignment scan:
    /// the window bounds the executive time spent matching, and falling
    /// back to the head keeps the queue work-conserving — a seeking worker
    /// never leaves empty-handed while work waits.
    ///
    /// Matching the overall head behaves exactly like `pop` (round-robin
    /// cursor advances); deeper matches are removed in place and leave the
    /// cursor untouched, so job-stream fairness is preserved. A normal
    /// entry counts as the head only when its job is the cursor's job
    /// itself (not merely the first open segment after it).
    pub fn pop_matching(
        &mut self,
        window: usize,
        mut pred: impl FnMut(DescId) -> bool,
    ) -> Option<DescId> {
        let mut scanned = 0usize;
        for pos in 0..self.elevated.len() {
            if scanned >= window {
                return self.pop();
            }
            let id = self.elevated[pos];
            if pred(id) {
                self.elevated.remove(pos);
                self.len -= 1;
                return Some(id);
            }
            scanned += 1;
        }
        for i in self.seek_order() {
            let job = self.open[i].0 as usize;
            for pos in 0..self.open[i].1.len() {
                if scanned >= window {
                    return self.pop();
                }
                let id = self.open[i].1[pos];
                if pred(id) {
                    if self.elevated.is_empty() && job == self.rr_cursor && pos == 0 {
                        // exact head: keep pop()'s fairness bookkeeping
                        return self.pop();
                    }
                    self.open[i].1.remove(pos);
                    self.len -= 1;
                    return Some(id);
                }
                scanned += 1;
            }
        }
        self.pop()
    }

    /// Pop the next description from the *allowed* segments only — the
    /// affinity-restricted variant of [`WaitingQueue::pop`] used by
    /// heterogeneous processor classes. With both segments allowed this
    /// is exactly `pop` (same round-robin bookkeeping); with a segment
    /// disallowed its entries are invisible to this worker and wait for
    /// one whose class may serve them.
    pub fn pop_class(&mut self, allow_elevated: bool, allow_normal: bool) -> Option<DescId> {
        if allow_elevated {
            if let Some(id) = self.elevated.pop_front() {
                self.len -= 1;
                return Some(id);
            }
        }
        if allow_normal {
            return self.pop_normal();
        }
        None
    }

    /// Peek without removing (same order as [`WaitingQueue::pop`]).
    pub fn peek(&self) -> Option<DescId> {
        if let Some(&id) = self.elevated.front() {
            return Some(id);
        }
        self.seek_order()
            .find_map(|i| self.open[i].1.front().copied())
    }

    /// Number of elevated entries (diagnostics).
    pub fn elevated_len(&self) -> usize {
        self.elevated.len()
    }

    /// Remove a specific description from wherever it is queued: a scan of
    /// the elevated segment and the open normal segments, O(queued
    /// entries). Only the priority-elevation carve path uses it. Returns
    /// true if found.
    pub fn remove(&mut self, id: DescId) -> bool {
        if let Some(pos) = self.elevated.iter().position(|&x| x == id) {
            self.elevated.remove(pos);
            self.len -= 1;
            return true;
        }
        for (_, q) in &mut self.open {
            if let Some(pos) = q.iter().position(|&x| x == id) {
                q.remove(pos);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// `job`'s normal segment, opened (from the spare pool when it can)
    /// if the job has none.
    fn segment(&mut self, job: JobId) -> &mut VecDeque<DescId> {
        debug_assert!((job.0 as usize) < self.jobs, "job {} out of range", job.0);
        let i = match self.open.binary_search_by_key(&job.0, |s| s.0) {
            Ok(i) => i,
            Err(i) => {
                let cap = self.segment_cap;
                let seg = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| VecDeque::with_capacity(cap));
                self.open.insert(i, (job.0, seg));
                i
            }
        };
        &mut self.open[i].1
    }

    /// Open-segment indices in seek order: from the first segment whose
    /// job is at or after the round-robin cursor, wrapping once.
    fn seek_order(&self) -> impl Iterator<Item = usize> {
        let n = self.open.len();
        let start = self
            .open
            .partition_point(|s| (s.0 as usize) < self.rr_cursor);
        (start..n).chain(0..start)
    }

    /// Pop the head of the first non-empty normal segment in seek order
    /// and move the cursor past its job.
    fn pop_normal(&mut self) -> Option<DescId> {
        if self.len == self.elevated.len() {
            return None; // every open segment is empty
        }
        let i = if self.open.len() == 1 {
            0 // single-job runs: the one open segment is the only candidate
        } else {
            self.seek_order().find(|&i| !self.open[i].1.is_empty())?
        };
        let (job, seg) = &mut self.open[i];
        let id = seg.pop_front()?;
        self.rr_cursor = (*job as usize + 1) % self.jobs;
        self.len -= 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DescId {
        DescId(i)
    }

    #[test]
    fn elevated_precedes_normal() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Elevated, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(0));
        q.push_back(d(4), QueueClass::Elevated, JobId(0));
        let order: Vec<DescId> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![d(2), d(4), d(1), d(3)]);
    }

    #[test]
    fn push_front_keeps_remainder_ahead() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(10), QueueClass::Normal, JobId(0)); // current phase master
        q.push_back(d(20), QueueClass::Normal, JobId(0)); // universal successor behind it
        let popped = q.pop().unwrap();
        assert_eq!(popped, d(10));
        // split: remainder goes back to the front, still ahead of successor
        q.push_front(d(11), QueueClass::Normal, JobId(0));
        assert_eq!(q.pop(), Some(d(11)));
        assert_eq!(q.pop(), Some(d(20)));
    }

    #[test]
    fn round_robin_across_jobs() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        q.push_back(d(4), QueueClass::Normal, JobId(1));
        let order: Vec<DescId> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![d(1), d(3), d(2), d(4)]);
    }

    #[test]
    fn round_robin_skips_empty_jobs() {
        let mut q = WaitingQueue::new(3);
        q.push_back(d(1), QueueClass::Normal, JobId(2));
        q.push_back(d(2), QueueClass::Normal, JobId(2));
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_matching_prefers_match_within_window() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(0));
        assert_eq!(q.pop_matching(8, |id| id == d(3)), Some(d(3)));
        assert_eq!(q.len(), 2);
        // remaining order unchanged
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(2)));
    }

    #[test]
    fn pop_matching_falls_back_to_head_when_no_match() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        assert_eq!(q.pop_matching(8, |_| false), Some(d(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_matching_window_bounds_scan() {
        let mut q = WaitingQueue::new(1);
        for i in 1..=6 {
            q.push_back(d(i), QueueClass::Normal, JobId(0));
        }
        // match sits at position 4 but window is 2: falls back to head
        assert_eq!(q.pop_matching(2, |id| id == d(5)), Some(d(1)));
        // window 0 is pure queue order
        assert_eq!(q.pop_matching(0, |id| id == d(5)), Some(d(2)));
    }

    #[test]
    fn pop_matching_scans_elevated_before_normal() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Elevated, JobId(0));
        q.push_back(d(3), QueueClass::Elevated, JobId(0));
        // both elevated entries match; the earlier one wins
        assert_eq!(q.pop_matching(8, |id| id.0 >= 2), Some(d(2)));
        assert_eq!(q.pop(), Some(d(3)));
        assert_eq!(q.pop(), Some(d(1)));
    }

    #[test]
    fn pop_matching_head_match_advances_round_robin() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        // head (job 0) matches: cursor moves to job 1 as with pop()
        assert_eq!(q.pop_matching(8, |id| id == d(1)), Some(d(1)));
        assert_eq!(q.pop(), Some(d(3)));
        assert_eq!(q.pop(), Some(d(2)));
    }

    #[test]
    fn pop_matching_deep_match_preserves_fairness_cursor() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        // deep match in job 0: cursor still at job 0 for the next pop
        assert_eq!(q.pop_matching(8, |id| id == d(2)), Some(d(2)));
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_matching_head_match_after_cursor_wrap_takes_fairness_path() {
        let jobs = 3;
        let mut q = WaitingQueue::new(jobs);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        q.push_back(d(4), QueueClass::Normal, JobId(2));
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(3)));
        // popping job `jobs - 1` wraps the cursor back to job 0
        assert_eq!(q.pop(), Some(d(4)));
        q.push_back(d(5), QueueClass::Normal, JobId(1));
        q.push_back(d(6), QueueClass::Normal, JobId(0));
        // job 0's head matches at the wrapped cursor: the fairness path
        // moves the cursor on to job 1, so job 1 goes next, not job 0
        assert_eq!(q.pop_matching(8, |id| id == d(2)), Some(d(2)));
        assert_eq!(q.pop(), Some(d(5)));
        assert_eq!(q.pop(), Some(d(6)));
        assert!(q.is_empty());
    }

    #[test]
    fn close_recycles_drained_segment_and_keeps_order() {
        let mut q = WaitingQueue::new(4);
        q.push_back(d(1), QueueClass::Normal, JobId(3));
        q.push_back(d(2), QueueClass::Normal, JobId(1));
        assert_eq!(q.open_segments(), 2);
        assert_eq!(q.pop(), Some(d(2)));
        q.close(JobId(1));
        assert_eq!(q.open_segments(), 1);
        // closing a job whose segment still holds work keeps it queued
        q.close(JobId(3));
        assert_eq!(q.open_segments(), 1);
        // reopening takes the spare deque
        q.push_back(d(3), QueueClass::Normal, JobId(0));
        assert!(q.spare.is_empty());
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(3)));
        q.close(JobId(2)); // never opened: no-op
        assert_eq!(q.open_segments(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_matching_empty_queue() {
        let mut q = WaitingQueue::new(1);
        assert_eq!(q.pop_matching(8, |_| true), None);
    }

    #[test]
    fn pop_class_restricts_segments() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Elevated, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        // Normal-only skips the elevated head entirely.
        assert_eq!(q.pop_class(false, true), Some(d(1)));
        // Elevated-only sees only the elevated segment.
        assert_eq!(q.pop_class(true, false), Some(d(2)));
        assert_eq!(q.pop_class(true, false), None);
        // Both segments allowed behaves exactly like pop().
        assert_eq!(q.pop_class(true, true), Some(d(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_class_keeps_round_robin_fairness() {
        let mut a = WaitingQueue::new(2);
        let mut b = WaitingQueue::new(2);
        for (id, job) in [(1, 0), (2, 0), (3, 1), (4, 1)] {
            a.push_back(d(id), QueueClass::Normal, JobId(job));
            b.push_back(d(id), QueueClass::Normal, JobId(job));
        }
        let via_pop: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let via_class: Vec<_> = std::iter::from_fn(|| b.pop_class(true, true)).collect();
        assert_eq!(via_pop, via_class);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(5), QueueClass::Normal, JobId(1));
        q.push_back(d(6), QueueClass::Elevated, JobId(0));
        assert_eq!(q.peek(), Some(d(6)));
        assert_eq!(q.pop(), Some(d(6)));
        assert_eq!(q.peek(), Some(d(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }
}

//! Round/space/message accounting for MPC executions.
//!
//! Accumulation may happen from several threads at once (callers fold
//! per-machine observations and publish them with
//! [`MpcMetrics::observe_machines`]), so the peak trackers are atomics
//! (fetch_max) and the cold-path phase log sits behind a mutex: no locks
//! on hot paths, atomics with explicit orderings where contention is
//! possible.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a phase-log mutex.  A panic while it was held cannot leave the
/// log half-written (every critical section is one assignment or push),
/// so poisoning is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One phase's snapshot in the metrics log.
#[derive(Clone, Debug, Serialize)]
pub struct PhaseMetrics {
    /// Phase label.
    pub label: String,
    /// Rounds charged during the phase.
    pub rounds: u64,
    /// Peak single-machine words during the phase.
    pub max_machine_words: u64,
    /// Words of traffic during the phase.
    pub messages: u64,
}

/// Aggregate metrics of an MPC execution.
#[derive(Debug, Default)]
pub struct MpcMetrics {
    rounds: AtomicU64,
    max_machine_words: AtomicU64,
    global_words_peak: AtomicU64,
    messages: AtomicU64,
    budget_violations: AtomicU64,
    phases: Mutex<Vec<PhaseMetrics>>,
    phase_open: Mutex<Option<(String, u64, u64)>>, // label, rounds at start, msgs at start
    phase_peak: AtomicU64,
}

/// Serializable snapshot of [`MpcMetrics`].
#[derive(Clone, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// Total rounds charged.
    pub rounds: u64,
    /// Peak words held by any single machine.
    pub max_machine_words: u64,
    /// Peak aggregate residency across all machines.
    pub global_words_peak: u64,
    /// Total cross-machine traffic in words.
    pub messages: u64,
    /// Number of times a machine exceeded its budget.
    pub budget_violations: u64,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseMetrics>,
}

impl MpcMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `r` synchronous rounds.
    pub fn add_rounds(&self, r: u64) {
        self.rounds.fetch_add(r, Ordering::Relaxed);
    }

    /// Charge `w` words of cross-machine traffic.
    pub fn add_messages(&self, w: u64) {
        self.messages.fetch_add(w, Ordering::Relaxed);
    }

    /// Record that some machine currently holds `words` words.
    pub fn observe_machine(&self, words: u64, budget: u64) {
        self.max_machine_words.fetch_max(words, Ordering::Relaxed);
        self.phase_peak.fetch_max(words, Ordering::Relaxed);
        if words > budget {
            self.budget_violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a batch of machines the caller folded itself: the largest
    /// holds `peak` words and `over_budget` of them exceeded their
    /// budget.  Equivalent to one [`MpcMetrics::observe_machine`] per
    /// machine, at two atomic updates per batch.
    pub fn observe_machines(&self, peak: u64, over_budget: u64) {
        self.max_machine_words.fetch_max(peak, Ordering::Relaxed);
        self.phase_peak.fetch_max(peak, Ordering::Relaxed);
        self.budget_violations
            .fetch_add(over_budget, Ordering::Relaxed);
    }

    /// Record a global residency level (sum over machines).
    pub fn observe_global(&self, words: u64) {
        self.global_words_peak.fetch_max(words, Ordering::Relaxed);
    }

    /// Start a labelled phase (ends any open one).
    pub fn begin_phase(&self, label: impl Into<String>) {
        self.end_phase();
        *lock(&self.phase_open) = Some((
            label.into(),
            self.rounds.load(Ordering::Relaxed),
            self.messages.load(Ordering::Relaxed),
        ));
        self.phase_peak.store(0, Ordering::Relaxed);
    }

    /// Close the open phase, recording its deltas.
    pub fn end_phase(&self) {
        if let Some((label, r0, m0)) = lock(&self.phase_open).take() {
            lock(&self.phases).push(PhaseMetrics {
                label,
                rounds: self.rounds.load(Ordering::Relaxed) - r0,
                max_machine_words: self.phase_peak.load(Ordering::Relaxed),
                messages: self.messages.load(Ordering::Relaxed) - m0,
            });
        }
    }

    /// Total rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Peak single-machine residency so far.
    pub fn max_machine_words(&self) -> u64 {
        self.max_machine_words.load(Ordering::Relaxed)
    }

    /// Budget violations recorded so far.
    pub fn budget_violations(&self) -> u64 {
        self.budget_violations.load(Ordering::Relaxed)
    }

    /// Serializable snapshot (closes any open phase).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.end_phase();
        MetricsSnapshot {
            rounds: self.rounds.load(Ordering::Relaxed),
            max_machine_words: self.max_machine_words.load(Ordering::Relaxed),
            global_words_peak: self.global_words_peak.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            budget_violations: self.budget_violations.load(Ordering::Relaxed),
            phases: lock(&self.phases).clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_and_messages_accumulate() {
        let m = MpcMetrics::new();
        m.add_rounds(2);
        m.add_rounds(3);
        m.add_messages(10);
        assert_eq!(m.rounds(), 5);
        assert_eq!(m.snapshot().messages, 10);
    }

    #[test]
    fn machine_peak_tracks_max() {
        let m = MpcMetrics::new();
        m.observe_machine(10, 100);
        m.observe_machine(50, 100);
        m.observe_machine(20, 100);
        assert_eq!(m.max_machine_words(), 50);
        assert_eq!(m.budget_violations(), 0);
    }

    #[test]
    fn violations_count() {
        let m = MpcMetrics::new();
        m.observe_machine(101, 100);
        m.observe_machine(99, 100);
        m.observe_machine(150, 100);
        assert_eq!(m.budget_violations(), 2);
    }

    #[test]
    fn phases_capture_deltas_and_peaks() {
        let m = MpcMetrics::new();
        m.begin_phase("sort");
        m.add_rounds(3);
        m.observe_machine(40, 100);
        m.begin_phase("color");
        m.add_rounds(1);
        m.observe_machine(10, 100);
        let snap = m.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.phases[0].label, "sort");
        assert_eq!(snap.phases[0].rounds, 3);
        assert_eq!(snap.phases[0].max_machine_words, 40);
        assert_eq!(snap.phases[1].rounds, 1);
        assert_eq!(snap.phases[1].max_machine_words, 10);
    }

    #[test]
    fn concurrent_observation_is_safe() {
        use rayon::prelude::*;
        let m = MpcMetrics::new();
        (0..1000u64).into_par_iter().for_each(|i| {
            m.observe_machine(i, 500);
            m.add_messages(1);
        });
        assert_eq!(m.max_machine_words(), 999);
        assert_eq!(m.snapshot().messages, 1000);
        assert_eq!(m.budget_violations(), 499);
    }
}

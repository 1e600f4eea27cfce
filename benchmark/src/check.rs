//! The failed-share counter: every operation a workload issues — each
//! iterate, append, ranking call and HTTP request — and every post-run
//! invariant it checks is counted once as attempted, and once more as
//! failed when it errors, is shed, or differs from the reference twin.

/// Attempted / failed operation counts plus the first few failure notes.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    notes: Vec<String>,
}

/// Failure notes kept for the final report; the rest are only counted.
const MAX_NOTES: usize = 8;

impl Tally {
    /// Counts one operation; `why` is only evaluated for a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(why());
            }
        }
    }

    /// Failed ÷ attempted; 0 when nothing ran.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Folds another tally (a client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note);
            }
        }
    }

    /// The retained failure notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Exact equality of two metric lists: same names, same order, same
/// bits. Reuse policies must never change a result, so "close" is wrong.
pub fn same_metrics(got: &[(String, f64)], want: &[(String, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gn, gv), (wn, wv))| gn == wn && gv.to_bits() == wv.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attempts_failures_and_share() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.op(true, || unreachable!("not evaluated on success"));
        t.op(false, || "wrong answer".into());
        t.op(true, String::new);
        t.op(true, String::new);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_share(), 0.25);
        assert_eq!(t.notes(), ["wrong answer".to_string()]);
    }

    #[test]
    fn merge_adds_counts_and_caps_notes() {
        let mut a = Tally::default();
        let mut b = Tally::default();
        for i in 0..20 {
            b.op(false, || format!("e{i}"));
        }
        a.op(true, String::new);
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (21, 20));
        assert_eq!(a.notes().len(), MAX_NOTES);
    }

    #[test]
    fn metric_equality_is_bitwise() {
        let a = vec![("accuracy".to_string(), 0.1 + 0.2)];
        assert!(same_metrics(&a, &[("accuracy".to_string(), 0.1 + 0.2)]));
        assert!(!same_metrics(&a, &[("accuracy".to_string(), 0.3)]));
        assert!(!same_metrics(&a, &[("f1".to_string(), 0.1 + 0.2)]));
        assert!(!same_metrics(&a, &[]));
    }
}

//! The answer oracle: a sorted multiset of the stored keys.
//!
//! Joins, leaves and failures with recovery move keys between peers but
//! never lose one, so a multiset built from the loaded dataset answers every
//! read of the read-only workloads, before and after churn.

/// Sorted multiset of stored keys.
#[derive(Clone, Debug)]
pub struct KeyOracle {
    keys: Vec<u64>,
}

impl KeyOracle {
    /// Builds the oracle of a loaded `(key, value)` dataset.
    pub fn new(data: &[(u64, u64)]) -> Self {
        let mut keys: Vec<u64> = data.iter().map(|&(key, _)| key).collect();
        keys.sort_unstable();
        Self { keys }
    }

    /// Values stored under `key`.
    pub fn exact(&self, key: u64) -> u64 {
        self.range(key, key.saturating_add(1))
    }

    /// Values stored under keys in `[low, high)`.
    pub fn range(&self, low: u64, high: u64) -> u64 {
        let from = self.keys.partition_point(|&k| k < low);
        let to = self.keys.partition_point(|&k| k < high);
        to.saturating_sub(from) as u64
    }

    /// The distinct stored keys, ascending.
    pub fn distinct(&self) -> Vec<u64> {
        let mut keys = self.keys.clone();
        keys.dedup();
        keys
    }
}

/// Counts answers checked against the oracle and those that disagreed.
///
/// With `inject_wrong_answer`, the first answer checked is corrupted before
/// the comparison: the self-test that proves a wrong answer is caught.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    /// Answers compared with the oracle.
    pub checked: u64,
    /// Answers that disagreed.
    pub wrong: u64,
    inject_wrong_answer: bool,
}

impl Checker {
    /// A checker; `inject_wrong_answer` corrupts its first answer.
    pub fn new(inject_wrong_answer: bool) -> Self {
        Self {
            inject_wrong_answer,
            ..Self::default()
        }
    }

    /// Compares one answer with the expected count.
    #[inline]
    pub fn check(&mut self, answer: u64, expected: u64) {
        let answer = if std::mem::take(&mut self.inject_wrong_answer) {
            answer.wrapping_add(1)
        } else {
            answer
        };
        self.checked += 1;
        if answer != expected {
            self.wrong += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_duplicates_and_half_open_ranges() {
        let oracle = KeyOracle::new(&[(5, 0), (3, 1), (5, 2), (9, 3)]);
        assert_eq!(oracle.exact(5), 2);
        assert_eq!(oracle.exact(4), 0);
        assert_eq!(oracle.range(3, 9), 3);
        assert_eq!(oracle.range(3, 10), 4);
        assert_eq!(oracle.range(9, 9), 0);
        assert_eq!(oracle.range(0, u64::MAX), 4);
        assert_eq!(oracle.range(10, 20), 0);
        let many = KeyOracle::new(&(0..1000).map(|k| (k / 3, 0)).collect::<Vec<_>>());
        for (low, high) in [
            (0, 1),
            (5, 200),
            (100, 101),
            (0, 400),
            (332, 334),
            (333, 334),
        ] {
            let expected = (0..1000u64)
                .filter(|k| (low..high).contains(&(k / 3)))
                .count();
            assert_eq!(many.range(low, high), expected as u64, "[{low}, {high})");
        }
        assert_eq!(oracle.distinct(), vec![3, 5, 9]);
    }

    #[test]
    fn injected_answer_is_counted_wrong_once() {
        let mut checker = Checker::new(true);
        checker.check(2, 2);
        checker.check(2, 2);
        assert_eq!((checker.checked, checker.wrong), (2, 1));
    }
}

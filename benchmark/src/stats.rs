//! Order statistics of a handful of samples.

use crate::json::Value;

/// Median, quartiles and range of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(samples, n=4)` (the "exclusive" method), the
    /// rule the benchmark contract measures spread with.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let quantile = |i: usize| -> f64 {
            if n == 1 {
                return xs[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: xs[0],
            max: xs[n - 1],
            n,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Vec<(&'static str, Value)> {
        vec![
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("n", Value::Num(self.n as f64)),
        ]
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let f = |k: &str| v.get(k)?.as_f64();
        Some(Summary {
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
            n: f("n")? as usize,
        })
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
        let s = Summary::of(&[16.0, 1.0, 22.0, 2.0, 11.0, 4.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 7.0, 16.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        let s = Summary::of(&[9.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 7.0, 10.0));
        // One sample has no spread.
        let s = Summary::of(&[3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.0, 3.0, 3.0, 1));
    }
}

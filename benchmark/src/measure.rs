//! The measurement rule: every gated timing is built from each op's
//! **minimum latency over the timed passes**.
//!
//! Raw wall-clock does not repeat on a small shared machine (three
//! identical runs of one plan suite gave 342, 369 and 396 ops/s), and
//! medians of per-op samples moved by up to 30 %. The sum over the
//! suite's ops of each op's best pass repeated within 4 %, because a
//! disturbance has to hit the same op in every pass to show.

/// Latency samples of one run: `samples[pass][op]` in milliseconds.
#[derive(Default)]
pub struct Samples {
    passes: Vec<Vec<f64>>,
}

impl Samples {
    pub fn push_pass(&mut self, pass: Vec<f64>) {
        if let Some(first) = self.passes.first() {
            assert_eq!(first.len(), pass.len(), "every pass runs the whole suite");
        }
        self.passes.push(pass);
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Each op's minimum over the passes.
    pub fn best_per_op(&self) -> Vec<f64> {
        let ops = self.passes.first().map_or(0, Vec::len);
        (0..ops)
            .map(|op| {
                self.passes
                    .iter()
                    .map(|p| p[op])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Every sample of every pass, ascending — for the percentile
    /// diagnostics only.
    pub fn all_sorted(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.passes.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        all
    }
}

/// Σ of the per-op minima: the headline `suite_ms`.
pub fn suite_ms(best: &[f64]) -> f64 {
    best.iter().sum()
}

/// Geometric mean of the per-op minima: moves when many small ops move
/// even if one large op dominates the sum.
pub fn geomean(best: &[f64]) -> f64 {
    if best.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = best.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / best.len() as f64).exp()
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_passes_takes_each_ops_minimum() {
        let mut s = Samples::default();
        s.push_pass(vec![3.0, 10.0, 1.0]);
        s.push_pass(vec![2.0, 12.0, 4.0]);
        s.push_pass(vec![5.0, 11.0, 0.5]);
        assert_eq!(s.passes(), 3);
        let best = s.best_per_op();
        assert_eq!(best, vec![2.0, 10.0, 0.5]);
        assert_eq!(suite_ms(&best), 12.5);
        // One slow pass changes nothing as long as another pass was fast.
        s.push_pass(vec![100.0, 100.0, 100.0]);
        assert_eq!(s.best_per_op(), best);
        assert_eq!(s.all_sorted().len(), 12);
    }

    #[test]
    fn geomean_weighs_ops_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // Halving the small op moves the geomean by 1/sqrt(2) although
        // the sum barely changes.
        let before = geomean(&[1.0, 100.0]);
        let after = geomean(&[0.5, 100.0]);
        assert!((after / before - 0.5f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}

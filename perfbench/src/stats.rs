//! Order statistics and the report arithmetic every metric rests on.

use mrw_core::{Query, Report};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille`/1000 quantile among `n`
/// samples: the smallest rank with at least that share of the samples at
/// or below it. Integer arithmetic, so `p90` of 100 samples is rank 90
/// exactly.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Samples strictly above the nearest-rank percentile's rank.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per_mille)
    }
}

/// The highest of `candidates` (per-mille) with at least [`MIN_BEYOND`]
/// samples beyond it, if any.
pub fn highest_reportable(n: usize, candidates: &[usize]) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .filter(|&pm| beyond(n, pm) >= MIN_BEYOND)
        .max()
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Walkers per trial of a round-counting query (`Cover`,
/// `PartialCover`); other queries do not count rounds of `k` tokens.
pub fn walkers(query: &Query) -> Option<usize> {
    match query {
        Query::Cover { k, .. } | Query::PartialCover { k, .. } => Some(*k),
        _ => None,
    }
}

/// Engine steps behind a report: every group's `sum` of rounds times the
/// `k` tokens that each step once per round.
pub fn report_steps(report: &Report) -> u128 {
    let k = walkers(&report.query).expect("report of a round-counting query") as u128;
    report.groups.iter().map(|g| g.moments.sum() * k).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_core::engine::{Engine, FullCover, Observer, SimpleStep};
    use mrw_core::query::{Budget, Coverage, GraphInfo, Group};
    use mrw_core::walk_rng;
    use mrw_graph::{generators, GraphBackend};
    use mrw_stats::IntMoments;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(99, 900), 9);
        assert_eq!(highest_reportable(100, &[500, 900, 990]), Some(900));
        assert_eq!(highest_reportable(99, &[500, 900, 990]), Some(500));
        assert_eq!(highest_reportable(1000, &[500, 900, 990]), Some(990));
        assert_eq!(highest_reportable(19, &[500, 900]), None);
        assert_eq!(highest_reportable(20, &[500, 900]), Some(500));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 900), 90.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // 0.7 · 10 is 7.000000000000001 in floating point; ranks are exact.
        assert_eq!(percentile(&ten, 700), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// Counts every token move after placement.
    struct Counting {
        cover: FullCover,
        placed: bool,
        steps: u64,
    }

    impl Observer for Counting {
        fn visit(&mut self, token: usize, v: u32) {
            if self.placed {
                self.steps += 1;
            }
            self.cover.visit(token, v);
        }
        fn done(&self) -> bool {
            self.cover.done()
        }
        fn placed<G: GraphBackend>(&mut self, g: &G, positions: &[u32]) {
            self.placed = true;
            self.cover.placed(g, positions);
        }
    }

    #[test]
    fn rounds_times_k_counts_every_step() {
        let g = generators::cycle(40);
        for k in [1usize, 3, 8, 70] {
            let observer = Counting {
                cover: FullCover::new(g.n()),
                placed: false,
                steps: 0,
            };
            let out = Engine::new(&g, SimpleStep, observer).run(&vec![0; k], &mut walk_rng(5));
            assert_eq!(out.observer.steps, out.rounds * k as u64, "k = {k}");
        }
    }

    #[test]
    fn report_steps_is_sum_times_k() {
        let group = |label: &str, rounds: &[u64]| {
            let mut moments = IntMoments::new();
            rounds.iter().for_each(|&r| moments.push(r));
            Group {
                label: label.into(),
                trials: rounds.len() as u64,
                moments,
                censored: 0,
            }
        };
        let report = Report {
            graph: GraphInfo {
                name: "cycle(8)".into(),
                n: 8,
            },
            query: Query::Cover {
                k: 4,
                starts: vec![0, 1],
            },
            budget: Budget::default(),
            coverage: Coverage::full(3),
            groups: vec![group("start=0", &[5, 6, 7]), group("start=1", &[1, 2, 3])],
        };
        assert_eq!(report_steps(&report), (18 + 6) * 4);
    }
}

//! Order statistics over measured samples.

/// The tail percentile reported next to every median.
pub const TAIL_Q: f64 = 0.90;

/// Samples that must lie beyond a tail percentile for it to mean more
/// than the few slowest rounds of a run.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Median of integer samples (nanosecond timings), interpolated within
/// the median value's unit-wide class: `M − ½ + (n/2 − below) / at`,
/// where `below` samples lie under the median value `M` and `at` equal
/// it. This is the grouped-data median: it stays within half a unit of
/// `M`, and where many samples tie at `M` (a 47 ns call timed to the
/// nanosecond) it still resolves below the clock's unit.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let m = sorted[(n - 1) / 2];
    let below = sorted.partition_point(|&v| v < m);
    let at = sorted.partition_point(|&v| v <= m) - below;
    Some(m as f64 - 0.5 + (n as f64 / 2.0 - below as f64) / at as f64)
}

/// Consecutive windows a timed section's rounds are split into (one per
/// round where there are fewer rounds): a second each in a 20 s section.
pub const WINDOWS: usize = 20;

/// The rounds of a section's fastest quarter of windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Quietest {
    /// How many windows the section was split into.
    pub windows: usize,
    /// How many of them were kept.
    pub kept: usize,
    /// Latencies of the kept windows' rounds.
    pub rounds: Vec<f64>,
}

impl Quietest {
    /// Median latency of the kept rounds.
    pub fn median(&self) -> f64 {
        median(&self.rounds).expect("a kept window holds a round")
    }

    /// Kept rounds per unit of their summed latency: rounds per second
    /// for latencies in seconds.
    pub fn rate(&self) -> f64 {
        self.rounds.len() as f64 / self.rounds.iter().sum::<f64>()
    }
}

/// The quietest quarter of `latencies`: they are split, in order, into
/// [`WINDOWS`] windows of (nearly) equal round counts, and the rounds of
/// the quarter of the windows with the highest rates are kept; `None`
/// when empty.
///
/// Co-tenant load on a shared host slows rounds in episodes of seconds to
/// minutes: taken over the whole section, a median or a rate moves with
/// the share of the section an episode happens to cover. The fastest
/// quarter of the windows leaves out an episode covering up to three
/// quarters of the section, while a change to the program moves every
/// window alike. Windows are ranked by rate, which a stalled round lowers
/// and a window's mix of cheap and dear rounds (`chaos`) shifts only
/// smoothly, and several are pooled rather than one picked, so that
/// neither a lucky mix nor a burst of a faster clock in one window sets
/// the value. A section of fewer than [`WINDOWS`] rounds (`fleet_100k`)
/// has a window per round.
pub fn quietest(latencies: &[f64]) -> Option<Quietest> {
    let n = latencies.len();
    if n == 0 {
        return None;
    }
    let of = n.min(WINDOWS);
    let mut windows: Vec<&[f64]> = (0..of)
        .map(|i| &latencies[i * n / of..(i + 1) * n / of])
        .collect();
    let rate = |w: &[f64]| w.len() as f64 / w.iter().sum::<f64>();
    windows.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    let kept = of.div_ceil(4);
    Some(Quietest {
        windows: of,
        kept,
        rounds: windows[..kept].concat(),
    })
}

/// A nearest-rank percentile together with how many samples lie
/// strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

impl Tail {
    /// Whether enough samples lie beyond the percentile for it to be
    /// reported as a tail latency ([`TAIL_MIN_BEYOND`]).
    pub fn is_resolved(&self) -> bool {
        self.beyond >= TAIL_MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`; `None` when
/// empty.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    Some(Tail {
        value,
        samples: n,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn integer_medians_resolve_ties_below_the_unit() {
        assert_eq!(median_u64(&[3, 1, 2]), Some(2.0));
        assert_eq!(median_u64(&[]), None);
        // Six of ten samples tie at 47: the median sits in 47's class,
        // at the point where half the samples are below.
        let tied = [46, 46, 47, 47, 47, 47, 47, 47, 48, 49];
        let m = median_u64(&tied).unwrap();
        assert!((m - (46.5 + 3.0 / 6.0)).abs() < 1e-12, "{m}");
        // One more tie above moves it, although the integer median stays.
        let more = [46, 46, 47, 47, 47, 47, 47, 47, 47, 49];
        assert!(median_u64(&more).unwrap() < m);
    }

    #[test]
    fn the_quietest_quarter_leaves_out_a_slow_episode_over_most_of_a_section() {
        // 1 000 rounds of 1.0, of which the first 750 ran 30 % slower:
        // the five fast windows of 50 rounds are kept.
        let mut rounds = vec![1.3; 750];
        rounds.extend([1.0; 250]);
        let q = quietest(&rounds).unwrap();
        assert_eq!((q.windows, q.kept), (WINDOWS, 5));
        assert_eq!(q.rounds, vec![1.0; 250]);
        assert_eq!((q.median(), q.rate()), (1.0, 1.0));
        // The whole section's median and rate moved with the episode.
        assert_eq!(median(&rounds), Some(1.3));
        assert!(rounds.len() as f64 / rounds.iter().sum::<f64>() < 0.85);
    }

    #[test]
    fn a_stalled_round_drops_its_window() {
        // Twenty windows of three rounds; the first has the lowest median,
        // but one of its rounds stalled, so its rate ranks it last.
        let mut rounds = vec![1.1; 60];
        rounds[..3].copy_from_slice(&[1.0, 1.0, 9.0]);
        let q = quietest(&rounds).unwrap();
        assert_eq!(q.rounds, vec![1.1; 15]);
        assert_eq!(q.median(), 1.1);
    }

    #[test]
    fn whole_windows_are_kept() {
        // 40 rounds make 20 windows of two; the five fastest hold the ten
        // shortest rounds.
        let rounds: Vec<f64> = (0..40).map(|r| f64::from(40 - r)).collect();
        let q = quietest(&rounds).unwrap();
        assert_eq!((q.windows, q.kept), (WINDOWS, 5));
        let mut kept = q.rounds.clone();
        kept.sort_by(f64::total_cmp);
        assert_eq!(kept, (1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((q.median(), q.rate()), (5.5, 10.0 / 55.0));
        // Fewer rounds than windows: a window per round, and a quarter of
        // them kept, rounded up.
        let q = quietest(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!((q.windows, q.kept, q.rounds), (5, 2, vec![1.0, 2.0]));
        assert!(quietest(&[]).is_none());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 distinct samples: p90 is the 90th, and exactly 10 lie
        // beyond it — the smallest run for which the tail is resolved.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred, TAIL_Q).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));
        assert!(t.is_resolved());

        // 99 samples leave only 9 beyond the nearest-rank p90.
        let t = tail(&hundred[..99], TAIL_Q).unwrap();
        assert_eq!((t.samples, t.beyond), (99, 9));
        assert!(!t.is_resolved());

        // Ties at the percentile do not count as beyond it.
        let mut flat = vec![1.0; 95];
        flat.extend([2.0; 5]);
        let t = tail(&flat, TAIL_Q).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 5));
        assert!(!t.is_resolved());
        assert!(tail(&[], TAIL_Q).is_none());
    }
}

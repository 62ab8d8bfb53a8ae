//! Link bandwidth model.
//!
//! Paper §2: "We assume that the bandwidth available on the links of the
//! host network H is log n times larger than the bandwidth on the links of
//! the guest network G. … Hence, P pebbles can be passed along a d-delay
//! link in d + ⌈P / log n⌉ − 1 steps. This assumption can be removed by
//! paying an extra factor of log n in the slowdown."

use serde::{Deserialize, Serialize};

/// How many pebbles a host link carries per tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandwidthMode {
    /// The paper's assumption: `⌈log₂ n⌉` pebbles per tick (`n` = host
    /// size), minimum 1.
    #[default]
    LogN,
    /// A fixed bandwidth; `Fixed(1)` reproduces the "pay an extra log n"
    /// regime.
    Fixed(u32),
}

impl BandwidthMode {
    /// Pebbles per tick for a host with `n` processors.
    pub fn per_tick(&self, n: u32) -> u32 {
        match *self {
            BandwidthMode::LogN => ((n.max(2) as f64).log2().ceil() as u32).max(1),
            BandwidthMode::Fixed(b) => b.max(1),
        }
    }

    /// Transit time of a batch of `p` pebbles over a delay-`d` link:
    /// `d + ⌈p/bw⌉ − 1` (the paper's formula). `p = 0` returns 0.
    ///
    /// ```
    /// use overlap_sim::BandwidthMode;
    /// // 100 pebbles over a delay-5 link with log₂(1024) = 10 pebbles/tick:
    /// assert_eq!(BandwidthMode::LogN.batch_transit(1024, 5, 100), 14);
    /// ```
    pub fn batch_transit(&self, n: u32, d: u64, p: u64) -> u64 {
        if p == 0 {
            return 0;
        }
        let bw = self.per_tick(n) as u64;
        d + p.div_ceil(bw) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_n_bandwidth() {
        assert_eq!(BandwidthMode::LogN.per_tick(2), 1);
        assert_eq!(BandwidthMode::LogN.per_tick(1024), 10);
        assert_eq!(BandwidthMode::LogN.per_tick(1000), 10);
        assert_eq!(BandwidthMode::LogN.per_tick(1), 1);
    }

    #[test]
    fn fixed_bandwidth_clamps_to_one() {
        assert_eq!(BandwidthMode::Fixed(0).per_tick(64), 1);
        assert_eq!(BandwidthMode::Fixed(7).per_tick(64), 7);
    }

    #[test]
    fn batch_transit_matches_paper_formula() {
        // P pebbles over a d-delay link in d + ceil(P/bw) - 1 steps.
        let m = BandwidthMode::Fixed(4);
        assert_eq!(m.batch_transit(0, 10, 1), 10);
        assert_eq!(m.batch_transit(0, 10, 4), 10);
        assert_eq!(m.batch_transit(0, 10, 5), 11);
        assert_eq!(m.batch_transit(0, 10, 8), 11);
        assert_eq!(m.batch_transit(0, 10, 0), 0);
    }

    #[test]
    fn log_n_transit_for_1024_hosts() {
        let m = BandwidthMode::LogN;
        // bw = 10: 100 pebbles over delay-5 link: 5 + 10 - 1 = 14.
        assert_eq!(m.batch_transit(1024, 5, 100), 14);
    }
}

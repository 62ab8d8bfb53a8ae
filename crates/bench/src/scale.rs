//! Experiment scales.

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps for tests and smoke runs (seconds).
    Quick,
    /// The full sweeps recorded in EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    /// Pick between the quick and full variants of a parameter.
    pub fn pick<T: Copy>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}

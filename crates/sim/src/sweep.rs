//! Rayon-parallel parameter-sweep driver.
//!
//! Every experiment in the paper reproduction is a sweep over hosts,
//! guests, and assignment strategies — hundreds of independent simulator
//! runs. [`par_map`] fans them out across cores; each run is fully
//! deterministic, so the parallel sweep's results are identical to a
//! sequential one.

use rayon::prelude::*;

/// Map `f` over `items` in parallel, preserving order.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Send + Sync,
{
    items.par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<u64> = (0..100).collect();
        let ys = par_map(&xs, |&x| x * x);
        assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }
}

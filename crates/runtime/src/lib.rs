//! The serial `Pool` the benchmark package still names.
//!
//! Every cell of the paper's evaluation grid is an independent closed-loop
//! simulation, and the whole `experiments all` sweep takes about 0.15 s on
//! one thread, so the reproduction runs everything on the calling thread.
//! [`Pool`] keeps the signatures the benchmark calls; it holds no state,
//! creates no thread and maps in input order.

/// A stateless stand-in for a worker pool: every call runs on the
/// calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pool;

impl Pool {
    /// A pool; the requested worker count is ignored.
    pub fn new(_workers: usize) -> Self {
        Pool
    }

    /// Maps `f` over `items` in input order on the calling thread.
    pub fn parallel_map<T, R, F: FnMut(T) -> R>(&self, items: Vec<T>, f: F) -> Vec<R> {
        items.into_iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let out = Pool::new(4).parallel_map((0..257u64).collect(), |x| x * x);
        assert_eq!(out, (0..257u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        // The worker count is ignored, so it cannot change a result.
        let work = |x: u64| x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let one = Pool::new(1).parallel_map((0..200u64).collect(), work);
        let four = Pool::new(4).parallel_map((0..200u64).collect(), work);
        assert_eq!(one, four);
    }

    #[test]
    fn nested_parallel_map_does_not_deadlock() {
        let pool = Pool::new(2);
        let out = pool.parallel_map((0..8u64).collect(), |outer| {
            pool.parallel_map((0..8u64).collect(), |inner| outer * 10 + inner)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8u64)
            .map(|o| (0..8).map(|i| o * 10 + i).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panics_in_jobs_propagate_not_hang() {
        // A failing cell surfaces its own message, and the pool keeps
        // working afterwards.
        let pool = Pool::new(3);
        let r = std::panic::catch_unwind(|| {
            pool.parallel_map((0..16u32).collect(), |x| {
                assert!(x != 7, "cell 7 diverged: budget {} W unsatisfiable", 80);
                x
            });
        });
        let payload = r.expect_err("the cell's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert_eq!(msg, "cell 7 diverged: budget 80 W unsatisfiable");
        assert_eq!(pool.parallel_map(vec![1u32, 2], |x| x + 1), vec![2, 3]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = Pool::new(2).parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}

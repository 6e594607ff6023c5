//! Offline shim for the subset of the `criterion` 0.5 API this workspace
//! uses: `Criterion::bench_function`, `Criterion::benchmark_group` with
//! `Throughput::Elements`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros. Reports the median of a handful of
//! wall-clock samples — enough to track simulator throughput, with none
//! of criterion's statistics engine. See `shims/README.md`.

use std::time::{Duration, Instant};

pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id, None, f);
        self
    }

    /// A group of benchmarks sharing a name prefix and, optionally, a
    /// per-iteration element count for throughput reporting.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            elements: None,
        }
    }

    fn run<F>(&mut self, id: &str, elements: Option<u64>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        // Warm-up: also calibrates iterations-per-sample so each sample
        // runs long enough for the clock to resolve it.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warm_deadline = Instant::now() + self.warm_up_time;
        let mut per_iter = Duration::from_nanos(100);
        while Instant::now() < warm_deadline {
            f(&mut b);
            if b.elapsed > Duration::ZERO {
                per_iter = b.elapsed / b.iters as u32;
            }
        }

        let budget = self.measurement_time.as_nanos() / self.sample_size as u128;
        let iters = (budget / per_iter.as_nanos().max(1)).clamp(1, u32::MAX as u128) as u64;

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            b.iters = iters;
            f(&mut b);
            samples.push(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let (lo, hi) = (samples[0], samples[samples.len() - 1]);
        println!("{id:<40} median {median:>12.1} ns/iter   (min {lo:.1}, max {hi:.1}, {n} samples x {iters} iters)",
            n = self.sample_size);
        if let Some(n) = elements {
            println!(
                "{:<40} median {:>12.1} ns/elem  ({n} elements/iter)",
                "",
                median / n as f64
            );
        }
    }
}

/// Work done by one iteration, for per-element reporting.
pub enum Throughput {
    /// Elements (samples, items) processed per iteration.
    Elements(u64),
}

/// Benchmarks reported as `group/id`, with an optional [`Throughput`].
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    elements: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Report the following benchmarks per element as well as per
    /// iteration.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        let Throughput::Elements(n) = t;
        self.elements = Some(n);
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{id}", self.name);
        self.criterion.run(&id, self.elements, f);
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `iters` calls of `routine`; the result is kept alive to stop
    /// trivial dead-code elimination (callers typically also `black_box`).
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Re-export for call sites that use `criterion::black_box`.
pub use std::hint::black_box;

#[macro_export]
macro_rules! criterion_group {
    ( name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)? ) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ( $name:ident, $($target:path),+ $(,)? ) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

#[macro_export]
macro_rules! criterion_main {
    ( $($group:path),+ $(,)? ) => {
        fn main() {
            $( $group(); )+
        }
    };
}

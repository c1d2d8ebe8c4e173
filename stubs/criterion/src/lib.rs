//! Offline stand-in for the subset of `criterion` this repository's
//! benches use (the registry is unreachable where it is developed):
//! `Criterion` with `sample_size`/`measurement_time`/`warm_up_time`,
//! `benchmark_group`, `bench_function`, `Bencher::{iter, iter_batched,
//! iter_custom}`, `Throughput`, `BatchSize` and the two macros
//! (including the `name = ..; config = ..; targets = ..` form). It
//! warms up, takes `sample_size` timed samples and prints min / median
//! / max per iteration (plus throughput when declared) — no statistics,
//! no plots, no saved baselines. Command line: `--test` runs every
//! benchmark body once, a bare word filters by name substring, other
//! flags (`--bench`) are accepted and ignored.

use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

#[derive(Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

#[derive(Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        let mut c = Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
            test_mode: false,
            filter: None,
        };
        for arg in std::env::args().skip(1) {
            if arg == "--test" {
                c.test_mode = true;
            } else if !arg.starts_with('-') {
                c.filter = Some(arg);
            }
        }
        c
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Criterion {
        self.measurement_time = t;
        self
    }

    pub fn warm_up_time(mut self, t: Duration) -> Criterion {
        self.warm_up_time = t;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            sample_size: self.sample_size,
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) -> &mut Criterion {
        let (id, samples) = (id.into(), self.sample_size);
        self.run(&id, samples, None, f);
        self
    }

    fn run(&self, id: &str, samples: usize, throughput: Option<Throughput>, mut f: impl FnMut(&mut Bencher)) {
        if self.filter.as_ref().is_some_and(|want| !id.contains(want.as_str())) {
            return;
        }
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        if self.test_mode {
            f(&mut b);
            println!("Testing {id}: Success");
            return;
        }
        // Warm up, doubling the batch, to learn the cost of one iteration.
        let warm = Instant::now();
        let mut per_iter = loop {
            f(&mut b);
            let per_iter = b.elapsed.as_secs_f64() / b.iters as f64;
            if warm.elapsed() >= self.warm_up_time {
                break per_iter;
            }
            b.iters = b.iters.saturating_mul(2);
        };
        per_iter = per_iter.max(1e-9);
        let budget = self.measurement_time.as_secs_f64() / samples as f64;
        b.iters = ((budget / per_iter) as u64).max(1);
        let mut times: Vec<f64> = (0..samples)
            .map(|_| {
                f(&mut b);
                b.elapsed.as_secs_f64() / b.iters as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let (lo, mid, hi) = (times[0], times[times.len() / 2], times[times.len() - 1]);
        let rate = match throughput {
            Some(Throughput::Bytes(n)) => format!("  thrpt: {:.1} MiB/s", n as f64 / mid / (1 << 20) as f64),
            Some(Throughput::Elements(n)) => format!("  thrpt: {:.0} elem/s", n as f64 / mid),
            None => String::new(),
        };
        println!("{id:<48} time: [{} {} {}]{rate}", fmt_time(lo), fmt_time(mid), fmt_time(hi));
    }
}

fn fmt_time(secs: f64) -> String {
    match secs {
        s if s < 1e-6 => format!("{:.2} ns", s * 1e9),
        s if s < 1e-3 => format!("{:.2} µs", s * 1e6),
        s if s < 1.0 => format!("{:.2} ms", s * 1e3),
        s => format!("{s:.2} s"),
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        self.criterion.run(&id, self.sample_size, self.throughput, f);
        self
    }

    pub fn finish(self) {}
}

/// Times one sample: the routine runs `iters` times per call.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// `setup` runs outside the timed region, once per iteration.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        self.elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.elapsed += start.elapsed();
        }
    }

    /// The routine times `iters` iterations itself.
    pub fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        self.elapsed = routine(self.iters);
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

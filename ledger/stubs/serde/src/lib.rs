//! Empty offline stand-in: the repository lists `serde` as a dependency of crates the benchmark builds but calls nothing from it there.

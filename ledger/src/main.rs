//! The `gkfs-ledger` executable; everything lives in the library so the
//! smoke test can reach it.

fn main() -> std::process::ExitCode {
    gkfs_ledger::cli::main()
}

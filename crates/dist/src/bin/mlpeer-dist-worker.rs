//! The standalone worker binary: a frame loop over stdin/stdout.
//!
//! Spawned by the coordinator (directly, or as `mlpeer-serve
//! --dist-worker`, which delegates here). Exits 0 on clean EOF, 1 on
//! a frame/protocol error.

fn main() {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    if let Err(e) = mlpeer_dist::run_worker(stdin, stdout) {
        eprintln!("mlpeer-dist-worker: {e}");
        std::process::exit(1);
    }
}

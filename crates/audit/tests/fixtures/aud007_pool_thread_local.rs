// Fixture: AUD007_UNREGISTERED_THREAD_LOCAL — a pool-worker lookalike.
// The pool keeps no thread-local worker identity (code on a worker
// passes its id along explicitly), and the catalog key is (file, name):
// a worker-identity thread-local declared in any file is an unregistered
// re-arm hazard and must be convicted.
thread_local! {
    static WORKER: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

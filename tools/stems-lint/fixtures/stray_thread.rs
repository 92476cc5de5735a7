//~ rule: std-thread
//~ path: crates/core/src/engine.rs
// Direct thread spawning outside runtime.rs bypasses
// `runtime::for_each_parallel`, the one place the engine starts threads.

pub fn fire_and_forget() {
    std::thread::spawn(|| {
        // ...
    });
}

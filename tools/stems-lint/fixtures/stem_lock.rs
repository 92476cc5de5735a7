//~ rule: stem-lock
//~ path: crates/core/src/sharded.rs
// A SteM that hides its probe buffers behind a lock so that probes can
// run through `&self`: the only callers already hold the whole SteM
// exclusively (`StemCell`'s guard), so the inner lock can never be
// contended and the exclusivity belongs in the signature. (A Mutex in the
// docs — like this one — stays silent, and so does the test module.)

use crate::sync::{lock_recover, Mutex};

pub struct ShardedStem {
    probe_pool: Mutex<ProbePool>,
}

impl ShardedStem {
    pub fn probe_batch_into(&self, out: &mut ProbeReplySet) {
        let mut pool = lock_recover(&self.probe_pool, |pool| *pool = ProbePool::default());
        pool.tasks.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::sync::{lock_ok, Mutex};
}

//~ rule: stem-lock
//~ path: crates/core/src/stem.rs
// A SteM that hides its probe buffers behind a lock so that probes can
// run through `&self`: the buffers belong in the caller's reply set, where
// every prober has its own, so the lock would only serialize readers. (A
// Mutex in the docs — like this one — stays silent, and so does the test
// module.)

use crate::sync::{lock_recover, Mutex};

pub struct Stem {
    probe: Mutex<ProbeScratch>,
}

impl Stem {
    pub fn probe_batch_into(&self, out: &mut ProbeReplySet) {
        let mut scratch = lock_recover(&self.probe, |s| *s = ProbeScratch::default());
        scratch.cols.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::sync::{lock_ok, Mutex};
}

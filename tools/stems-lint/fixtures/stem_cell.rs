//~ rule: stem-lock
//~ path: crates/core/src/plan.rs
// A SteM shared across queries behind a lock, outside `stem.rs`: every
// probe would take a lock that protects nothing a probe writes. (A
// `StemCell` or a Mutex<Stem> named in the docs stays silent, a lock
// around anything else is fine, and so is the test module.)

use crate::stem::Stem;
use crate::sync::{Arc, Mutex, RwLock};

pub struct StemCell(Arc<Mutex<Stem>>);

pub struct Registry {
    stems: Vec<Arc<RwLock<crate::stem::Stem>>>,
    memo: Mutex<MemoShard>,
    names: RwLock<Vec<StemKey>>,
}

#[cfg(test)]
mod tests {
    use crate::sync::Mutex;
    struct Shared(Mutex<super::Stem>);
}

//~ rule: default-hasher
//~ path: crates/core/src/memo.rs
// A memo shard and a grouping pass that hash with SipHash. (The Fx and
// identity-hashed maps, the hasher-taking constructor, the import and
// the test module stay silent.)

use std::collections::HashMap;

struct Shard {
    index: std::collections::HashMap<u64, Vec<usize>>,
    seen: HashSet<Value>,
    chains: HashMap<u64, (Slot, Slot), BuildIdentityHasher>,
    fx: FxHashMap<u64, usize>,
}
fn group() -> usize { let g = HashMap::new(); let s = HashSet::with_capacity(8); g.len() + s.len() }
fn collect(xs: &[u64]) -> usize { xs.iter().map(|x| (*x, 1)).collect::<HashMap<_, _>>().len() }
fn sized() -> HashSet<(u64, Vec<u8>)> { Default::default() }
fn keyed() -> usize { HashMap::<u64, u8, FxBuildHasher>::with_capacity_and_hasher(4, Default::default()).len() }

#[cfg(test)]
mod tests {
    fn model() -> std::collections::HashMap<u64, bool> {
        Default::default()
    }
}

//~ rule: server-panic
//~ path: crates/core/src/server.rs
// A query slot whose state is asserted at run time. (The fallible
// helpers, a catalog lookup named `table_expect`, this comment's
// `.expect(` and the test module stay silent.)

fn retire(slot: &mut Option<Executor>) -> Report {
    let exec = slot.take().expect("active slot");
    exec.finish()
}

fn first(ids: &[usize]) -> usize {
    *ids.first().unwrap()
}

fn fine(ids: &[usize], catalog: &Catalog) -> usize {
    let n = catalog.table_expect(0).num_rows();
    ids.first().copied().unwrap_or(n) + ids.len().checked_sub(1).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests_are_fine() {
        assert_eq!(super::first(&[1]), Some(1).unwrap());
        Some(2).expect("two");
    }
}

//! GOOD: only `apply` touches durable state, one journal record at a
//! time; other methods read it. Staged at
//! `crates/core/src/server/state.rs` by the test harness.

impl ShardState {
    fn apply(&mut self, record: &JournalRecord) {
        self.accounts.insert(record.account().to_owned(), 1);
        self.session_counter += 1;
    }

    fn account_count(&self) -> usize {
        self.accounts.len()
    }
}

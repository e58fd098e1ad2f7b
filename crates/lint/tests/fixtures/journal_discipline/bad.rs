//! BAD: a method beside `apply` mutates a durable field directly,
//! creating state the journal never saw. Staged at
//! `crates/core/src/server/state.rs` by the test harness.

impl ShardState {
    fn open_session(&mut self, account: &str) {
        self.accounts.insert(account.to_owned(), 1);
    }
}

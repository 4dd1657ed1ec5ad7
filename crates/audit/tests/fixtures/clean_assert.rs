//! Known-clean fixture standing in for the workspace's Send + Sync
//! assertion file: it names every shareable type the clean fixture
//! workspace defines.

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_state_is_send_sync() {
    assert_send_sync::<CacheState>();
    assert_send_sync::<ReplayTrace>();
    assert_send_sync::<OnlinePolicy>();
}

//! A manual clock moves only when advanced; a real one only with time.

use std::time::Duration;

use faasm_telemetry::{Clock, Recorder};

#[test]
fn a_manual_clock_moves_only_when_advanced_and_clones_share_it() {
    let clock = Clock::manual();
    let recorder = Recorder::new(clock.clone());
    let (t0, ns0) = (clock.now(), recorder.now_ns());
    assert_eq!((clock.now(), recorder.now_ns()), (t0, ns0));
    recorder.clock().advance(Duration::from_millis(5));
    assert_eq!(clock.now() - t0, Duration::from_millis(5));
    assert_eq!(recorder.now_ns() - ns0, 5_000_000);
}

#[test]
fn a_real_clock_is_monotone() {
    let recorder = Recorder::default();
    let (t0, ns0) = (recorder.clock().now(), recorder.now_ns());
    assert!(recorder.clock().now() >= t0 && recorder.now_ns() >= ns0);
}

#[test]
#[should_panic(expected = "only a manual clock advances")]
fn a_real_clock_cannot_be_advanced() {
    Clock::real().advance(Duration::from_millis(1));
}

//! Byte-level traffic accounting.
//!
//! The paper's evaluation reports network transfer volumes directly
//! (Figs. 6b and 8b); every message that crosses the fabric is counted here,
//! including a fixed per-message header overhead so that chatty protocols
//! are charged realistically.

faasm_telemetry::counters! {
    /// Monotonic counters for one endpoint (or the fabric total).
    pub struct TrafficStats => TrafficSnapshot {
        /// Bytes sent.
        bytes_sent,
        /// Bytes received.
        bytes_received,
        /// Messages sent.
        msgs_sent,
        /// Messages received.
        msgs_received,
    }
}

impl TrafficStats {
    /// Record an outgoing message of `bytes` bytes.
    pub fn record_send(&self, bytes: u64) {
        self.bytes_sent.add(bytes);
        self.msgs_sent.inc();
    }

    /// Record an incoming message of `bytes` bytes.
    pub fn record_recv(&self, bytes: u64) {
        self.bytes_received.add(bytes);
        self.msgs_received.inc();
    }

    /// Sent + received bytes — the "Sent + recv (GB)" metric of Fig. 6b/8b.
    pub fn total_bytes(&self) -> u64 {
        self.snapshot().total_bytes()
    }
}

impl TrafficSnapshot {
    /// Sent + received bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = TrafficStats::new();
        s.record_send(100);
        s.record_send(50);
        s.record_recv(10);
        assert_eq!(s.bytes_sent(), 150);
        assert_eq!(s.bytes_received(), 10);
        assert_eq!(s.msgs_sent(), 2);
        assert_eq!(s.msgs_received(), 1);
        assert_eq!(s.total_bytes(), 160);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let s = std::sync::Arc::new(TrafficStats::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_send(3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.bytes_sent(), 12_000);
        assert_eq!(s.msgs_sent(), 4000);
    }
}

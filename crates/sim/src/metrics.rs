//! Traffic metrics collected by the simulator.
//!
//! Per-transport message and byte counters; these feed experiment E5
//! (rounds per operation) and E6 (`O(n)` bytes per request) of the
//! `experiments` binary in `faust-bench`.

use crate::Transport;

/// Counters of simulated network traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages sent on client↔server links.
    pub link_messages_sent: u64,
    /// Bytes sent on client↔server links.
    pub link_bytes_sent: u64,
    /// Link messages actually delivered (sends to crashed nodes are not).
    pub link_messages_delivered: u64,
    /// Messages sent on the offline client↔client channel.
    pub offline_messages_sent: u64,
    /// Bytes sent on the offline channel.
    pub offline_bytes_sent: u64,
    /// Offline messages actually delivered.
    pub offline_messages_delivered: u64,
}

impl Metrics {
    pub(crate) fn record_send(&mut self, transport: Transport, bytes: usize) {
        match transport {
            Transport::Link => {
                self.link_messages_sent += 1;
                self.link_bytes_sent += bytes as u64;
            }
            Transport::Offline => {
                self.offline_messages_sent += 1;
                self.offline_bytes_sent += bytes as u64;
            }
        }
    }

    pub(crate) fn record_delivery(&mut self, transport: Transport) {
        match transport {
            Transport::Link => self.link_messages_delivered += 1,
            Transport::Offline => self.offline_messages_delivered += 1,
        }
    }

    /// Total messages sent on both transports.
    pub fn total_messages_sent(&self) -> u64 {
        self.link_messages_sent + self.offline_messages_sent
    }

    /// Total bytes sent on both transports.
    pub fn total_bytes_sent(&self) -> u64 {
        self.link_bytes_sent + self.offline_bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_transports() {
        let mut m = Metrics::default();
        m.record_send(Transport::Link, 10);
        m.record_send(Transport::Offline, 5);
        assert_eq!(m.total_messages_sent(), 2);
        assert_eq!(m.total_bytes_sent(), 15);
    }
}

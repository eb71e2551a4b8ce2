//! An ICMP echo application whose targets are chosen after it starts.
//!
//! The repository's `PingApp` takes its target at construction, but a
//! dynamically addressed host learns its peers' addresses only after every
//! lease is bound. `Pinger` idles until the benchmark plans a run with
//! [`Pinger::plan`], then measures round-trip times as `PingApp` does: one
//! request per interval (to the planned targets in turn), replies matched by
//! sequence number, a request unanswered after the timeout counted as lost.

use std::any::Any;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ipop::{AppEnv, VirtualApp};
use ipop_netstack::SocketHandle;
use ipop_simcore::{Duration, SimTime};

const TIMEOUT: Duration = Duration::from_secs(5);
const PAYLOAD: usize = 56;

/// A pinger that idles until planned.
#[derive(Default)]
pub struct Pinger {
    socket: Option<SocketHandle>,
    targets: Vec<Ipv4Addr>,
    count: u32,
    interval: Duration,
    next_seq: u32,
    next_send_at: Option<SimTime>,
    /// Outstanding requests: sequence → (target, send instant).
    in_flight: BTreeMap<u16, (Ipv4Addr, SimTime)>,
    /// `(target, round-trip time in virtual milliseconds)`, in reply order.
    pub rtts_ms: Vec<(Ipv4Addr, f64)>,
    /// Requests that timed out or could not be sent.
    pub lost: u32,
    /// Replies that did not come from the host the request went to.
    pub strays: u32,
}

impl Pinger {
    /// Send `count` requests, one every `interval`, to `targets` in turn,
    /// starting at the application's next poll.
    pub fn plan(&mut self, targets: Vec<Ipv4Addr>, count: u32, interval: Duration) {
        self.targets = targets;
        self.count = count;
        self.interval = interval;
        self.next_seq = 0;
        self.next_send_at = None;
    }

    /// True once every planned request was answered or given up.
    pub fn done(&self) -> bool {
        self.rtts_ms.len() as u32 + self.lost >= self.count
    }
}

impl VirtualApp for Pinger {
    fn on_start(&mut self, env: &mut AppEnv<'_>) {
        self.socket = Some(env.stack.ping_open());
    }

    fn poll(&mut self, env: &mut AppEnv<'_>) -> Option<SimTime> {
        let socket = self.socket?;
        if self.targets.is_empty() {
            return None;
        }
        let now = env.now;
        while let Ok(Some(reply)) = env.stack.ping_recv(socket) {
            match self.in_flight.remove(&reply.sequence) {
                Some((to, sent)) if to == reply.from => self
                    .rtts_ms
                    .push((to, now.saturating_since(sent).as_millis_f64())),
                Some(entry) => {
                    self.strays += 1;
                    self.in_flight.insert(reply.sequence, entry);
                }
                None => self.strays += 1,
            }
        }
        let before = self.in_flight.len();
        self.in_flight
            .retain(|_, (_, sent)| now.saturating_since(*sent) <= TIMEOUT);
        self.lost += (before - self.in_flight.len()) as u32;
        let mut due = *self.next_send_at.get_or_insert(now);
        while self.next_seq < self.count && now >= due {
            let seq = self.next_seq as u16;
            let to = self.targets[self.next_seq as usize % self.targets.len()];
            if env.stack.ping_send(socket, to, seq, PAYLOAD).is_ok() {
                self.in_flight.insert(seq, (to, now));
            } else {
                self.lost += 1;
            }
            self.next_seq += 1;
            due += self.interval;
        }
        self.next_send_at = Some(due);
        if self.next_seq < self.count {
            Some(due)
        } else {
            self.in_flight.values().map(|&(_, t)| t + TIMEOUT).min()
        }
    }

    fn finished(&self) -> bool {
        !self.targets.is_empty() && self.done()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

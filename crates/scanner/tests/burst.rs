//! The engine delivers an address's probes as one burst: the record it
//! folds from the verdict masks, at the edges of the mask and of the
//! send clock, and that a network's burst overrides are invisible in the
//! scan's output.

use originscan_scanner::engine::{run_scan, ScanConfig, ScanOutput};
use originscan_scanner::probe::modules;
use originscan_scanner::target::{
    IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, Protocol, SynReply, UdpReply,
};
use originscan_scanner::MAX_PROBES;
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::{dns, tls, TcpHeader};

/// What a [`ByProbe`] net does with a probe.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    /// A reply that validates.
    Accept,
    /// A reply whose validation state is off by one.
    Spoof,
    /// Nothing.
    Drop,
}

/// Every address is live for every module, and the answer to a probe is
/// a function of its context alone. Only the scalar probes are
/// implemented: bursts reach them through the trait's provided loops.
struct ByProbe<F>(F);

impl<F: Fn(&ProbeCtx) -> Answer + Sync> Network for ByProbe<F> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        let mut h = TcpHeader::syn_ack_reply(probe, 7);
        match (self.0)(ctx) {
            Answer::Accept => SynReply::SynAck(h),
            Answer::Spoof => {
                h.ack = h.ack.wrapping_add(1);
                SynReply::SynAck(h)
            }
            Answer::Drop => SynReply::Silent,
        }
    }
    fn l7(&self, ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        L7Reply::Data(match ctx.protocol {
            Protocol::Https => tls::ServerHello {
                version: tls::VERSION_TLS12,
                cipher_suite: 0xc02f,
            }
            .emit(1),
            Protocol::Ssh => b"SSH-2.0-OpenSSH_7.4\r\n".to_vec(),
            // Stateless modules never open a connection.
            _ => b"HTTP/1.1 200 OK\r\n\r\n".to_vec(),
        })
    }
    fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        match (self.0)(ctx) {
            Answer::Accept => IcmpReply::EchoReply {
                ident: probe.ident,
                seq: probe.seq,
            },
            Answer::Spoof => IcmpReply::EchoReply {
                ident: probe.ident.wrapping_add(1),
                seq: probe.seq,
            },
            Answer::Drop => IcmpReply::Silent,
        }
    }
    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        let Ok(mut response) = dns::build_response(payload, dns::RCODE_NOERROR, &[0x0101_0101])
        else {
            return UdpReply::Silent;
        };
        match (self.0)(ctx) {
            Answer::Accept => UdpReply::Data(response),
            Answer::Spoof => {
                response[0] ^= 0x5a; // the transaction id
                UdpReply::Data(response)
            }
            Answer::Drop => UdpReply::Silent,
        }
    }
}

/// A [`ByProbe`] net that also overrides the bursts, answering each from
/// one pass over the burst instead of through the provided loops.
struct Bursting<F>(ByProbe<F>);

impl<F: Fn(&ProbeCtx) -> Answer + Sync> Bursting<F> {
    fn fill<R>(
        &self,
        ctx: &ProbeCtx,
        times: &[f64],
        replies: &mut [R],
        one: impl Fn(&ProbeCtx) -> R,
    ) {
        let probes = (ctx.probe_idx..).zip(times);
        for (reply, (probe_idx, &time_s)) in replies.iter_mut().zip(probes) {
            *reply = one(&ProbeCtx {
                time_s,
                probe_idx,
                ..*ctx
            });
        }
    }
}

impl<F: Fn(&ProbeCtx) -> Answer + Sync> Network for Bursting<F> {
    fn syn(&self, _ctx: &ProbeCtx, _probe: &TcpHeader) -> SynReply {
        panic!("the engine sends bursts")
    }
    fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
        self.0.l7(ctx, request)
    }
    fn icmp(&self, _ctx: &ProbeCtx, _probe: &IcmpEcho) -> IcmpReply {
        panic!("the engine sends bursts")
    }
    fn udp(&self, _ctx: &ProbeCtx, _payload: &[u8]) -> UdpReply {
        panic!("the engine sends bursts")
    }
    fn syn_burst(
        &self,
        ctx: &ProbeCtx,
        probe: &TcpHeader,
        times: &[f64],
        replies: &mut [SynReply],
    ) {
        self.fill(ctx, times, replies, |c| self.0.syn(c, probe));
    }
    fn icmp_burst(
        &self,
        ctx: &ProbeCtx,
        probe: &IcmpEcho,
        times: &[f64],
        replies: &mut [IcmpReply],
    ) {
        self.fill(ctx, times, replies, |c| self.0.icmp(c, probe));
    }
    fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], times: &[f64], replies: &mut [UdpReply]) {
        self.fill(ctx, times, replies, |c| self.0.udp(c, payload));
    }
}

fn cfg(protocol: Protocol, probes: u8) -> ScanConfig {
    let mut c = ScanConfig::new(256, protocol, 99);
    c.probes = probes;
    c.wire_check = true;
    // One probe per batch: each probe gets a send time of its own.
    c.rate_pps = 10.0;
    c.batch = 1;
    c
}

fn scan(net: &dyn Network, cfg: &ScanConfig) -> ScanOutput {
    run_scan(net, cfg).expect("a valid configuration")
}

#[test]
fn one_probe_and_eight_probes_fill_the_mask_edges() {
    let net = ByProbe(|_: &ProbeCtx| Answer::Accept);
    for m in modules() {
        for probes in [1, MAX_PROBES as u8] {
            let out = scan(&net, &cfg(m.protocol(), probes));
            let s = out.summary;
            let full = u8::MAX >> (8 - probes);
            assert_eq!(s.addresses_probed, 256, "{}", m.name());
            assert_eq!(s.probes_sent, u64::from(probes) * 256, "{}", m.name());
            assert_eq!(s.synacks, u64::from(probes) * 256, "{}", m.name());
            assert_eq!((s.l7_successes, s.validation_failures), (256, 0));
            assert_eq!(out.records.len(), 256);
            assert!(out.records.iter().all(|r| r.synack_mask == full));
            assert_eq!(s.duration_s, f64::from(probes) * 25.6);
        }
    }
}

#[test]
fn the_answering_probe_times_the_host() {
    // Probes 0 and 1 are lost; probe 2 of 4 is the first answer.
    let net = ByProbe(|c: &ProbeCtx| match c.probe_idx {
        0 | 1 => Answer::Drop,
        _ => Answer::Accept,
    });
    for m in modules() {
        for delay in [0.0, 900.0] {
            let mut c = cfg(m.protocol(), 4);
            c.probe_delay_s = delay;
            let out = scan(&net, &c);
            assert_eq!(out.records.len(), 256, "{}", m.name());
            for (r, nth) in out.records.iter().zip(0u32..) {
                // Address `nth` of the permutation owns pacer slots
                // 4·nth .. 4·nth + 3 at 10 probes a second.
                let sent = f64::from(4 * nth + 2) / 10.0 + 2.0 * delay;
                assert_eq!(r.synack_mask, 0b1100, "{}", m.name());
                assert_eq!(r.response_time_s, sent, "{} +{delay}", m.name());
            }
        }
    }
}

#[test]
fn an_invalid_first_reply_does_not_hide_a_valid_second() {
    let net = ByProbe(|c: &ProbeCtx| match c.probe_idx {
        0 => Answer::Spoof,
        _ => Answer::Accept,
    });
    for m in modules() {
        let out = scan(&net, &cfg(m.protocol(), 2));
        assert_eq!(out.summary.validation_failures, 256, "{}", m.name());
        assert_eq!(out.summary.synacks, 256, "{}", m.name());
        assert_eq!(out.records.len(), 256, "{}", m.name());
        for (r, nth) in out.records.iter().zip(0u32..) {
            assert_eq!(r.synack_mask, 0b10, "{}", m.name());
            assert_eq!(r.response_time_s, f64::from(2 * nth + 1) / 10.0);
            assert!(r.l7_success(), "{}", m.name());
        }
    }
}

#[test]
fn burst_overrides_do_not_show_in_the_output() {
    // Answers that turn with address, probe index and send time.
    fn turning(c: &ProbeCtx) -> Answer {
        match (c.dst + u32::from(c.probe_idx) + c.time_s as u32) % 5 {
            0 | 1 => Answer::Accept,
            2 => Answer::Spoof,
            _ => Answer::Drop,
        }
    }
    for m in modules() {
        for (probes, delay) in [(1, 0.0), (2, 0.0), (3, 7.0), (MAX_PROBES as u8, 0.5)] {
            let mut c = cfg(m.protocol(), probes);
            c.probe_delay_s = delay;
            let scalar = scan(&ByProbe(turning), &c);
            let burst = scan(&Bursting(ByProbe(turning)), &c);
            assert_eq!(scalar, burst, "{} × {probes} +{delay}", m.name());
            assert!(scalar.summary.validation_failures > 0);
            assert!(scalar.summary.synacks > 0);
        }
    }
}

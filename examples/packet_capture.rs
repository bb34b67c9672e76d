//! Packet capture: record a mini-scan's probe/reply exchange to a pcap
//! file you can open in Wireshark or tcpdump.
//!
//! The scanner's wire formats are real (IPv4 + TCP with valid checksums,
//! ZMap-style validation sequence numbers), so the capture looks exactly
//! like a slice of a genuine ZMap run against responsive hosts.
//!
//! ```sh
//! cargo run --release --example packet_capture -- /tmp/originscan.pcap
//! tcpdump -nn -r /tmp/originscan.pcap | head
//! ```

use originscan::netmodel::{OriginId, Protocol, SimNet, WorldConfig};
use originscan::scanner::target::{Network, ProbeCtx, SynReply};
use originscan::scanner::Cycle;
use originscan::wire::ipv4::Ipv4Header;
use originscan::wire::tcp::TcpHeader;
use originscan::wire::validation::Validator;
use originscan::wire::PcapWriter;
use std::fs::File;
use std::io::BufWriter;

fn main() -> std::io::Result<()> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/originscan.pcap".into());
    let world = WorldConfig::tiny(3).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, 21.0 * 3600.0);

    let seed = 7u64;
    let validator = Validator::from_seed(seed);
    let cycle = Cycle::new(world.space(), seed);
    let src_ip = 0x0a00_0001u32;
    let dport = originscan::scanner::probe::module_for(Protocol::Http).port();

    let mut pcap = PcapWriter::new(BufWriter::new(File::create(&path)?))?;
    let mut time = 0.0f64;
    // Capture the first 2,000 addresses of the permutation.
    for addr64 in cycle.iter().take(2000) {
        let addr = addr64 as u32;
        time += 1e-5; // 100k pps
        let seq = validator.probe_seq(src_ip, addr, 40000, dport);
        let probe = TcpHeader::syn_probe(40000, dport, seq);
        let ip = Ipv4Header::for_tcp(src_ip, addr, probe.wire_len());
        let mut pkt = ip.emit().to_vec();
        pkt.extend_from_slice(&probe.emit(&ip));
        pcap.packet(time, &pkt)?;

        let ctx = ProbeCtx {
            origin: 0,
            src_ip,
            dst: addr,
            protocol: Protocol::Http,
            time_s: time,
            probe_idx: 0,
            trial: 0,
        };
        let reply = match net.syn(&ctx, &probe) {
            SynReply::SynAck(h) | SynReply::Rst(h) => h,
            SynReply::Silent => continue,
        };
        let rip = Ipv4Header::for_tcp(addr, src_ip, reply.wire_len());
        let mut pkt = rip.emit().to_vec();
        pkt.extend_from_slice(&reply.emit(&rip));
        pcap.packet(time + 0.08, &pkt)?; // ~80 ms RTT
    }
    let n = pcap.packet_count();
    pcap.finish()?;
    println!("wrote {n} packets to {path}");
    println!("inspect with: tcpdump -nn -r {path} | head");
    Ok(())
}

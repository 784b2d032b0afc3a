//! The attacker's-eye view: hex dumps of actual bus packets.
//!
//! Issues the same three requests — read X, read X again, write X — on a
//! plaintext bus and on ObfusMem, and prints exactly the bytes a probe on
//! the exposed wires captures. On the plain bus the repeated address and
//! the request types are legible; under ObfusMem every field is
//! single-use ciphertext and every request is a read-then-write pair.
//!
//! ```text
//! cargo run --release --example bus_probe
//! ```

use obfusmem::core::backend::ObfusMemBackend;
use obfusmem::core::busmsg::Direction;
use obfusmem::core::config::{ObfusMemConfig, SecurityLevel};
use obfusmem::core::tap::CollectingTap;
use obfusmem::cpu::core::MemoryBackend;
use obfusmem::mem::config::MemConfig;
use obfusmem::mem::request::BlockAddr;
use obfusmem::sim::time::Time;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn dump(label: &str, security: SecurityLevel) {
    let cfg = ObfusMemConfig {
        security,
        ..ObfusMemConfig::paper_default()
    };
    let mut backend = ObfusMemBackend::new(cfg, MemConfig::table2(), 1234);
    let tap = CollectingTap::default();
    backend.set_bus_tap(tap.handle());

    let x = BlockAddr::containing(0x0004_2040);
    let mut t = Time::ZERO;
    t = backend.read(t, x);
    t = backend.read(t, x); // the revisit a probe wants to link
    backend.write(t, x);

    println!("== {label} ==");
    for (i, event) in tap.take().iter().enumerate() {
        if event.direction != Direction::ToMemory {
            continue;
        }
        let shape = if event.packet.data_ct.is_some() {
            "hdr+data"
        } else {
            "hdr only"
        };
        println!(
            "  pkt {i:>2} @{:<12} [{shape:^8}] header = {}",
            event.at.to_string(),
            hex(&event.packet.header_ct)
        );
    }
    println!();
}

fn main() {
    println!("three requests: read 0x42040, read 0x42040 again, write 0x42040\n");
    dump(
        "plaintext bus (what DDR exposes today)",
        SecurityLevel::Unprotected,
    );
    dump(
        "ObfusMem+Auth (counter-mode packets, paired dummies)",
        SecurityLevel::ObfuscateAuth,
    );
    println!(
        "On the plain bus, packets 0 and 1 are byte-identical (the probe links the\n\
         revisit) and the type byte is readable. Under ObfusMem the same three\n\
         requests produce six packets — each request paired with an opposite-shaped\n\
         dummy — and no sixteen-byte header ever repeats."
    );
}

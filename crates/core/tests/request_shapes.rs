//! Golden request-shape oracle for `ObfusMemBackend`.
//!
//! Runs a fixed-seed read/write mix through every packet shape (§3.3
//! paired dummies, dummy substitution, uniform packets) crossed with the
//! timing mode, the fault-injecting link, the protection level and the
//! memory controller, and pins one FNV-1a digest over every returned
//! fill time, the backend's metrics snapshot (`BackendStats`, device,
//! link and recovery counters) and the bytes of every bus event. Any
//! refactor of the request path must leave this digest unchanged.
//!
//! On a mismatch the per-combination digests are printed, so a diff
//! against the same test at a known-good commit names the shape that
//! moved.

use std::cell::RefCell;
use std::rc::Rc;

use obfusmem_core::backend::ObfusMemBackend;
use obfusmem_core::busmsg::{BusEvent, Direction};
use obfusmem_core::config::{
    FaultPlan, ObfusMemConfig, PairingOrder, SecurityLevel, TimingMode, TypeHiding,
};
use obfusmem_core::tap::{BusTap, BusTapHandle};
use obfusmem_cpu::core::MemoryBackend;
use obfusmem_mem::config::{BackendKind, MemConfig};
use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
use obfusmem_mem::request::BlockAddr;
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::time::Time;

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Folds every bus event into a digest as it is emitted.
struct Digesting(Fnv);

impl BusTap for Digesting {
    fn on_event(&mut self, e: &BusEvent) {
        let h = &mut self.0;
        h.u64(e.at.as_ps());
        h.u64(e.channel as u64);
        h.u64(matches!(e.direction, Direction::ToMemory) as u64);
        h.bytes(&e.packet.header_ct);
        match &e.packet.data_ct {
            Some(d) => h.bytes(d),
            None => h.u64(u64::MAX),
        }
        match &e.packet.tag {
            Some(t) => h.bytes(t),
            None => h.u64(u64::MAX),
        }
        h.u64(e.truth.real as u64);
        h.u64(e.truth.kind as u64);
        h.u64(e.truth.addr);
    }
}

/// Drives `b` through the fixed mix and folds fill times plus the
/// final metrics snapshot into `h`.
fn drive(b: &mut ObfusMemBackend, h: &mut Fnv) {
    let mut rng = SplitMix64::new(0x5AFE_5EED);
    let mut t = Time::ZERO;
    for i in 0..200 {
        // Occasional same-instant bursts drain the pad buffers (pad
        // stalls) and keep channels busy (injection suppression).
        if i % 64 < 40 {
            t = Time::from_ps(t.as_ps() + rng.below(4) * rng.below(60_000));
        }
        let hot = rng.chance(0.5);
        let block = if hot {
            rng.below(64)
        } else {
            rng.below(1 << 16)
        };
        let addr = BlockAddr::containing(block * 64);
        if rng.chance(0.4) {
            b.write(t, addr);
        } else {
            h.u64(b.read(t, addr).as_ps());
        }
    }
    b.drain_posted();
    let mut m = MetricsNode::new();
    b.observe_metrics(&mut m);
    h.bytes(m.to_json().as_bytes());
}

/// One combination's digest: an untapped run (what sweeps execute) and
/// a tapped run (what the security analyses see), back to back.
fn combo_digest(cfg: ObfusMemConfig, mem: &MemConfig) -> u64 {
    let mut h = Fnv::new();
    let mut plain = ObfusMemBackend::new(cfg, mem.clone(), 0x0B5E);
    drive(&mut plain, &mut h);
    let tap = Rc::new(RefCell::new(Digesting(Fnv::new())));
    let mut tapped = ObfusMemBackend::new(cfg, mem.clone(), 0x0B5E);
    tapped.set_bus_tap(BusTapHandle::attached(tap.clone()));
    drive(&mut tapped, &mut h);
    h.u64(tap.borrow().0 .0);
    h.0
}

fn link_faults() -> FaultPlan {
    FaultPlan {
        bit_flip: 0.1,
        drop: 0.01,
        duplicate: 0.01,
        replay: 0.01,
        reorder: 0.01,
        delay_burst: 0.01,
        seed: 0xFA017,
    }
}

/// Checks the combined digest, printing the per-combination table on a
/// mismatch.
fn check(name: &str, combos: &[(String, u64)], expected: u64) {
    let mut h = Fnv::new();
    for (_, d) in combos {
        h.u64(*d);
    }
    if h.0 != expected {
        for (label, d) in combos {
            eprintln!("{label:<64} {d:#018x}");
        }
        panic!("{name}: digest {:#018x} != pinned {expected:#018x}", h.0);
    }
}

#[test]
fn request_shapes_golden_digest() {
    let mut combos = Vec::new();
    for type_hiding in [
        TypeHiding::SplitDummy,
        TypeHiding::SplitDummyWithSubstitution,
        TypeHiding::UniformPackets,
    ] {
        for timing in [TimingMode::AsReady, TimingMode::FixedSlots] {
            for faults in [FaultPlan::default(), link_faults()] {
                for security in [SecurityLevel::Obfuscate, SecurityLevel::ObfuscateAuth] {
                    for backend in [BackendKind::Reservation, BackendKind::Queued] {
                        let cfg = ObfusMemConfig {
                            security,
                            type_hiding,
                            timing,
                            faults,
                            ..ObfusMemConfig::paper_default()
                        };
                        let mem = MemConfig::table2().with_channels(2).with_backend(backend);
                        let label = format!(
                            "{type_hiding:?}/{timing:?}/link={}/{security:?}/{backend:?}",
                            faults.is_active()
                        );
                        combos.push((label, combo_digest(cfg, &mem)));
                    }
                }
            }
        }
    }
    for faults in [FaultPlan::default(), link_faults()] {
        let cfg = ObfusMemConfig {
            type_hiding: TypeHiding::SplitDummy,
            pairing: PairingOrder::WriteThenRead,
            faults,
            ..ObfusMemConfig::paper_default()
        };
        let mem = MemConfig::table2().with_channels(2);
        let label = format!("SplitDummy/WriteThenRead/link={}", faults.is_active());
        combos.push((label, combo_digest(cfg, &mem)));
    }
    // A corruption storm with tight escalation thresholds: the link
    // re-keys, quarantines a channel and the backend re-steers its
    // traffic onto the survivor.
    for type_hiding in [
        TypeHiding::SplitDummy,
        TypeHiding::SplitDummyWithSubstitution,
        TypeHiding::UniformPackets,
    ] {
        let mut cfg = ObfusMemConfig {
            type_hiding,
            faults: FaultPlan {
                bit_flip: 0.5,
                seed: 0x5702,
                ..FaultPlan::default()
            },
            ..ObfusMemConfig::paper_default()
        };
        cfg.link.rekey_threshold = 1;
        cfg.link.quarantine_threshold = 2;
        cfg.link.max_retries = 64;
        let mem = MemConfig::table2().with_channels(2);
        combos.push((format!("{type_hiding:?}/storm"), combo_digest(cfg, &mem)));
    }
    check("request shapes", &combos, 0xb980_93df_df37_d72f);
}

/// The device-fault recovery ladder (retry, resync, block retirement,
/// bank quarantine and migration) under every protection level and
/// every obfuscated packet shape.
#[test]
fn recovery_ladder_golden_digest() {
    let mut combos = Vec::new();
    for (security, type_hiding) in [
        (SecurityLevel::Unprotected, TypeHiding::SplitDummy),
        (SecurityLevel::EncryptOnly, TypeHiding::SplitDummy),
        (SecurityLevel::ObfuscateAuth, TypeHiding::SplitDummy),
        (
            SecurityLevel::ObfuscateAuth,
            TypeHiding::SplitDummyWithSubstitution,
        ),
        (SecurityLevel::ObfuscateAuth, TypeHiding::UniformPackets),
    ] {
        for (kind, rate) in [
            (DeviceFaultKind::BitFlip, 0.05),
            (DeviceFaultKind::StuckCell, 0.05),
            (DeviceFaultKind::RowFail, 0.02),
            (DeviceFaultKind::BankFail, 0.2),
        ] {
            let cfg = ObfusMemConfig {
                security,
                type_hiding,
                device_faults: DeviceFaultPlan::single(kind, rate, 0xD4A17),
                ..ObfusMemConfig::paper_default()
            };
            let mem = MemConfig::table2().with_channels(2);
            let label = format!("{security:?}/{type_hiding:?}/{kind:?}");
            combos.push((label, combo_digest(cfg, &mem)));
        }
    }
    check("recovery ladder", &combos, 0x3428_da33_733d_25c1);
}

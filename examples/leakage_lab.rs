//! Leakage lab: watch what a bus probe learns at each protection level.
//!
//! Drives the same hot-set-plus-streaming address pattern through four bus
//! configurations — plaintext, encrypt-only (data ciphertext, plaintext
//! addresses), the §3.2 ECB strawman, and full ObfusMem CTR — and scores
//! the passive attacks from `obfusmem-sec` on each trace. This is Table 4's
//! top half, made tangible.
//!
//! ```text
//! cargo run --release --example leakage_lab
//! ```

use obfusmem::core::backend::ObfusMemBackend;
use obfusmem::core::config::{AddressCipherMode, ObfusMemConfig, SecurityLevel};
use obfusmem::core::tap::CollectingTap;
use obfusmem::cpu::core::MemoryBackend;
use obfusmem::mem::config::MemConfig;
use obfusmem::mem::request::BlockAddr;
use obfusmem::sec::leakage;
use obfusmem::sim::rng::SplitMix64;
use obfusmem::sim::time::Time;

fn trace(
    security: SecurityLevel,
    mode: AddressCipherMode,
) -> Vec<obfusmem::core::busmsg::BusEvent> {
    let cfg = ObfusMemConfig {
        security,
        address_mode: mode,
        ..ObfusMemConfig::paper_default()
    };
    let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 77);
    let tap = CollectingTap::default();
    b.set_bus_tap(tap.handle());
    let mut rng = SplitMix64::new(99);
    let mut t = Time::ZERO;
    let mut cursor = 5_000u64;
    for _ in 0..800 {
        // 60% hot-set reuse over 12 blocks, 25% sequential streaming,
        // 15% cold jumps — enough structure for every attack to bite on
        // an unprotected bus.
        let block = if rng.chance(0.6) {
            rng.below(12)
        } else if rng.chance(0.6) {
            cursor += 1;
            cursor
        } else {
            cursor = rng.below(100_000) + 10_000;
            cursor
        };
        t = b.read(t, BlockAddr::from_index(block));
        if rng.chance(0.3) {
            b.write(t, BlockAddr::from_index(block));
        }
    }
    tap.take()
}

fn main() {
    println!(
        "{:<22} {:>9} {:>9} {:>10} {:>9} {:>9}",
        "bus configuration", "temporal", "hot-set", "footprint", "type adv", "spatial"
    );
    println!(
        "{:<22} {:>9} {:>9} {:>10} {:>9} {:>9}",
        "(ideal for attacker)", "1.0", "1.0", "~1.0", ">0", "1.0"
    );

    let configs: [(&str, SecurityLevel, AddressCipherMode); 4] = [
        (
            "plaintext bus",
            SecurityLevel::Unprotected,
            AddressCipherMode::Ctr,
        ),
        (
            "encrypt-only",
            SecurityLevel::EncryptOnly,
            AddressCipherMode::Ctr,
        ),
        (
            "ObfusMem (ECB straw)",
            SecurityLevel::Obfuscate,
            AddressCipherMode::Ecb,
        ),
        (
            "ObfusMem (CTR)",
            SecurityLevel::ObfuscateAuth,
            AddressCipherMode::Ctr,
        ),
    ];
    for (label, security, mode) in configs {
        let events = trace(security, mode);
        let r = leakage::analyze(&events);
        println!(
            "{:<22} {:>9.2} {:>9.2} {:>10.2} {:>+9.2} {:>9.2}",
            label,
            r.temporal_linkage,
            r.hot_set_recovery,
            r.footprint_ratio,
            r.type_advantage,
            r.spatial_leakage,
        );
    }

    // Timing channel (§6.2 extension): gap diversity with and without
    // the fixed-slot shield.
    let timing = |mode| {
        let cfg = ObfusMemConfig {
            timing: mode,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 5);
        let tap = CollectingTap::default();
        b.set_bus_tap(tap.handle());
        let mut rng = SplitMix64::new(6);
        let mut t = Time::from_ps(1);
        for _ in 0..300 {
            t += obfusmem::sim::time::Duration::from_ps(rng.below(150_000) + 1);
            t = b.read(t, BlockAddr::from_index(rng.below(4096)));
        }
        leakage::timing_distinct_gap_ratio(&tap.take())
    };
    use obfusmem::core::config::TimingMode;
    println!(
        "\ntiming channel (distinct-gap ratio; 1.0 = every gap informative):\n\
         \u{20} as-ready issue : {:.2}\n\
         \u{20} fixed 100ns slots (6.2 shield): {:.2}",
        timing(TimingMode::AsReady),
        timing(TimingMode::FixedSlots)
    );

    println!(
        "\nReading the table: the plaintext and encrypt-only buses hand the attacker\n\
         the whole pattern (addresses are in the clear). ECB hides *where* things\n\
         are but repeats ciphertext on every revisit, so the temporal pattern,\n\
         footprint, and hot set still leak — the paper's argument for counter\n\
         mode. Full ObfusMem leaves every score at the attacker's floor."
    );
}

//! Grid points and their stable content-addressed identity.
//!
//! A [`CampaignPoint`] is one independent unit of work: a fully specified
//! [`SystemConfig`] plus the [`Workload`] to drive through it. Its
//! [fingerprint](CampaignPoint::fingerprint) canonically serializes every
//! field that can influence the simulation outcome (including the RNG seed
//! and the simulator version), so two points hash equal exactly when their
//! results must be bit-identical. The cache and the deduplicating
//! scheduler both key on that fingerprint.

use mn_core::SystemConfig;
use mn_host::HostConfig;
use mn_noc::{FaultConfig, LinkTiming, NocConfig};
use mn_workloads::Workload;

/// Simulator behavior version. Bump whenever any crate changes what
/// `mn_core::simulate` computes for a given configuration, so stale cache
/// entries from older binaries can never be served.
pub const SIM_VERSION: u32 = 1;

/// One independent experiment: a configuration and a workload.
///
/// The point carries its own seed inside `config.seed`; the scheduler
/// never shares RNG state between points, which is what makes parallel
/// execution bit-identical to serial execution.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// The complete system configuration to simulate.
    pub config: SystemConfig,
    /// The workload proxy to drive through it.
    pub workload: Workload,
}

impl CampaignPoint {
    /// Creates a point.
    pub fn new(config: SystemConfig, workload: Workload) -> CampaignPoint {
        CampaignPoint { config, workload }
    }

    /// The canonical description of everything that determines this
    /// point's result. Floats are rendered via their bit patterns so the
    /// encoding is exact, and the [`SystemConfig`] is destructured
    /// exhaustively so adding a field without extending the fingerprint
    /// fails to compile.
    pub fn fingerprint(&self) -> String {
        let SystemConfig {
            ports,
            total_capacity_gb,
            dram_fraction,
            nvm_placement,
            topology,
            noc,
            host,
            write_burst_routing,
            banks_per_quadrant,
            controller_queue,
            interleave_bytes,
            window,
            host_write_buffer,
            requests_per_port,
            simulated_ports,
            reference_ports,
            seed,
            // The watchdog only decides how a broken run *fails* (error
            // vs. hang); it never changes what a completed run computes,
            // so it stays out of the fingerprint (see SystemConfig docs).
            watchdog_limit: _,
            // Inert (see SystemConfig docs): nothing reads it, so it
            // cannot change what a run computes.
            shards: _,
        } = &self.config;
        let NocConfig {
            control_bytes,
            data_bytes,
            external_link,
            interposer_link,
            buffer_packets,
            ejection_packets,
            arbiter,
            duplex,
            transport_pj_per_bit_hop,
            fault,
            ecn_threshold,
            // Telemetry is purely observational: it never changes the
            // event stream or any simulated quantity (enforced by test),
            // so traced and untraced runs of the same point share a
            // cache entry and the committed cache keys stay stable.
            trace: _,
        } = noc;
        let link = |l: &LinkTiming| format!("{}+{}ps", l.ps_per_byte, l.fixed_latency.as_ps());
        let base = format!(
            "mncube-sim-v{SIM_VERSION};pkg={pkg};wl={wl};ports={ports};cap={total_capacity_gb};\
             dram={dram:016x};nvmp={nvm_placement:?};topo={topology:?};wbr={write_burst_routing};\
             bpq={banks_per_quadrant};cq={controller_queue};il={interleave_bytes};win={window};\
             hwb={host_write_buffer};req={requests_per_port};simp={simulated_ports};\
             refp={reference_ports};seed={seed:016x};noc=ctl{control_bytes}/data{data_bytes}/\
             ext{ext}/int{int}/buf{buffer_packets}/ej{ejection_packets}/arb{arbiter:?}/\
             dup{duplex:?}/tpj{tpj:016x}",
            pkg = env!("CARGO_PKG_VERSION"),
            wl = self.workload.label(),
            dram = dram_fraction.to_bits(),
            ext = link(external_link),
            int = link(interposer_link),
            tpj = transport_pj_per_bit_hop.to_bits(),
        );
        // Conditional features extend the fingerprint only when enabled,
        // so every default fingerprint — and with it the committed result
        // cache and the pinned golden cache keys — is unchanged. Each
        // suffix below composes in a fixed order: fault, then ECN, then
        // the closed-loop host model.
        let mut out = base;
        if fault.enabled() {
            let FaultConfig {
                transient_rate,
                degrade_rate,
                link_kill_rate,
                retry_limit,
                retry_backoff,
                seed: fault_seed,
            } = fault;
            out = format!(
                "{out};fault=tr{tr:016x}/dr{dr:016x}/kr{kr:016x}/rl{retry_limit}/\
                 bo{bo}ps/fs{fault_seed:016x}",
                tr = transient_rate.to_bits(),
                dr = degrade_rate.to_bits(),
                kr = link_kill_rate.to_bits(),
                bo = retry_backoff.as_ps(),
            );
        }
        // ECN marking changes packet contents (and the closed loop's
        // behavior) whenever the threshold is nonzero, independent of the
        // host policy — fingerprint it on its own switch.
        if *ecn_threshold != 0 {
            out = format!("{out};ecn={ecn_threshold}");
        }
        // Host-model parameters join only when the closed loop actually
        // gates injection (the fault-model discipline): the open-loop
        // default ignores every host knob.
        if host.enabled() {
            let HostConfig {
                policy,
                window_cap,
                initial_window,
                target_rtt,
            } = host;
            out = format!(
                "{out};host=po{policy}/cap{window_cap}/iw{initial_window}/rtt{rtt}ps",
                rtt = target_rtt.as_ps(),
            );
        }
        out
    }

    /// The content-address of this point: 16 hex digits of FNV-1a over the
    /// fingerprint. Used as the cache file name; the full fingerprint is
    /// stored alongside the result and re-checked on load, so a hash
    /// collision degrades to a cache miss, never to a wrong result.
    pub fn cache_key(&self) -> String {
        key_of(&self.fingerprint())
    }
}

/// The cache key of an already-computed fingerprint, so a caller holding
/// one (the campaign's duplicate folding) never renders it twice.
pub(crate) fn key_of(fingerprint: &str) -> String {
    format!("{:016x}", fnv1a64(fingerprint.as_bytes()))
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topo::TopologyKind;

    fn point() -> CampaignPoint {
        CampaignPoint::new(
            SystemConfig::paper_baseline(TopologyKind::Tree, 0.5).unwrap(),
            Workload::Dct,
        )
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = point();
        let b = point();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key().len(), 16);

        let mut c = point();
        c.config.seed ^= 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = point();
        d.config.requests_per_port += 1;
        assert_ne!(a.cache_key(), d.cache_key());
        let mut e = point();
        e.workload = Workload::Nw;
        assert_ne!(a.cache_key(), e.cache_key());
    }

    #[test]
    fn fingerprint_covers_noc_knobs() {
        let a = point();
        let mut b = point();
        b.config.noc.arbiter = mn_noc::ArbiterKind::Distance;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = point();
        c.config.noc.external_link.ps_per_byte += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn disabled_faults_leave_the_fingerprint_alone() {
        let a = point();
        let mut b = point();
        // With every rate at zero the model never engages, so knobs that
        // only matter under faults (seed, retry policy) must not perturb
        // the fingerprint — the committed cache depends on this.
        b.config.noc.fault.seed = 0xDEAD_BEEF;
        b.config.noc.fault.retry_limit = 2;
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.fingerprint().contains(";fault="));
    }

    #[test]
    fn enabled_faults_extend_the_fingerprint() {
        let mut a = point();
        a.config.noc.fault.transient_rate = 0.01;
        assert_ne!(point().fingerprint(), a.fingerprint());
        assert!(a.fingerprint().contains(";fault="));

        let mut b = a.clone();
        b.config.noc.fault.seed ^= 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.config.noc.fault.transient_rate = 0.02;
        assert_ne!(a.cache_key(), c.cache_key());
        let mut d = a.clone();
        d.config.noc.fault.retry_limit += 1;
        assert_ne!(a.cache_key(), d.cache_key());
    }

    #[test]
    fn disabled_host_leaves_the_fingerprint_alone() {
        let a = point();
        let mut b = point();
        // With the open-loop policy the gate never engages, so knobs that
        // only matter under a closed loop must not perturb the
        // fingerprint — the committed cache depends on this.
        b.config.host.window_cap = 7;
        b.config.host.initial_window = 3;
        b.config.host.target_rtt = mn_sim::SimDuration::from_ns(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.fingerprint().contains(";host="));
        assert!(!a.fingerprint().contains(";ecn="));
    }

    #[test]
    fn enabled_host_extends_the_fingerprint() {
        let mut a = point();
        a.config.host.policy = mn_core::WindowPolicyKind::Aimd;
        assert_ne!(point().fingerprint(), a.fingerprint());
        assert!(a.fingerprint().contains(";host=poaimd/"));

        let mut b = a.clone();
        b.config.host.policy = mn_core::WindowPolicyKind::Fixed(4);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.config.host.window_cap += 1;
        assert_ne!(a.cache_key(), c.cache_key());
        let mut d = a.clone();
        d.config.host.initial_window += 1;
        assert_ne!(a.cache_key(), d.cache_key());
        let mut e = a.clone();
        e.config.host.target_rtt = mn_sim::SimDuration::from_ns(999);
        assert_ne!(a.cache_key(), e.cache_key());
    }

    #[test]
    fn ecn_threshold_is_fingerprinted_when_nonzero() {
        // ECN marking alters packet contents regardless of the host
        // policy, so it fingerprints on its own switch.
        let a = point();
        let mut b = point();
        b.config.noc.ecn_threshold = 4;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(b.fingerprint().contains(";ecn=4"));
        let mut c = point();
        c.config.noc.ecn_threshold = 5;
        assert_ne!(b.cache_key(), c.cache_key());
    }

    #[test]
    fn trace_mode_is_not_fingerprinted() {
        // Telemetry observes without perturbing, so a traced run may be
        // served from (and write to) the same cache entry as an
        // untraced one.
        let a = point();
        let mut b = point();
        b.config.noc.trace = mn_noc::TraceConfig::Full;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn watchdog_limit_is_not_fingerprinted() {
        let a = point();
        let mut b = point();
        b.config.watchdog_limit *= 2;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn shards_is_not_fingerprinted() {
        // The field is inert, so it must not split the cache.
        let a = point();
        let mut b = point();
        b.config.shards = 4;
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

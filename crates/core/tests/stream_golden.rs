//! Bit-identity golden test for the streaming discrete-event engine.
//!
//! Runs `stream::run` on a scaled-down streaming scenario (300-node BA
//! graphs, horizon 1,000) for eight seeds from 91,000, once without and
//! once with per-transfer fiber failures, and folds every run's counters
//! and latencies into one FNV-1a digest. The digest was recorded from the
//! engine that re-planned every deferred re-offer; any change to routing,
//! admission, deferral, execution or RNG consumption moves at least one
//! counter or latency and therefore the digest.

use surfnet_core::experiments::stream::{self, StreamParams};

const SEEDS: u64 = 8;
const BASE_SEED: u64 = 91_000;
/// FNV-1a digest of every run, recorded from the per-offer planner.
const GOLDEN_DIGEST: u64 = 0x4353_d7ba_838f_860d;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn params(fiber_failure_prob: f64) -> StreamParams {
    let mut p = StreamParams::default();
    p.net.num_nodes = 300;
    p.net.num_servers = 10;
    p.net.num_switches = 40;
    p.sim.horizon = 1_000;
    p.sim.exec.fiber_failure_prob = fiber_failure_prob;
    p
}

#[test]
fn stream_runs_replay_bit_identically() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut deferred = 0;
    for fiber_failure_prob in [0.0, 0.05] {
        let p = params(fiber_failure_prob);
        for s in 0..SEEDS {
            let stats = stream::run(&p, 1, BASE_SEED + s).pooled;
            deferred += stats.deferred;
            for w in [
                stats.arrivals,
                stats.admitted,
                stats.completed,
                stats.failed,
                stats.deferred,
                stats.dropped_unroutable,
                stats.dropped_capacity,
                stats.dropped_pool,
                stats.end_time,
            ] {
                digest.word(w);
            }
            for &l in &stats.latencies {
                digest.word(l);
            }
        }
    }
    assert!(deferred > 0, "the corpus must exercise deferred re-offers");
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "stream runs moved: digest {:#018x}",
        digest.0
    );
}

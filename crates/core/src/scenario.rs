//! Evaluation scenarios (paper Sec. VI-A/B): facility levels × connection
//! quality, and the per-trial configuration bundle.

use crate::evaluate::BatchConfig;
use serde::{Deserialize, Serialize};
use surfnet_netsim::execution::ExecutionConfig;
use surfnet_netsim::generate::NetworkConfig;
use surfnet_routing::RoutingParams;

/// How well-equipped the network is with switches/servers and capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FacilityLevel {
    /// Abundant facilities: many relays, generous capacities.
    Abundant,
    /// Sufficient facilities: the reference configuration.
    Sufficient,
    /// Insufficient facilities: few relays, tight capacities.
    Insufficient,
}

impl FacilityLevel {
    /// All three levels, in the order the paper's Fig. 6(a) presents them.
    pub const ALL: [FacilityLevel; 3] = [
        FacilityLevel::Abundant,
        FacilityLevel::Sufficient,
        FacilityLevel::Insufficient,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FacilityLevel::Abundant => "abundant",
            FacilityLevel::Sufficient => "sufficient",
            FacilityLevel::Insufficient => "insufficient",
        }
    }
}

/// Optical fiber quality (paper: fidelity U[0.75, 1] good, U[0.5, 1] poor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnectionQuality {
    /// Good-quality service: fiber fidelity in `[0.75, 1]`.
    Good,
    /// Poor-quality service: fiber fidelity in `[0.5, 1]`.
    Poor,
}

impl ConnectionQuality {
    /// The fidelity range the paper assigns to this quality.
    pub fn fidelity_range(self) -> (f64, f64) {
        match self {
            ConnectionQuality::Good => (0.75, 1.0),
            ConnectionQuality::Poor => (0.5, 1.0),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ConnectionQuality::Good => "good",
            ConnectionQuality::Poor => "poor",
        }
    }
}

/// A named evaluation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scenario {
    /// Facility richness.
    pub facility: FacilityLevel,
    /// Fiber quality.
    pub quality: ConnectionQuality,
}

impl Scenario {
    /// The network-generation configuration for this scenario.
    pub fn network_config(&self) -> NetworkConfig {
        let mut cfg = NetworkConfig::default();
        cfg.fidelity_range = self.quality.fidelity_range();
        match self.facility {
            FacilityLevel::Abundant => {
                cfg.num_nodes = 24;
                cfg.num_servers = 5;
                cfg.num_switches = 9;
                cfg.switch_capacity = 120;
                cfg.server_capacity = 240;
                cfg.entanglement_capacity = 40;
            }
            FacilityLevel::Sufficient => {
                cfg.num_nodes = 22;
                cfg.num_servers = 3;
                cfg.num_switches = 7;
                cfg.switch_capacity = 60;
                cfg.server_capacity = 120;
                cfg.entanglement_capacity = 20;
            }
            FacilityLevel::Insufficient => {
                cfg.num_nodes = 21;
                cfg.num_servers = 2;
                cfg.num_switches = 4;
                cfg.switch_capacity = 30;
                cfg.server_capacity = 60;
                cfg.entanglement_capacity = 10;
            }
        }
        cfg
    }

    /// Display label like `abundant/good`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.facility.label(), self.quality.label())
    }
}

/// Everything one simulation trial needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialConfig {
    /// Scenario (decides the generated network).
    pub scenario: Scenario,
    /// Number of communication requests per trial.
    pub num_requests: usize,
    /// Maximum surface codes (messages) per request.
    pub max_codes_per_request: u32,
    /// Routing-protocol parameters.
    pub params: RoutingParams,
    /// Online-execution tunables.
    pub execution: ExecutionConfig,
    /// Surface-code distance used for the transferred codes.
    pub code_distance: usize,
    /// Post-generation scale applied to relay capacities (Fig. 6(b.1)'s
    /// sweep axis).
    pub capacity_scale: f64,
    /// Post-generation scale applied to per-fiber entanglement budgets
    /// (part of Fig. 6(b.2)'s sweep axis).
    pub entanglement_scale: f64,
    /// Execute all scheduled codes in one shared tick loop, contending for
    /// per-fiber entanglement pools ([`surfnet_netsim::concurrent`])
    /// instead of independently. Fidelity statistics are unchanged;
    /// latency reflects contention.
    pub concurrent_execution: bool,
    /// Inert placeholder (see [`BatchConfig`]).
    pub batch: BatchConfig,
}

impl Default for TrialConfig {
    fn default() -> TrialConfig {
        TrialConfig {
            scenario: Scenario {
                facility: FacilityLevel::Sufficient,
                quality: ConnectionQuality::Good,
            },
            num_requests: 5,
            max_codes_per_request: 3,
            // The paper picks *low* code distances to limit traffic
            // (Sec. I); distance 3 also maximizes the protected Core
            // fraction (5 of 13 qubits under the cross topology). The
            // noise thresholds keep per-segment error rates near the
            // code's correctable regime, which is where the dual channel
            // pays off.
            params: RoutingParams {
                n_core: 5, // cross core of a distance-3 code
                m_support: 8,
                omega: 0.2,
                w_core: 0.5,
                w_total: 0.35,
            },
            execution: ExecutionConfig::default(),
            code_distance: 3,
            capacity_scale: 1.0,
            entanglement_scale: 1.0,
            concurrent_execution: false,
            batch: BatchConfig,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_configs_are_valid_and_ordered() {
        for facility in FacilityLevel::ALL {
            for quality in [ConnectionQuality::Good, ConnectionQuality::Poor] {
                let s = Scenario { facility, quality };
                s.network_config().validate().unwrap();
            }
        }
        let cap = |f: FacilityLevel| {
            Scenario {
                facility: f,
                quality: ConnectionQuality::Good,
            }
            .network_config()
            .switch_capacity
        };
        assert!(cap(FacilityLevel::Abundant) > cap(FacilityLevel::Sufficient));
        assert!(cap(FacilityLevel::Sufficient) > cap(FacilityLevel::Insufficient));
    }

    #[test]
    fn quality_sets_fidelity_range() {
        assert_eq!(ConnectionQuality::Good.fidelity_range(), (0.75, 1.0));
        assert_eq!(ConnectionQuality::Poor.fidelity_range(), (0.5, 1.0));
    }

    #[test]
    fn labels_are_stable() {
        let s = Scenario {
            facility: FacilityLevel::Abundant,
            quality: ConnectionQuality::Poor,
        };
        assert_eq!(s.label(), "abundant/poor");
    }

    #[test]
    fn default_trial_config_consistent_with_distance3_cross() {
        let cfg = TrialConfig::default();
        // Cross core of a distance-3 unrotated code: 2d−1 = 5 core qubits,
        // 13 − 5 = 8 support qubits.
        assert_eq!(cfg.params.n_core, 5);
        assert_eq!(cfg.params.m_support, 8);
        assert_eq!(cfg.code_distance, 3);
        cfg.params.validate().unwrap();
    }
}

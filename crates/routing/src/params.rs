//! Routing-protocol parameters (paper Table I).

/// The pre-defined parameters `n, m, ω, W_c, W` of the routing formulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingParams {
    /// Number of Core data qubits per surface code (`n`).
    pub n_core: u32,
    /// Number of Support data qubits per surface code (`m`).
    pub m_support: u32,
    /// Noise reduction `ω` credited for one error correction at a server.
    pub omega: f64,
    /// Noise threshold `W_c` for the Core part of each code.
    pub w_core: f64,
    /// Noise threshold `W` for the entire surface code.
    pub w_total: f64,
}

impl RoutingParams {
    /// Parameters matching the paper's Sec. V-A sizing example: a
    /// 25-data-qubit code with 7 Core qubits.
    pub fn paper_example() -> RoutingParams {
        RoutingParams {
            n_core: 7,
            m_support: 18,
            omega: 0.35,
            w_core: 1.0,
            w_total: 0.8,
        }
    }

    /// Total data qubits per code, `n + m`.
    pub fn code_size(&self) -> u32 {
        self.n_core + self.m_support
    }

    /// The communication fidelity threshold `1/2^{W_c}` displayed in
    /// Fig. 6(b.4).
    pub fn fidelity_threshold(&self) -> f64 {
        0.5f64.powf(self.w_core)
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// [`crate::RoutingError::InvalidParams`] on zero part sizes, negative
    /// `ω`, or non-positive thresholds.
    pub fn validate(&self) -> Result<(), crate::RoutingError> {
        if self.n_core == 0
            || self.m_support == 0
            || self.omega < 0.0
            || self.w_core <= 0.0
            || self.w_total <= 0.0
        {
            return Err(crate::RoutingError::InvalidParams);
        }
        Ok(())
    }
}

impl Default for RoutingParams {
    fn default() -> RoutingParams {
        RoutingParams::paper_example()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_sizes() {
        let p = RoutingParams::paper_example();
        assert_eq!(p.code_size(), 25);
        p.validate().unwrap();
    }

    #[test]
    fn fidelity_threshold_formula() {
        let mut p = RoutingParams::paper_example();
        p.w_core = 1.0;
        assert!((p.fidelity_threshold() - 0.5).abs() < 1e-12);
        p.w_core = 2.0;
        assert!((p.fidelity_threshold() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = RoutingParams::paper_example();
        p.n_core = 0;
        assert!(p.validate().is_err());
        let mut p = RoutingParams::paper_example();
        p.omega = -0.1;
        assert!(p.validate().is_err());
        let mut p = RoutingParams::paper_example();
        p.w_total = 0.0;
        assert!(p.validate().is_err());
    }
}

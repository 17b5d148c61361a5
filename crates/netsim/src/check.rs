//! `SURFNET_CHECK=1` runtime invariant checker for the streaming planner.
//!
//! [`crate::RouteSearch`] answers minimum-noise queries by a bidirectional
//! search steered by landmark lower bounds (A* keys that can be negative,
//! plus pruning against the best meeting so far), while
//! [`crate::Network::shortest_path_by`] stays the plain one-sided
//! Dijkstra. When checking is on, every answer of the first is
//! cross-checked against the second: a returned route must be a connected
//! walk from `src` to `dst` whose noise, folded forward, is no larger than
//! the reference route's, and a `None` must mean the reference finds no
//! route either. A broken meeting rule, an overestimating potential, a
//! pruning or stop rule that fires too early, or a broken tree walk would
//! otherwise only show as a quietly noisier route, or a request dropped
//! as unroutable. See `surfnet_lp::check` for the solver-side
//! counterpart.
//!
//! Debug-only and opt-in: in release builds [`enabled`] is a `const fn`
//! returning `false`, so the guarded calls fold away. The harness is
//! [`surfnet_telemetry::check`]'s, re-exported here.

use crate::topology::{FiberId, Network, NodeId};
pub use surfnet_telemetry::check::{assert_ok, enabled, InvariantViolation};

/// Relative slack on the noise comparison: summing the same fibers in
/// another order may round differently.
pub const NOISE_REL_EPS: f64 = 1e-12;

/// `route` (a search's answer from `src` to `dst`) is a connected walk over
/// incident fibers whose forward-folded noise is at most that of
/// [`Network::shortest_path_by`] over the same [`crate::Fiber::noise`]
/// values, within [`NOISE_REL_EPS`]; `None` is correct only if the
/// reference finds no route either.
pub fn check_route(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    route: Option<&[FiberId]>,
) -> Result<(), InvariantViolation> {
    let violation = |message: String| Err(InvariantViolation { message });
    let noise = |f: FiberId| net.fiber(f).noise();
    let reference = net.shortest_path_by(src, dst, noise);
    let Some(route) = route else {
        return match reference {
            None => Ok(()),
            Some(r) => violation(format!(
                "no route {src}->{dst}, but the reference finds {} fibers",
                r.len()
            )),
        };
    };
    let mut cur = src;
    for (i, &f) in route.iter().enumerate() {
        if !net.incident(cur).contains(&f) {
            return violation(format!(
                "route {src}->{dst} breaks at hop {i}: fiber {f} does not leave node {cur}"
            ));
        }
        cur = net.fiber(f).other(cur);
    }
    if cur != dst {
        return violation(format!("route {src}->{dst} ends at node {cur}"));
    }
    let Some(reference) = reference else {
        return violation(format!(
            "route {src}->{dst} found, but the reference finds none"
        ));
    };
    let fold = |r: &[FiberId]| r.iter().fold(0.0, |acc, &f| acc + noise(f));
    let (got, best) = (fold(route), fold(&reference));
    if got > best * (1.0 + NOISE_REL_EPS) {
        return violation(format!(
            "route {src}->{dst} has noise {got:.17e}, the reference {best:.17e}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;

    /// a - s - b with a noisier direct a - b fiber: fibers 0, 1, 2.
    fn triangle() -> Network {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::User, 8);
        let s = net.add_node(NodeKind::Switch, 8);
        let b = net.add_node(NodeKind::User, 8);
        net.add_fiber(a, s, 0.95, 4, 0.0).unwrap();
        net.add_fiber(s, b, 0.95, 4, 0.0).unwrap();
        net.add_fiber(a, b, 0.7, 4, 0.0).unwrap();
        net
    }

    fn check(net: &Network, route: Option<&[FiberId]>) -> Result<(), InvariantViolation> {
        check_route(net, 0, 2, route)
    }

    #[test]
    fn minimum_noise_route_passes() {
        let net = triangle();
        assert_eq!(check(&net, Some(&[0, 1])), Ok(()));
    }

    #[test]
    fn broken_walk_fires() {
        let net = triangle();
        // Fiber 1 does not leave node 0.
        let err = check(&net, Some(&[1, 0])).unwrap_err();
        assert!(err.message.contains("hop 0"), "{err}");
        // Connected, but stops short of the destination.
        let err = check(&net, Some(&[0])).unwrap_err();
        assert!(err.message.contains("ends at node 1"), "{err}");
        // Out-of-range fiber id.
        assert!(check(&net, Some(&[9])).is_err());
    }

    #[test]
    fn costlier_route_fires() {
        let net = triangle();
        let err = check(&net, Some(&[2])).unwrap_err();
        assert!(err.message.contains("noise"), "{err}");
    }

    #[test]
    fn missing_route_fires_unless_unreachable() {
        let net = triangle();
        assert!(check(&net, None).is_err());
        let mut split = triangle();
        let lonely = split.add_node(NodeKind::User, 8);
        assert_eq!(check_route(&split, 0, lonely, None), Ok(()));
    }
}

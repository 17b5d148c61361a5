//! Communication requests (the paper's set `K`).

use crate::topology::{Network, NodeId};
use rand::Rng;

/// A request `k = [(s_k, d_k), i_k]`: transfer `num_codes` surface codes
/// from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Sending user.
    pub src: NodeId,
    /// Receiving user.
    pub dst: NodeId,
    /// Number of surface codes (messages) `i_k` in this request.
    pub num_codes: u32,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `num_codes == 0`.
    pub fn new(src: NodeId, dst: NodeId, num_codes: u32) -> Request {
        assert_ne!(src, dst, "request endpoints must differ");
        assert!(num_codes > 0, "request must carry at least one code");
        Request {
            src,
            dst,
            num_codes,
        }
    }
}

/// Draws `count` random requests between distinct users of `net`, each
/// carrying between 1 and `max_codes` surface codes.
///
/// # Panics
///
/// Panics if the network has fewer than two users or `max_codes == 0`.
pub fn random_requests<R: Rng + ?Sized>(
    net: &Network,
    count: usize,
    max_codes: u32,
    rng: &mut R,
) -> Vec<Request> {
    let users = net.users();
    assert!(users.len() >= 2, "need at least two users to form requests");
    assert!(max_codes > 0);
    (0..count)
        .map(|_| {
            let src = users[rng.gen_range(0..users.len())];
            let dst = loop {
                let d = users[rng.gen_range(0..users.len())];
                if d != src {
                    break d;
                }
            };
            Request::new(src, dst, rng.gen_range(1..=max_codes))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net_with_users(n: usize) -> Network {
        let mut net = Network::new();
        let hub = net.add_node(NodeKind::Switch, 10);
        for _ in 0..n {
            let u = net.add_node(NodeKind::User, 1);
            net.add_fiber(u, hub, 0.9, 2, 0.0).unwrap();
        }
        net
    }

    #[test]
    fn random_requests_have_distinct_endpoints() {
        let net = net_with_users(5);
        let mut rng = SmallRng::seed_from_u64(1);
        for r in random_requests(&net, 50, 4, &mut rng) {
            assert_ne!(r.src, r.dst);
            assert!(r.num_codes >= 1 && r.num_codes <= 4);
            assert_eq!(net.node(r.src).kind, NodeKind::User);
            assert_eq!(net.node(r.dst).kind, NodeKind::User);
        }
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn request_rejects_self_loop() {
        let _ = Request::new(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least two users")]
    fn random_requests_need_two_users() {
        let net = net_with_users(1);
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = random_requests(&net, 1, 1, &mut rng);
    }
}

"""SCFQ reference scheduler: the centralized oracle that DFS must match.

The tests check that the distributed DFS backoff mapping reproduces the
oracle's medium-access order when collisions and randomization are switched
off.
"""


class ScfqTags:
    """Per-flow finish-tag memory plus the oracle's virtual clock."""

    def __init__(self, shares):
        self.shares = dict(shares)  # flow id -> phi
        self.prev_finish = {f: 0.0 for f in shares}
        self.v = 0.0

    def assign(self, flow, length_bits, arrival_v):
        """Stamp one packet: S = max(v(A), F_prev); F = S + L/phi."""
        phi = self.shares[flow]
        if phi <= 0:
            raise ValueError("share must be positive")
        start = max(arrival_v, self.prev_finish[flow])
        finish = start + length_bits / phi
        self.prev_finish[flow] = finish
        return start, finish


def scfq_oracle(flows):
    """Centralized SCFQ schedule over `flows`: {flow id: [L_bits, ...]}.

    All packets are taken as arrived at t=0 in list order.  Returns the flow
    id sequence in transmission order; ties in finish tags break by flow id,
    then arrival order (which queue order already encodes).
    """
    tags = ScfqTags({f: phi for f, (phi, _) in flows.items()})
    queues = {}
    for f, (phi, lengths) in sorted(flows.items()):
        q = []
        for length in lengths:
            q.append(tags.assign(f, length, 0.0))
        queues[f] = q
    order = []
    while any(queues.values()):
        pick = min((q[0][1], f) for f, q in sorted(queues.items()) if q)
        _, f = pick
        _, finish = queues[f].pop(0)
        tags.v = finish
        order.append(f)
    return order

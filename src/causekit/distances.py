"""Distance functions on traces, paths and memoryless strategies.

Finite values are exact: naturals for the counting distances, Fractions for
the 2^-n prefix family.  math.inf stands for an infinite distance; identical
arguments always yield 0 (2^-inf is read as 0 for the prefix family).

The strategy distances take `MDStrategy` values, check them with
`validate_strategy` and run on their picks; `dstar_picks` is d* for the
searches, which hold picks already.  All are polynomial and take no budget:
each side of d* is one iterative pass over a play graph (`play_scan`),
linear in its size.  The d* searches of `game_causality` read sigma's side
off their enumeration instead, over `play_condensation(game, sigma)` and
`heaviest_chain`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ne

from .errors import LengthMismatch, PreconditionViolated
from .model import play_layers, validate_strategy

INF = math.inf

EPSILON = None  # the edit alphabet's fresh padding symbol


@dataclass(frozen=True)
class EditSequence:
    """Witness for a Levenshtein distance: a word over the edit alphabet.

    Each symbol is a pair (left, right) over labels extended with EPSILON,
    never (EPSILON, EPSILON).  Projecting out the EPSILONs componentwise
    recovers the two compared words.
    """

    symbols: tuple

    def __post_init__(self):
        for left, right in self.symbols:
            if left is EPSILON and right is EPSILON:
                raise PreconditionViolated("edit symbol (eps, eps) is not allowed")

    def weight(self):
        return sum(1 for left, right in self.symbols if left != right)

    def left_word(self):
        return tuple(left for left, _ in self.symbols if left is not EPSILON)

    def right_word(self):
        return tuple(right for _, right in self.symbols if right is not EPSILON)

    def is_edit_sequence_for(self, u, v):
        return self.left_word() == tuple(u) and self.right_word() == tuple(v)


def _sequence(x):
    return tuple(x.sequence) if hasattr(x, "sequence") else tuple(x)


def _common_prefix_length(u, v):
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


def dyadic(n):
    return Fraction(1, 2 ** n)


def d_pref_ap(u, v):
    """Prefix distance on traces: 2^-n for the longest common prefix n."""
    u, v = tuple(u), tuple(v)
    if u == v:
        return Fraction(0)
    return dyadic(_common_prefix_length(u, v))


def d_pref(p, q):
    """Prefix distance on paths, comparing state sequences instead of traces."""
    p, q = _sequence(p), _sequence(q)
    if p == q:
        return Fraction(0)
    return dyadic(_common_prefix_length(p, q))


def d_hamm(u, v):
    """Number of positions at which two equal-length words differ."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise LengthMismatch(f"word lengths differ: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


def d_hamm_weighted(u, v, label_metric):
    """Hamming distance graded by a similarity metric on labels."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise LengthMismatch(f"word lengths differ: {len(u)} vs {len(v)}")
    total = Fraction(0)
    for a, b in zip(u, v):
        total += Fraction(label_metric(a, b))
    return total


def d_ghamm(u, v):
    """Hamming distance of the shorter word against the longer word's prefix,
    plus the length difference."""
    u, v = tuple(u), tuple(v)
    if len(u) > len(v):
        u, v = v, u
    return d_hamm(u, v[: len(u)]) + (len(v) - len(u))


def d_lev(u, v):
    """Levenshtein distance with a minimum-weight edit sequence as witness.

    Ties are broken deterministically: keep/substitute, then delete from the
    first word, then insert from the second.
    """
    u, v = tuple(u), tuple(v)
    n, m = len(u), len(v)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1][j - 1] + (0 if u[i - 1] == v[j - 1] else 1)
            dist[i][j] = min(sub, dist[i - 1][j] + 1, dist[i][j - 1] + 1)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            sub = dist[i - 1][j - 1] + (0 if u[i - 1] == v[j - 1] else 1)
            if dist[i][j] == sub:
                ops.append((u[i - 1], v[j - 1]))
                i, j = i - 1, j - 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append((u[i - 1], EPSILON))
            i -= 1
            continue
        ops.append((EPSILON, v[j - 1]))
        j -= 1
    witness = EditSequence(tuple(reversed(ops)))
    return dist[n][m], witness


# ---------------------------------------------------------------------------
# strategy distances


def _require_same_player(sigma, tau):
    if sigma.player != tau.player:
        raise PreconditionViolated(
            f"strategies are for different players: {sigma.player} vs {tau.player}"
        )


def d_hamm_s(game, sigma, tau):
    """Number of owned vertices where two strategies choose differently."""
    _require_same_player(sigma, tau)
    return sum(map(ne, validate_strategy(game, sigma), validate_strategy(game, tau)))


def d_pref_hausdorff(game, sigma, tau):
    """Hausdorff lifting of the path prefix distance to strategies.

    Equals 2^-(j+1) where j is the least edge-distance from the initial
    vertex, inside the graph of edges both strategies allow, to an owned
    vertex where the strategies disagree; 0 when no disagreement is
    reachable there (the play sets then coincide).
    """
    _require_same_player(sigma, tau)
    s, t = validate_strategy(game, sigma), validate_strategy(game, tau)
    if s == t:
        return Fraction(0)
    # Up to the first disagreement, the common edges are sigma's.
    for depth, layer in enumerate(play_layers(game, s)):
        if any(s[v] != t[v] for v in layer):
            return dyadic(depth + 1)
    return Fraction(0)


def dstrat(game, tau, sigma):
    """Supremum, over all tau-plays, of the number of distinct owned vertices
    on the play where its move contradicts sigma.

    A play can visit every vertex of a strongly connected component of the
    play graph and then leave it, so the value is the heaviest path in the
    condensation from the initial vertex's component, each component
    weighing its vertices where the two picks differ: `play_scan` finds it
    in one pass.
    """
    _require_same_player(sigma, tau)
    return play_scan(game, validate_strategy(game, tau), validate_strategy(game, sigma))[0]


def heaviest_chain(components, reach):
    """The heaviest path through a condensation whose component k reaches
    the components in the bit set `reach[k]`, each weighing how often it
    occurs in `components`; quadratic in the number of distinct ones."""
    weight = {}
    for k in components:
        weight[k] = weight.get(k, 0) + 1
    best = {}
    for k in sorted(weight):  # every component after those it reaches
        bits = reach[k]
        best[k] = weight[k] + max([best[c] for c in best if bits >> c & 1], default=0)
    return max(best.values(), default=0)


def play_scan(game, picks, other):
    """One pass over the play graph of `picks`: (the heaviest path from the
    initial vertex through its condensation, each strongly connected
    component weighing its vertices where `picks` and `other` differ; whether
    the graph has a cycle; the component of each vertex, as ~k for the k-th
    to close, so every component closes after all those it reaches).

    Iterative Tarjan (SIAM J. Comput. 1(2), 1972) in the one-map form of
    Pearce (Inf. Process. Lett. 116(1), 2016): `rank` holds the least
    discovery number a vertex reaches while its component is open and ~k
    once it closes.  An edge into an open component closes a cycle.  Each
    frame keeps the heaviest closed component its vertex has an edge into,
    and a closing component adds its weight to the heaviest of its members'.
    """
    succ = game._succ
    v = game._init
    u = picks[v]
    rank = {v: 0}
    frames = [(v, 0, iter(succ[v] if u is None else (u,)))]
    outs = [0]
    waiting = []  # (number, vertex, out) of finished vertices whose component is open
    best = []
    cyclic = False
    while frames:
        v, mine, moves = frames[-1]
        low = rank[v]
        for w in moves:
            r = rank.get(w)
            if r is None:
                rank[v] = low
                r = rank[w] = len(rank)
                u = picks[w]
                frames.append((w, r, iter(succ[w] if u is None else (u,))))
                outs.append(0)
                break
            if r >= 0:
                cyclic = True
                if r < low:
                    low = r
            elif best[~r] > outs[-1]:
                outs[-1] = best[~r]
        else:
            frames.pop()
            out = outs.pop()
            if low < mine:
                rank[v] = low
                waiting.append((mine, v, out))
                if low < rank[frames[-1][0]]:
                    rank[frames[-1][0]] = low
                continue
            k = ~len(best)
            weight = picks[v] != other[v]
            while waiting and waiting[-1][0] > mine:
                _, w, o = waiting.pop()
                rank[w] = k
                weight += picks[w] != other[w]
                if o > out:
                    out = o
            rank[v] = k
            best.append(out + weight)
            if outs and best[-1] > outs[-1]:
                outs[-1] = best[-1]
    return best[-1], cyclic, rank


def play_condensation(game, picks):
    """The play graph of `picks` condensed, for `heaviest_chain` over the
    components of many others' differing picks: (each owned vertex with the
    number of its component, in `play_scan`'s closing order; by number, the
    bit set of the other components that component reaches)."""
    succ = game._succ
    _heaviest, _cyclic, rank = play_scan(game, picks, picks)
    members = {}
    for v, r in rank.items():
        members.setdefault(~r, []).append(v)
    reach = []
    for k in range(len(members)):
        bits = 0
        for v in members[k]:
            u = picks[v]
            for w in succ[v] if u is None else (u,):
                c = ~rank[w]
                if c != k:
                    bits |= reach[c] | 1 << c
        reach.append(bits)
    return [(v, ~r) for v, r in rank.items() if picks[v] is not None], reach


def dstar(game, tau, sigma):
    """Max of the two directed play-distance suprema between two strategies."""
    _require_same_player(sigma, tau)
    return dstar_picks(game, validate_strategy(game, tau), validate_strategy(game, sigma))


def dstar_picks(game, tau, sigma):
    """`dstar` on the strategies' picks."""
    return max(play_scan(game, tau, sigma)[0], play_scan(game, sigma, tau)[0])


# ---------------------------------------------------------------------------
# rendering


def format_distance(d):
    """Canonical text form: "inf", an integer, or "p/q"."""
    if d == INF:
        return "inf"
    if isinstance(d, Fraction):
        if d.denominator == 1:
            return str(d.numerator)
        return f"{d.numerator}/{d.denominator}"
    return str(int(d)) if float(d).is_integer() else repr(d)


def parse_distance(text):
    if text == "inf":
        return INF
    if "/" in text:
        return Fraction(text)
    return int(text)

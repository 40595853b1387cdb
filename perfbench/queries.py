"""The seeded query stream of the `queries` workload.

A pass is a fixed recipe of query kinds, shuffled; only coefficients and
sizes come from the seed, so two seeds cost about the same. Every pass of a
run replays the same stream. The recipe has
two parts:

* light queries (RECIPE), each a few milliseconds: genus and spectrum draw
  one q per octave 2^4..2^10 in turn;
* a heavy block of 16 queries of 15 ms or more whose cost the seed barely
  moves: the ceiling pair at q = 2^17 (which sets the pass's peak memory
  and opens every pass), lattice queries near fixed q from 2^14 to 2^16,
  and quartics whose resolvent constant is a prime near 1.3e10, which
  makes the rational-root divisor search their dominant cost.

The heavy block is where the pass's tail latency falls: with 244 queries
the tail is p95, the 13th slowest, which lands among the four quartics and
the cheapest lattice queries of the block (20-30 ms each on a 2-vCPU Xeon
virtual machine, against at most about 17 ms for a light query), so the tail
measures much the same work for every seed.

Each query is a dict with the CLI argv and the parameters the oracle needs;
the program under test sees only the argv.
"""
from __future__ import annotations

import random
from math import comb

from oracles import prime_powers

Q_MAX_EXP = 17

# Every pass opens with this pair, so its peak memory does not depend on
# what the shuffle put before it.
CEILING = (("genus", 5, 2**Q_MAX_EXP), ("spectrum", 7, 2**Q_MAX_EXP))
# (kind, n or None for a random one, q to draw a prime power near). genus
# with n = 3 or 4 runs at 2^15: near 2^14 it took 15-20 ms, between the
# quartics and the light queries, so the tail rank fell on it in some seeds
# and on a quartic in others.
HEAVY_LATTICE = (
    *(("genus", n, 2**14) for n in (5, 6, 7)),
    *(("genus", n, 2**15) for n in (3, 4)),
    *(("spectrum", None, 2**15) for _ in range(3)),
    *(("spectrum", None, 2**16) for _ in range(2)),
)

# (kind, count per pass); the order only fixes how the seed is consumed.
RECIPE = (
    ("galois_cubic", 24),
    ("galois_cubic_c3", 6),
    ("galois_cubic_reducible", 6),
    ("galois_quartic", 16),
    ("galois_quartic_family", 8),
    ("galois_geo_cubic", 12),
    ("galois_geo_quartic", 12),
    ("jinv_q", 20),
    ("jinv_t", 20),
    ("model_check", 16),
    ("genus", 22),
    ("spectrum", 22),
    ("decompose", 12),
    ("endo", 12),
    ("heart", 12),
    ("invalid", 8),
)


PRIME_POWERS = prime_powers(2**Q_MAX_EXP)


def _coprime_q(rng: random.Random, n: int, lo: int, hi: int) -> int:
    """A random prime power in [lo, hi) whose prime does not divide n."""
    pool = [q for q, p, _ in PRIME_POWERS if lo <= q < hi and n % p]
    return rng.choice(pool)


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def shift(coeffs: list[int], k: int) -> list[int]:
    """Coefficients (lowest first) of f(x + k)."""
    out = [0] * len(coeffs)
    for d, c in enumerate(coeffs):
        for j in range(d + 1):
            out[j] += c * comb(d, j) * k ** (d - j)
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_text(coeffs: list[int], t_coeffs: list[int] | None = None) -> str:
    """CLI text for sum c_k x^k (+ sum v_k t x^k), highest degree first.

    The grammar has no t-multiples, so v*t*x^k is written as |v| copies of
    t*x^k."""
    terms: list[tuple[int, str]] = []
    for k in range(len(coeffs) - 1, -1, -1):
        xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        c = coeffs[k]
        if c:
            mag = abs(c)
            body = str(mag) if not xs else (xs if mag == 1 else f"{mag}*{xs}")
            terms.append((c, body))
        v = t_coeffs[k] if t_coeffs else 0
        for _ in range(abs(v)):
            terms.append((v, f"t*{xs}" if xs else "t"))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    out = [first if first_sign > 0 else f"-{first}"]
    for sign, body in terms[1:]:
        out.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(out)


def _galois(coeffs: list[int], route: str) -> dict:
    text = poly_text(coeffs) + (" - t" if route == "geometric" else "")
    return {
        "kind": "galois",
        "route": route,
        "coeffs": coeffs,
        "argv": ["galois", "--poly", text, "--format", "json"],
    }


def _pair_query(kind: str, n: int, q: int, extra: tuple = ()) -> dict:
    return {
        "kind": kind,
        "n": n,
        "q": q,
        "argv": [kind, "--n", str(n), "--q", str(q), *extra, "--format", "json"],
    }


def galois_cubic(rng):
    coeffs = [_signed(rng, 10, 999) for _ in range(3)] + [rng.randint(1, 9)]
    return _galois(coeffs, "rational")


def galois_cubic_c3(rng):
    # Shanks' simplest cubics x^3 - a x^2 - (a + 3) x - 1 are cyclic.
    a = _signed(rng, 10, 999)
    return _galois(shift([-1, -(a + 3), -a, 1], _signed(rng, 1, 9)), "rational")


def galois_cubic_reducible(rng):
    root = _signed(rng, 1, 99)
    quad = [_signed(rng, 1, 99), _signed(rng, 1, 99), 1]
    return _galois(_mul([-root, 1], quad), "rational")


def _depressed_quartic(rng, lo, hi):
    p, q, r = (_signed(rng, lo, hi) for _ in range(3))
    return shift([r, q, p, 0, 1], _signed(rng, 1, 9))


def galois_quartic(rng):
    return _galois(_depressed_quartic(rng, 10, 99), "rational")


# Depressed quartics x^4 + p x^2 + q x + r whose resolvent constant
# 4pr - q^2 is a prime near 1.3e10: the divisor search takes sqrt of that
# many steps and then has only four candidates, so it costs the same for
# every seed. The seed picks the sign of q (x -> -x) and the shift.
BIG_QUARTICS = (
    (50458, -31, 63356),
    (50965, -11, 63434),
    (52346, -71, 62707),
    (52220, -17, 62782),
)


def galois_quartic_big(rng, index):
    p, q, r = BIG_QUARTICS[index % len(BIG_QUARTICS)]
    q *= rng.choice((-1, 1))
    return _galois(shift([r, q, p, 0, 1], _signed(rng, 1, 9)), "rational")


_BIQUADRATIC_BASES = (2, 3, 5, 6, 7, 10, 11, 13)


def galois_quartic_family(rng):
    """Quartics from families whose groups are A4, C4, V4 or D4."""
    m = rng.randint(1, 4)
    family = rng.randrange(4)
    if family == 0:
        base = [12 * m**4, 8 * m**3, 0, 0, 1]
    elif family == 1:
        base = [5 * m**4, 0, 5 * m**2, 0, 1]
    elif family == 2:
        a, b = rng.sample(_BIQUADRATIC_BASES, 2)
        base = [(a - b) ** 2, 0, -2 * (a + b), 0, 1]
    else:
        base = [rng.randint(2, 99), 0, _signed(rng, 2, 99), 0, 1]
    return _galois(shift(base, _signed(rng, 1, 5)), "rational")


def galois_geo_cubic(rng):
    if rng.random() < 0.25:
        coeffs = shift([_signed(rng, 0, 99), 0, 0, 1], _signed(rng, 1, 9))
    else:
        coeffs = [_signed(rng, 0, 99) for _ in range(3)] + [1]
    return _galois(coeffs, "geometric")


def galois_geo_quartic(rng):
    coeffs = [_signed(rng, 0, 99), _signed(rng, 1, 99), _signed(rng, 0, 99), 0, 1]
    return _galois(coeffs, "geometric")


def jinv_q(rng):
    coeffs = [_signed(rng, 10, 999) for _ in range(3)] + [rng.randint(1, 9)]
    return {
        "kind": "jinv",
        "coeffs": coeffs,
        "t_coeffs": [0, 0, 0, 0],
        "argv": ["jinv", "--poly", poly_text(coeffs), "--format", "json"],
    }


def jinv_t(rng):
    coeffs = [_signed(rng, 1, 99) for _ in range(3)] + [1]
    t_coeffs = [rng.randint(-2, 2) for _ in range(3)] + [0]
    if not any(t_coeffs):
        t_coeffs[0] = 1
    return {
        "kind": "jinv",
        "coeffs": coeffs,
        "t_coeffs": t_coeffs,
        "argv": ["jinv", "--poly", poly_text(coeffs, t_coeffs), "--format", "json"],
    }


def model_check(rng):
    n = rng.randint(3, 6)
    coeffs = [_signed(rng, 0, 9) for _ in range(n)] + [rng.randint(1, 3)]
    if coeffs[0] == 0:
        coeffs[0] = 1
    q = _coprime_q(rng, n, 2, 10)
    return {
        "kind": "model-check",
        "coeffs": coeffs,
        "q": q,
        "argv": ["model-check", "--poly", poly_text(coeffs), "--q", str(q), "--format", "json"],
    }


def _stratified_pair(rng, index: int):
    """n in 3..9 and q in the octave [2^k, 2^(k+1)), k = 4..10 in turn."""
    k = 4 + index % 7
    n = rng.randint(3, 9)
    return n, _coprime_q(rng, n, 2**k, 2 ** (k + 1))


def genus(rng, index):
    return _pair_query("genus", *_stratified_pair(rng, index))


def spectrum(rng, index):
    return _pair_query("spectrum", *_stratified_pair(rng, index))


def decompose(rng):
    n = rng.randint(3, 12)
    return _pair_query("decompose", n, _coprime_q(rng, n, 2, 4097))


def endo(rng):
    n, label = rng.choice(((3, "S3"), (4, "S4"), (4, "A4")))
    query = _pair_query("endo", n, _coprime_q(rng, n, 2, 4097), ("--galois", label))
    query["label"] = label
    return query


_HEART_LABELS = {"S3": 3, "C3": 3, "S4": 4, "A4": 4, "C4": 4, "V4": 4, "D4": 4}
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def heart(rng):
    if rng.random() < 0.25:
        degree, label = rng.randint(2, 6), None
        target = ["--n", str(degree)]
    else:
        label = rng.choice(sorted(_HEART_LABELS))
        degree = _HEART_LABELS[label]
        target = ["--galois", label]
    p = rng.choice([p for p in _SMALL_PRIMES if degree % p])
    return {
        "kind": "heart",
        "label": label,
        "degree": degree,
        "p": p,
        "argv": ["heart", *target, "--p", str(p), "--format", "json"],
    }


def invalid(rng, index):
    """Inputs the CLI must reject with exit code 2, one template in turn."""
    n = rng.randint(3, 9)
    c = _signed(rng, 1, 99)
    templates = (
        ["genus", "--n", str(n), "--q", str(6 * rng.randint(2, 500))],
        ["spectrum", "--n", str(2 * n), "--q", str(2 ** rng.randint(1, 12))],
        ["decompose", "--n", str(rng.randint(-5, 2)), "--q", "5"],
        ["galois", "--poly", f"x^5 + {abs(c)}*x + 1"],
        ["galois", "--poly", f"x^3 + {abs(c)}*y"],
        ["model-check", "--poly", f"x^{n} + {abs(c)}*x^{n - 1}", "--q", "5"],
        ["heart", "--galois", "S4", "--p", "2"],
        ["genus", "--q", "7"],
    )
    return {"kind": "invalid", "argv": templates[index % len(templates)]}


_INDEXED = {"genus", "spectrum", "invalid", "galois_quartic_big"}


def heavy(rng) -> list[dict]:
    out = [galois_quartic_big(rng, i) for i in range(len(BIG_QUARTICS))]
    for kind, n, q in HEAVY_LATTICE:
        n = n or rng.randint(3, 9)
        out.append(_pair_query(kind, n, _coprime_q(rng, n, q - q // 20, q + q // 20)))
    return out


def stream(seed: int) -> list[dict]:
    """The queries of one pass: the ceiling pair, then the rest drawn from
    the seed and shuffled."""
    rng = random.Random(seed)
    out = heavy(rng)
    for kind, count in RECIPE:
        make = globals()[kind]
        for i in range(count):
            out.append(make(rng, i) if kind in _INDEXED else make(rng))
    rng.shuffle(out)
    return [_pair_query(kind, n, q) for kind, n, q in CEILING] + out

"""Analytic bounds for the epsilon-conjecture constants.

X(N) bounds log(C_eps) from above along the cyclic families, X0(N) is the
simplified version whose maximum at N0 gives the computable constant, and
Y0 is the matching lower bound.  All unspecified O(1)/o(1) aggregates are a
single configurable constant O1 (default 0), the convention under which the
published N0 example reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, isfinite, lgamma, log

GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class BoundParams:
    p: int
    eps: float
    O1: float = 0.0
    c: float | None = None

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.c is not None and not 0 < self.c < 1:
            raise ValueError(f"c must lie in (0, 1), got {self.c}")

    @property
    def gamma_p(self) -> float:
        return log((self.p - 1) / 2) - 1

    @property
    def eps_eff(self) -> float:
        """c + eps for the (c + eps)-variants, eps otherwise."""
        return self.eps + (self.c or 0.0)


@dataclass(frozen=True)
class BoundReport:
    N: float
    X: float
    X0: float
    Y0_lower: float
    logC_required: float


def log_sqrt_disc(f, p: int) -> float:
    """log sqrt(D) for the degree-p cyclic field of conductor f."""
    assert f >= 1
    return (p - 1) / 2 * log(f)


def X_of_N(N: float, params: BoundParams, Delta: float = 0.0) -> float:
    """Upper-bound summand X(N); both printed groupings must agree."""
    assert N >= 2
    p, eps, O1 = params.p, params.eps_eff, params.O1
    h = (p - 1) / 2
    gp = params.gamma_p
    lp = log(p)
    ungrouped = (N * lp + Delta * lp - eps * h * N * log(N) - lp
                 - eps * h * N * gp - eps * (p - 1) / 4 * log(N) - eps * O1)
    grouped = N * (-eps * h * log(N) + (Delta / N) * lp
                   + (1 - 1 / N) * lp
                   - eps * (h * gp + (p - 1) / (4 * N) * log(N) + O1 / N))
    if not (isfinite(ungrouped) and isfinite(grouped)):
        raise ValueError(f"X(N) leaves the float range at N = {N:g}")
    assert abs(ungrouped - grouped) <= 1e-12 * max(1.0, abs(grouped))
    return grouped


def X0_of_N(N: float, params: BoundParams) -> float:
    assert N >= 1
    p, eps, O1 = params.p, params.eps_eff, params.O1
    return (-eps * (p - 1) / 2 * N * log(N)
            + N * ((p - 1) * log(p) - eps * O1))


def _golden_max(fn, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    while b - a > tol * max(1.0, abs(a)):
        d = GOLDEN * (b - a)
        x1, x2 = b - d, a + d
        if fn(x1) < fn(x2):
            a = x1
        else:
            b = x2
    return (a + b) / 2


def find_N0(params: BoundParams) -> tuple[float, float]:
    """Location and value of the maximum of X0; closed form, cross-checked
    by golden-section search."""
    p, eps, O1 = params.p, params.eps_eff, params.O1
    log_n0 = 2 * log(p) / eps - 1 - 2 * O1 / (p - 1)
    # X0 lives on N >= 1, and the bounds table's last N, 10^k for
    # k = ceil(log10 N0) + 1, must be a float
    n0 = exp(min(log_n0, 709.0))
    if not 1 <= n0 <= 1e307:
        raise ValueError(f"N0 = e^{log_n0:.6g} lies outside [1, 1e307], "
                         f"the range of the bounds table")
    x0max = eps * (p - 1) / 2 * n0
    # numeric cross-checks: bisection on the (monotone) derivative of
    # X0(e^t) for the location, golden-section on X0 itself for the value
    h = (p - 1) / 2

    def slope(t):   # d/dN X0 at N = e^t
        return -eps * h * (t + 1) + (p - 1) * log(p) - eps * O1

    a, b = log_n0 - 3, log_n0 + 3
    for _ in range(80):
        mid = (a + b) / 2
        if slope(mid) > 0:
            a = mid
        else:
            b = mid
    assert abs((a + b) / 2 - log_n0) <= 1e-9 * max(1.0, abs(log_n0))
    ln = _golden_max(lambda t: X0_of_N(exp(t), params),
                     max(0.0, log_n0 - 3), log_n0 + 3, 1e-13)
    assert abs(X0_of_N(exp(ln), params) - x0max) <= 1e-9 * max(1.0, x0max)
    return n0, x0max


def Y0_lower(N: float, params: BoundParams, delta: float,
             c_p_const: float) -> float:
    """Lower bound for log(C_eps) with the explicit gamma''_p terms."""
    assert N >= 2 and c_p_const > 0
    p, eps, O1 = params.p, params.eps_eff, params.O1
    h = (p - 1) / 2
    gpp = log(c_p_const) + 2 * log(p - 1) - 2
    return ((N - 1 + delta) * log(p) - eps * (p - 1) * N * log(N)
            - eps * h * N * gpp - eps * h * log(N) - eps * O1)


def h_eps_threshold(D, p: int, N: float, eps: float) -> float:
    """(sqrt|D|)^eps / p^(N-1)."""
    assert abs(D) >= 3
    return exp(log_h_eps(log(abs(D)) / 2, p, N, eps))


def log_h_eps(log_sqrt_d: float, p: int, N: float, eps: float) -> float:
    return eps * log_sqrt_d - (N - 1) * log(p)


def stirling_log_factorial(N: int) -> tuple[float, float]:
    """(log N!, absolute error bound): exact sum up to 10^6, Stirling after."""
    assert N >= 1
    if N <= 10 ** 6:
        # lgamma is exact to machine precision at integer arguments
        v = lgamma(N + 1)
        return v, 1e-10 * max(1.0, v)
    v = N * log(N) - N + 0.5 * log(2 * 3.141592653589793 * N) + 1 / (12 * N)
    return v, 1 / (360 * N ** 3) + 1e-10 * v


def bound_report(N: float, params: BoundParams, delta: float = 0.0,
                 c_p_const: float = 1.0) -> BoundReport:
    x = X_of_N(max(N, 2), params, delta)
    x0 = X0_of_N(N, params)
    y0 = Y0_lower(max(N, 2), params, delta, c_p_const)
    return BoundReport(N, x, x0, y0, max(x0, 0.0))


# --------------------------------------------------------------- envelopes

@dataclass(frozen=True)
class EnvelopeRow:
    d: int            # |D|
    quantity: int
    log_excess: float   # log(quantity) - eps * log sqrt d
    running_max: float
    c_value: float      # log(quantity) / log sqrt d


@dataclass(frozen=True)
class EnvelopeReport:
    p: int
    eps: float
    quantity: str
    rows: tuple
    log_c: float        # the implied log C (envelope)


def envelope_report(records, p: int, eps: float,
                    quantity: str = "class_p_part") -> EnvelopeReport:
    """Implied constants log C = max(log q - eps log sqrt|D|), never asserting
    boundedness."""
    rows = []
    best = -inf
    for rec in records:
        if getattr(rec, "error", None):
            continue
        if quantity == "class_p_part":
            if rec.hp is None:
                raise ValueError("class_p_part needs records of a "
                                 "'p_exponent' scan (hp is None)")
            d, q = abs(rec.d), rec.hp
        elif quantity == "torsion":
            d, q = abs(rec.D), p ** rec.vptor
        else:
            raise ValueError(f"unknown quantity {quantity!r}")
        if q < 1:
            continue
        lsd = log(d) / 2
        x = log(q) - eps * lsd
        best = max(best, x)
        rows.append(EnvelopeRow(d, q, x, best, log(q) / lsd if q > 1 else 0.0))
    return EnvelopeReport(p, eps, quantity, tuple(rows), best)

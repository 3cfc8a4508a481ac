"""Cyclic cubic fields by conductor, plus the fixture tables.

A cyclic cubic field of conductor f corresponds to a solution of
4f = a^2 + 27 b^2; there are exactly 2^(omega(f)-1) of them.  Class and
torsion structures for higher degrees (5, 7, 11) come from fixture files
and are validated against genus-theoretic constraints, not recomputed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import floor, isfinite, isqrt, log, log10, prod
from pathlib import Path

from .abgroup import AbelianGroupStructure
from .arith import factor, vp


class FixtureParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        where = "" if line is None else f" (line {line}" + \
            ("" if col is None else f", col {col}") + ")"
        super().__init__(msg + where)
        self.line = line
        self.col = col


# ------------------------------------------------------------- enumeration

@dataclass(frozen=True)
class CubicField:
    f: int
    e: int          # v_3(f), 0 or 2
    a: int
    b: int
    poly: tuple     # monic, ascending coefficients (c0, c1, c2, 1)

    def poly_str(self) -> str:
        return poly_to_str(self.poly)


def is_cubic_conductor(f: int) -> bool:
    if f < 7:
        return False
    e = 0
    F = f
    while F % 3 == 0:
        F //= 3
        e += 1
    if e not in (0, 2):
        return False
    if any(k > 1 or q % 3 != 1 for q, k in factor(F).factors):
        return False
    # at least one representation 4f = a^2 + 27 b^2
    return next(_representations(f, e), None) is not None


def _representations(f: int, e: int):
    """(a, b) with a >= 0, b > 0 and 4f = a^2 + 27 b^2, b prime to 3
    when e = v_3(f) = 2, in increasing b."""
    Y = 4 * f
    for b in range(1, isqrt(Y // 27) + 1):
        if e == 2 and b % 3 == 0:
            continue
        A = Y - 27 * b * b
        a = isqrt(A)
        if a * a == A:
            yield a, b


def cubic_polynomials(f: int) -> list[CubicField]:
    """All cyclic cubic fields of conductor f, scanning b upward."""
    e = 2 if f % 9 == 0 else 0
    out = []
    for a, b in _representations(f, e):
        if e == 0:
            if a % 3 == 1:
                a = -a
            poly = ((f * (a - 3) + 1) // 27, (1 - f) // 3, 1, 1)
        else:
            if a % 9 == 3:
                a = -a
            poly = (-f * a // 27, -f // 3, 0, 1)
        out.append(CubicField(f, e, a, b, poly))
    if not out:
        raise ValueError(f"no field of conductor {f}: not a cubic conductor")
    return out


def _cubic_disc(poly) -> int:
    r, q, p, lead = poly
    assert lead == 1
    return 18 * p * q * r - 4 * p ** 3 * r + p * p * q * q \
        - 4 * q ** 3 - 27 * r * r


def discriminant_filter(fld: CubicField) -> bool:
    """True iff the field discriminant is f^2 (poly disc = f^2 * square)."""
    r, q, p, _ = fld.poly
    # a monic cubic is irreducible over Q iff it has no integer root
    if r == 0:
        raise ValueError("reducible polynomial: root 0")
    for num in _divisors_signed(abs(r)):
        if num ** 3 + p * num * num + q * num + r == 0:
            raise ValueError(f"reducible polynomial: root {num}")
    d = _cubic_disc(fld.poly)
    if d <= 0 or d % (fld.f * fld.f):
        return False
    s2 = d // (fld.f * fld.f)
    return isqrt(s2) ** 2 == s2


def _divisors_signed(n: int):
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            yield from (d, -d, n // d, -(n // d))


def ambiguous_number(f: int, p: int) -> int:
    """Number of ambiguous classes, p^(N-1) with N = omega(f)."""
    return p ** (factor(f).omega() - 1)


def rank_window(N: int, p: int) -> tuple[int, int]:
    return N - 1, (p - 1) * (N - 1)


def enumerate_conductors(max_f: int) -> list[int]:
    return [f for f in range(7, max_f + 1) if is_cubic_conductor(f)]


# ---------------------------------------------------------------- fixtures

@dataclass
class Fixture:
    p: int
    f: int | None = None           # conductor of a degree-p field
    m: int | None = None           # quadratic radicand (signed), p-family rows
    N: int | None = None
    poly: tuple | None = None
    cl: AbelianGroupStructure | None = None
    clres: AbelianGroupStructure | None = None
    clord: AbelianGroupStructure | None = None
    tor: AbelianGroupStructure | None = None
    ntor: int | None = None
    cp: float | None = None
    starred: bool = False
    # normic-scan rows
    D: int | None = None
    a: int | None = None
    b: int | None = None
    hp: int | None = None
    hp_parts: tuple | None = None
    source_line: int = 0

    def n_ramified(self) -> int:
        if self.N is not None:
            return self.N
        if self.f is not None:
            return factor(self.f).omega()
        if self.m is not None:
            return factor(abs(self.m)).omega()
        raise ValueError("fixture has no conductor")


# a sign, digits, then x or x^k; '*' only between digits and x
_TERM = re.compile(r"([+-]?)(\d*)((?:(?<=\d)\*)?x(?:\^(\d+))?)?")


def parse_poly(text: str, max_deg: int) -> tuple:
    """'x^3+x^2-2*x-1' -> (-1, -2, 1, 1), the constant first.  A term with
    neither digits nor x, or of degree above max_deg, is refused before
    any coefficient is stored."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise FixtureParseError("empty polynomial")
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        mt = _TERM.match(s, pos)
        sign, digits, x, expo = mt.groups()
        if not (digits or x):
            raise FixtureParseError(f"bad polynomial near {s[pos:pos + 8]!r}")
        k = (int(expo) if expo else 1) if x else 0
        if k > max_deg:
            raise FixtureParseError(f"degree {k} above p = {max_deg}")
        c = int(digits) if digits else 1
        coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
        pos = mt.end()
    return tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


def poly_to_str(poly) -> str:
    deg = len(poly) - 1
    parts = []
    for k in range(deg, -1, -1):
        c = poly[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        parts.append(sign + body)
    return "".join(parts) or "0"


def _parse_group(text: str) -> AbelianGroupStructure:
    """'[12,2,2]=[4]x[3,..]*' -> [12,2,2]; the rest of the text is a note."""
    s = text.strip()
    if not s.startswith("["):
        raise FixtureParseError(f"expected '[' in group {text!r}")
    inner = s[1:s.index("]")].strip()
    return AbelianGroupStructure(
        tuple(int(t) for t in inner.split(",")) if inner else ())


_KEYS = ("Structure of Tor", "#Tor", "Clres", "Clord", "Cl", "Cp", "Hp",
         "hp", "conductor", "f", "N", "m", "P", "D", "a", "b", "p")
_KEY_RE = re.compile(
    "(" + "|".join(re.escape(k) for k in _KEYS) + r")\s*=")


def _split_fields(line: str) -> list[tuple[str, str, int]]:
    hits = []
    for mt in _KEY_RE.finditer(line):
        # a key must not be preceded by a letter (so the 'b' of 'Cb' or the
        # 'a' inside 'Structure' never match on their own)
        if mt.start() and (line[mt.start() - 1].isalpha()
                           or line[mt.start() - 1] == "^"):
            continue
        hits.append(mt)
    out = []
    for i, mt in enumerate(hits):
        end = hits[i + 1].start() if i + 1 < len(hits) else len(line)
        out.append((mt.group(1), line[mt.end():end].strip(), mt.start()))
    return out


def _logical_lines(text: str):
    """Join wrapped physical lines; yields (line_number, joined_text)."""
    out: list[list] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("#") and not stripped.startswith("#Tor="):
            continue
        if out and stripped[0] in "+-":
            out[-1][1] += stripped          # polynomial wrap
        elif out and stripped.startswith(("Cl=", "Clres=", "Hp=")):
            out[-1][1] += " " + stripped    # value pushed to the next line
        else:
            out.append([no, stripped])
    for no, line in out:
        yield no, line


def _finite_float(text: str) -> float:
    v = float(text)
    if not isfinite(v):
        raise ValueError(f"{v} is not finite")
    return v


# fixture key -> (Fixture field, reader of the key's value; P's also takes
# p); conductor=, the file header that Cp values are based on, reads into f
_READERS = {
    "f": ("f", lambda v: int(v.split("=")[0])), "N": ("N", int),
    "m": ("m", int), "p": ("p", int), "P": ("poly", parse_poly),
    "Cl": ("cl", _parse_group), "Clres": ("clres", _parse_group),
    "Clord": ("clord", _parse_group), "Structure of Tor": ("tor", _parse_group),
    "#Tor": ("ntor", int), "Cp": ("cp", _finite_float), "D": ("D", int),
    "a": ("a", int), "b": ("b", int), "hp": ("hp", int),
    "Hp": ("hp_parts", lambda v: _parse_group(v).divisors),
    "conductor": ("f", int),
}
# the least value of each key whose log (D, f, conductor, |m|) or p-adic
# valuation (hp, #Tor) the validator takes
_LEAST = {"D": 2, "f": 2, "conductor": 2, "m": 2, "hp": 1, "#Tor": 1}


def parse_fixture_line(line: str | list, p: int = 0, line_no: int = 0,
                       default_f: int | None = None) -> Fixture:
    """One logical line, or the fields _split_fields cuts it into, ->
    partially filled Fixture; a class group that ends in '*' marks the
    row starred, and a polynomial of degree above p is refused."""
    fix = Fixture(p=p, f=default_f, source_line=line_no)
    fields = _split_fields(line) if isinstance(line, str) else line
    if not fields:
        raise FixtureParseError(f"no fields in {line!r}", line=line_no)
    for key, val, col in fields:
        name, read = _READERS[key]
        try:
            v = read(val, p) if key == "P" else read(val)
            if key in _LEAST and (abs(v) if key == "m" else v) < _LEAST[key]:
                raise ValueError
            setattr(fix, name, v)
        except (ValueError, IndexError) as exc:
            msg = str(exc) if isinstance(exc, FixtureParseError) else \
                f"bad value for {key}: {val!r}"
            raise FixtureParseError(msg, line=line_no, col=col) from None
        if key in ("Cl", "Clres", "Clord") and val.endswith("*"):
            fix.starred = True
    return fix


@dataclass
class FixtureFile:
    path: str
    p: int
    conductor: int | None       # Cp base override, if any
    fixtures: list[Fixture] = field(default_factory=list)


def parse_fixture_text(text: str, path: str = "<string>") -> FixtureFile:
    p = 0
    conductor = None
    current_f = None
    out: list[Fixture] = []
    # the last row, while a torsion block may follow it
    open_row: Fixture | None = None
    for no, line in _logical_lines(text):
        fields = _split_fields(line)
        keys = {k for k, _, _ in fields}
        header = keys in ({"p"}, {"f"}, {"f", "N"}) or "conductor" in keys
        if not (p or header):
            raise FixtureParseError("missing p= header", line=no)
        # headers, rows and torsion lines all go through one reader (the
        # line itself when it has no fields, which the reader refuses)
        fix = parse_fixture_line(fields or line, p=p, line_no=no,
                                 default_f=current_f)
        if keys == {"p"}:
            p = fix.p
        elif "conductor" in keys:
            conductor = fix.f
        elif header:
            current_f = fix.f
        elif "Structure of Tor" in keys:
            if open_row is None:
                raise FixtureParseError("torsion line without a class line",
                                        line=no)
            open_row.tor = fix.tor
        elif "#Tor" in keys:
            if open_row is None or open_row.tor is None:
                raise FixtureParseError("#Tor line without torsion structure",
                                        line=no)
            if fix.cp is None:
                raise FixtureParseError("#Tor line without Cp", line=no)
            open_row.ntor, open_row.cp = fix.ntor, fix.cp
            open_row = None
        else:
            out.append(fix)
            open_row = fix if fix.m is not None or fix.clres is not None or (
                fix.poly is not None and fix.D is None) else None
    # a torsion row's Cp is based on |m|, else on the conductor= or f
    for fix in out:
        if fix.ntor is not None and \
                (fix.m, fix.f, conductor) == (None, None, None):
            raise FixtureParseError("Cp with no m, f or conductor to base "
                                    "it on", line=fix.source_line)
    return FixtureFile(path, p, conductor, out)


def parse_fixture_file(path) -> FixtureFile:
    path = Path(path)
    return parse_fixture_text(path.read_text(), str(path))


def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def load_all_fixtures(root=None) -> list[FixtureFile]:
    root = Path(root) if root else fixture_dir()
    return [parse_fixture_file(f) for f in sorted(root.glob("p*/*.txt"))]


# -------------------------------------------------------------- validation

def _residue_degree(q: int, p: int) -> int:
    """Multiplicative order of q mod p (residue degree of q in Q(mu_p))."""
    r = q % p
    k = 1
    acc = r
    while acc != 1:
        acc = acc * r % p
        k += 1
    return k


def _structure_checks(g: AbelianGroupStructure, p: int, N: int,
                      what: str) -> list[str]:
    errs = []
    lo, hi = rank_window(N, p)
    rk = g.p_rank(p)
    if not lo <= rk <= hi:
        errs.append(f"{what}: {p}-rank {rk} outside [{lo},{hi}]")
    v = g.vp(p)
    if v < N - 1:
        errs.append(f"{what}: {p}-part p^{v} smaller than the ambiguous "
                    f"number p^{N - 1}")
    for q, _ in factor(g.order).factors if g.order > 1 else ():
        if q == p:
            continue
        dim = g.p_rank(q)
        deg = _residue_degree(q, p)
        if dim % deg:
            errs.append(f"{what}: {q}-part dimension {dim} not a multiple "
                        f"of the residue degree {deg}")
    return errs


def delta_from_fixture(fix: Fixture) -> tuple[int, int]:
    """Chevalley's (delta, Delta): the p-rank and p-adic valuation of Cl
    (else Clres) beyond the N - 1 that the ambiguous classes give."""
    N = fix.n_ramified()
    g = fix.cl if fix.cl is not None else fix.clres
    return g.p_rank(fix.p) - (N - 1), g.vp(fix.p) - (N - 1)


def _sig_agree(got: float, want: float, sig: int = 6) -> bool:
    if want == 0:
        return got == 0
    scale = 10.0 ** (floor(log10(abs(want))) - sig + 1)
    return abs(got - want) <= scale


def validate_fixture(fix: Fixture, cp_conductor: int | None = None) -> list[str]:
    """Empty list means the row passes every applicable check."""
    errs: list[str] = []
    p = fix.p
    if fix.D is not None:
        # normic-scan row: internal consistency + printed statistic
        parts = prod(fix.hp_parts or ())
        if parts != fix.hp:
            errs.append(f"hp {fix.hp} != product of parts {parts}")
        if fix.hp != p ** vp(fix.hp, p):
            errs.append(f"hp {fix.hp} is not a power of {p}")
        if fix.cp is not None and not _sig_agree(
                2 * log(fix.hp) / log(fix.D), fix.cp):
            errs.append(f"Cp mismatch: printed {fix.cp}")
        return errs
    try:
        N = fix.n_ramified()
    except ValueError:
        return ["no conductor information"]
    for what, g in (("Cl", fix.cl), ("Clres", fix.clres), ("Tor", fix.tor)):
        if g is not None:
            errs += _structure_checks(g, p, N, what)
    if fix.starred and (fix.cl is not None or fix.clres is not None) and \
            max(delta_from_fixture(fix)) <= 0:
        errs.append("starred row without exceptional classes")
    if fix.clord is not None and fix.clres is not None:
        if fix.clres.order not in (fix.clord.order, 2 * fix.clord.order):
            errs.append("restricted/ordinary orders differ by more than 2")
    if fix.ntor is not None:
        order = fix.tor.order if fix.tor is not None else None
        if order is not None and order != fix.ntor:
            errs.append(f"#Tor {fix.ntor} != product of structure {order}")
        if fix.cp is not None:
            if fix.m is not None:
                base = log(abs(fix.m)) / 2
            else:
                base = log(cp_conductor or fix.f)
            if not _sig_agree(log(fix.ntor) / base, fix.cp):
                errs.append(f"Cp mismatch: printed {fix.cp}, computed "
                            f"{log(fix.ntor) / base:.8f}")
    return errs


@dataclass
class ValidationReport:
    files: int
    rows: int
    failures: list  # (path, line, message)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_all(root=None) -> ValidationReport:
    files = load_all_fixtures(root)
    failures = []
    rows = 0
    for ff in files:
        for fix in ff.fixtures:
            rows += 1
            for msg in validate_fixture(fix, cp_conductor=ff.conductor):
                failures.append((ff.path, fix.source_line, msg))
    return ValidationReport(len(files), rows, failures)

"""The three workloads: seeded inputs, the timed operation, and its check.

Each workload class imports addcomb in its constructor, so building one is
the set-up that ``setup_s`` times. ``ops`` holds the inputs, more than one
run uses; a run stops only at the end of a ``round`` of ops, which keeps
the mix of input kinds fixed, and a traced run makes whole passes over the
first ``trace_ops`` inputs, which keeps its counts exact. ``run``
performs one operation and returns its output; ``check`` recomputes the
output with independent oracles (plain ``itertools.product`` loops over an
exact integer encoding of the elements, never addcomb's evaluation paths)
and returns the list of problems found; ``fingerprint`` gives a value whose
``repr`` identifies the output, so a repeated pass only has to match the
pass that was checked in full.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction

SQRT2 = 1.4142135623730951
SQRT3 = 1.7320508075688772


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --- independent oracles ------------------------------------------------------


def encoder(A):
    """An exact, injective and linear map of A's scalars to Python ints.

    Coordinates over the basis are scaled by the lcm of their denominators
    and packed 64 bits apart; every value met here stays far below 2^63 in
    each coordinate, so sums and integer multiples of encoded values are the
    encodings of the corresponding sums and multiples.
    """
    if A.basis is None:
        scale = math.lcm(*(Fraction(a).denominator for a in A))
        return lambda x: _integral(scale * x)
    scale = math.lcm(*(Fraction(c).denominator for a in A for c in a.coords))
    return lambda x: sum(_integral(scale * c) << (64 * d) for d, c in enumerate(x.coords))


def _integral(q) -> int:
    n = q.numerator
    if q.denominator != 1 or not -(1 << 62) < n < 1 << 62:
        raise ValueError(f"{q} does not encode exactly")
    return n


def tuple_values(coeffs, xs) -> list:
    """Form value of every ordered tuple, in lexicographic index order."""
    return [
        sum(c * x for c, x in zip(coeffs, tup))
        for tup in itertools.product(xs, repeat=len(coeffs))
    ]


def coincidence_map(va, vb) -> dict | None:
    """The value map x -> y if equal values on one side are exactly the equal
    values on the other, else None."""
    fwd: dict = {}
    bwd: dict = {}
    for x, y in zip(va, vb):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return None
    return fwd


def sign_flips(coeffs):
    for signs in itertools.product((1, -1), repeat=len(coeffs)):
        yield tuple(s * c for s, c in zip(signs, coeffs))


def check_integer_model(A, r) -> list:
    """B is |A| distinct integers >= 1, paired with A by the mapping."""
    B = r.B
    problems = []
    if not r.certificate.is_isomorphism:
        problems.append("certificate does not hold")
    if len(B) != len(A):
        problems.append(f"|B| = {len(B)} != |A| = {len(A)}")
    if not all(isinstance(b, int) for b in B) or B.min() < 1:
        problems.append(f"B = {B} is not a set of positive integers")
    if r.mapping.domain != A:
        problems.append("the mapping's domain is not A")
    return problems


# --- search -------------------------------------------------------------------

SEARCH_DIAMETER = 22
TRIPLE_DIAMETER = 17
SEARCH_CLASSES = 797
#: sha256 of the stdout of ``addcomb search mstd --max-diameter 22`` and of
#: ``addcomb search triple --max-diameter 17`` (empty: no triple-form hit).
SEARCH_DIGEST = "b4a17843cbcd4a8b6ecac558f0909761bdfc0b2c2751d1ef8548281e79f40eea"
TRIPLE_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class Search:
    """The CLI's exhaustive scans, called in-process with stdout captured.

    One op runs all three queries, so every op does the same work; with
    separate ops the few samples per run would make the percentiles those
    of one query each. The inputs are fixed, so the seed is not used. The
    search subcommand prints tab-separated records by default and has no
    ``--records`` flag.
    """

    def __init__(self, seed: int):
        from addcomb import cli

        self._cli = cli
        self.round = self.trace_ops = 1
        d = str(SEARCH_DIAMETER)
        self.ops = [(
            ("search", "mstd", "--max-diameter", d, "--jobs", "1"),
            ("search", "mstd", "--max-diameter", d, "--jobs", str(nproc())),
            ("search", "triple", "--max-diameter", str(TRIPLE_DIAMETER)),
        )]
        self.run((("search", "mstd", "--max-diameter", "12", "--jobs", "1"),
                  ("search", "triple", "--max-diameter", "8")))

    def run(self, op):
        outs = []
        for argv in op:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self._cli.main(list(argv))
            outs.append((code, buf.getvalue()))
        return outs

    def fingerprint(self, outs):
        return [(code, hashlib.sha256(text.encode()).hexdigest()) for code, text in outs]

    def check(self, op, outs) -> list:
        problems = []
        for argv, (code, digest), (_, text) in zip(op, self.fingerprint(outs), outs):
            query = " ".join(argv)
            if code != 0:
                problems.append(f"{query}: exit code {code}")
            if argv[1] == "triple":
                if digest != TRIPLE_DIGEST:
                    problems.append(f"{query}: records digest {digest}")
                continue
            # both job counts must print these exact bytes
            if digest != SEARCH_DIGEST:
                problems.append(f"{query}: records digest {digest}")
            lines = text.splitlines()
            if len(lines) != SEARCH_CLASSES:
                problems.append(f"{query}: {len(lines)} classes, expected {SEARCH_CLASSES}")
            sizes = [len(line.split("\t")[0].split(",")) for line in lines]
            if sizes and min(sizes) < 8:
                problems.append(f"{query}: an MSTD class of size {min(sizes)} < 8")
        return problems


# --- realize-suite ------------------------------------------------------------

#: Suites generated; a run at nominal speed uses about half. The first
#: suite, 200 ops, is the traced pass.
SUITES = 8
SUITE_SETS = 25
SUITE_FORMS = ((1, 1), (1, -1), (2, 3), (1, 1, -1))
#: The ``group`` route is left to ``certify``, where every op takes it: here
#: its calls take about 0.2 ms, and as a third of the samples they would put
#: the median into the gap between the fast and the slow calls, where it
#: jumps from run to run.
ROUTES = ("dirichlet", "lp")


def suite_sets(rng: random.Random, model) -> list:
    """25 sets over the bases {1}, {1, sqrt2} and {1, sqrt2, sqrt3}, sizes
    cycling 2..8; with ``random.Random(20260811)`` these are the test
    suite's sets."""
    unit = model.BasisDecl(("1",), (1.0,))
    sqrt2 = model.BasisDecl(("1", "sqrt2"), (1.0, SQRT2))
    sqrt23 = model.BasisDecl(("1", "sqrt2", "sqrt3"), (1.0, SQRT2, SQRT3))
    sizes = [2, 3, 4, 5, 6, 7, 8]
    sets = []
    for i in range(SUITE_SETS):
        k = sizes[i % len(sizes)]
        if i % 3 == 0:
            els: set = set()
            while len(els) < k:
                els.add(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6])))
            if i % 6 == 0:
                sets.append(model.FiniteSet(els))
            else:
                sets.append(model.FiniteSet(unit.element((e,)) for e in els))
        elif i % 3 == 1:
            coords: set = set()
            while len(coords) < k:
                coords.add((rng.randint(-3, 3), rng.randint(0, 2)))
            sets.append(model.FiniteSet(sqrt2.element(c) for c in coords))
        else:
            coords = set()
            while len(coords) < k:
                coords.add((rng.randint(0, 3), rng.randint(0, 1), rng.randint(0, 1)))
            sets.append(model.FiniteSet(sqrt23.element(c) for c in coords))
    return sets


class RealizeSuite:
    """Every suite set under every form through the ``dirichlet`` and ``lp``
    routes; one op is one ``realize`` call."""

    def __init__(self, seed: int):
        from addcomb import model, realization

        self._realization = realization
        self.round = len(SUITE_FORMS) * len(ROUTES)
        self.trace_ops = SUITE_SETS * self.round
        rng = random.Random(seed)
        forms = [model.LinearForm(c) for c in SUITE_FORMS]
        self.ops = [
            (A, form, route)
            for _ in range(SUITES)
            for A in suite_sets(rng, model)
            for form in forms
            for route in ROUTES
        ]
        A, form = self.ops[0][:2]
        for route in ROUTES:
            self.run((A, form, route))

    def run(self, op):
        A, form, route = op
        return self._realization.realize(A, form, route)

    def fingerprint(self, r):
        return tuple(r.B), r.method, r.certificate

    def check(self, op, r) -> list:
        A, form, route = op
        problems = check_integer_model(A, r)
        if r.method != route:
            problems.append(f"route {r.method}, asked for {route}")
        if problems:
            return problems
        xs = [*map(encoder(A), A)]
        ys = r.mapping.mapped_elements()
        if coincidence_map(tuple_values(form.coeffs, xs), tuple_values(form.coeffs, ys)) is None:
            problems.append("the pairing does not preserve coincidences")
        for coeffs in sign_flips(form.coeffs):
            na = len(set(tuple_values(coeffs, xs)))
            nb = len(set(tuple_values(coeffs, ys)))
            if na != nb:
                problems.append(f"image sizes {na} != {nb} under form {coeffs}")
        return problems


# --- certify ------------------------------------------------------------------

#: Inputs generated; a run at nominal speed uses about 800. The schedule
#: repeats its kinds and arities every ROUND inputs.
CERTIFY_OPS = 1200
CERTIFY_ROUND = 12
CERTIFY_TRACE_OPS = 240
FORMS2 = ((1, 1), (1, -1), (2, -3))
FORM3 = (1, 1, -1)
KINDS = ("integer", "rational", "symbolic")


def certify_schedule(i: int):
    """Kind, form coefficients and size of the i-th certify input.

    The schedule is fixed, so every seed does the same amount of tuple work;
    the seed chooses only the elements and the exponential base.
    """
    kind = KINDS[i % 3]
    if i % 4 == 3:
        return kind, FORM3, 8 + (i * 5) % 9
    return kind, FORMS2[(i // 4) % len(FORMS2)], 16 + (i * 7) % 33


class Certify:
    """Group-route realizations of larger sets, each followed by the induced
    value bijection; integer sets also go through is_mstd and the MPTQ
    mirror."""

    def __init__(self, seed: int):
        from addcomb import images, isomorphism, model, mptq, realization

        self._realization = realization
        self._isomorphism = isomorphism
        self._images = images
        self._mptq = mptq
        self.round = CERTIFY_ROUND
        self.trace_ops = CERTIFY_TRACE_OPS
        rng = random.Random(seed)
        basis = model.BasisDecl(("1", "sqrt2", "sqrt3"), (1.0, SQRT2, SQRT3))
        self.ops = []
        for i in range(CERTIFY_OPS):
            kind, coeffs, k = certify_schedule(i)
            base = None
            if kind == "integer":
                A = model.FiniteSet(rng.sample(range(-3 * k, 3 * k + 1), k))
                base = rng.choice((2, 3, 5))
            elif kind == "rational":
                els: set = set()
                while len(els) < k:
                    els.add(Fraction(rng.randint(-6 * k, 6 * k), rng.choice((1, 2, 3, 4, 6))))
                A = model.FiniteSet(els)
            else:
                coords: set = set()
                while len(coords) < k:
                    coords.add((Fraction(rng.randint(-12, 12), rng.choice((1, 2))),
                                rng.randint(-3, 3), rng.randint(-2, 2)))
                A = model.FiniteSet(basis.element(c) for c in coords)
            self.ops.append((A, model.LinearForm(coeffs), base))
        self.run(self.ops[0])

    def run(self, op):
        A, form, base = op
        r = self._realization.realize(A, form, "group")
        induced = self._isomorphism.induced_bijection(form, r.mapping)
        mirror = None
        if base is not None:
            mirror = (
                self._images.is_mstd(A),
                self._mptq.product_quotient_counts(self._mptq.exp_transport(A, base)),
            )
        return r, induced, mirror

    def fingerprint(self, out):
        r, induced, mirror = out
        return tuple(r.B), r.certificate, induced.pairs, mirror

    def check(self, op, out) -> list:
        A, form, base = op
        r, induced, mirror = out
        problems = check_integer_model(A, r)
        if problems:
            return problems
        encode = encoder(A)
        xs = [*map(encode, A)]
        ys = r.mapping.mapped_elements()
        va = tuple_values(form.coeffs, xs)
        vb = tuple_values(form.coeffs, ys)
        value_map = coincidence_map(va, vb)
        if value_map is None:
            return ["the pairing does not preserve coincidences"]
        ma, mb = Counter(va), Counter(vb)
        pairs = [(encode(x), y, m) for x, y, m in induced.pairs]
        if sorted(value_map.items()) != sorted((x, y) for x, y, _ in pairs):
            problems.append("the induced map differs from the recounted value map")
        for x, y, m in pairs:
            if not ma.get(x) == mb.get(y) == m:
                problems.append(f"multiplicity {m} at {x} -> {y} does not transfer")
                break
        if mirror is not None:
            verdict, counts = mirror
            ints = list(A)
            sums = len({a + b for a in ints for b in ints})
            diffs = len({a - b for a in ints for b in ints})
            if (verdict.sum_count, verdict.diff_count) != (sums, diffs):
                problems.append(f"is_mstd counts {verdict} != recount ({sums}, {diffs})")
            if (counts.product_count, counts.quotient_count) != (sums, diffs):
                problems.append(f"MPTQ counts {counts} != sum/difference counts")
        return problems


WORKLOADS = {
    "search": Search,
    "realize-suite": RealizeSuite,
    "certify": Certify,
}

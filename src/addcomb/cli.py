"""Command-line entry point.

Exit codes: 0 success, 1 bad input (parse diagnostics go to stderr),
2 usage errors (argparse), 3 a certificate failed verification.

`--records` switches to one tab-separated result per line with no prose,
byte-stable across runs and worker counts, for golden-file diffing.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterator
from itertools import islice

from .errors import (
    ApproximationError,
    BudgetExceededError,
    CertificateError,
    SetFormatError,
)
from .images import form_image, is_mstd
from .isomorphism import SetBijection, classify_mstd8, is_phi_isomorphism
from .model import FiniteSet, LinearForm
from .mptq import PositiveSet, exp_transport, log_transport, product_quotient_counts
from .realization import realize
from .search import (
    SearchConfig,
    default_jobs,
    enumerate_mstd,
    mask_text,
    sum_diff_counts,
    triple_form_scan,
)
from .setfiles import read_set_file


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _cmd_image(args) -> int:
    A = read_set_file(args.setfile)
    form = LinearForm.parse(args.form)
    report = form_image(form, A)
    if args.records:
        for x in report.image:
            print(f"{x}\t{report.multiplicity(x)}")
        return 0
    print(_fmt_set(report.image))
    print(f"size={report.size}")
    if args.multiplicities:
        for x in report.image:
            print(f"{x} -> {report.multiplicity(x)}")
    return 0


def _cmd_mstd(args) -> int:
    A = read_set_file(args.setfile)
    v = is_mstd(A)
    if args.records:
        print(f"{v.sum_count}\t{v.diff_count}\t{'yes' if v.is_mstd else 'no'}")
    else:
        print(f"sum={v.sum_count} diff={v.diff_count} MSTD={'yes' if v.is_mstd else 'no'}")
    return 0


def _load_bijection(args, A: FiniteSet, B: FiniteSet) -> SetBijection:
    if args.map == "order":
        return SetBijection.by_order(A, B)
    perm = [None] * len(A)
    seen = set()
    with open(args.map, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise SetFormatError("pairing line must be two 1-based indices", lineno) from None
            if not (1 <= i <= len(A) and 1 <= j <= len(B)):
                raise SetFormatError(f"index pair {i} {j} out of range", lineno)
            if perm[i - 1] is not None:
                raise SetFormatError(f"index {i} of the first set is paired twice", lineno)
            if j in seen:
                raise SetFormatError(f"index {j} of the second set is paired twice", lineno)
            seen.add(j)
            perm[i - 1] = j - 1
    for a, j in zip(A, perm):
        if j is None:
            raise ValueError(f"{a} has no image in the pairing")
    return SetBijection(A, B, tuple(perm))


def _cmd_iso_check(args) -> int:
    A = read_set_file(args.seta)
    B = read_set_file(args.setb)
    form = LinearForm.parse(args.form)
    f = _load_bijection(args, A, B)
    verdict = is_phi_isomorphism(form, f)
    hom = "yes" if verdict.is_homomorphism else "no"
    iso = "yes" if verdict.is_isomorphism else "no"
    if args.records:
        line = f"{hom}\t{iso}"
        if verdict.witness:
            u, v = verdict.witness
            line += f"\t{_csv(u)}\t{_csv(v)}"
        print(line)
    else:
        print(f"homomorphism={hom} isomorphism={iso}")
        if verdict.witness:
            u, v = verdict.witness
            print(f"witness: tuples {u} and {v} disagree")
    return 0


def _cmd_classify8(args) -> int:
    A = read_set_file(args.setfile)
    result = classify_mstd8(A)
    target = "canonical" if result.lam > 0 else "reflection"
    if args.records:
        print(f"{result.lam}\t{result.mu}\t{target}")
    else:
        print(f"lambda={result.lam} mu={result.mu} matched={target}")
    return 0


def _cmd_realize(args) -> int:
    A = read_set_file(args.setfile)
    form = LinearForm.parse(args.form)
    result = realize(A, form, args.method)
    p = result.params
    detail = ""
    if hasattr(p, "lam"):
        detail = f"lambda={p.lam}"
    elif hasattr(p, "q"):
        detail = f"q={p.q}"
    elif hasattr(p, "pivots"):
        detail = f"pivots={p.pivots}"
    status = "OK" if result.certificate.is_isomorphism else "FAIL"
    if args.records:
        line = f"{_csv(result.B)}\t{result.method}"
        if detail:
            line += f"\t{detail}"
        print(f"{line}\tcertificate={status}")
    else:
        print(f"B = {_fmt_set(result.B)}")
        print(f"method={result.method}" + (f" {detail}" if detail else ""))
        print(f"certificate={status}")
    return 0 if status == "OK" else 3


#: the most records `_cmd_search` joins into one write
RECORD_CHUNK = 1 << 16


def _search_records(classes, recount: bool) -> Iterator[str]:
    """The lines `search` prints for the (class, c1, c2) a scan returns,
    or with `recount` for bare classes, counted by `sum_diff_counts`."""
    if recount:
        classes = ((cs, *sum_diff_counts(cs.bits)) for cs in classes)
    return (f"{mask_text(cs.bits)}\t{c1}\t{c2}\n" for cs, c1, c2 in classes)


def _write_records(lines, out) -> None:
    """Write `lines` to `out`, joined RECORD_CHUNK at a time, so a large
    scan neither writes once per line nor builds one string of them all."""
    lines = iter(lines)
    while chunk := list(islice(lines, RECORD_CHUNK)):
        out.write("".join(chunk))


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        max_diameter=args.max_diameter,
        size_filter=args.size,
        require_endpoints=args.require_endpoints,
    )
    t0 = time.perf_counter()
    jobs = default_jobs() if args.jobs is None else args.jobs
    if args.mode == "mstd":
        classes = enumerate_mstd(cfg, jobs=jobs)
    else:
        classes = triple_form_scan(cfg, report_equal=args.report_equal, jobs=jobs)
    t1 = time.perf_counter()
    _write_records(_search_records(classes, args.mode == "mstd"), sys.stdout)
    if args.stats:
        t2 = time.perf_counter()
        # with --require-endpoints the kernel tests only the sets holding n
        examined = 1 << (cfg.max_diameter - cfg.require_endpoints)
        print(
            f"examined={examined} wall={t2 - t0:.3f}s classes={len(classes)} "
            f"scan={t1 - t0:.3f}s records={t2 - t1:.3f}s",
            file=sys.stderr,
        )
    return 0


def _cmd_mptq(args) -> int:
    A = read_set_file(args.setfile)
    B = PositiveSet(A.elements)
    v = product_quotient_counts(B)
    if args.records:
        print(f"{v.product_count}\t{v.quotient_count}\t{'yes' if v.is_mptq else 'no'}")
    else:
        print(
            f"products={v.product_count} quotients={v.quotient_count} "
            f"MPTQ={'yes' if v.is_mptq else 'no'}"
        )
    return 0


def _cmd_transport(args) -> int:
    A = read_set_file(args.setfile)
    if args.direction == "exp":
        result = exp_transport(A, args.base).elements
    else:
        result = log_transport(PositiveSet(A.elements), args.base).elements
    if args.records:
        print(_csv(result))
    else:
        print(_fmt_set(result))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="addcomb",
        description="Exact workbench for sumsets, MSTD sets, and integer realizations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_records(p):
        p.add_argument("--records", action="store_true", help="tab-separated line output")

    p = sub.add_parser("image", help="image of a linear form over a set")
    p.add_argument("--form", required=True, help='comma-separated coefficients, e.g. "1,1,-1"')
    p.add_argument("--multiplicities", action="store_true")
    p.add_argument("setfile")
    add_records(p)
    p.set_defaults(fn=_cmd_image)

    p = sub.add_parser("mstd", help="compare |A+A| with |A-A|")
    p.add_argument("setfile")
    add_records(p)
    p.set_defaults(fn=_cmd_mstd)

    p = sub.add_parser("iso-check", help="test a bijection for coincidence preservation")
    p.add_argument("--form", required=True)
    p.add_argument("--map", default="order", help='"order" or a pairing file of index pairs')
    p.add_argument("seta")
    p.add_argument("setb")
    add_records(p)
    p.set_defaults(fn=_cmd_iso_check)

    p = sub.add_parser("classify8", help="classify an 8-element MSTD set up to affine maps")
    p.add_argument("setfile")
    add_records(p)
    p.set_defaults(fn=_cmd_classify8)

    p = sub.add_parser("realize", help="construct a coincidence-preserving positive integer set")
    p.add_argument("--method", choices=("group", "dirichlet", "lp", "auto"), default="auto")
    p.add_argument("--form", required=True)
    p.add_argument("setfile")
    add_records(p)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("search", help="exhaustive bounded-diameter scans")
    p.add_argument("mode", choices=("mstd", "triple"))
    p.add_argument("--max-diameter", type=int, required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--require-endpoints", action="store_true")
    p.add_argument("--report-equal", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("mptq", help="compare product and quotient set sizes")
    p.add_argument("setfile")
    add_records(p)
    p.set_defaults(fn=_cmd_mptq)

    p = sub.add_parser("transport", help="move a set between additive and multiplicative sides")
    p.add_argument("direction", choices=("exp", "log"))
    p.add_argument("--base", type=int, required=True)
    p.add_argument("setfile")
    add_records(p)
    p.set_defaults(fn=_cmd_transport)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except (ApproximationError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

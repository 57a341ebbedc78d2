"""Command-line surface.

Subcommands
-----------
seq             print terms of a family
coeff           one F-nomial coefficient
multicoeff      one multi F-nomial coefficient
admissible      bounded admissibility report
paths           maximal-path count of a layer (optionally listed)
tile            construct a tiling of a layer
multitile       construct a multi-block tiling of <1 -> n>
count-tilings   construction count, census, or exhaustive total
graph           block graph: DOT export, clique search, clique counts
verify          validate a tiling JSON file
render          draw a tiling JSON file as SVG

Global flags: --json for machine-readable stdout, --seed for the seeded
strategy default, --cap-volume / --cap-vertices for enumeration and
construction guards, --config for a `key = value` file supplying flag
defaults (flags win).
Exit codes: 0 success, 1 domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coefficients import (
    check_multi_recurrence,
    fnomial,
    fnomial_recurrence_rhs,
    multi_fnomial,
)
from .errors import DEFAULT_BLOCK_CAP, DEFAULT_VOLUME_CAP, CapExceeded, CobwebError, TilingFormatError
from .fsequence import admissibility_checks, is_cobweb_admissible, parse_family_spec, term

# The handlers import `tiling` (as `tl`, the name annotations use),
# `blockgraph`, `geometry` and `render` themselves, so a process loads
# only the modules its subcommand runs.


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise CobwebError(f"bad composition {text!r}") from exc


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _fs_path(text: str) -> str:
    """The path as `pathlib.PurePosixPath` spells it: repeated slashes,
    `.` parts and a trailing slash dropped, `''` read as `.`.  Files open
    under that name, and errors quote it."""
    root = "/" * (len(text) - len(text.lstrip("/")))
    if root != "//":
        root = root[:1]
    return root + "/".join(p for p in text.split("/") if p not in ("", ".")) or "."


def _read_file(path: str) -> str:
    with open(_fs_path(path), encoding="utf-8") as handle:
        return handle.read()


def _read_tiling(path: str):
    """A tiling file's JSON object and the tiling it holds; JSON nested
    past the parser's depth is a malformed tiling, not a traceback."""
    from .tiling import tiling_from_json

    try:
        obj = json.loads(_read_file(path))
    except RecursionError as exc:
        raise TilingFormatError(f"malformed tiling: {exc}") from None
    return obj, tiling_from_json(obj)


def _write_file(path: str, content: str) -> None:
    with open(_fs_path(path), "w", encoding="utf-8") as handle:
        handle.write(content)


def cmd_seq(args) -> int:
    F = parse_family_spec(args.family)
    if args.count < 0:
        raise CobwebError(f"--count needs a count >= 0, got {args.count}")
    values = [term(F, n) for n in range(args.start, args.start + args.count)]
    _emit(args, {"family": F.spec_string(), "terms": values},
          [" ".join(map(str, values))])
    return 0


def cmd_coeff(args) -> int:
    F = parse_family_spec(args.family)
    if args.check_recurrence and not 1 <= args.k <= args.n - 1:
        raise CobwebError(f"--check-recurrence needs 1 <= k <= n-1, got k={args.k}, n={args.n}")
    value = fnomial(F, args.n, args.k)
    lines = [str(value)]
    payload = {"family": F.spec_string(), "n": args.n, "k": args.k, "value": value}
    if args.check_recurrence:
        rhs = fnomial_recurrence_rhs(F, args.n, args.k)
        ok = value == rhs
        payload.update({"recurrence_lhs": value, "recurrence_rhs": rhs,
                        "recurrence_holds": ok})
        lines.append(f"recurrence: lhs={value} rhs={rhs} holds={ok}")
    _emit(args, payload, lines)
    return 0


def cmd_multicoeff(args) -> int:
    F = parse_family_spec(args.family)
    parts = _parse_parts(args.parts)
    if sum(parts) != args.n:
        raise CobwebError(f"composition {parts} does not sum to {args.n}")
    value = multi_fnomial(F, parts)
    payload = {"family": F.spec_string(), "n": args.n,
               "parts": list(parts), "value": value}
    lines = [str(value)]
    if args.check_recurrence:
        ok = check_multi_recurrence(F, parts)
        payload["recurrence_holds"] = ok
        lines.append(f"recurrence holds={ok}")
    _emit(args, payload, lines)
    return 0


def cmd_admissible(args) -> int:
    F = parse_family_spec(args.family)
    if args.max < 1:
        raise CobwebError(f"--max needs a bound >= 1, got {args.max}")
    try:
        report = is_cobweb_admissible(F, args.max, cap=args.cap_vertices)
    except CapExceeded:
        checks = admissibility_checks(args.max)
        raise CapExceeded(f"--max {args.max} checks {checks} F-nomials, "
                          f"over the cap {args.cap_vertices}") from None
    payload = {
        "family": F.spec_string(),
        "bound": report.bound,
        "admissible_up_to_bound": report.admissible_up_to_bound,
        "first_failure": list(report.first_failure) if report.first_failure else None,
        "note": "bounded verdict only",
    }
    if report.admissible_up_to_bound:
        _emit(args, payload, [f"admissible up to n = {report.bound} (bounded verdict)"])
        return 0
    _emit(args, payload, [f"not admissible: first failure at (n, m) = {report.first_failure}"])
    return 1


def cmd_paths(args) -> int:
    from .geometry import build_layer, iter_max_paths

    F = parse_family_spec(args.family)
    layer = build_layer(F, args.k, args.n)
    payload = {"family": F.spec_string(), "span": [args.k, args.n],
               "volume": layer.volume()}
    lines = [f"volume {layer.volume()}"]
    if args.list:
        paths = [list(p) for p in iter_max_paths(layer, cap=args.cap_volume)]
        payload["paths"] = paths
        lines.extend(" ".join(map(str, p)) for p in paths)
    _emit(args, payload, lines)
    return 0


def _strategy(args) -> tl.ChoiceStrategy:
    from . import tiling as tl

    if args.strategy is None:
        return tl.Seeded(args.seed) if args.seed is not None else tl.LowestLabels()
    return tl.parse_strategy(args.strategy)


def _emit_tiling(args, tiling: tl.Tiling) -> int:
    """Verify a constructed tiling, write it to --out, and report it."""
    from . import tiling as tl

    report = tl.verify_tiling(tiling, volume_cap=args.cap_volume)
    obj = tiling.to_json_obj()
    if args.out:
        _write_file(args.out, canonical_json(obj))
    payload = {"tiling": obj, "valid": report.valid, "blocks": len(tiling.blocks)}
    _emit(args, payload,
          [f"{len(tiling.blocks)} blocks, valid={report.valid}"])
    return 0 if report.valid else 1


def cmd_tile(args) -> int:
    from . import tiling as tl

    F = parse_family_spec(args.family)
    strategy = _strategy(args)
    return _emit_tiling(args, tl.construct_tiling(F, args.k, args.n, strategy,
                                                  block_cap=args.cap_vertices))


def cmd_multitile(args) -> int:
    from . import tiling as tl

    F = parse_family_spec(args.family)
    parts = _parse_parts(args.parts)
    strategy = _strategy(args)
    return _emit_tiling(args, tl.construct_multi_tiling(F, args.n, parts, strategy,
                                                        block_cap=args.cap_vertices))


def cmd_count_tilings(args) -> int:
    from . import tiling as tl
    from .geometry import PlainShape, build_layer

    F = parse_family_spec(args.family)
    payload: dict = {"family": F.spec_string(), "span": [args.k, args.n],
                     "mode": args.mode}
    if args.mode == "formula":
        value = tl.count_construction_tilings(F, args.k, args.n)
        payload["count"] = value
        _emit(args, payload, [str(value)])
        return 0
    if args.mode == "construction":
        census = tl.construction_census(F, args.k, args.n)
        payload.update({"choice_sequences": census.sequences,
                        "distinct": census.distinct})
        _emit(args, payload,
              [f"distinct {census.distinct} (from {census.sequences} choice sequences)"])
        return 0
    layer = build_layer(F, args.k, args.n)
    result = tl.enumerate_all_tilings(
        layer, PlainShape(layer.m), limit=0, volume_cap=args.cap_volume,
        block_cap=args.cap_vertices,
    )
    payload.update({"count": result.total, "complete": result.complete})
    _emit(args, payload,
          [f"{result.total} tilings ({'complete' if result.complete else 'TRUNCATED'})"])
    return 0 if result.complete else 1


def cmd_graph(args) -> int:
    from . import blockgraph as bg
    from .geometry import build_layer

    F = parse_family_spec(args.family)
    layer = build_layer(F, args.k, args.n)
    graph = bg.build_block_graph(layer, block_cap=args.cap_vertices)
    payload: dict = {
        "family": F.spec_string(), "span": [args.k, args.n],
        "vertices": graph.vertex_count(), "edges": graph.edge_count(),
        "d": graph.d,
    }
    lines = [f"{graph.vertex_count()} vertices, {graph.edge_count()} edges, d={graph.d}"]
    if args.dot:
        _write_file(args.dot, bg.to_dot(graph))
        lines.append(f"wrote {args.dot}")
    if args.find_clique:
        clique = bg.find_clique(graph)
        payload["clique"] = list(clique) if clique is not None else None
        lines.append(f"clique: {' '.join(map(str, clique)) if clique is not None else 'none'}")
    if args.count_max_cliques:
        result = bg.count_maximal_cliques(graph)
        payload.update({"maximal_cliques": result.total, "complete": result.complete})
        lines.append(f"maximal cliques: {result.total}"
                     + ("" if result.complete else " (TRUNCATED)"))
    _emit(args, payload, lines)
    return 0 if payload.get("complete", True) else 1


def cmd_verify(args) -> int:
    from . import tiling as tl

    _, tiling = _read_tiling(args.file)
    report = tl.verify_tiling(tiling, volume_cap=args.cap_volume)
    payload = {"valid": report.valid, "violations": list(report.violations),
               "blocks": len(tiling.blocks)}
    lines = [f"valid={report.valid}, {len(tiling.blocks)} blocks"]
    lines.extend(f"violation: {v}" for v in report.violations)
    _emit(args, payload, lines)
    return 0 if report.valid else 1


def cmd_render(args) -> int:
    from .render import RenderStyle, picture_sizes, render_tiling_svg

    for flag, value in (("dx", args.dx), ("dy", args.dy), ("radius", args.radius)):
        if value < 1:
            raise CobwebError(f"--{flag} needs a value >= 1, got {value}")
    obj, tiling = _read_tiling(args.file)
    sizes = picture_sizes(obj, tiling.layer, args.cap_vertices)
    svg = render_tiling_svg(obj, sizes, RenderStyle(dx=args.dx, dy=args.dy, radius=args.radius))
    _write_file(args.out, svg)
    _emit(args, {"out": args.out, "bytes": len(svg)}, [f"wrote {args.out}"])
    return 0


def _apply_config(argv: list[str]) -> list[str]:
    """Inject defaults from a `key = value` config file; explicit flags win.

    The extra options are inserted directly after the subcommand token, so
    any flag the user typed comes later and takes precedence.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    extra: list[str] = []
    for raw in _read_file(known.config).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise CobwebError(f"bad config line {raw!r}")
        extra.append(f"--{key.strip()}={value.strip()}")
    for i, token in enumerate(argv):
        if not token.startswith("-"):
            return argv[:i + 1] + extra + argv[i + 1:]
    return argv + extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Cobweb layers, F-nomials, tilings and block graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable stdout")
        p.add_argument("--seed", type=int, default=None, help="seed for the seeded strategy")
        p.add_argument("--cap-volume", type=int, default=DEFAULT_VOLUME_CAP)
        p.add_argument("--cap-vertices", type=int, default=DEFAULT_BLOCK_CAP)
        p.add_argument("--config", default=None, help="key = value defaults file")

    p = sub.add_parser("seq", help="print terms of a family")
    p.add_argument("family")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--start", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("coeff", help="F-nomial coefficient")
    p.add_argument("family")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--check-recurrence", action="store_true")
    common(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("multicoeff", help="multi F-nomial coefficient")
    p.add_argument("family")
    p.add_argument("n", type=int)
    p.add_argument("parts", help="comma-separated composition, e.g. 2,2")
    p.add_argument("--check-recurrence", action="store_true")
    common(p)
    p.set_defaults(func=cmd_multicoeff)

    p = sub.add_parser("admissible", help="bounded admissibility check")
    p.add_argument("family")
    p.add_argument("--max", type=int, default=12)
    common(p)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("paths", help="maximal paths of a layer")
    p.add_argument("family")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--list", action="store_true")
    common(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("tile", help="construct a tiling")
    p.add_argument("family")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--strategy", default=None, help="lowest | seed:N | all")
    p.add_argument("--out", default=None, help="write tiling JSON here")
    common(p)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("multitile", help="construct a multi-block tiling")
    p.add_argument("family")
    p.add_argument("n", type=int)
    p.add_argument("parts", help="comma-separated composition of n")
    p.add_argument("--strategy", default=None)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_multitile)

    p = sub.add_parser("count-tilings", help="tiling counts")
    p.add_argument("family")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=["formula", "construction", "exhaustive"],
                   default="formula")
    common(p)
    p.set_defaults(func=cmd_count_tilings)

    p = sub.add_parser("graph", help="block graph of a layer")
    p.add_argument("family")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--dot", default=None, help="write DOT here")
    p.add_argument("--find-clique", action="store_true")
    p.add_argument("--count-max-cliques", action="store_true")
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="validate a tiling JSON file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a tiling JSON file as SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--dx", type=int, default=40)
    p.add_argument("--dy", type=int, default=60)
    p.add_argument("--radius", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact integers print in full
    try:
        args = build_parser().parse_args(_apply_config(argv))
        return args.func(args)
    except (CobwebError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

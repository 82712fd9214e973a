"""Command line front end.

Every subcommand wraps exactly one library operation and supports --json.
Exit codes: 0 success, 1 domain error (library ValueError and friends),
2 usage error (bad flags or an unparseable ordinal, with its position).

Start-up is most of a command's cost, so this module imports only the
ordinal layer, which parses every argument.  A handler parses its ordinals
first and then imports the layers it uses, inside the handler.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ordinal import (
    ONE,
    Ordinal,
    ParseError,
    ZERO,
    add,
    compare,
    format_ordinal,
    left_subtract,
    mul_nat,
    parse,
    to_json as ordinal_to_json,
)


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _emit(args, text: str, payload) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


# ---- input helpers ----------------------------------------------------------


def _read_json(text: str):
    """json.loads, turning input nested too deeply for the decoder into a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input nested too deeply") from None


def _load_step_function(source: str):
    from .grasberg import step_function_from_json

    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return step_function_from_json(_read_json(text))


def _load_tree(path: str):
    from .trees import tree_from_json, tree_from_text

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        return tree_from_json(_read_json(text))
    return tree_from_text(text)


def _load_family(space, name_or_path: str, ladder: Ordinal | None):
    from .extract import family_from_table, marching_indicators

    if name_or_path == "marching-indicators":
        return marching_indicators(space, step=ONE if ladder is None else ladder)
    if ladder is not None:
        raise ValueError("--ladder applies only to the marching-indicators family")
    with open(name_or_path, "r", encoding="utf-8") as handle:
        table = _read_json(handle.read())
    return family_from_table(space, table)


# ---- handlers ---------------------------------------------------------------


def _cmd_ord(args) -> int:
    if args.ord_op == "eval":
        value = parse(args.ordinal)
        _emit(args, format_ordinal(value), ordinal_to_json(value))
    elif args.ord_op == "cmp":
        c = compare(parse(args.left), parse(args.right))
        word = {-1: "less", 0: "equal", 1: "greater"}[c]
        _emit(args, word, {"cmp": c, "result": word})
    elif args.ord_op == "add":
        total = parse(args.ordinals[0])
        for item in args.ordinals[1:]:
            total = add(total, parse(item))
        _emit(args, format_ordinal(total), ordinal_to_json(total))
    elif args.ord_op == "mul":
        base = parse(args.ordinal)
        product = ZERO if args.k == 0 else mul_nat(base, args.k)
        _emit(args, format_ordinal(product), ordinal_to_json(product))
    else:
        diff = left_subtract(parse(args.left), parse(args.right))
        _emit(args, format_ordinal(diff), ordinal_to_json(diff))
    return 0


def _cmd_cb(args) -> int:
    z = parse(args.ordinal)
    from .topology import cb_index, interval

    value = cb_index(interval(z))
    _emit(args, format_ordinal(value), ordinal_to_json(value))
    return 0


def _cmd_derive(args) -> int:
    z, times = parse(args.ordinal), parse(args.times)
    from .topology import format_closed_set, interval, iterated_derivative
    from .topology import to_json as closed_set_to_json

    derived = iterated_derivative(interval(z), times)
    _emit(args, format_closed_set(derived), closed_set_to_json(derived))
    return 0


def _cmd_szlenk(args) -> int:
    z = parse(args.ordinal)
    from .szlenk import index_of_CK
    from .topology import interval

    result = index_of_CK(interval(z))
    text = f"CB={format_ordinal(result.cb)}, Sz(C(K))={format_ordinal(result.index)}"
    _emit(args, text, result.to_json())
    return 0


def _cmd_grasberg(args) -> int:
    z = parse(args.space)
    from .grasberg import _rational, grasberg_norm, params, phi
    from .topology import format_closed_set, interval
    from .topology import to_json as closed_set_to_json

    space = interval(z)
    if args.grasberg_op == "params":
        p = params(space)
        text = f"o={format_ordinal(p.o)}, b={p.b}, CB={format_ordinal(p.cb)}"
        payload = {"o": ordinal_to_json(p.o), "b": p.b, "cb": ordinal_to_json(p.cb)}
        _emit(args, text, payload)
    elif args.grasberg_op == "norm":
        f = _load_step_function(args.fn)
        value = grasberg_norm(f, space)
        _emit(args, str(value), {"norm": str(value)})
    else:
        f = _load_step_function(args.fn)
        critical = phi(f, space, _rational(args.eps, "--eps"))
        _emit(args, format_closed_set(critical), closed_set_to_json(critical))
    return 0


# A trial draws 3 * max_pieces + 4 ordinals; at this cap one king or queen trial on
# [0, w^(60)] took 0.3 s of CPU (2-vCPU x86-64 host, Python 3.11).
MAX_PIECES = 1000


def _cmd_check(args) -> int:
    z = parse(args.space)
    if args.trials < 0:
        raise ValueError("trials must be >= 0")
    if args.max_pieces < 1:
        raise ValueError("max_pieces must be >= 1")
    if args.max_pieces > MAX_PIECES:
        raise ValueError(f"max_pieces must be <= {MAX_PIECES}")
    from .fuzz import _check_king_trial, _check_queen_trial, shrink_step_function
    from .grasberg import check_king, check_queen, params, step_function_to_json
    from .topology import interval

    trial, lemma = {
        "king": (_check_king_trial, check_king),
        "queen": (_check_queen_trial, check_queen),
    }[args.lemma]
    space = interval(z)
    params(space)  # rejects a finite space before the first trial
    for passes in range(args.trials):
        fns, eps = trial(space, args.seed * 1_000_003 + passes, args.max_pieces)
        if not lemma(*fns, space, eps).passed:
            break
    else:
        text = f"{args.trials}/{args.trials} " + _paint("pass", "32")
        _emit(args, text, {"trials": args.trials, "passes": args.trials, "pass": True})
        return 0

    # shrink f first, then g against the shrunk f
    fns = list(fns)
    for slot, fn in enumerate(fns):
        fns[slot] = shrink_step_function(
            fn, lambda c: not lemma(*fns[:slot], c, *fns[slot + 1 :], space, eps).passed
        )
    payload = {"lemma": args.lemma, "pass": False, "eps": str(eps)}
    payload.update((name, step_function_to_json(fn)) for name, fn in zip("fg", fns))
    text = f"{passes}/{args.trials} " + _paint("FAIL", "31")
    _emit(args, f"{text}\nminimal counterexample:\n{json.dumps(payload, indent=2)}", payload)
    return 1


def _cmd_tree(args) -> int:
    from .trees import check_fact_i, check_fact_ii, rank

    tree = _load_tree(args.file)
    r = rank(tree)
    if args.tree_op == "rank":
        _emit(args, str(r), {"rank": r})
        return 0
    reports = []
    for k in range(r + 1):
        reports.append(check_fact_i(tree, k))
        reports.append(check_fact_ii(tree, k))
    ok = all(rep.passed for rep in reports)
    if args.json:
        print(json.dumps({"rank": r, "pass": ok, "reports": [rep.to_json() for rep in reports]}))
    else:
        print(f"rank {r}")
        for rep in reports:
            if rep.passed:
                continue
            for witness, actual in rep.failures:
                where = "" if witness is None else f" at node {witness!r}"
                print(f"fact {rep.fact} k={rep.k}: rank {actual}{where}")
        word = _paint("pass", "32") if ok else _paint("FAIL", "31")
        print(f"facts i and ii for k=0..{r}: {word}")
    return 0 if ok else 1


def _cmd_extract(args) -> int:
    z = parse(args.space)
    ladder = None if args.ladder is None else parse(args.ladder)
    from .extract import extract_small_combination
    from .grasberg import _rational
    from .topology import interval

    space = interval(z)
    family = _load_family(space, args.family, ladder)
    certificate = extract_small_combination(space, family, _rational(args.delta, "--delta"))
    text = (
        f"n={certificate.n} eps={certificate.eps}\n"
        f"branch={list(certificate.branch[-1])}\n"
        f"finalNorm={certificate.final_norm} < delta={certificate.delta}"
    )
    _emit(args, text, certificate.to_json() if args.json else None)  # v1 lists all n paths: quadratic in n
    return 0


def _cmd_schema(args) -> int:
    from importlib import resources

    root = resources.files("ordspace") / "schema" / "v1"
    names = sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".json"))
    if args.schema_op == "list":
        _emit(args, "\n".join(names), {"schemas": names})
        return 0
    wanted = args.name if args.name.endswith(".json") else args.name + ".json"
    if wanted not in names:
        raise ValueError(f"unknown schema {args.name!r}; available: {', '.join(names)}")
    print((root / wanted).read_text(encoding="utf-8").rstrip())
    return 0


# ---- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordspace",
        description="Exact Cantor-Bendixson and Szlenk index computations on compact ordinal spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    ord_parser = sub.add_parser("ord", help="ordinal arithmetic")
    ord_sub = ord_parser.add_subparsers(dest="ord_op", required=True)
    p = with_json(ord_sub.add_parser("eval", help="parse and reprint in canonical form"))
    p.add_argument("ordinal")
    p = with_json(ord_sub.add_parser("cmp", help="compare two ordinals"))
    p.add_argument("left")
    p.add_argument("right")
    p = with_json(ord_sub.add_parser("add", help="sum, left to right"))
    p.add_argument("ordinals", nargs="+")
    p = with_json(ord_sub.add_parser("mul", help="right-multiply by a natural"))
    p.add_argument("ordinal")
    p.add_argument("k", type=int)
    p = with_json(
        ord_sub.add_parser("sub", help="the unique c with left + c = right")
    )
    p.add_argument("left")
    p.add_argument("right")
    for sp in ord_sub.choices.values():
        sp.set_defaults(handler=_cmd_ord)

    p = with_json(sub.add_parser("cb", help="Cantor-Bendixson index of [0, z]"))
    p.add_argument("ordinal")
    p.set_defaults(handler=_cmd_cb)

    p = with_json(sub.add_parser("derive", help="iterated derivative of [0, z]"))
    p.add_argument("ordinal")
    p.add_argument("--times", default="1", help="ordinal number of derivations")
    p.set_defaults(handler=_cmd_derive)

    p = with_json(sub.add_parser("szlenk", help="Szlenk index of C([0, z])"))
    p.add_argument("ordinal")
    p.set_defaults(handler=_cmd_szlenk)

    gras = sub.add_parser("grasberg", help="norm parameters, norms, critical sets")
    gras_sub = gras.add_subparsers(dest="grasberg_op", required=True)
    p = with_json(gras_sub.add_parser("params", help="o, b and CB of [0, z]"))
    p.add_argument("--space", required=True, help="ordinal z for the space [0, z]")
    p = with_json(gras_sub.add_parser("norm", help="Grasberg norm of a step function"))
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True, help="step function: JSON file path or inline JSON")
    p = with_json(gras_sub.add_parser("phi", help="critical set of a step function"))
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--eps", required=True, help="positive rational p/q, e.g. 1/2")
    for sp in gras_sub.choices.values():
        sp.set_defaults(handler=_cmd_grasberg)

    p = with_json(sub.add_parser("check", help="fuzz one of the two norm lemmas"))
    p.add_argument("lemma", choices=("king", "queen"))
    p.add_argument("--space", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-pieces", type=int, default=5, dest="max_pieces", help=f"1 to {MAX_PIECES}")
    p.set_defaults(handler=_cmd_check)

    tree = sub.add_parser("tree", help="tree rank and the two rank facts")
    tree_sub = tree.add_subparsers(dest="tree_op", required=True)
    for name, help_text in (("rank", "rank of a tree file"), ("facts", "check both rank facts for every k")):
        p = with_json(tree_sub.add_parser(name, help=help_text))
        p.add_argument("--file", required=True)
        p.set_defaults(handler=_cmd_tree)

    p = with_json(sub.add_parser("extract", help="extract a small convex combination"))
    p.add_argument("--space", required=True)
    p.add_argument("--family", default="marching-indicators", help="builtin name or table file")
    p.add_argument("--delta", required=True, help="positive rational p/q target")
    p.add_argument("--ladder", help="ladder step for marching-indicators (default 1)")
    p.set_defaults(handler=_cmd_extract)

    schema = sub.add_parser("schema", help="JSON schemas for the data formats")
    schema_sub = schema.add_subparsers(dest="schema_op", required=True)
    p = with_json(schema_sub.add_parser("list", help="list schema files"))
    p.set_defaults(handler=_cmd_schema)
    p = with_json(schema_sub.add_parser("show", help="print one schema"))
    p.add_argument("name")
    p.set_defaults(handler=_cmd_schema)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()

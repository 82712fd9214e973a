"""The four benchmark workloads: fuzz, wide, extract and cli.

Each workload builds its inputs from the workload seed when it is created
(the set-up that ``setup_s`` times), hands the program only those inputs, and
checks every operation against an oracle.  One operation runs at a time in
one process, so every loop is closed with a single client.

Operations make their calls into the program through a tracer: the untraced
passes call straight through, and the traced passes record one span per call.
``probes`` re-times single layer functions on the inputs a traced pass saw;
it runs only in the traced run, after the passes.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from pathlib import Path

import ordspace.cli
from ordspace import (
    ClosedSet,
    ExtractionCertificate,
    Ordinal,
    StepFunction,
    add,
    cb_index,
    check_fact_i,
    check_fact_ii,
    check_king,
    check_queen,
    compare,
    constant,
    extract_small_combination,
    finite_points,
    grasberg_norm,
    interval,
    iterated_derivative,
    marching_indicators,
    mul_nat,
    omega_pow,
    params,
    parse,
    phi,
    random_step_function,
    rank,
    step_add,
    step_scale,
    sup_on,
    tree_from_text,
    value_at,
)
from ordspace.grasberg import level_sets


class Mismatch(Exception):
    """An operation's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def king_and_queen(t, f, g, space, eps):
    """check_king on f, then check_queen with g scaled to meet the
    hypothesis, as `ordspace check` does; checks both reports."""
    king = t.call("grasberg.check_king", check_king, f, space, eps)
    cap = eps / 2 ** params(space).b
    spread = t.call("grasberg.sup_on", sup_on, g, t.call("grasberg.phi", phi, f, space, eps))
    if spread > cap:
        g = t.call("grasberg.step_scale", step_scale, g, cap / spread)
    queen = t.call("grasberg.check_queen", check_queen, f, g, space, eps)
    expect(king.passed, f"king fails: cb(phi)={king.cb_phi} > {king.bound}")
    expect(queen.hypothesis_ok, "queen hypothesis does not hold after scaling")
    expect(queen.passed, f"queen fails: {queen.lhs} > {queen.rhs}")
    return king


def retime_critical_sets(t, criticals) -> None:
    """topology probes on critical sets: cb_index and the normal form."""
    for critical in criticals:
        t.call("topology.cb_index", cb_index, critical)
        t.call("topology.normalize", ClosedSet, critical.ambient, critical.atoms)
        t.count("topology.critical_atoms", len(critical.atoms))


# ---- fuzz -------------------------------------------------------------------

FUZZ_SPACES = ("w", "w^(2)", "w^(3)", "w^(w)", "w^(2)*2+w*3+5")
FUZZ_MAX_PIECES = 5  # the `ordspace check` default
PROBE_CAP = 400  # inputs kept from traced passes for the probes


class Fuzz:
    """Many small inputs from the library's own generator; every trial is new."""

    name = "fuzz"

    def __init__(self, seed: int, tiny: bool, root: Path):
        self.spaces = [interval(parse(z)) for z in FUZZ_SPACES]
        for space in self.spaces:
            level_sets(space)  # fills the params and level_sets caches
        self.rng = random.Random(seed)
        self.pass_size = 5 if tiny else 250
        self.seen: list = []

    def pass_inputs(self, index: int) -> list:
        return [
            (self.spaces[k % len(self.spaces)], self.rng.getrandbits(32))
            for k in range(self.pass_size)
        ]

    def op(self, item, t) -> None:
        space, trial_seed = item
        f = t.call("grasberg.random_step_function", random_step_function, space, 3 * trial_seed, FUZZ_MAX_PIECES)
        g = t.call("grasberg.random_step_function", random_step_function, space, 3 * trial_seed + 1, FUZZ_MAX_PIECES)
        eps = Fraction(random.Random(3 * trial_seed + 2).randint(1, 40), 20)
        king = king_and_queen(t, f, g, space, eps)
        if t.enabled and len(self.seen) < PROBE_CAP:
            self.seen.append((f, king.phi))

    def probes(self, t) -> None:
        corpus = sorted({bp for f, _ in self.seen for bp in f.breakpoints})
        terms = [p.terms for p in corpus]
        pairs = list(zip(corpus, corpus[1:]))
        t.call_batch("ordinal.construct", len(terms), lambda: [Ordinal(x) for x in terms])
        t.call_batch("ordinal.compare", len(pairs), lambda: [compare(a, b) for a, b in pairs])
        t.call_batch("ordinal.add", len(pairs), lambda: [add(a, b) for a, b in pairs])
        for p in corpus:
            t.count("ordinal.terms_per_point", len(p.terms))
        for f, _ in self.seen:
            t.count("grasberg.pieces", len(f.breakpoints))
        retime_critical_sets(t, [critical for _, critical in self.seen])
        for space in self.spaces:
            p = params(space)
            for n in range(1, p.b + 1):
                t.call("topology.iterated_derivative", iterated_derivative, space, mul_nat(omega_pow(p.o), n))

    def close(self) -> None:
        pass


# ---- wide -------------------------------------------------------------------

# 24 sizes in even steps, so that neighbouring operations cost about the same
# and no percentile falls in a wide gap between two of them.
WIDE_SIZES = tuple(50 + round(250 * i / 23) for i in range(24))
WIDE_SPACES = (("w^(2)", 2), ("w^(3)", 3))


def cnf(coefficients) -> Ordinal:
    """The ordinal sum of w^(d-1-i) * c_i, parsed from its notation."""
    degree = len(coefficients)
    terms = []
    for i, c in enumerate(coefficients):
        e = degree - 1 - i
        if c:
            base = "" if e == 0 else ("w" if e == 1 else f"w^({e})")
            terms.append(str(c) if not base else (base if c == 1 else f"{base}*{c}"))
    return parse("+".join(terms) or "0")


def random_pieces(rng, ambient, degree, size):
    """size pieces cut at distinct random points below w^degree, random values."""
    cuts = set()
    while len(cuts) < size - 1:
        cuts.add(tuple(rng.randint(0, 60) for _ in range(degree)))
    cuts.discard((0,) * degree)
    breakpoints = [cnf(c) for c in sorted(cuts)] + [ambient]
    values = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in breakpoints]
    return StepFunction(ambient, breakpoints, values), None


def unit_blocks(rng, ambient, degree, size):
    """size//2 isolated points with value 1, each inside its own w-block.

    With eps < 1 every such point is critical at level 0 and nowhere else, so
    the critical set has exactly one atom per block.
    """
    blocks = size // 2
    prefixes = set()
    while len(prefixes) < blocks:
        prefixes.add(tuple(rng.randint(0, 999 if degree == 2 else 99) for _ in range(degree - 1)))
    breakpoints, values = [], []
    for prefix in sorted(prefixes):
        lo = cnf(prefix + (rng.randint(1, 50),))
        breakpoints += [lo, add(lo, parse("1"))]
        values += [0, 1]
    breakpoints.append(ambient)
    values.append(0)
    return StepFunction(ambient, breakpoints, values), blocks


class Wide:
    """Large step functions through the same grasberg/topology calls as fuzz."""

    name = "wide"

    def __init__(self, seed: int, tiny: bool, root: Path):
        spaces = [(interval(parse(z)), degree) for z, degree in WIDE_SPACES]
        for space, _ in spaces:
            level_sets(space)
        rng = random.Random(seed)
        self.items = []
        for i, size in enumerate((20, 30) if tiny else WIDE_SIZES):
            space, degree = spaces[(i // 2) % 2]
            make = unit_blocks if i % 2 else random_pieces
            f, blocks = make(rng, space.ambient, degree, size)
            g, _ = make(rng, space.ambient, degree, size)
            # eps sets how much of f is critical, so it goes by position and
            # not by seed: every seed then has the same mix of costs
            eps = Fraction(1 + i % 7, 8)
            self.items.append((space, f, g, eps, blocks))
        self.criticals: dict[int, ClosedSet] = {}

    def pass_inputs(self, index: int) -> list:
        return list(enumerate(self.items))

    def op(self, item, t) -> None:
        index, (space, f, g, eps, blocks) = item
        king = king_and_queen(t, f, g, space, eps)
        if blocks is not None:
            expect(len(king.phi.atoms) == blocks, f"critical set has {len(king.phi.atoms)} atoms, want {blocks}")
        if t.enabled:
            self.criticals[index] = king.phi

    def probes(self, t) -> None:
        retime_critical_sets(t, self.criticals.values())
        for space, f, g, _, _ in self.items:
            total = t.call("grasberg.step_add", step_add, f, g)
            t.call("grasberg.grasberg_norm", grasberg_norm, total, space)
            t.count("grasberg.pieces", len(f.breakpoints))

    def close(self) -> None:
        pass


# ---- extract ----------------------------------------------------------------

# (space, delta, ladder, n, eps, finalNorm), written by hand from the closed
# form n = floor(2^(2+b)/delta) + 1, eps = 1/(2n), finalNorm = 1/n, where b is
# the Grasberg parameter of the space; every branch ends at [0, 1, ..., n-1].
# The instances of a group cost about the same, so that the seed's choice
# changes the inputs and not the amount of work.
EXTRACT_MENU = {
    "n65": (
        ("w", "1/8", "1", 65, "1/130", "1/65"),
        ("w*2", "1/8", "1", 65, "1/130", "1/65"),
        ("w*3+500", "1/8", "1", 65, "1/130", "1/65"),
        ("w+7", "1/8", "1", 65, "1/130", "1/65"),
        ("w^(2)", "1/4", "1", 65, "1/130", "1/65"),
        ("w^(2)*2", "1/4", "1", 65, "1/130", "1/65"),
        ("w^(2)*3", "1/4", "1", 65, "1/130", "1/65"),
        ("w^(2)+w*5", "1/4", "1", 65, "1/130", "1/65"),
        ("w^(3)", "1/2", "1", 65, "1/130", "1/65"),
        ("w^(3)*2", "1/2", "1", 65, "1/130", "1/65"),
    ),
    "ladder": (
        ("w+10000", "1/2", "100", 17, "1/34", "1/17"),
    ),
    "tiny": (
        ("w", "1", "1", 9, "1/18", "1/9"),
        ("w+200", "1/2", "10", 17, "1/34", "1/17"),
    ),
}
# Per pass: four distinct n=65 instances and the ladder instance.  With most
# certificates in one group of like cost, the median is taken over many
# samples of that group rather than over the few of a group of one.
EXTRACT_SET = (("n65", 4), ("ladder", 1))


def witness(points, f):
    """The diagnostic the library computes per failed probe."""
    return max(points, key=lambda q: abs(value_at(f, q)))


def replay_extraction(t, space, family, delta):
    """extract_small_combination with its built-in verify, one span per call
    into a layer; the loop itself is the szlenk layer's own time."""
    b = params(space).b
    n = int(Fraction(2 ** (2 + b)) / delta) + 1
    eps = Fraction(1, 2 * n)
    if (1 + eps) ** n >= 2:
        raise AssertionError("the eps = 1/(2n) rule must keep (1+eps)^n below 2")
    threshold = eps / 2**b
    scale = Fraction(1, 2 ** (1 + b))
    running = constant(space.ambient, 0)
    path: tuple[int, ...] = ()
    branch, blocks, norms = [], [], []
    probes = 0
    for stage in range(1, n + 1):
        critical = t.call("grasberg.phi", phi, running, space, eps)
        points = t.call("topology.finite_points", finite_points, critical)
        t.count("topology.critical_points", len(points))
        k = 0
        while True:
            probes += 1
            candidate = t.call("trees.family_at", family.at, path + (k,))
            expect(t.call("grasberg.sup_on", sup_on, candidate, space) <= 1, "family leaves the unit ball")
            if t.call("grasberg.sup_on", sup_on, candidate, critical) < threshold:
                break
            t.call("grasberg.witness", witness, points, candidate)
            k += 1
        path = path + (k,)
        branch.append(path)
        blocks.append(candidate)
        running = t.call("grasberg.step_add", step_add, running, t.call("grasberg.step_scale", step_scale, candidate, scale))
        norm = t.call("grasberg.grasberg_norm", grasberg_norm, running, space)
        expect(norm <= (1 + eps) ** (stage - 1), f"stage bound fails at stage {stage}")
        norms.append(norm)
    total = reduce(lambda x, y: t.call("grasberg.step_add", step_add, x, y), blocks)
    final = t.call("grasberg.step_scale", step_scale, total, Fraction(1, n))
    final_norm = t.call("grasberg.grasberg_norm", grasberg_norm, final, space)
    certificate = ExtractionCertificate(
        branch=tuple(branch),
        blocks=tuple(blocks),
        stage_norms=tuple(norms),
        eps=eps,
        n=n,
        final=final,
        final_norm=final_norm,
        delta=delta,
    )
    t.call("szlenk.verify", certificate.verify, space)
    t.count("szlenk.stages", n)
    t.count("szlenk.probes", probes)
    return certificate


class Extract:
    """Certified small convex combinations: the szlenk hot path."""

    name = "extract"

    def __init__(self, seed: int, tiny: bool, root: Path):
        rng = random.Random(seed)
        chosen = EXTRACT_MENU["tiny"] if tiny else [x for g, k in EXTRACT_SET for x in rng.sample(EXTRACT_MENU[g], k)]
        self.items = []
        for z, delta, ladder, n, eps, final_norm in chosen:
            space = interval(parse(z))
            level_sets(space)
            family = marching_indicators(space, step=parse(ladder))
            self.items.append((space, family, Fraction(delta), (n, Fraction(eps), Fraction(final_norm))))

    def pass_inputs(self, index: int) -> list:
        return self.items

    def op(self, item, t) -> None:
        space, family, delta, (n, eps, final_norm) = item
        if t.enabled:
            certificate = t.call("szlenk.extract", replay_extraction, t, space, family, delta)
        else:
            certificate = extract_small_combination(space, family, delta)
        expect(certificate.n == n, f"n={certificate.n}, want {n}")
        expect(certificate.eps == eps, f"eps={certificate.eps}, want {eps}")
        expect(certificate.final_norm == final_norm, f"finalNorm={certificate.final_norm}, want {final_norm}")
        expect(certificate.branch[-1] == tuple(range(n)), "last branch is not [0..n-1]")

    def probes(self, t) -> None:
        pass

    def close(self) -> None:
        pass


# ---- cli --------------------------------------------------------------------

W1 = [[[[[], 1]], 1]]  # w as ordinal JSON
W2 = [[[[[], 2]], 1]]  # w^(2)
SCHEMAS = ("ordinal", "closed_set", "step_function", "tree", "certificate")
TREE_RANK = 17  # the commonest rank of a 2,000-node random recursive tree


def constant_json(ambient, value: str) -> str:
    return json.dumps({"ambient": ambient, "pieces": [{"upTo": ambient, "value": value}]})


def random_tree(rng, nodes: int, rank: int | None = None) -> tuple[str, int]:
    """Random recursive tree text, parents before children, and its rank by
    the benchmark's own oracle: the number of nodes on the longest chain.

    With `rank`, the first `rank` nodes form a chain and no later node hangs
    below depth `rank`, so every seed's tree has that rank; the cost of
    `tree facts` grows with the rank, and drawing whole trees until one had it
    made set-up time vary with the seed.
    """
    depth = {}
    lines = []
    for i in range(nodes):
        if rank and 0 < i < rank:
            parent = i - 1
        elif i == 0 or rng.random() < 0.02:
            parent = None
        else:
            parent = rng.randrange(i)
            while rank and depth[parent] >= rank:
                parent = rng.randrange(i)
        depth[i] = 1 if parent is None else depth[parent] + 1
        lines.append(f"n{i} {'-' if parent is None else f'n{parent}'}")
    return "\n".join(lines) + "\n", max(depth.values())


def extraction_text(n: int, delta: str) -> str:
    branch = ", ".join(str(k) for k in range(n))
    return f"n={n} eps=1/{2 * n}\nbranch=[{branch}]\nfinalNorm=1/{n} < delta={delta}\n"


def cli_commands(rng, tree_file: str, tree_rank: int, schema_dir: Path, tiny: bool) -> list:
    """The seeded command mix: (argv, expected stdout, expected exit code).

    Expected outputs follow the README; an expected stdout of None marks a
    malformed or out-of-domain input, which must print one stderr line.
    """
    def cb():
        return rng.choice([("cb w", "2"), ("cb 7", "1"), ("cb w^(w)", "w+1"), ("cb w*5+3", "2"), ("cb w^(3)*2+w", "4")])

    def szlenk():
        return rng.choice([
            ("szlenk w^(w)", "CB=w+1, Sz(C(K))=w^(2)"),
            ("szlenk w", "CB=2, Sz(C(K))=w"),
            ("szlenk w^(2)", "CB=3, Sz(C(K))=w"),
            ("szlenk w^(w^(2))", "CB=w^(2)+1, Sz(C(K))=w^(3)"),
        ])

    def derive():
        a, c, k = rng.randint(2, 9), rng.randint(1, 9), rng.randint(1, 2)
        return f"derive w^(2)*{a}+{c} --times {k}", f"mult(w^({k})) in (0, w^(2)*{a}+{c}]"

    def ord_add():
        a, b, c = rng.randint(2, 9), rng.randint(1, 99), rng.randint(1, 99)
        if rng.random() < 0.5:
            return f"ord add w*{a}+{b} {c}", f"w*{a}+{b + c}"
        return f"ord add {c} w*{a}+{b}", f"w*{a}+{b}"

    def ord_cmp():
        x, y = (rng.randint(2, 3), rng.randint(1, 3)), (rng.randint(2, 3), rng.randint(1, 3))
        word = "less" if x < y else "equal" if x == y else "greater"
        return f"ord cmp w*{x[0]}+{x[1]} w*{y[0]}+{y[1]}", word

    def grasberg_params():
        return rng.choice([
            ("grasberg params --space w", "o=0, b=1, CB=2"),
            ("grasberg params --space w^(2)", "o=0, b=2, CB=3"),
            ("grasberg params --space w^(w)", "o=1, b=1, CB=w+1"),
            ("grasberg params --space w^(3)*2", "o=0, b=3, CB=4"),
        ])

    def grasberg_norm_cmd():
        (z, ambient, b), value = rng.choice([("w", W1, 1), ("w^(2)", W2, 2)]), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return ["grasberg", "norm", "--space", z, "--fn", constant_json(ambient, str(value))], str(2**b * abs(value))

    def grasberg_phi():
        (z, ambient), eps = rng.choice([("w", W1), ("w^(2)", W2)]), Fraction(rng.randint(1, 7), 4)
        return ["grasberg", "phi", "--space", z, "--fn", constant_json(ambient, "1"), "--eps", str(eps)], "{" + z + "}"

    def check_king_cmd():
        trials = 20
        z = rng.choice(["w", "w^(2)", "w^(3)"])
        return f"check king --space {z} --trials {trials} --seed {rng.randint(0, 999)}", f"{trials}/{trials} pass"

    def extract_cmd():
        z, delta, n = rng.choice([("w", "1/2", 17), ("w", "1", 9), ("w^(2)", "1", 17)])
        return f"extract --space {z} --delta {delta}", extraction_text(n, delta).rstrip("\n")

    def tree_facts():
        return ["tree", "facts", "--file", tree_file], f"rank {tree_rank}\nfacts i and ii for k=0..{tree_rank}: pass"

    def schema_show():
        name = rng.choice(SCHEMAS)
        return f"schema show {name}", (schema_dir / f"{name}.json").read_text(encoding="utf-8").rstrip()

    def error():
        return rng.choice([
            ("cb w^(", 2),
            ("cb 01", 2),
            ("ord eval w*0", 2),
            ("ord sub w 5", 1),
            ("grasberg params --space 5", 1),
            ("schema show nope", 1),
            ("extract --space w^(w) --delta 1/2", 1),
        ])

    slots = (cb, tree_facts, error, schema_show) if tiny else (
        cb, szlenk, derive, ord_add, ord_cmp, grasberg_params, grasberg_norm_cmd, grasberg_phi,
        check_king_cmd, extract_cmd, tree_facts, schema_show, cb, derive, ord_add, ord_cmp,
        tree_facts, tree_facts, error, error,
    )
    commands = []
    for slot in slots:
        argv, expected = slot()
        argv = argv.split() if isinstance(argv, str) else argv
        if slot is error:
            commands.append((argv, None, expected))
        else:
            commands.append((argv, expected + "\n", 0))
    return commands


class Cli:
    """One `python -m ordspace.cli` subprocess at a time."""

    name = "cli"

    def __init__(self, seed: int, tiny: bool, root: Path):
        rng = random.Random(seed)
        self.src = root / "src"
        self.workdir = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        if tiny:
            self.tree_text, tree_rank = random_tree(rng, 50)
        else:
            self.tree_text, tree_rank = random_tree(rng, 2000, TREE_RANK)
        tree_file = self.workdir / "tree.txt"
        tree_file.write_text(self.tree_text, encoding="utf-8")
        self.commands = cli_commands(rng, str(tree_file), tree_rank, self.src / "ordspace" / "schema" / "v1", tiny)
        self.env = dict(os.environ, PYTHONPATH=str(self.src), NO_COLOR="1")

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=self.env, cwd=self.workdir, timeout=120
        )

    def pass_inputs(self, index: int) -> list:
        return self.commands

    def op(self, item, t) -> None:
        argv, stdout, code = item
        result = t.call("cli.subprocess", self.spawn, ["-m", "ordspace.cli", *argv])
        expect(result.returncode == code, f"{' '.join(argv)}: exit {result.returncode}, want {code}")
        if stdout is None:
            expect(result.stdout == "", f"{' '.join(argv)}: unexpected stdout")
            lines = result.stderr.splitlines()
            expect(len(lines) == 1 and lines[0].startswith("error: "), f"{' '.join(argv)}: stderr {result.stderr!r}")
        else:
            expect(result.stdout == stdout, f"{' '.join(argv)}: stdout {result.stdout!r}")
            expect(result.stderr == "", f"{' '.join(argv)}: stderr {result.stderr!r}")

    def probes(self, t) -> None:
        for _ in range(3):
            t.call("cli.interpreter", self.spawn, ["-c", "pass"])
            t.call("cli.import", self.spawn, ["-c", "import ordspace.cli"])
        for argv, _, _ in self.commands:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                t.call("cli.run", ordspace.cli.run, argv)
        tree = tree_from_text(self.tree_text)
        t.call("trees.facts", all_facts, tree)
        t.count("trees.nodes", len(tree))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def all_facts(tree) -> bool:
    """Facts i and ii for every k, as `ordspace tree facts` checks them."""
    r = rank(tree)
    return all(check_fact_i(tree, k).passed and check_fact_ii(tree, k).passed for k in range(r + 1))


WORKLOADS = {w.name: w for w in (Fuzz, Wide, Extract, Cli)}

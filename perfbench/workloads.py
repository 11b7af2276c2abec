"""Seeded argv generation for the four benchmark workloads.

Every workload is a sequence of blocks.  A block holds one op per slot of
the workload's slot table, in a seeded order, so any whole number of blocks
has the same mix of op kinds.  The run stops at a block boundary, which
keeps throughput and the latency quantiles comparable across seeds and run
lengths.

Slots come in tiers.  The expensive slots have fixed parameters, because
their cost sets the mix: their share of a block places p50 and p90 inside a
tier of like-cost ops rather than on a boundary between tiers.  The cheap
slots draw their parameters from the seed.  Every op carries a `spec`: the
facts the checker needs to compute the expected output on its own.
"""

from __future__ import annotations

import random

BLOCKS = 12

# Group generators are lists of cycles on 1..n.  The structured groups are
# written out here so that the checker can rebuild them independently.
YOUNG_S4_S4 = [[(1, 2)], [(1, 2, 3, 4)], [(5, 6)], [(5, 6, 7, 8)]]
WREATH_S4_S2 = YOUNG_S4_S4 + [[(1, 5), (2, 6), (3, 7), (4, 8)]]
WREATH_S2_S4 = [[(1, 2)], [(1, 3), (2, 4)], [(1, 3, 5, 7), (2, 4, 6, 8)]]
YOUNG_S3_S5 = [[(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6, 7, 8)]]
YOUNG_S2_4 = [[(1, 2)], [(3, 4)], [(5, 6)], [(7, 8)]]
YOUNG_S3_S4 = [[(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6, 7)]]
# transposition-free groups
A4_A4 = [[(1, 2, 3)], [(2, 3, 4)], [(5, 6, 7)], [(6, 7, 8)]]
AGL_1_8 = [[(1, 2), (3, 4), (5, 6), (7, 8)], [(2, 3, 5, 4, 7, 8, 6)]]
AGL_1_7 = [[(1, 2, 3, 4, 5, 6, 7)], [(2, 4, 3, 7, 5, 6)]]
PSL_3_2 = [[(1, 2, 3, 4, 5, 6, 7)], [(1, 2), (3, 6)]]
DOUBLE_TRANSPOSITIONS = [[(1, 2), (3, 4)], [(5, 6), (7, 8)], [(1, 5), (2, 6), (3, 7), (4, 8)]]

LARGE_LIGHT_POOL = [
    (8, YOUNG_S4_S4),
    (8, WREATH_S2_S4),
    (8, YOUNG_S2_4),
    (7, YOUNG_S3_S4),
    (8, A4_A4),
    (8, AGL_1_8),
    (7, AGL_1_7),
    (7, PSL_3_2),
    (8, DOUBLE_TRANSPOSITIONS),
]


def cycles_text(gens) -> str:
    """Generators in the CLI's cycle notation: "(1 2)(3 4);(1 3)"."""
    return ";".join(
        "".join("(" + " ".join(map(str, c)) + ")" for c in g) for g in gens
    )


def relabel(gens, sigma):
    """Conjugate generators by the point map i -> sigma[i - 1]."""
    return [[tuple(sigma[x - 1] for x in c) for c in g] for g in gens]


def random_relabelling(rng: random.Random, n: int):
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return sigma


def perm_cycles(images):
    """Non-trivial cycles of a permutation given by its 1-based image list."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cyc, j = [start], images[start - 1]
        seen.add(start)
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = images[j - 1]
        out.append(tuple(cyc))
    return out


def random_permutation(rng: random.Random, n: int, even: bool):
    images = list(range(1, n + 1))
    while True:
        rng.shuffle(images)
        cycles = perm_cycles(images)
        if cycles and (not even or sum(len(c) - 1 for c in cycles) % 2 == 0):
            return cycles


def random_pair(rng: random.Random, n: int, target: str):
    """Two random generators whose closure is S_n (target "S") or A_n ("A").

    Two random permutations generate A_n or S_n most of the time; the rest
    are redrawn so that every pair slot costs the same closure.
    """
    from checks import is_full_group  # sympy stays out of module import

    while True:
        gens = [random_permutation(rng, n, even=(target == "A")) for _ in range(2)]
        if is_full_group(gens, n, target):
            return gens


def preset_generators(name: str, n: int):
    """Generators of a CLI preset, written independently of the program."""
    if name.startswith("cyclic:"):
        k = int(name.split(":")[1])
        return [[tuple(range(1, k + 1))]] if k > 1 else []
    if name == "klein4":
        return [[(1, 2), (3, 4)], [(1, 3), (2, 4)]]
    if name == "trivial":
        return []
    kind, m = name[0], int(name[1:])
    if kind == "S":
        return [[(1, 2)], [tuple(range(1, m + 1))]] if m >= 2 else []
    return [[(1, 2, k)] for k in range(3, m + 1)]


def classify_op(n, p, fmt, *, name=None, gens=None):
    if name is not None:
        argv = ["classify", "--n", str(n), "--p", str(p), "--group-name", name]
        gens = preset_generators(name, n)
    else:
        argv = ["classify", "--n", str(n), "--p", str(p), "--group", cycles_text(gens)]
    if fmt != "json":
        argv += ["--format", fmt]
    return {
        "argv": argv,
        "spec": {"kind": "classify", "n": n, "p": p, "format": fmt, "gens": gens},
    }


def sup_op(n, p, tf, fmt):
    argv = ["sup", "--n", str(n), "--p", str(p)]
    if tf:
        argv.append("--no-transposition")
    argv += ["--format", fmt]
    return {"argv": argv, "spec": {"kind": "sup", "n": n, "p": p, "tf": tf, "format": fmt}}


def strata_op(n, d, p, fmt, tf=True):
    argv = ["strata", "--n", str(n), "--d", str(d)]
    if p is not None:
        argv += ["--p", str(p)]
    if tf:
        argv.append("--no-transposition")
    argv += ["--format", fmt]
    spec = {"kind": "strata", "n": n, "d": d, "p": p, "tf": tf, "format": fmt}
    return {"argv": argv, "spec": spec}


def as_count_op(p, q, jump, fmt):
    argv = ["oracle", "as-count", "--p", str(p), "--q", str(q), "--jump", str(jump)]
    argv += ["--format", fmt]
    spec = {"kind": "as-count", "p": p, "q": q, "jump": jump, "format": fmt}
    return {"argv": argv, "spec": spec}


def verify_op(p, n, d, qs, fmt):
    argv = ["oracle", "verify", "--p", str(p), "--n", str(n), "--d", str(d)]
    argv += ["--q", ",".join(map(str, qs)), "--format", fmt]
    spec = {"kind": "verify", "p": p, "n": n, "d": d, "qs": qs, "format": fmt}
    return {"argv": argv, "spec": spec}


def tame_op(q, n, fmt):
    argv = ["oracle", "tame", "--q", str(q), "--n", str(n), "--format", fmt]
    return {"argv": argv, "spec": {"kind": "tame", "q": q, "n": n, "format": fmt}}


def dim_op(n, d, p):
    argv = ["dim", "--n", str(n), "--d", str(d), "--p", str(p)]
    return {"argv": argv, "spec": {"kind": "dim", "n": n, "d": d, "p": p}}


def table_op(max_n, max_d, p, as_csv):
    argv = ["table", "--max-n", str(max_n), "--max-d", str(max_d), "--p", str(p)]
    if as_csv:
        argv.append("--csv")
    spec = {"kind": "table", "max_n": max_n, "max_d": max_d, "p": p, "csv": as_csv}
    return {"argv": argv, "spec": spec}


def invalid_op(argv, why):
    return {"argv": argv, "spec": {"kind": "invalid", "why": why}}


# --------------------------------------------------------------------------
# large_groups: classify at n = 7..8; the perm layer dominates.


def _structured(rng, n, gens, p, fmt):
    return classify_op(n, p, fmt, gens=relabel(gens, random_relabelling(rng, n)))


def _pair(rng, n, target, p, fmt):
    return classify_op(n, p, fmt, gens=random_pair(rng, n, target))


def _large_block(rng: random.Random, b: int):
    ops = [
        # top: one S8 per block, alternating the preset and the BFS closure
        classify_op(8, 2, "json", name="S8")
        if b % 2 == 0
        else _pair(rng, 8, "S", 0, "text"),
        # p90 tier: three A8 ops (15% of the block)
        classify_op(8, 3, "text", name="A8"),
        _pair(rng, 8, "A", 2, "json"),
        _pair(rng, 8, "A", 0, "text"),
        # p50 tier: degree-7 symmetric and alternating groups, wreath products
        classify_op(7, 0, "json", name="S7"),
        classify_op(7, 2, "text", name="A7"),
        _pair(rng, 7, "S", 3, "json"),
        _pair(rng, 7, "A", 0, "text"),
        _structured(rng, 8, WREATH_S4_S2, 2, "json"),
        _structured(rng, 8, YOUNG_S3_S5, 3, "text"),
        _structured(rng, 7, [[(1, 2)], [(1, 2, 3, 4, 5, 6, 7)]], 2, "text"),
    ]
    # cheap tier: structured groups drawn from the pool
    while len(ops) < 20:
        n, gens = rng.choice(LARGE_LIGHT_POOL)
        p, fmt = rng.choice((0, 2, 3)), rng.choice(("json", "text"))
        ops.append(_structured(rng, n, gens, p, fmt))
    return ops


# --------------------------------------------------------------------------
# wide_degree: small groups at n = 14..24; strata.global_sup dominates.

WIDE_GROUPS = {
    "t": [[(1, 2)]],
    "tt": [[(1, 2), (3, 4)]],
    "ccc": [[(1, 2, 3), (4, 5, 6)]],
}


def _wide_classify(rng, n, kind, p, fmt):
    if kind in WIDE_GROUPS:
        return _structured(rng, n, WIDE_GROUPS[kind], p, fmt)
    return classify_op(n, p, fmt, name=kind)


def _wide_block(rng: random.Random, b: int):
    ops = [
        # top and p90 tier
        _wide_classify(rng, 24, "t", 2, "json"),
        _wide_classify(rng, 24, "tt", 3, "text"),
        _wide_classify(rng, 23, "ccc", 0, "json"),
        _wide_classify(rng, 22, "t", 5, "text"),
        # p50 tier
        _wide_classify(rng, 21, "tt", 0, "json"),
        _wide_classify(rng, 21, "klein4", 5, "text"),
        _wide_classify(rng, 19, "t", 3, "json"),
        _wide_classify(rng, 21, "cyclic:%d" % rng.randint(3, 12), 2, "json"),
        sup_op(24, 2, False, "text"),
        sup_op(23, 3, True, "json"),
        strata_op(12, 12, 2, "text"),
        strata_op(11, 14, 3, "csv"),
    ]
    # cheap tier: seeded degree, characteristic, group and format
    kinds = ["t", "tt", "ccc", "klein4", "cyclic:%d" % rng.randint(3, 12)]
    chars = (0, 2, 3, 5)
    for _ in range(4):
        n, kind, p = rng.randint(14, 15), rng.choice(kinds), rng.choice(chars)
        ops.append(_wide_classify(rng, n, kind, p, rng.choice(("json", "text"))))
    for _ in range(2):
        n, p, tf = rng.randint(14, 18), rng.choice(chars), rng.random() < 0.5
        ops.append(sup_op(n, p, tf, rng.choice(("text", "json"))))
    for _ in range(2):
        n, d, p = rng.randint(6, 9), rng.randint(4, 10), rng.choice(chars)
        ops.append(strata_op(n, d, p, rng.choice(("text", "json", "csv"))))
    return ops


# --------------------------------------------------------------------------
# oracle_validate: the finite-field oracles; oracle and gf dominate.

# (p, q) -> jumps with q^jump at most a few thousand
AS_CHEAP = {
    (2, 2): [1, 3, 5, 7, 9],
    (2, 4): [1, 3, 5],
    (2, 8): [1, 3],
    (3, 3): [1, 2, 4, 5, 7],
    (3, 9): [1, 2, 4],
    (3, 27): [1, 2],
    (3, 81): [1, 2],
}
# (q, n) with a splitting field of at most a few thousand elements
TAME_CHEAP = [
    (2, 3), (2, 5), (2, 7), (3, 2), (3, 4), (3, 5), (4, 3),
    (4, 5), (5, 3), (7, 3), (8, 3), (9, 5), (11, 4), (27, 2),
]


def _oracle_block(rng: random.Random, b: int):
    fmt3 = ("text", "json", "csv")
    ops = [
        # top tier, 15% of the block: p90 falls inside it
        as_count_op(3, 9, 5, "json"),
        as_count_op(2, 8, 5, "text"),
        verify_op(2, 2, 6, [8], "json"),
        # upper tier
        tame_op(49, 5, "json"),
        as_count_op(2, 4, 7, "csv"),
        verify_op(2, 2, 8, [2, 4], "text"),
        tame_op(7, 5, "text"),
        verify_op(2, 2, 7, [2, 4], "json"),
        # p50 tier
        tame_op(9, 7, "json"),
        tame_op(13, 3, "text"),
        tame_op(11, 7, "json"),
        tame_op(27, 4, "text"),
        verify_op(3, 3, 10, [3, 9], "csv"),
        as_count_op(3, 3, 8, "text"),
    ]
    # cheap tier: seeded field, jump and format
    for _ in range(3):
        p, q = rng.choice(sorted(AS_CHEAP))
        ops.append(as_count_op(p, q, rng.choice(AS_CHEAP[(p, q)]), rng.choice(fmt3)))
    q, n = rng.choice(TAME_CHEAP)
    ops.append(tame_op(q, n, rng.choice(("text", "json"))))
    ops.append(_cheap_verify(rng, 2, 2, rng.randint(2, 6), (2, 4, 8), fmt3))
    ops.append(_cheap_verify(rng, 3, 3, rng.choice((4, 6, 8)), (3, 9, 27), fmt3))
    return ops


def _cheap_verify(rng, p, n, d, fields, formats):
    jump = d - 1 if p == 2 else d // 2 - 1
    qs = [q for q in fields if q**jump <= 1000]
    return verify_op(p, n, d, rng.sample(qs, min(2, len(qs))), rng.choice(formats))


# --------------------------------------------------------------------------
# cli_cold: one fresh process per op; interpreter start and import dominate.


def _cold_block(rng: random.Random, b: int):
    pick, coin = rng.choice, lambda: rng.random() < 0.5
    p = pick((0, 2, 3, 5))
    small_p, text_json = (0, 2, 3), ("json", "text")
    ops = [
        classify_op(4, pick(small_p), pick(text_json), name="A4"),
        classify_op(rng.randint(4, 6), pick(small_p), pick(text_json), name="klein4"),
        classify_op(4, pick((0, 2, 3, 5)), "json", name="A4"),
        classify_op(rng.randint(4, 5), pick(small_p), "text", name="klein4"),
        _structured(rng, 4, [[(1, 2)]], pick(small_p), "text"),
        dim_op(rng.randint(1, 6), rng.randint(0, 8), p),
        table_op(4, rng.randint(2, 6), p, coin()),
        sup_op(rng.randint(1, 6), pick(small_p), coin(), pick(text_json)),
        sup_op(rng.randint(2, 6), pick(small_p), coin(), "text"),
        sup_op(rng.randint(3, 6), 2, True, "json"),
        strata_op(4, rng.randint(1, 6), pick((None, 0, 2, 3)), pick(("text", "json", "csv")), tf=False),
        strata_op(4, rng.randint(1, 6), pick(small_p), "text"),
        strata_op(4, rng.randint(1, 6), 2, "csv"),
        as_count_op(2, pick((2, 4)), pick((1, 3)), pick(("text", "json", "csv"))),
        as_count_op(3, 3, pick((1, 2)), "text"),
        verify_op(2, 2, rng.randint(2, 4), [2, 4], pick(text_json)),
        tame_op(pick((2, 5, 7)), pick((1, 3)), "text"),
        tame_op(pick((3, 5, 7)), 2, "json"),
    ]
    # about 10% invalid argv, each of which must exit 2
    ops.append(pick(_invalid_ops(rng)))
    ops.append(pick(_invalid_ops(rng)))
    return ops


def _invalid_ops(rng):
    a, b = rng.sample(range(1, 5), 2)
    far = rng.randint(5, 9)
    even_jump = str(2 * rng.randint(1, 4))
    return [
        invalid_op(["classify", "--n", "4", "--p", "2", "--group", f"({a} {b}"], "malformed cycle"),
        invalid_op(["classify", "--n", "4", "--p", "0", "--group", f"({a} {far})"], "entry out of range"),
        invalid_op(["classify", "--n", "4", "--p", "4", "--group-name", "A4"], "characteristic 4"),
        invalid_op(["oracle", "as-count", "--p", "2", "--q", "4", "--jump", even_jump], "p divides jump"),
        invalid_op(["oracle", "as-count", "--p", "3", "--q", "243", "--jump", "1"], "q > 81"),
    ]


BLOCK_MAKERS = {
    "large_groups": _large_block,
    "wide_degree": _wide_block,
    "oracle_validate": _oracle_block,
    "cli_cold": _cold_block,
}

WORKLOADS = tuple(BLOCK_MAKERS)


def generate(workload: str, seed: int, blocks: int = BLOCKS) -> list[list[dict]]:
    """The workload's blocks for this seed: the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for b in range(blocks):
        ops = BLOCK_MAKERS[workload](rng, b)
        rng.shuffle(ops)
        out.append(ops)
    return out

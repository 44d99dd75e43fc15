"""Seeded input generation for the three workloads.

Every function here is a pure function of its arguments: the same workload,
seed and size write the same files. Alongside the files it returns a spec,
a JSON-ready dict that keeps the raw numbers behind each file, so the
oracles check outputs against what was generated, never against what the
package parsed.

Composition (member counts, solver lengths, ranks, command mix) is fixed;
the seed only draws the contents. That keeps the cost of a run independent
of the seed, so runs on different seeds are comparable.
"""

from __future__ import annotations

import json
import os
import random

from .oracle import b2_of, rank

# (name, signature, euler_characteristic, b1_f2); b2_f2 = chi - 2 + 2*b1.
SCREEN_PROFILES = (
    ("scr-b0", 0, 2, 0),
    ("scr-b0-b1", 0, 0, 1),
    ("scr-b10", 2, 12, 0),
    ("scr-b10-b1", -4, 4, 4),
    ("scr-b64", 8, 66, 0),
    ("scr-b64-b1", -16, 50, 8),
)

VERDICTS = ("Obstructed", "BoundSatisfied", "HypothesisFailure")

# One screening cycle: one batch per entry of "big", cycling through the
# profiles. Each batch has the same small family sizes (40 files of 1-12
# members), one large family of "big" members and a plane file whose
# majority overflows b2_f2 by "overflow". The large family grows from batch
# to batch (about 1,000 members on average), so batch latencies form an
# even ladder rather than a few tight clusters, and a shift in machine
# speed moves their percentiles smoothly.
SCREEN_FULL = {
    "sizes": list(range(1, 13)) * 3 + [1, 4, 8, 12],
    "big": tuple(700 + 55 * i for i in range(12)),
    "overflow": 16,
}
SCREEN_TINY = {"sizes": [1, 2, 3, 5], "big": (10, 15, 20, 25, 30, 35), "overflow": 3}

# One exact-workload cycle: (regime, path, m, dim, rank). For the audit
# path dim is the profile's b2_f2, and the solver runs on all m planes.
# Successful solves sort into three separate latency bands: mitm at m=22
# (the fastest fifth), exhaustive (the middle three fifths, so p50 falls in
# it) and mitm-high at m=32-34 (the slowest fifth, so p90 falls in it).
# Within the exhaustive and mitm-high bands m and rank vary, so latencies
# spread evenly over each band instead of piling up at one value.
EXACT_FULL = (
    [("over-budget", "zerosum", m, 10, r) for m, r in ((44, 10), (52, 9), (60, 10))]
    + [("over-budget", "audit", m, 10, r) for m, r in ((44, 10), (52, 8), (60, 10))]
    + [("mitm-low", "zerosum", 22, 10, 10), ("mitm-low", "zerosum", 22, 12, 8)]
    + [("mitm-low", "audit", 22, 10, 10), ("mitm-low", "audit", 22, 10, 9)]
    + [("mitm-high", "zerosum", 22, 32, 22), ("mitm-high", "audit", 22, 18, 18)]
    + [
        ("exhaustive", "zerosum", m, d, r)
        for m, d, r in ((15, 8, 2), (15, 10, 4), (15, 12, 12), (16, 8, 3), (16, 12, 6),
                        (16, 20, 16), (17, 10, 4), (17, 14, 9), (17, 20, 17))
    ]
    + [
        ("exhaustive", "audit", m, d, r)
        for m, d, r in ((15, 8, 3), (15, 12, 8), (15, 14, 14), (16, 8, 2), (16, 10, 5),
                        (16, 14, 12), (17, 10, 3), (17, 12, 7), (17, 16, 16))
    ]
    + [("mitm-high", "zerosum", m, 40, r) for m, r in ((32, 30), (33, 33), (34, 31))]
    + [("mitm-high", "audit", m, m - 4, m - 4) for m in (32, 33, 34)]
)
EXACT_TINY = (
    ("exhaustive", "zerosum", 8, 6, 5),
    ("exhaustive", "audit", 8, 5, 5),
    ("mitm-low", "zerosum", 22, 10, 10),
    ("mitm-high", "audit", 22, 18, 18),
    ("over-budget", "zerosum", 44, 10, 10),
    ("over-budget", "audit", 44, 10, 10),
)
REGIMES = ("exhaustive", "mitm-high", "mitm-low", "over-budget")

CLI_PROFILE = ("cli-b4", 2, 6, 0)


def _profile_dict(row) -> dict:
    name, sig, chi, b1 = row
    return {"name": name, "signature": sig, "chi": chi, "b1": b1}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_catalog(path: str, profiles) -> None:
    blocks = []
    for p in profiles:
        blocks.append(
            f"[profile]\nname: {p['name']}\nsignature: {p['signature']}\n"
            f"euler_characteristic: {p['chi']}\nb1_f2: {p['b1']}\n"
        )
    _write(path, "# generated benchmark catalog\n\n" + "\n".join(blocks))


def _write_family(path: str, ambient: str, members) -> None:
    parts = [f"ambient: {ambient}\n"]
    for g, e, bits in members:
        parts.append(f"\n[surface]\ngenus: {g}\neuler_number: {e}\nclass: {bits}\n")
    _write(path, "".join(parts))


def _bits(rng: random.Random, k: int) -> str:
    return "".join(rng.choice("01") for _ in range(k))


def _xor_bits(a: str, b: str) -> str:
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """total as a sum of `parts` nonnegative integers."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _family(rng: random.Random, profile: dict, size: int, kind: str) -> list:
    """Members [genus, euler, class] whose excess-check verdict is `kind`."""
    k = b2_of(profile)
    budget = 4 * (abs(profile["signature"]) + k)
    sign = rng.choice((1, -1))
    genera = [rng.randint(1, 6) for _ in range(size)]
    if kind == "Obstructed":
        shares = _split(rng, budget + 1 + rng.randint(0, 20), size)
        mags = [2 * g + s for g, s in zip(genera, shares)]
    else:
        shares = _split(rng, rng.randint(0, budget), size)
        mags = [2 * g + s - rng.randint(0, 2 * g) for g, s in zip(genera, shares)]
    eulers = [sign * mag for mag in mags]
    classes = [_bits(rng, k) for _ in range(size - 1)]
    total = "0" * k
    for c in classes:
        total = _xor_bits(total, c)
    classes.append(total)
    if kind == "HypothesisFailure":
        if k and (size == 1 or rng.random() < 0.5):
            flip = "0" * (k - 1) + "1"
            classes[-1] = _xor_bits(classes[-1], flip)
        else:
            eulers[0] = abs(eulers[0]) + 1
            eulers[1] = -(abs(eulers[1]) + 1)
    return [[g, e, c] for g, e, c in zip(genera, eulers, classes)]


def _planes(rng: random.Random, classes: list[str]) -> list:
    """Genus-1 members with |e| > 2, all on one side, carrying `classes`."""
    sign = rng.choice((1, -1))
    return [[1, sign * rng.randint(3, 6), c] for c in classes]


def _ranked_vectors(rng: random.Random, m: int, dim: int, rank_wanted: int) -> list[str]:
    """m bit strings of length dim spanning a space of exactly `rank_wanted`."""
    while True:
        basis = [rng.getrandbits(dim) for _ in range(rank_wanted)]
        if rank(basis) == rank_wanted:
            break
    vecs = list(basis)
    for _ in range(m - rank_wanted):
        acc = 0
        for b in basis:
            if rng.random() < 0.5:
                acc ^= b
        vecs.append(acc)
    rng.shuffle(vecs)
    return [format(v, f"0{dim}b") if dim else "" for v in vecs]


def generate(workload: str, seed: int, root: str, tiny: bool = False) -> dict:
    """Write the inputs of one workload under `root` and return its spec."""
    os.makedirs(root, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "seed": seed, "catalog": os.path.join(root, "catalog.txt")}
    if workload == "screen":
        spec.update(_screen(rng, root, SCREEN_TINY if tiny else SCREEN_FULL))
    elif workload == "exact":
        spec.update(_exact(rng, root, EXACT_TINY if tiny else EXACT_FULL))
    elif workload == "cli":
        spec.update(_cli(rng, root))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_catalog(spec["catalog"], spec["profiles"].values())
    with open(os.path.join(root, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    with open(os.path.join(root, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(_light(spec), fh)
    return spec


# Oracle data, left out of ops.json so that set-up does not load it.
_ORACLE_KEYS = ("members", "vectors", "plane_members")


def _light(value):
    if isinstance(value, dict):
        return {k: _light(v) for k, v in value.items() if k not in _ORACLE_KEYS}
    if isinstance(value, list):
        return [_light(v) for v in value]
    return value


def _screen(rng: random.Random, root: str, shape: dict) -> dict:
    profiles = {row[0]: _profile_dict(row) for row in SCREEN_PROFILES}
    sizes = shape["sizes"]
    # Fixed verdict mix per batch; single members cannot have mixed signs,
    # and on b2_f2 = 0 their class is always zero, so they never fail.
    kinds = [VERDICTS[i % 3] for i in range(len(sizes))]
    slots = [
        (s, "BoundSatisfied" if s == 1 and kd == "HypothesisFailure" else kd)
        for s, kd in zip(sizes, kinds)
    ]
    batches = []
    for pos, big in enumerate(shape["big"]):
        name = SCREEN_PROFILES[pos % len(SCREEN_PROFILES)][0]
        profile = profiles[name]
        k = b2_of(profile)
        d = os.path.join(root, f"batch-{pos:02d}")
        os.makedirs(d, exist_ok=True)
        order = list(slots)
        rng.shuffle(order)
        families = []
        for i, (size, kind) in enumerate(order):
            members = _family(rng, profile, size, kind)
            path = os.path.join(d, f"fam-{i:02d}.txt")
            _write_family(path, name, members)
            families.append({"path": path, "members": members})
        members = _family(rng, profile, big, VERDICTS[pos % 3])
        path = os.path.join(d, "big.txt")
        _write_family(path, name, members)
        families.append({"path": path, "members": members})
        planes = _planes(rng, [_bits(rng, k) for _ in range(k + shape["overflow"])])
        ppath = os.path.join(d, "planes.txt")
        _write_family(ppath, name, planes)
        batches.append(
            {"profile": name, "families": families, "planes": {"path": ppath, "members": planes}}
        )
    return {"profiles": profiles, "batches": batches}


def _exact(rng: random.Random, root: str, shape) -> dict:
    profiles = {}
    # A fixed, seed-independent interleaving of the regimes.
    slots = list(shape)
    random.Random(0).shuffle(slots)
    ops = []
    for i, (regime, path_kind, m, dim, rank) in enumerate(slots):
        vectors = _ranked_vectors(rng, m, dim, rank)
        path = os.path.join(root, f"op-{i:02d}.txt")
        op = {"regime": regime, "kind": path_kind, "m": m, "dim": dim, "rank": rank, "path": path}
        if path_kind == "zerosum":
            _write(path, "\n".join(vectors) + "\n")
            op["vectors"] = vectors
        else:
            name = f"ex-b{dim}"
            profiles[name] = {"name": name, "signature": dim // 4, "chi": dim + 2, "b1": 0}
            planes = _planes(rng, vectors)
            _write_family(path, name, planes)
            op["profile"] = name
            op["members"] = planes
        ops.append(op)
    return {"profiles": profiles, "ops": ops}


def _cli(rng: random.Random, root: str) -> dict:
    profile = _profile_dict(CLI_PROFILE)
    name, k = profile["name"], b2_of(profile)
    files = {}
    for kind, size in (("Obstructed", 4), ("BoundSatisfied", 5), ("HypothesisFailure", 3)):
        members = _family(rng, profile, size, kind)
        path = os.path.join(root, f"fam-{kind}.txt")
        _write_family(path, name, members)
        files[kind] = {"path": path, "members": members}
    # |e| = 3 planes, 10 of them: every subfamily has excess <= 10 < D = 24,
    # so the audit verdict is BoundSatisfied whichever zero-sum set is chosen.
    sign = rng.choice((1, -1))
    planes = [[1, 3 * sign, _bits(rng, k)] for _ in range(10)]
    ppath = os.path.join(root, "planes.txt")
    _write_family(ppath, name, planes)
    vpath = os.path.join(root, "vectors.txt")
    vectors = _ranked_vectors(rng, 12, 8, rng.randint(5, 8))
    _write(vpath, "\n".join(vectors) + "\n")
    bad_family = os.path.join(root, "bad-family.txt")
    _write(bad_family, f"ambient: {name}\n\n[surface]\ngenus: {rng.randint(1, 9)}x\n")
    bad_vectors = os.path.join(root, "bad-vectors.txt")
    _write(bad_vectors, "0101\n01a1\n")
    ob, bs, hf = (files[v]["path"] for v in VERDICTS)
    genus = rng.randint(1, 9)
    commands = [
        (["check", "--manifold", name, "--family", bs], "BoundSatisfied", bs),
        (["check", "--manifold", name, "--family", ob, "--format", "json"], "Obstructed", ob),
        (["check", "--manifold", name, "--family", hf], "HypothesisFailure", hf),
        (["check", "--manifold", name, "--family", bs, "--format", "json"], "BoundSatisfied", bs),
        (["audit", "--manifold", name, "--planes", ppath], "BoundSatisfied", None),
        (["audit", "--manifold", name, "--planes", ppath, "--exact", "--format", "json"], "BoundSatisfied", None),
        (["zerosum", "--vectors", vpath], "info", None),
        (["zerosum", "--vectors", vpath, "--exact"], "info", None),
        (["bound", "--manifold", name], "info", None),
        (["catalog", "list"], "info", None),
        (["cover", "--manifold", name, "--genus", str(genus), "--euler", str(2 * genus), "--class", "0" * k], "info", None),
        (["tube", "--family", ob], "info", None),
        (["massey", "--genus", str(genus)], "info", None),
        (["check", "--manifold", name, "--family", bad_family], "error", None),
        (["zerosum", "--vectors", bad_vectors], "error", None),
        (["bound", "--manifold", "no-such-profile"], "error", None),
    ]
    return {
        "profiles": {name: profile},
        "families": files,
        "plane_members": planes,
        "vectors": vectors,
        "commands": [{"argv": a, "expect": e, "family": f} for a, e, f in commands],
    }

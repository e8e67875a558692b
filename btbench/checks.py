"""The correctness gate: pinned digests and independent checks.

Every case must exit 0, match its pinned digest when one is pinned, and
pass an independent check that re-derives the answer with code of its
own.  None of the checks imports ``btlab``:

* ``invariants``: the orbit listing is re-walked from each orbit's
  representative; epsilon sequences, circular levels, the set of segment
  starts (a next-greater-or-equal scan over the doubled prefix sums), each
  segment, the ``a`` counts, gamma, c_m, the isomorphism number and the
  specializing height are recomputed from their definitions;
* ``kraft-type``: the class is recomputed from the cycle words;
* ``enumerate-bt1``: the class count equals binomial(c+d, c);
* ``witt-eval``: every result is checked in Z/p^n through
  x -> sum p^i * tau(x_i) with tau(a) = a^(p^(n-1)) mod p^n;
* ``witt-polys``: the printed laws are parsed and must satisfy the ghost
  identities at a seeded random point modulo a 61-bit prime;
* ``verify``, ``oracle``, ``witt-check``: the verdict is ``pass``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

PINNED_PATH = Path(__file__).resolve().parent / "pinned_digests.json"


def digest(code, out: bytes) -> str:
    """Digest of one case's exit code and stdout bytes."""
    return hashlib.sha256(f"{code}\n".encode() + out).hexdigest()[:32]


def case_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:20]


def load_pinned() -> dict[str, str]:
    if not PINNED_PATH.exists():
        return {}
    return json.loads(PINNED_PATH.read_text())["digests"]


# -- permutations and epsilon data ----------------------------------------


def _cycles(images: list[int]) -> list[list[int]]:
    seen = set()
    cycles = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc = [start]
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            nxt = images[nxt - 1]
        seen.update(cyc)
        cycles.append(cyc)
    return cycles


def _cycle_lengths(images: list[int]) -> list[int]:
    return [len(cyc) for cyc in _cycles(images)]


def _eps(i: int, j: int, d: int) -> int:
    return 1 if i <= d < j else (-1 if j <= d < i else 0)


def _segments(e: list[int]) -> list[tuple[int, int, int]]:
    """(start, length, level) of every free linear segment, by start.

    From a -1 at s the walk of cyclic partial sums first climbs back to
    its start level exactly (steps are +-1 or 0), so a segment starts at s
    iff some prefix sum within the next l steps is >= P[s]: the next
    greater-or-equal index over the doubled prefix sums, within l.
    """
    l = len(e)
    prefix = [0]
    for v in e + e:
        prefix.append(prefix[-1] + v)
    nxt = [0] * (2 * l + 1)
    stack: list[int] = []
    for t in range(2 * l, -1, -1):
        while stack and prefix[stack[-1]] < prefix[t]:
            stack.pop()
        nxt[t] = stack[-1] if stack else -1
        stack.append(t)
    out = []
    for s in range(l):
        if e[s] != -1:
            continue
        t = nxt[s]
        if t == -1 or t - s > l:
            continue
        level = prefix[s] - min(prefix[s + 1:t])
        out.append((s + 1, t - s, level))
    return out


def _circular_level(e: list[int]):
    if sum(e) != 0:
        return None
    cum, lo, hi = 0, 0, 0
    for v in e:
        cum += v
        lo, hi = min(lo, cum), max(hi, cum)
    return hi - lo


def _check_report(doc: dict, data: dict, max_level: int) -> str | None:
    """Re-derive an invariants report (``points`` optional) from (pi, d)."""
    images, h, d = data["images"], data["h"], data["d"]
    if (doc["h"], doc["c"], doc["d"]) != (h, data["c"], d):
        return "h, c or d differs from the input"
    if doc["perm"] != ",".join(map(str, images)):
        return "perm differs from the input"
    lengths = _cycle_lengths(images)
    # a pair of cycles of lengths a and b carries gcd(a, b) orbits
    expected_orbits = sum(math.gcd(a, b) for a in lengths for b in lengths)
    orbits = doc["orbits"]
    if len(orbits) != expected_orbits:
        return f"{len(orbits)} orbits, expected {expected_orbits}"
    reps = [tuple(o["rep"]) for o in orbits]
    if reps != sorted(set(reps)):
        return "orbit representatives are not strictly increasing"
    segment_levels: list[int] = []
    circular: list[tuple[int, int]] = []
    all_zero = True
    for orb in orbits:
        i, j = orb["rep"]
        pts, eps = [], []
        a, b = i, j
        while True:
            pts.append((a, b))
            eps.append(_eps(a, b, d))
            a, b = images[a - 1], images[b - 1]
            if (a, b) == (i, j):
                break
        if min(pts) != (i, j):
            return f"rep {orb['rep']} is not the least pair of its orbit"
        if orb["size"] != len(pts):
            return f"orbit {orb['rep']} has size {orb['size']}, expected {len(pts)}"
        if "points" in orb and [tuple(p) for p in orb["points"]] != pts:
            return f"orbit {orb['rep']} lists the wrong points"
        if list(orb["epsilon"]) != eps:
            return f"orbit {orb['rep']} has the wrong epsilon sequence"
        all_zero = all_zero and not any(eps)
        circ = _circular_level(eps)
        if orb["circular_level"] != circ:
            return f"orbit {orb['rep']} has circular level {orb['circular_level']}, expected {circ}"
        if circ is not None:
            circular.append((circ, len(pts)))
        segs = _segments(eps)
        if [tuple(s) for s in orb["segments"]] != segs:
            return f"orbit {orb['rep']} has the wrong segments"
        levels = [s[2] for s in segs]
        segment_levels.extend(levels)
        if list(orb["a"]) != [levels.count(n) for n in range(1, max_level + 1)]:
            return f"orbit {orb['rep']} has the wrong a_n counts"
    if sum(o["size"] for o in orbits) != h * h:
        return "orbit sizes do not add up to h^2"
    gamma = [sum(1 for v in segment_levels if v <= m) for m in range(1, max_level + 1)]
    if list(doc["gamma"]) != gamma:
        return "gamma table differs"
    cexp = [sum((m - n) * size for n, size in circular if n <= m - 1)
            for m in range(1, max_level + 1)]
    if list(doc["c_exponent"]) != cexp:
        return "c_exponent table differs"
    iso = 0 if all_zero else max(segment_levels, default=1)
    if doc["isomorphism_number"] != iso:
        return f"isomorphism number {doc['isomorphism_number']}, expected {iso}"
    height = len(segment_levels) if iso > 0 else 0
    if doc["specializing_height"] != height:
        return f"specializing height {doc['specializing_height']}, expected {height}"
    return None


def _max_level(argv) -> int:
    return int(argv[argv.index("--max-level") + 1]) if "--max-level" in argv else 10


def check_invariants_json(case, text: str) -> str | None:
    doc = json.loads(text)
    for orb in doc["orbits"]:
        orb["size"] = len(orb["points"])
        orb["segments"] = [(s["start"], s["length"], s["level"]) for s in orb["segments"]]
    return _check_report(doc, case.data, _max_level(case.argv))


def _tuple(cell: str) -> list[int]:
    inner = cell.strip()[1:-1]
    return [int(v) for v in inner.split(",")] if inner else []


def check_invariants_table(case, text: str) -> str | None:
    lines = text.rstrip("\n").split("\n")
    h, c, d = (int(tok.split("=")[1]) for tok in lines[1].split())
    doc = {"perm": lines[0].split(None, 1)[1], "h": h, "c": c, "d": d, "orbits": []}
    rows = {}
    for line in lines[3:]:
        if line.startswith("("):
            rep, size, eps, circ, segs, a = re.split(r"\s{2,}", line)
            doc["orbits"].append({
                "rep": _tuple(rep), "size": int(size), "epsilon": _tuple(eps),
                "circular_level": None if circ == "-" else int(circ),
                "segments": [] if segs == "-" else
                [tuple(int(v) for v in tok.split(":")) for tok in segs.split()],
                "a": _tuple(a),
            })
        elif line.split(None, 1)[0] in ("gamma", "c_exponent", "isomorphism_number",
                                        "specializing_height"):
            key, *vals = line.split()
            rows[key] = [int(v) for v in vals]
    doc["gamma"], doc["c_exponent"] = rows["gamma"], rows["c_exponent"]
    doc["isomorphism_number"] = rows["isomorphism_number"][0]
    doc["specializing_height"] = rows["specializing_height"][0]
    return _check_report(doc, case.data, _max_level(case.argv))


# -- kraft ------------------------------------------------------------------


def _expected_kraft(images: list[int], d: int) -> list[str]:
    words = []
    for cyc in _cycles(images):
        letters = "".join("V" if i <= d else "F" for i in cyc)
        n = len(letters)
        q = next(q for q in range(1, n + 1) if n % q == 0 and letters[:q] * (n // q) == letters)
        root = min(letters[k:q] + letters[:k] for k in range(q))
        words.extend([root] * (n // q))
    return sorted(words, key=lambda w: (-len(w), w))


def check_kraft(case, text: str) -> str | None:
    words = _expected_kraft(case.data["images"], case.data["d"])
    if "--format" in case.argv and case.argv[case.argv.index("--format") + 1] == "json":
        doc = json.loads(text)
        if doc["words"] != words or doc["class"] != "+".join(words):
            return "kraft class differs from the cycle words"
        return None
    if text.strip() != "+".join(words):
        return "kraft class differs from the cycle words"
    return None


# -- verdicts and counts ---------------------------------------------------------


def check_verdict(case, text: str) -> str | None:
    if text.lstrip().startswith("{"):
        verdict = json.loads(text)["verdict"]
    else:
        verdict = text.rstrip().rsplit("\n", 1)[-1].split()[-1]
    return None if verdict == "pass" else f"verdict {verdict!r}"


def check_enumerate(case, text: str) -> str | None:
    doc = json.loads(text)
    c, d = case.data["c"], case.data["d"]
    expected = math.comb(c + d, c)
    if doc["count"] != expected or len(set(doc["classes"])) != expected:
        return f"{doc['count']} classes, expected binomial({c + d},{c}) = {expected}"
    return None


# -- Witt vectors --------------------------------------------------------------


def _to_int(vec: list[int], p: int, n: int) -> int:
    """The image of a Witt vector over F_p in Z/p^n: sum p^i * tau(x_i)."""
    mod = p**n
    return sum(p**i * pow(a, p ** (n - 1), mod) for i, a in enumerate(vec)) % mod


def check_witt_eval(case, text: str) -> str | None:
    doc = json.loads(text)
    p, n = case.data["p"], case.data["n"]
    mod = p**n
    argv = case.argv
    lhs = [int(v) for v in argv[argv.index("--lhs") + 1].split(",")]
    rhs = [int(v) for v in argv[argv.index("--rhs") + 1].split(",")]
    if doc["lhs"] != lhs or doc["rhs"] != rhs:
        return "operands differ from the input"
    x, y = _to_int(lhs, p, n), _to_int(rhs, p, n)
    expected = {
        "sum": (x + y) % mod,
        "product": x * y % mod,
        "neg_lhs": -x % mod,
        "verschiebung_lhs": p * x % mod,
        "p_multiple_lhs": p * x % mod,
        "frobenius_lhs": x,  # Frobenius is the identity on W(F_p) = Z_p
    }
    for key, want in expected.items():
        if _to_int(doc[key], p, n) != want:
            return f"{key} is wrong in Z/{p}^{n}"
    return None


_MOD = (1 << 61) - 1
_TERM = re.compile(r"(?:(\d+)\*)?([xy]_\d+(?:\^\d+)?(?:\*[xy]_\d+(?:\^\d+)?)*)|(\d+)")


def _eval_rendered(text: str, point: dict[str, int]) -> int:
    """Evaluate a rendered polynomial (``x_1 + y_1 - x_0*y_0``) mod _MOD."""
    total = 0
    tokens = re.split(r" ([+-]) ", text)
    signs = ["-" if tokens[0].startswith("-") else "+"] + tokens[1::2]
    bodies = [tokens[0].lstrip("-")] + tokens[2::2]
    for sign, body in zip(signs, bodies):
        m = _TERM.fullmatch(body)
        if m is None:
            raise ValueError(f"unparsable term {body!r}")
        if m.group(3) is not None:
            term = int(m.group(3))
        else:
            term = int(m.group(1) or 1)
            for factor in m.group(2).split("*"):
                name, _, exp = factor.partition("^")
                term = term * pow(point[name], int(exp or 1), _MOD) % _MOD
        total = total - term if sign == "-" else total + term
    return total % _MOD


def check_witt_polys(case, text: str) -> str | None:
    p, n = case.data["p"], case.data["n"]
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        laws = {"S": doc["sum"], "P": doc["product"], "I": doc["negation"]}
    else:
        laws = {"S": [], "P": [], "I": []}
        for line in text.rstrip("\n").split("\n"):
            name, _, body = line.partition(" = ")
            laws[name[0]].append(body)
    if any(len(v) != n for v in laws.values()):
        return "wrong number of law components"
    rng = random.Random(f"{p},{n}")
    point = {f"{v}_{i}": rng.randrange(_MOD) for v in "xy" for i in range(n)}
    x = [point[f"x_{i}"] for i in range(n)]
    y = [point[f"y_{i}"] for i in range(n)]
    values = {k: [_eval_rendered(t, point) for t in v] for k, v in laws.items()}

    def ghost(vec, l):
        return sum(p**i * pow(vec[i], p ** (l - i), _MOD) for i in range(l + 1)) % _MOD

    for l in range(n):
        wx, wy = ghost(x, l), ghost(y, l)
        if ghost(values["S"], l) != (wx + wy) % _MOD:
            return f"sum law fails the ghost identity at level {l}"
        if ghost(values["P"], l) != wx * wy % _MOD:
            return f"product law fails the ghost identity at level {l}"
        if ghost(values["I"], l) != -wx % _MOD:
            return f"negation law fails the ghost identity at level {l}"
    return None


CHECKS = {
    "invariants-json": check_invariants_json,
    "invariants-table": check_invariants_table,
    "kraft": check_kraft,
    "verdict": check_verdict,
    "enumerate": check_enumerate,
    "witt-eval": check_witt_eval,
    "witt-polys": check_witt_polys,
}


def independent_check(case, text: str) -> str | None:
    """Failure reason from the case's independent check, or None."""
    try:
        return CHECKS[case.check](case, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"output did not parse: {type(exc).__name__}: {exc}"

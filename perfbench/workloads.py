"""Request lists and reply checks for the sgalg benchmark workloads.

A workload is a fixed list of ``sg`` argument vectors built from a seed.  The
seed picks equivalent spellings of the same semigroups and operators, and on
``oneshot`` the random words and the request order, so the amount of work in
a list stays close to constant across seeds.  The other lists keep a fixed
order, because a request's latency depends on what ran before it in the
process.  Every reply is checked against
an answer the benchmark derives by another route; golden output bytes are
never compared, because witness words and internal representations may
legitimately change.

Nothing here imports ``sgalg`` at module load.  The only program function the
checks use is ``translations.word_action``, the letter-by-letter basis-action
oracle that the test suite also treats as the reference.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
from fractions import Fraction
from typing import Optional

WORKLOADS = ("suites", "falsifier", "norms", "oneshot")

# Every exact suite on S(2,3); the cheaper ones on S(3,7) (F=11) and S(11,13)
# (F=119).  All nine on both S(2,3) and S(3,7) took about 20 s, one pass per
# run, and its wall time then spread by 24% over ten seeds.  The order suite,
# which takes milliseconds, runs on S(2,3) only: three such requests put the
# median latency in a sparse stretch between 0.2 and 0.55 s.
SUITE_PLAN = (
    ("2,3", ("order", "inverse", "grading", "symbol", "weakhopf", "haar",
             "coideal", "descent", "fourier")),
    ("3,7", ("inverse", "weakhopf", "haar", "coideal", "fourier")),
    ("11,13", ("haar", "coideal")),
)
# A suite's cost depends on its seed (+-10% per pass between seeds, more than
# the wall-time bound), so the suite seed is pinned; the workload seed picks
# the request order and the generator spellings.
SUITE_SEED = 0
# Equivalent generator lists: the program reduces each to the same minimal
# generating set, so the work does not depend on which one is sent.
SPELLINGS = {"1": ("1", "1,2", "2,1"), "2,3": ("2,3", "3,2", "2,3,4"),
             "3,5": ("3,5", "5,3", "3,5,6"), "3,7": ("3,7", "7,3", "3,7,10"),
             "11,13": ("11,13", "13,11", "11,13,22")}

FALSIFIER_LEN = 7
IDENTITY_LEN = 11

# Mirror of checks.default_norm_symbols(), as {exponent: (re, im)}.  Kept in
# the benchmark so that the workload does not change when the program does.
NORM_SYMBOLS = (
    {1: (1, 0), -1: (1, 0)},
    {0: (1, 0)},
    {2: (1, 0), -3: (1, 0)},
    {0: (2, 0), 1: (1, 0)},
    {1: (1, 0), 2: (1, 0), 3: (1, 0)},
    {-1: (1, 0), 1: (0, 1)},
    {-2: (Fraction(1, 2), 0), 5: (1, 0)},
    {0: (1, 0), 3: (1, 0), -3: (1, 0)},
    {0: (3, 0)},
    {1: (1, 0), -1: (-1, 0)},
)
NORM_GENS = ("1", "2,3")
NORM_DIMS = (64, 128)
# Multiples of the identity (symbols 1 and 8) converge at once, so they run at
# 64 only.  Their four 10 ms requests at 128 put the median latency on a
# single request beside a gap, where it followed this machine's speed swings.
NORM_SCALAR_DIMS = (64,)
# The tridiagonal symbol also climbs the ladder, over Z to 512, where power
# iteration is slowest and its error against the SVD is largest.  512 over
# S(2,3) as well would leave room for only two passes in a run.
NORM_LADDER = {"1": (64, 128, 256, 512), "2,3": (64, 128, 256)}
NORM_BAND = 0.05
NORM_MONOTONE_SLACK = 2e-10

# Fixed word length, starred letters and term count keep the cost of a request
# list nearly independent of the seed; random lengths moved a pass by +-10%
# between seeds.
ONESHOT_REQUESTS = 320
ONESHOT_WORD_LEN = 3
ONESHOT_TERMS = 2
ONESHOT_GENS = ((11, 13), (31, 37))
ONESHOT_COMMANDS = ("eval", "symbol", "split", "coproduct", "grouplike", "haar",
                    "convolve", "info")
BASIS_POINTS = 8
PAIR_POINTS = 4
# (re, im) coefficients and how each is spelled in front of a word.
COEFFS = (((1, 0), ""), ((2, 0), "2*"), ((Fraction(1, 2), 0), "1/2*"),
          ((0, 1), "0+1i*"), ((1, -1), "1-1i*"), ((-1, 0), "-"))


# -- numerical semigroups, computed independently of the program ----------------


class Members:
    """Membership in the semigroup generated by gens (gcd 1), by a sieve."""

    def __init__(self, gens):
        self.gens = tuple(sorted(gens))
        bound = self.gens[0] * self.gens[-1]
        reach = [True] + [False] * bound
        for n in range(1, bound + 1):
            reach[n] = any(n >= a and reach[n - a] for a in self.gens)
        self.gaps = [n for n in range(1, bound + 1) if not reach[n]]
        self.frobenius = self.gaps[-1] if self.gaps else -1
        self._gapset = frozenset(self.gaps)

    def contains(self, n: int) -> bool:
        return n >= 0 and (n > self.frobenius or n not in self._gapset)

    def first(self, count: int) -> list[int]:
        out, n = [], 0
        while len(out) < count:
            if self.contains(n):
                out.append(n)
            n += 1
        return out


def _gens_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


# -- exact scalars as (re, im) Fraction pairs -------------------------------------

_SCALAR = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)?i)?$")


def parse_scalar(text: str) -> tuple[Fraction, Fraction]:
    m = _SCALAR.match(text)
    if not m:
        raise ValueError(f"not an exact scalar: {text!r}")
    re_part = Fraction(m.group(1))
    im_part = Fraction(0)
    if m.group(2):
        im_part = Fraction(m.group(3) or 1) * (1 if m.group(2) == "+" else -1)
    return re_part, im_part


def _q(z) -> tuple[Fraction, Fraction]:
    return Fraction(z[0]), Fraction(z[1])


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _is_zero(z) -> bool:
    return z[0] == 0 and z[1] == 0


def _accumulate(table: dict, key, coeff) -> None:
    total = _add(table.get(key, (Fraction(0), Fraction(0))), _q(coeff))
    if _is_zero(total):
        table.pop(key, None)
    else:
        table[key] = total


# -- expressions --------------------------------------------------------------------


def word_text(word) -> str:
    return "*".join(f"T*({a})" if starred else f"T({a})" for a, starred in word)


def expr_text(terms) -> str:
    """Spell [(coeff_spelling, word_text)] as one expression."""
    out = ""
    for i, (spelling, body) in enumerate(terms):
        if spelling == "-":
            out += (" - " if i else "0 - ") + body
        else:
            out += (" + " if i else "") + spelling + body
    return out


def word_index(word) -> int:
    return sum(-a if starred else a for a, starred in word)


# -- request lists ------------------------------------------------------------------


def requests_for(workload: str, seed: int) -> list[dict]:
    """The fixed request list of a workload for one seed.

    Each request is {"argv": [...], "meta": {...}}; meta holds what the
    checker needs to derive the expected answer.
    """
    lists = {"suites": _suites, "falsifier": _falsifier, "norms": _norms,
             "oneshot": _oneshot}
    return lists[workload](random.Random(f"sgalg-bench:{workload}:{seed}"))


def _suites(rng: random.Random) -> list[dict]:
    return [{"argv": ["check", "--gens", rng.choice(SPELLINGS[gens]), "--suite", suite,
                      "--seed", str(SUITE_SEED)],
             "meta": {"gens": _gens_list(gens), "suite": suite}}
            for gens, suites in SUITE_PLAN for suite in suites]


def _falsifier(rng: random.Random) -> list[dict]:
    reqs = []
    for source in ("2,3", "3,5"):
        reqs.append({"argv": ["morphism", "--from", rng.choice(SPELLINGS[source]),
                              "--to", rng.choice(SPELLINGS["1"]),
                              "--max-len", str(FALSIFIER_LEN)],
                     "meta": {"source": _gens_list(source), "scan": True,
                              "max_len": FALSIFIER_LEN}})
    reqs.append({"argv": ["morphism", "--from", rng.choice(SPELLINGS["1"]),
                          "--to", rng.choice(SPELLINGS["1"]), "--mult", "1",
                          "--max-len", str(IDENTITY_LEN)],
                 "meta": {"source": [1], "scan": False, "max_len": IDENTITY_LEN}})
    return reqs


def _lift_spelling(rng: random.Random, s: Members, c: int) -> str:
    """A product T*(a)T(a+c) equal to the widest translation of index c.

    Any member a with a+c a member gives the same operator, domain
    {d : d+c in S}; the seed picks which.
    """
    choices = [a for a in range(0, 9) if s.contains(a) and s.contains(a + c)]
    a = rng.choice(choices)
    if c == 0:
        return rng.choice(("I", f"T*({a})*T({a})")) if a else "I"
    if a == 0:
        return f"T({c})"
    if a + c == 0:
        return f"T*({a})"
    return f"T*({a})*T({a + c})"


def _coeff_spelling(z) -> str:
    re_part, im_part = _q(z)
    if im_part == 0:
        if re_part == 1:
            return ""
        if re_part == -1:
            return "-"
        return f"{re_part}*"
    sign = "+" if im_part > 0 else "-"
    return f"{re_part}{sign}{abs(im_part)}i*"


def _norms(rng: random.Random) -> list[dict]:
    reqs = []
    for k, sym in enumerate(NORM_SYMBOLS):
        for gens in NORM_GENS:
            s = Members(_gens_list(gens))
            dims = (NORM_LADDER[gens] if k == 0 else
                    NORM_SCALAR_DIMS if set(sym) == {0} else NORM_DIMS)
            for n in dims:
                terms = [(_coeff_spelling(z), _lift_spelling(rng, s, c))
                         for c, z in sorted(sym.items())]
                reqs.append({"argv": ["norm", "--gens", gens, "--expr", expr_text(terms),
                                      "--dim", str(n)],
                             "meta": {"gens": _gens_list(gens), "symbol": k, "dim": n}})
    return reqs


def _random_word(rng: random.Random, gens, starred: int = 1):
    stars = set(rng.sample(range(ONESHOT_WORD_LEN), starred))
    return tuple((rng.choice(gens), i in stars) for i in range(ONESHOT_WORD_LEN))


def _random_terms(rng: random.Random, gens):
    return [(*rng.choice(COEFFS), _random_word(rng, gens))
            for _ in range(ONESHOT_TERMS)]


def _oneshot(rng: random.Random) -> list[dict]:
    reqs = []
    for i in range(ONESHOT_REQUESTS):
        gens = ONESHOT_GENS[i % len(ONESHOT_GENS)]
        cmd = ONESHOT_COMMANDS[(i // len(ONESHOT_GENS)) % len(ONESHOT_COMMANDS)]
        gens_text = ",".join(map(str, gens))
        meta = {"gens": list(gens), "command": cmd}
        argv = [cmd, "--gens", gens_text]
        if cmd != "info":
            if cmd == "grouplike":
                # Every other word is unstarred, so both answers occur.
                word = _random_word(rng, gens, starred=(i // 16) % 2)
                terms = [((1, 0), "", word)]
            else:
                terms = _random_terms(rng, gens)
            meta["terms"] = [[list(map(str, c)), [list(l) for l in w]] for c, _sp, w in terms]
            argv += ["--expr", expr_text([(sp, word_text(w)) for _c, sp, w in terms])]
        if cmd == "eval":
            argv += ["--basis", str(BASIS_POINTS)]
        elif cmd == "coproduct":
            argv += ["--pairs", str(PAIR_POINTS)]
        elif cmd == "convolve":
            small = Members(gens).first(6)
            funcs = []
            for _ in range(2):
                kind = rng.randrange(3)
                if kind == 0:
                    funcs.append("haar")
                elif kind == 1:
                    funcs.append(f"w[{rng.choice(small)},{rng.choice(small)}]")
                else:
                    funcs.append(f"pm({rng.randrange(-6, 7)}/{rng.randrange(1, 9)})")
            for f in funcs:
                argv += ["--functional", f]
            meta["functionals"] = funcs
        reqs.append({"argv": argv, "meta": meta})
    rng.shuffle(reqs)
    return reqs


# -- reply checks -----------------------------------------------------------------------


def check_replies(workload: str, requests: list[dict], replies: list) -> tuple[list, dict]:
    """Check every reply; returns (reason or None per request, extra figures).

    A reply is (exit code, stdout text), or None when the call raised.
    """
    reasons, docs = [], []
    for req, reply in zip(requests, replies):
        doc = None
        if reply is None:
            reason = "raised"
        else:
            code, out = reply
            try:
                doc = json.loads(out)
                reason = _CHECKS[workload](req, code, doc)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"malformed reply: {exc!r}"
        reasons.append(reason)
        docs.append(doc)
    extra = {}
    if workload == "norms":
        extra = _check_norm_groups(requests, docs, reasons)
    return reasons, extra


def _expect(cond: bool, what: str) -> Optional[str]:
    return None if cond else what


def _check_suite(req, code, doc) -> Optional[str]:
    meta = req["meta"]
    reports = doc["reports"]
    return (_expect(code == 0, f"exit code {code}")
            or _expect(doc["suite"] == meta["suite"], "wrong suite")
            or _expect(doc["generators"] == meta["gens"], "wrong generators")
            or _expect(bool(reports), "no reports")
            or _expect(all(r["pass"] is True for r in reports), "a report failed")
            or _expect(doc["pass"] is True, "suite not passed"))


def _check_morphism(req, code, doc) -> Optional[str]:
    meta = req["meta"]
    results = {r["multiplier"]: r for r in doc["results"]}
    if doc["source"] != meta["source"] or doc["target"] != [1]:
        return "wrong semigroups"
    if meta["scan"]:
        # Every multiplier 0..6 maps into Z; only the trivial one survives.
        if sorted(results) != list(range(7)):
            return "wrong multiplier scan"
        zero = results[0]
        return (_expect(code == 1 and doc["witness_found"] is True, f"exit code {code}")
                or _expect(zero["witness"] is None
                           and zero["consistent_up_to"] == meta["max_len"],
                           "trivial multiplier refuted")
                or _expect(all(results[m]["witness"] is not None
                               and results[m]["consistent_up_to"] is None
                               for m in range(1, 7)), "a nontrivial multiplier survived"))
    only = results.get(1)
    return (_expect(code == 0 and doc["witness_found"] is False, f"exit code {code}")
            or _expect(list(results) == [1] and only["witness"] is None
                       and only["consistent_up_to"] == meta["max_len"],
                       "identity refuted"))


def _check_norm(req, code, doc) -> Optional[str]:
    meta = req["meta"]
    return (_expect(code == 0, f"exit code {code}")
            or _expect(doc["dim"] == meta["dim"], "wrong dimension")
            or _expect(math.isfinite(doc["truncated_norm"]), "norm not finite"))


def _reference_matrix(symbol: dict, gens, n: int):
    """Compression of the Toeplitz lift onto the first n members.

    Entry (i, j) is the symbol coefficient at s_i - s_j; the widest
    translation of index c maps s_j to s_j + c whenever that is a member.
    """
    import numpy as np
    legend = np.array(Members(gens).first(n))
    diff = legend[:, None] - legend[None, :]
    mat = np.zeros((n, n), dtype=np.complex128)
    for c, z in symbol.items():
        mat[diff == c] = complex(float(z[0]), float(z[1]))
    return mat


def _sup_norm(symbol: dict, samples: int = 4096) -> float:
    import numpy as np
    theta = 2.0 * np.pi * np.arange(samples) / samples
    values = sum(complex(float(z[0]), float(z[1])) * np.exp(1j * c * theta)
                 for c, z in symbol.items())
    return float(np.max(np.abs(values)))


def _check_norm_groups(requests, docs, reasons) -> dict:
    """Band and monotone rule per (symbol, semigroup), and error against the SVD."""
    import numpy as np
    groups: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        meta = req["meta"]
        groups.setdefault((meta["symbol"], tuple(meta["gens"])), []).append(i)
    err_max = 0.0
    for (k, gens), idx in groups.items():
        if any(reasons[i] is not None for i in idx):
            continue
        idx.sort(key=lambda i: requests[i]["meta"]["dim"])
        values = [docs[i]["truncated_norm"] for i in idx]
        for i in idx:
            ref = np.linalg.norm(_reference_matrix(NORM_SYMBOLS[k], gens,
                                                   requests[i]["meta"]["dim"]), 2)
            err_max = max(err_max, abs(docs[i]["truncated_norm"] - ref))
        sup = _sup_norm(NORM_SYMBOLS[k])
        monotone = all(b >= a - NORM_MONOTONE_SLACK for a, b in zip(values, values[1:]))
        in_band = abs(values[-1] - sup) <= NORM_BAND
        if not (monotone and in_band):
            for i in idx:
                reasons[i] = "norm sequence not monotone" if not monotone else "outside band"
    return {"norm_err_max": err_max}


def _oneshot_expected_symbol(terms) -> dict:
    out: dict[int, tuple] = {}
    for coeff, word in terms:
        _accumulate(out, word_index(word), coeff)
    return out


def _symbol_of(doc_symbol) -> dict:
    return {c: parse_scalar(v) for c, v in doc_symbol["coefficients"]}


def _monomial_key(s: Members, word, window: int):
    """(index, excluded domain points) of a word: equal keys, equal monomials."""
    from sgalg.translations import word_action
    return (word_index(word),
            tuple(d for d in range(window + 1)
                  if s.contains(d) and word_action(s, word, d) is None))


def _check_oneshot(req, code, doc) -> Optional[str]:
    from sgalg.translations import word_action
    meta = req["meta"]
    gens = meta["gens"]
    s = Members(gens)
    cmd = meta["command"]
    if code != 0:
        return f"exit code {code}"
    if doc["command"] != cmd or doc["generators"] != gens:
        return "wrong command or generators"
    if cmd == "info":
        a, b = gens
        gaps = [n for n in range(1, a * b)
                if not any((n - x * a) % b == 0 for x in range(n // a + 1))]
        return (_expect(doc["gaps"] == gaps and len(gaps) == (a - 1) * (b - 1) // 2,
                        "wrong gaps")
                or _expect(doc["frobenius"] == a * b - a - b, "wrong Frobenius number")
                or _expect(doc["totally_ordered"] is False, "wrong totality"))
    terms = [((Fraction(c[0]), Fraction(c[1])), tuple((a, bool(st)) for a, st in w))
             for c, w in meta["terms"]]
    if cmd == "eval":
        table = doc["basis_action"]
        points = s.first(BASIS_POINTS)
        if [row[0] for row in table] != points:
            return "wrong basis points"
        for d, image in table:
            want: dict = {}
            for coeff, word in terms:
                m = word_action(s, word, d)
                if m is not None:
                    _accumulate(want, m, coeff)
            if {m: parse_scalar(v) for m, v in image} != want:
                return f"basis action at {d} disagrees with the word oracle"
        return None
    if cmd in ("symbol", "split"):
        if _symbol_of(doc["symbol"]) != _oneshot_expected_symbol(terms):
            return "symbol disagrees with the index sums"
        if cmd == "symbol":
            return _expect(doc["in_ideal"] is (not _oneshot_expected_symbol(terms)),
                           "wrong ideal membership")
        return (_expect(doc["ideal_part_in_ideal"] is True, "ideal part escaped the ideal")
                or _expect(all(c["tail"] == "0" for c in doc["ideal_part"]["components"]),
                           "ideal part has a nonzero tail"))
    if cmd == "coproduct":
        points = s.first(PAIR_POINTS)
        want: dict = {}
        for c in points:
            for d in points:
                vals: dict = {}
                for coeff, word in terms:
                    ic, id_ = word_action(s, word, c), word_action(s, word, d)
                    if ic is not None and id_ is not None:
                        _accumulate(vals, (ic, id_), coeff)
                if vals:
                    want[(c, d)] = vals
        got = {tuple(pair): {tuple(k): parse_scalar(v) for k, v in vals}
               for pair, vals in doc["pair_action"]}
        return _expect(got == want, "pair action disagrees with the word oracle")
    if cmd == "grouplike":
        window = s.frobenius + sum(a for _c, w in terms for a, _st in w) + 1
        merged: dict = {}
        for coeff, word in terms:
            _accumulate(merged, _monomial_key(s, word, window), coeff)
        group_like = (len(merged) == 1 and next(iter(merged.values())) == (1, 0)
                      and not next(iter(merged))[1])
        index = next(iter(merged))[0] if group_like else None
        return _expect(doc["group_like"] is group_like and doc["index"] == index,
                       "group-like answer disagrees with the word oracle")
    if cmd == "haar":
        want: dict = {}
        for coeff, word in terms:
            if word_action(s, word, 0) == 0:
                _accumulate(want, 0, coeff)
        got = parse_scalar(doc["value"])
        return _expect(got == want.get(0, (0, 0)), "haar value disagrees with the word oracle")
    if cmd == "convolve":
        want = 0j
        for coeff, word in terms:
            value = complex(float(coeff[0]), float(coeff[1]))
            for f in meta["functionals"]:
                value *= _functional_on_word(s, f, word)
            want += value
        got = doc["value"]
        if isinstance(got, str):
            got = complex(*map(float, parse_scalar(got)))
        else:
            got = complex(got["re"], got["im"])
        return _expect(abs(got - want) <= 1e-9, "convolution disagrees with the word oracle")
    return f"unknown command {cmd}"


def _functional_on_word(s: Members, f: str, word) -> complex:
    from sgalg.translations import word_action
    if f == "haar":
        f = "w[0,0]"
    if f.startswith("w["):
        a, b = (int(x) for x in f[2:-1].split(","))
        return 1.0 if word_action(s, word, b) == a else 0.0
    turns = Fraction(f[3:-1])
    return cmath.exp(1j * word_index(word) * 2.0 * math.pi * float(turns))


_CHECKS = {"suites": _check_suite, "falsifier": _check_morphism,
           "norms": _check_norm, "oneshot": _check_oneshot}

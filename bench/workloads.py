"""Seeded workloads for the loewner-cert benchmark.

Every workload is a pool of instances split into strata (statement or gap
kind, scalar function, size).  A run visits the strata round-robin and, for
each visit, takes the next instance of that stratum from a permutation drawn
from the run seed, with a fresh solver seed.  A pass over the pool sends
every instance once; the pools are sized so that one pass takes about one
run (12 s of program time) at the seed commit.  Every run therefore sends nearly the
same instances, and seeds differ in order and solver starts: instance costs
are heavy-tailed, and runs over different subsets spread too widely to
compare commits.

The inputs are made here with numpy alone; the package only receives the
generated matrices, parsed functions and map families (or, for the CLI
workloads, JSON files holding them).  The pools of the three sphere-solving
workloads are fixed so that their reference maxima can be stored in
``references/`` (see ``make_references.py``); the pool of ``classical``
needs no reference and is drawn from the run seed itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

POOL_SEED = 200403312

# the fuzz CONVEX_POS catalogue, as CLI specs with their sampling windows
CONVEX_POS = (
    ("square_pos", "power:2;dom=[0,inf)", 0.05, 2.2),
    ("cube", "power:3", 0.05, 2.0),
    ("pow_3_2", "power:1.5", 0.1, 2.2),
    ("inverse", "power:-1", 0.25, 2.5),
    ("inv_sqrt", "power:-0.5", 0.25, 2.5),
    ("exp", "exp", 0.3, 1.7),
    ("neglog", "neglog", 0.2, 2.8),
)
INCREASING_POS = (
    ("square_pos", "power:2;dom=[0,inf)", 0.05, 2.2),
    ("cube", "power:3", 0.05, 2.0),
    ("pow_3_2", "power:1.5", 0.1, 2.2),
    ("exp", "exp", 0.3, 1.7),
    ("affine_up", "affine:1.3,-0.4", 0.3, 2.1),
)
DECREASING_POS = (
    ("inverse", "power:-1", 0.25, 2.5),
    ("inv_sqrt", "power:-0.5", 0.25, 2.5),
    ("neglog", "neglog", 0.2, 2.8),
    ("affine_down", "affine:-0.8,0.6", 0.3, 2.1),
)
SANDWICH_FUNCTIONS = CONVEX_POS + (
    ("square", "power:2", -1.2, 1.2),
    ("affine_up", "affine:1.3,-0.4", -2.0, 2.0),
    ("affine_down", "affine:-0.8,0.6", -2.0, 2.0),
)
# (spec, scalar f or None when f is operator monotone, so that no
# violation may be reported); witnesses are recomputed with the scalar f
VIOLATION_FUNCTIONS = (
    ("power:3", lambda w: w ** 3),
    ("exp", np.exp),
    ("power:2;dom=[0,inf)", lambda w: w ** 2),
    ("affine:1.3,-0.4", None),
)
VIOLATION_TRIALS = 2

GAP_KINDS = ("gamma", "delta", "eta", "theta", "vartheta", "chebyshev")
JENSEN_OF_GAP = {
    "delta": "delta_forward",
    "eta": "eta_choi",
    "theta": "theta_reverse",
    "vartheta": "vartheta_reverse",
}
FAMILY_VARIANTS = ("identity", "conjugation", "pinch", "diag")

# fuzz agreement tolerances
AGREE_RTOL = 1e-5
ONE_SIDED_TOL = 1e-7
# a reported maximum may fall short of its reference by at most this much
SHORTFALL_TOL = 1e-7
# a maximizer is stationary when its tangent gradient is at most this large
STATIONARY_TOL = 1e-8


# -- input generation (numpy only) -------------------------------------


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def hermitian(n: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with a spectrum drawn uniformly from [lo, hi]."""
    Q = haar_unitary(n, rng)
    H = (Q * rng.uniform(lo, hi, size=n)) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


def dominated_pair(n: int, m: float, M: float, rng: np.random.Generator):
    """(A, B) with m <= B <= A <= M: B = A - cP, c chosen from the spectra."""
    A = hermitian(n, m + 0.25 * (M - m), M, rng)
    P = hermitian(n, 0.1, 1.0, rng)
    room = float(np.linalg.eigvalsh(A)[0]) - m
    c = room / float(np.linalg.eigvalsh(P)[-1]) * rng.uniform(0.3, 0.95)
    B = A - c * P
    return A, 0.5 * (B + B.conj().T)


def unit_vector(k: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return v / np.linalg.norm(v)


def family_spec(variant: str, n: int, rng: np.random.Generator):
    """A unital family on n-by-n matrices, as plain data.

    conjugation: 1 to 3 blocks V_i sliced from a Haar unitary, so that
    sum V_i* V_i = I; pinch: a random partition; diag; identity (None,
    so the package supplies its default).
    """
    if variant == "identity":
        return None
    if variant == "conjugation":
        count = int(rng.integers(1, 4))
        cols = haar_unitary(count * n, rng)[:, :n]
        return ("conjugation", [cols[i * n:(i + 1) * n, :] for i in range(count)])
    if variant == "pinch":
        perm = [int(v) for v in rng.permutation(n)]
        nb = int(rng.integers(1, n + 1))
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=nb - 1,
                                                 replace=False))
        edges = [0] + cuts + [n]
        return ("pinch", [perm[a:b] for a, b in zip(edges, edges[1:])])
    return ("diag", None)


def family_size(fam) -> int:
    return len(fam[1]) if fam is not None and fam[0] == "conjugation" else 1


def family_to_json(fam, n: int) -> list:
    variant, data = fam
    if variant == "conjugation":
        return [{"variant": "conjugation", "V_re": V.real.tolist(),
                 "V_im": V.imag.tolist()} for V in data]
    if variant == "pinch":
        return [{"variant": "pinch", "dim": n, "blocks": data}]
    return [{"variant": "diag", "dim": n}]


def matrix_to_json(M: np.ndarray) -> dict:
    return {"dim": int(M.shape[0]), "re": M.real.tolist(), "im": M.imag.tolist()}


@dataclass
class GapInstance:
    """One sphere-solving instance: gap kind, function and operands."""

    id: int
    stratum: int
    kind: str
    spec: str
    n: int
    a_ops: list
    b_ops: list | None
    family: tuple | None
    command: str = ""

    def fingerprint(self) -> float:
        total = sum(float(np.abs(M).sum()) for M in self.a_ops + (self.b_ops or []))
        if self.family is not None and self.family[0] == "conjugation":
            total += sum(float(np.abs(V).sum()) for V in self.family[1])
        return total


def gap_instance(pid: int, stratum: int, kind: str, fn, n: int, variant: str,
                 rng: np.random.Generator, command: str = "") -> GapInstance:
    _, spec, lo, hi = fn
    if kind in ("gamma", "chebyshev"):
        fam = None
        a_ops = [hermitian(n, lo, hi, rng)]
        b_ops = [hermitian(n, lo, hi, rng)] if kind == "gamma" else None
    else:
        fam = family_spec(variant, n, rng)
        size = family_size(fam)
        a_ops = [hermitian(n, lo, hi, rng) for _ in range(size)]
        b_ops = ([hermitian(n, lo, hi, rng) for _ in range(size)]
                 if kind in ("delta", "theta") else None)
    return GapInstance(pid, stratum, kind, spec, n, a_ops, b_ops, fam, command)


def pool_rng(workload: str, pid: int) -> np.random.Generator:
    tag = sum(ord(ch) for ch in workload)
    return np.random.default_rng([POOL_SEED, tag, pid])


def certify_small_pool(per_stratum: int = 4) -> list:
    """5 statements x 7 functions, n = 2..6, family variants cycled."""
    pool = []
    kinds = ("gamma", "delta", "eta", "theta", "vartheta")
    for si, kind in enumerate(kinds):
        for fi, fn in enumerate(CONVEX_POS):
            stratum = si * len(CONVEX_POS) + fi
            for j in range(per_stratum):
                pid = len(pool)
                rng = pool_rng("certify-small", pid)
                n = 2 + (j + stratum) % 5
                variant = FAMILY_VARIANTS[j % 4]
                pool.append(gap_instance(pid, stratum, kind, fn, n, variant, rng))
    return pool


LARGE_COMMANDS = ("certify:gamma-order", "certify:delta-forward", "gap")
LARGE_SIZES = (16, 32, 64)


def certify_large_pool(per_stratum: int = 6) -> list:
    """3 CLI commands x n in (16, 32, 64); gap kinds and functions cycled."""
    pool = []
    for ci, command in enumerate(LARGE_COMMANDS):
        for ni, n in enumerate(LARGE_SIZES):
            stratum = ci * len(LARGE_SIZES) + ni
            for j in range(per_stratum):
                pid = len(pool)
                rng = pool_rng("certify-large", pid)
                fn = CONVEX_POS[pid % len(CONVEX_POS)]
                if command == "certify:gamma-order":
                    kind = "gamma"
                elif command == "certify:delta-forward":
                    kind = "delta"
                else:
                    kind = GAP_KINDS[(ni * per_stratum + j) % len(GAP_KINDS)]
                variant = FAMILY_VARIANTS[j % 4]
                pool.append(gap_instance(pid, stratum, kind, fn, n, variant, rng,
                                         command))
    return pool


def crosscheck_pool(per_stratum: int = 3) -> list:
    """6 gap kinds x 7 functions, n = 2..5, family variants cycled."""
    pool = []
    for ki, kind in enumerate(GAP_KINDS):
        for fi, fn in enumerate(CONVEX_POS):
            stratum = ki * len(CONVEX_POS) + fi
            for j in range(per_stratum):
                pid = len(pool)
                rng = pool_rng("crosscheck", pid)
                n = 2 + (j + stratum) % 4
                variant = FAMILY_VARIANTS[j % 4]
                pool.append(gap_instance(pid, stratum, kind, fn, n, variant, rng, "gap"))
    return pool


GAP_POOLS = {
    "certify-small": certify_small_pool,
    "certify-large": certify_large_pool,
    "crosscheck": crosscheck_pool,
}


@dataclass
class ClassicalInstance:
    id: int
    stratum: int
    kind: str
    spec: str | None
    n: int
    args: dict = field(default_factory=dict)


CLASSICAL_STRATA = ("furuta", "lowner_heinz", "alpha_beta_increasing",
                    "alpha_beta_decreasing", "sandwich:identity",
                    "sandwich:conjugation", "sandwich:pinch", "sandwich:diag",
                    "violation")


def classical_pool(seed: int, per_stratum: int = 84) -> list:
    """Classical statements, pointwise sandwich and violation search, n = 2..8.

    Sizes and parameters cycle with the position in the stratum, so every
    seed gives the same mix; only the random matrices change.
    """
    pool = []
    for stratum, kind in enumerate(CLASSICAL_STRATA):
        for j in range(per_stratum):
            pid = len(pool)
            rng = np.random.default_rng([int(seed), 7, pid])
            n = 2 + j % 7
            spec, args = None, {}
            if kind == "furuta":
                m = 0.2 + 0.6 * float(rng.uniform())
                M = m + 0.6 + 1.5 * float(rng.uniform())
                A, B = dominated_pair(n, m, M, rng)
                args = {"A": A, "B": B, "p": (1.5, 2.0, 3.0)[j % 3], "m": m, "M": M}
            elif kind == "lowner_heinz":
                m = 0.2 + 0.6 * float(rng.uniform())
                M = m + 0.6 + 1.5 * float(rng.uniform())
                big, small = dominated_pair(n, m, M, rng)
                args = {"A": small, "B": big, "p": (0.3, 0.5, 0.9)[j % 3]}
            elif kind.startswith("alpha_beta"):
                catalog = INCREASING_POS if kind.endswith("increasing") else DECREASING_POS
                _, spec, lo, hi = catalog[j % len(catalog)]
                A, B = dominated_pair(n, lo, hi, rng)
                args = {"A": A, "B": B, "alpha": (0.7, 1.0, 1.6)[j % 3], "m": lo, "M": hi}
            elif kind.startswith("sandwich"):
                _, spec, lo, hi = SANDWICH_FUNCTIONS[j % len(SANDWICH_FUNCTIONS)]
                fam = family_spec(kind.split(":")[1], n, rng)
                size = family_size(fam)
                args = {"a_ops": [hermitian(n, lo, hi, rng) for _ in range(size)],
                        "b_ops": [hermitian(n, lo, hi, rng) for _ in range(size)],
                        "family": fam, "x": unit_vector(n, rng)}
            else:
                spec, scalar = VIOLATION_FUNCTIONS[j % len(VIOLATION_FUNCTIONS)]
                args = {"trials": VIOLATION_TRIALS, "seed": int(rng.integers(0, 2**31)),
                        "scalar": scalar}
            pool.append(ClassicalInstance(pid, stratum, kind, spec, n, args))
    return pool


def strata_of(pool) -> list:
    strata = {}
    for inst in pool:
        strata.setdefault(inst.stratum, []).append(inst.id)
    return [strata[s] for s in sorted(strata)]


def schedule(pool, seed: int, tag: int):
    """Endless (instance id, solver seed) stream, strata visited round-robin."""
    rng = np.random.default_rng([int(seed), tag, 1])
    strata = strata_of(pool)
    orders = [list(rng.permutation(ids)) for ids in strata]
    cycle = 0
    while True:
        for s, ids in enumerate(strata):
            k = cycle % len(ids)
            if k == 0 and cycle:
                orders[s] = list(rng.permutation(ids))
            yield int(orders[s][k]), int(rng.integers(0, 2**31))
        cycle += 1


# -- package side ------------------------------------------------------


def make_family(mods, fam, n: int):
    if fam is None:
        return None
    maps = mods.maps
    variant, data = fam
    if variant == "conjugation":
        return maps.MapFamily(tuple(maps.Conjugation(V) for V in data))
    if variant == "pinch":
        return maps.MapFamily((maps.Pinch(n, tuple(tuple(b) for b in data)),))
    return maps.MapFamily((maps.Diag(n),))


def gap_problem(mods, inst: GapInstance):
    """The GapProblem the program builds for this instance."""
    f = mods.scalarfn.parse_function(inst.spec)
    b_ops = inst.b_ops
    if inst.kind == "gamma":
        return mods.gaps.build_gap_problem("gamma", f, inst.a_ops[0], b_ops[0])
    if inst.kind == "chebyshev":
        return mods.gaps.build_gap_problem("chebyshev", f, inst.a_ops[0])
    return mods.gaps.build_gap_problem(inst.kind, f, inst.a_ops, b_ops,
                                       make_family(mods, inst.family, inst.n))


def tangent_gradient_norm(problem, x) -> float:
    """Norm of the sphere gradient of <Cx,x> - <Sx,x><Dx,x> at unit x."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    x = x / np.linalg.norm(x)
    Cx, Sx, Dx = problem.C @ x, problem.S @ x, problem.D @ x
    qS = float(np.real(np.vdot(x, Sx)))
    qD = float(np.real(np.vdot(x, Dx)))
    G = 2.0 * (Cx - qD * Sx - qS * Dx)
    Gt = G - x * np.real(np.vdot(x, G))
    return float(np.linalg.norm(Gt))


@dataclass
class Outcome:
    """The check of one output.

    ``valid`` is False when the output breaks what the program guarantees:
    it raised, a certificate of a true statement failed, the CLI reports
    that the oracle disagrees, or a value is not finite.  An output can be
    valid and still fail the instance: when its maximum falls short of the
    reference by more than SHORTFALL_TOL, or (``below_bar``) below the
    oracle by more than the fuzz suite's one-sided tolerance.  Such a value
    is still a valid lower bound (it is the objective at a unit vector), so
    it counts as a failed instance but does not make the run incorrect.
    """

    valid: bool
    shortfall: float | None = None
    reason: str = ""
    below_bar: bool = False

    @property
    def ok(self) -> bool:
        return (self.valid and not self.below_bar
                and (self.shortfall is None or self.shortfall <= SHORTFALL_TOL))


def _shortfall_outcome(value, ref, reason=""):
    if value is None or not math.isfinite(value):
        return Outcome(False, None, reason or "non-finite value")
    return Outcome(not reason, ref - value, reason)


class Workload:
    """Base: pool, schedule, timed call and check for one workload."""

    name = ""
    tag = 0
    warmup_ids: tuple = (0,)

    def __init__(self, mods, seed: int, references: dict | None, workdir: str):
        self.mods = mods
        self.seed = int(seed)
        self.references = references
        self.workdir = workdir
        self.pool = []
        self.prepared = {}

    def generate(self) -> None:
        raise NotImplementedError

    def schedule(self):
        return schedule(self.pool, self.seed, self.tag)

    def warmup(self) -> None:
        for pid in self.warmup_ids:
            out = self.call(pid, 0)
            self.check(pid, out)

    def call(self, pid: int, solver_seed: int):
        raise NotImplementedError

    def check(self, pid: int, out) -> Outcome:
        raise NotImplementedError


class GapWorkload(Workload):
    """Shared by the three sphere-solving workloads: pool plus references."""

    def generate(self) -> None:
        self.pool = GAP_POOLS[self.name]()
        refs = self.references
        if len(refs) != len(self.pool):
            raise RuntimeError(f"{self.name}: {len(refs)} references for "
                               f"{len(self.pool)} instances; rerun make_references.py")
        for inst, ref in zip(self.pool, refs):
            fp = inst.fingerprint()
            if (ref["id"] != inst.id or ref["kind"] != inst.kind or ref["n"] != inst.n
                    or abs(ref["fingerprint"] - fp) > 1e-9 * fp):
                raise RuntimeError(f"{self.name}: instance {inst.id} does not match "
                                   "its stored reference; rerun make_references.py")
        self.refs = [r["ref"] for r in refs]
        for inst in self.pool:
            self.prepared[inst.id] = self.prepare(inst)

    def prepare(self, inst: GapInstance):
        raise NotImplementedError


class CertifySmall(GapWorkload):
    name = "certify-small"
    tag = 1
    # one instance of each statement, fixed so that set-up cost does not
    # depend on the run seed
    warmup_ids = (0, 28, 56, 84, 112)

    def prepare(self, inst):
        f = self.mods.scalarfn.parse_function(inst.spec)
        fam = make_family(self.mods, inst.family, inst.n)
        return inst, f, fam

    def call(self, pid, solver_seed):
        inst, f, fam = self.prepared[pid]
        certify = self.mods.certify
        if inst.kind == "gamma":
            return certify.certify_order(inst.a_ops[0], inst.b_ops[0], f, seed=solver_seed)
        return certify.certify_jensen(JENSEN_OF_GAP[inst.kind], f, inst.a_ops,
                                      inst.b_ops, fam, seed=solver_seed)

    def check(self, pid, cert):
        value = cert.constants.get(self.prepared[pid][0].kind)
        reason = "" if cert.passed else f"certificate failed, slack {cert.slack:.3e}"
        return _shortfall_outcome(value, self.refs[pid], reason)


class CliWorkload(GapWorkload):
    """Runs loewner_cert.cli.main in process on JSON input files."""

    extra_args: tuple = ()

    def prepare(self, inst):
        base = os.path.join(self.workdir, self.name, str(inst.id))
        os.makedirs(base, exist_ok=True)

        def write(name, obj):
            path = os.path.join(base, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            return path

        a_files = [write(f"a{i}.json", matrix_to_json(M)) for i, M in enumerate(inst.a_ops)]
        b_files = [write(f"b{i}.json", matrix_to_json(M))
                   for i, M in enumerate(inst.b_ops or [])]
        if inst.command.startswith("certify:"):
            argv = ["certify", "--statement", inst.command.split(":")[1]]
        else:
            argv = ["gap", "--kind", inst.kind]
        argv += ["--f", inst.spec, "--A", *a_files]
        if b_files:
            argv += ["--B", *b_files]
        if inst.family is not None:
            argv += ["--maps", write("maps.json", family_to_json(inst.family, inst.n))]
        return argv + list(self.extra_args) + ["--json"]

    def call(self, pid, solver_seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods.cli.main(self.prepared[pid] + ["--seed", str(solver_seed)])
        return code, out.getvalue(), err.getvalue()

    def check(self, pid, out):
        code, text, err = out
        if code != 0:
            return Outcome(False, None, f"exit {code}: {err.strip()[:200]}")
        report = json.loads(text)
        if "statement" in report:
            reason = "" if report["passed"] else "certificate failed"
            value = report["constants"].get(self.pool[pid].kind)
        else:
            reason = "" if report.get("agreement", True) else "the CLI reports disagreement"
            value = report["value"]
        return _shortfall_outcome(value, self.refs[pid], reason)


class CertifyLarge(CliWorkload):
    name = "certify-large"
    tag = 2
    warmup_ids = (0, 18, 36)  # each command once at n = 16


class Crosscheck(CliWorkload):
    name = "crosscheck"
    tag = 3
    extra_args = ("--oracle",)

    def check(self, pid, out):
        outcome = super().check(pid, out)
        if not outcome.valid:
            return outcome
        report = json.loads(out[1])
        value, oracle = report["value"], report["oracle_value"]
        if abs(value - oracle) > AGREE_RTOL * (1.0 + abs(oracle)):
            return Outcome(False, outcome.shortfall, f"oracle disagrees: {value!r} vs {oracle!r}")
        if value < oracle - ONE_SIDED_TOL:
            outcome.below_bar = True
            outcome.reason = f"below the oracle by {oracle - value:.3e}"
        return outcome


class Classical(Workload):
    name = "classical"
    tag = 4

    def generate(self):
        self.pool = classical_pool(self.seed)
        parse = self.mods.scalarfn.parse_function
        for inst in self.pool:
            f = parse(inst.spec) if inst.spec else None
            fam = None
            if inst.kind.startswith("sandwich"):
                fam = make_family(self.mods, inst.args["family"], inst.n)
            self.prepared[inst.id] = (inst, f, fam)
        self.warmup_ids = tuple(ids[0] for ids in strata_of(self.pool))

    def call(self, pid, solver_seed):
        inst, f, fam = self.prepared[pid]
        a = inst.args
        certify = self.mods.certify
        if inst.kind in ("furuta", "lowner_heinz"):
            return certify.verify_classical(inst.kind, a["A"], a["B"], p=a["p"],
                                            m=a.get("m"), M=a.get("M"))
        if inst.kind.startswith("alpha_beta"):
            return certify.verify_classical(inst.kind, a["A"], a["B"], f=f,
                                            alpha=a["alpha"], m=a["m"], M=a["M"])
        if inst.kind.startswith("sandwich"):
            return certify.verify_sandwich_pointwise(f, a["a_ops"], a["b_ops"], fam, a["x"])
        return certify.find_order_violation(f, inst.n, a["trials"], a["seed"])

    def check(self, pid, out):
        inst, f, _ = self.prepared[pid]
        if inst.kind.startswith("sandwich"):
            vals = (out.lower, out.middle, out.upper)
            ok = out.ok and all(math.isfinite(v) for v in vals)
            return Outcome(ok, None, "" if ok else f"sandwich fails: {vals}")
        if inst.kind == "violation":
            if out is None:
                return Outcome(True)
            if inst.args["scalar"] is None:
                return Outcome(False, None, "violation reported for a monotone f")
            return self._check_witness(inst.args["scalar"], out)
        ok = out.passed and math.isfinite(out.slack) and out.slack >= -out.tol
        return Outcome(ok, None, "" if ok else f"certificate failed, slack {out.slack:.3e}")

    @staticmethod
    def _check_witness(scalar, hit):
        """Recompute A <= B and lambda_min(f(B) - f(A)) with numpy."""

        def image(M):
            w, U = np.linalg.eigh(M)
            return (U * scalar(w)) @ U.conj().T

        order = float(np.linalg.eigvalsh(hit.B - hit.A)[0])
        D = image(hit.B) - image(hit.A)
        witness = float(np.linalg.eigvalsh(0.5 * (D + D.conj().T))[0])
        scale = 1e-8 * (1.0 + float(np.abs(D).max()))
        ok = order >= -1e-10 and witness < -1e-8 and abs(witness - hit.witness) <= scale
        return Outcome(ok, None, "" if ok else f"bad witness {hit.witness!r} vs {witness!r}")


WORKLOADS = {cls.name: cls for cls in (CertifySmall, CertifyLarge, Crosscheck, Classical)}

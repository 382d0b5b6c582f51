"""The benchmark's workloads: CLI invocations, seeded inputs and output checks.

Each workload builds its command lines from the seed, runs them (through a
callback that starts one fresh process per invocation) and checks what they
wrote against independent computations or against properties the method
must have.  Nothing here imports ``fracplate``: the checks recompute from
first principles, with :mod:`mlref` as the Mittag-Leffler reference.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Callable

import numpy as np
from scipy.special import ndtri

from mlref import MittagLeffler

ALPHA = 1.5
PROBE_MEMBERS = 8
PROBE_TIME_NODES = 512
PROBE_CHECK_N = 16
GROWTH_MAX = 1.25
R16_RTOL = 1e-9
NORM_RTOL = 1e-12
KERNEL_ABS_TOL = 1e-11  # per kernel value; ml_profile documents ~1e-12
RESIDUAL_MAX = 5e-3
FRACOPS_ERR_MAX = 1e-6
FRACOPS_ORDER_MIN = 1.5
IDENTITY_ORDER_MIN = 1.0
SOLVE_MODES = 64

# one invocation: argv after "fracplate" -> child record
Invoke = Callable[[list[str]], dict]


def graded_times(T: float, M: int, alpha: float) -> np.ndarray:
    """The probe's graded grid T (i/M)^gamma, gamma = min(4, 2/(alpha - 1))."""
    gamma = min(4.0, 2.0 / (alpha - 1.0))
    t = T * (np.arange(M + 1, dtype=float) / M) ** gamma
    t[-1] = T
    return t


def family_draws(seed: int, member: int, n_max: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Member ``member`` of the ``decay:p`` family, drawn at ``n_max`` modes.

    Philox4x64-10 keyed ``[seed, member]``, ``2 n_max`` uniforms through the
    inverse normal CDF; ``u0`` takes draws ``[0, n_max)``, ``u1`` the rest,
    both scaled by ``n^-p``.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed, member]))
    g = ndtri(np.clip(gen.random(2 * n_max), 1e-300, 1.0 - 1e-16))
    decay = np.arange(1, n_max + 1, dtype=float) ** (-p)
    return g[:n_max] * decay, g[n_max:] * decay


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Seed-dependent inputs and references, built once per run."""

    def run(self, invoke: Invoke) -> tuple[list[dict], list[str]]:
        """One operation: its child records and the problems its checks found."""
        raise NotImplementedError


# {{{ probes

class _Probe(Workload):
    domain = ""
    schedule: tuple[int, ...] = ()

    def prepare(self) -> None:
        t = graded_times(1.0, PROBE_TIME_NODES, ALPHA)
        mu = self.modes()
        z = -np.outer(t**ALPHA, mu**2)
        self._t = t
        self._mu = mu
        self._e1 = MittagLeffler(ALPHA, 1.0).table(z)
        self._te2 = t[:, None] * MittagLeffler(ALPHA, 2.0).table(z)
        self._out = os.path.join(self.workdir, "probe.json")
        self.expected_r16 = self.reference_r16()

    def modes(self) -> np.ndarray:
        """Laplacian eigenvalues of the first PROBE_CHECK_N modes."""
        raise NotImplementedError

    def trace_energy(self, C: np.ndarray) -> np.ndarray:
        """Boundary integral of the squared normal trace per time row."""
        raise NotImplementedError

    def reference_r16(self) -> float:
        best = 0.0
        n_max = max(self.schedule)
        N = PROBE_CHECK_N
        for m in range(PROBE_MEMBERS):
            u0, u1 = family_draws(self.seed, m, n_max, 1.5)
            u0, u1 = u0[:N], u1[:N]
            C = self._e1 * u0[None, :] + self._te2 * u1[None, :]
            energy = float(np.trapezoid(self.trace_energy(C), self._t))
            denom = float(np.sum(self._mu * u0**2) + np.sum(u1**2 / self._mu))
            best = max(best, energy / denom)
        return best

    def argv(self) -> list[str]:
        return [
            "probe", "--domain", self.domain, "--alpha", str(ALPHA),
            "--horizon", "1", "--family", "decay:1.5",
            "--modes", ",".join(str(n) for n in self.schedule),
            "--members", str(PROBE_MEMBERS),
            "--time-nodes", str(PROBE_TIME_NODES),
            "--seed", str(self.seed), "--out", self._out,
        ]

    def run(self, invoke: Invoke) -> tuple[list[dict], list[str]]:
        if os.path.exists(self._out):
            os.remove(self._out)
        rec = invoke(self.argv())
        if rec["rc"] != 0:
            return [rec], [f"probe exited with {rec['rc']}"]
        with open(self._out) as fh:
            return [rec], self.check(json.load(fh))

    def check(self, doc: dict) -> list[str]:
        problems = []
        per_n = doc["per_N"]
        if sorted(int(n) for n in per_n) != sorted(self.schedule):
            problems.append(f"schedule mismatch: {sorted(per_n)}")
            return problems
        for n, row in per_n.items():
            r = row["R"]
            if not (isinstance(r, float) and math.isfinite(r) and r > 0.0):
                problems.append(f"R({n}) = {r!r} is not finite and positive")
            if not 0 <= row["argmax_member"] < PROBE_MEMBERS:
                problems.append(f"argmax_member({n}) = {row['argmax_member']} out of range")
        if not doc["growth_factor_max"] <= GROWTH_MAX:
            problems.append(f"growth_factor_max {doc['growth_factor_max']} > {GROWTH_MAX}")
        r16 = per_n[str(PROBE_CHECK_N)]["R"]
        if _rel(r16, self.expected_r16) > R16_RTOL:
            problems.append(f"R(16) = {r16!r}, reference {self.expected_r16!r}")
        return problems


class IntervalProbe(_Probe):
    """Interval (0, pi): e_n = sqrt(2/pi) sin(n x), d_nu e_n = -+sqrt(2/pi) n (+-1)^n."""

    name = "interval-probe"
    domain = "interval:pi"
    schedule = (16, 32, 64, 128, 256, 512, 1024)

    def modes(self) -> np.ndarray:
        n = np.arange(1, PROBE_CHECK_N + 1, dtype=float)
        scale = math.sqrt(2.0 / math.pi) * n
        self._nd_left = -scale
        self._nd_right = scale * np.where(n % 2 == 1, -1.0, 1.0)
        return n**2

    def trace_energy(self, C: np.ndarray) -> np.ndarray:
        # both endpoints with unit (counting) weight
        return (C @ self._nd_left) ** 2 + (C @ self._nd_right) ** 2


class SquareProbe(_Probe):
    """Square (0, pi)^2: e_jk = (2/pi) sin(j x) sin(k y), modes by (lam, (j, k)).

    On the edge y = 0 the normal derivative is -(2/pi) k sin(j x); sine
    orthogonality turns its squared edge integral into
    (2/pi) sum_j (sum over modes with that j of c k)^2, and likewise for the
    other three edges with the signs (-1)^k and (-1)^j.
    """

    name = "square-probe"
    domain = "rectangle:pixpi"
    schedule = (16, 32, 64, 128, 256)

    def modes(self) -> np.ndarray:
        N = PROBE_CHECK_N
        pairs = sorted(
            ((j * j + k * k, (j, k)) for j in range(1, N + 1) for k in range(1, N + 1))
        )[:N]
        jk = np.array([p[1] for p in pairs], dtype=float)
        self._j, self._k = jk[:, 0], jk[:, 1]
        return jk[:, 0] ** 2 + jk[:, 1] ** 2

    def trace_energy(self, C: np.ndarray) -> np.ndarray:
        j, k = self._j, self._k
        sign_j = np.where(j % 2 == 1, -1.0, 1.0)
        sign_k = np.where(k % 2 == 1, -1.0, 1.0)
        total = np.zeros(C.shape[0])
        for group, weight in ((j, k), (j, k * sign_k), (k, j), (k, j * sign_j)):
            for g in np.unique(group):
                total += (C[:, group == g] @ weight[group == g]) ** 2
        return (2.0 / math.pi) * total


# }}}


# {{{ refinement

def solve_data(seed: int, modes: int = SOLVE_MODES) -> tuple[np.ndarray, np.ndarray]:
    """Seeded ``solve`` data: standard normals from PCG64 seeded with ``seed``,
    the first ``modes`` for u0 and the next ``modes`` for u1, times ``n^-2``."""
    g = np.random.default_rng(seed).standard_normal(2 * modes)
    decay = np.arange(1, modes + 1, dtype=float) ** -2.0
    return g[:modes] * decay, g[modes:] * decay


def _read_csv(path: str) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _orders(values: list[float]) -> list[float]:
    return [math.log2(a / b) for a, b in zip(values, values[1:])]


class Refinement(Workload):
    """identities, solve and fracops refinement studies up to M = 4096."""

    name = "refinement"
    nodes = (1024, 2048, 4096)
    csv_times = 65  # rows the solve CSV writes: linspace(0, 1, 65)

    def prepare(self) -> None:
        w = self.workdir
        self._paths = {k: os.path.join(w, f) for k, f in (
            ("data", "data.json"), ("identities", "identities.csv"),
            ("solve", "solve.json"), ("solve_csv", "solve.csv"),
            ("fracops", "fracops.csv"),
        )}
        self.u0, self.u1 = solve_data(self.seed)
        with open(self._paths["data"], "w") as fh:
            json.dump({"u0": self.u0.tolist(), "u1": self.u1.tolist()}, fh)
        # interval (0, pi): lam_n = n^4, so lam^(2 theta) = n^(8 theta)
        self._n = np.arange(1, SOLVE_MODES + 1, dtype=float)
        t = np.linspace(0.0, 1.0, self.csv_times)
        z = -np.outer(t**ALPHA, self._n**4)
        self._t = t
        self._e1 = MittagLeffler(ALPHA, 1.0).table(z)
        self._te2 = t[:, None] * MittagLeffler(ALPHA, 2.0).table(z)

    def weighted_norm(self, c: np.ndarray, theta: float) -> np.ndarray:
        return np.sqrt(np.sum(self._n ** (8.0 * theta) * c**2, axis=-1))

    def argvs(self) -> list[list[str]]:
        nodes = ",".join(str(m) for m in self.nodes)
        p = self._paths
        return [
            ["identities", "--domain", "interval:pi", "--alpha", str(ALPHA),
             "--beta", "0.25", "--modes", "8", "--nodes", nodes,
             "--out", p["identities"]],
            ["solve", "--domain", "interval:pi", "--alpha", str(ALPHA),
             "--modes", str(SOLVE_MODES), "--nodes", str(max(self.nodes)),
             "--data", p["data"], "--out", p["solve"], "--csv-out", p["solve_csv"]],
            ["fracops", "--beta", "0.5", "--gamma", "2", "--grading", "3",
             "--nodes", nodes, "--out", p["fracops"]],
        ]

    def run(self, invoke: Invoke) -> tuple[list[dict], list[str]]:
        for key, path in self._paths.items():
            if key != "data" and os.path.exists(path):
                os.remove(path)
        records = []
        problems = []
        for argv in self.argvs():
            rec = invoke(argv)
            records.append(rec)
            if rec["rc"] != 0:
                problems.append(f"{argv[0]} exited with {rec['rc']}")
        if problems:
            return records, problems
        p = self._paths
        problems += self.check_identities(_read_csv(p["identities"]))
        problems += self.check_fracops(_read_csv(p["fracops"]))
        with open(p["solve"]) as fh:
            problems += self.check_solve(json.load(fh), _read_csv(p["solve_csv"]))
        return records, problems

    def check_identities(self, rows: list[dict[str, float]]) -> list[str]:
        problems = []
        if [int(r["nodes"]) for r in rows] != list(self.nodes):
            return [f"identities rows {[r['nodes'] for r in rows]}"]
        for col in ("filtered_identity", "filtered_identity2"):
            values = [r[col] for r in rows]
            if max(values) > RESIDUAL_MAX:
                problems.append(f"{col} residual {max(values)} > {RESIDUAL_MAX}")
            if min(_orders(values)) < IDENTITY_ORDER_MIN:
                problems.append(f"{col} observed orders {_orders(values)}")
        return problems

    def check_fracops(self, rows: list[dict[str, float]]) -> list[str]:
        if [int(r["nodes"]) for r in rows] != list(self.nodes):
            return [f"fracops rows {[r['nodes'] for r in rows]}"]
        errs = [r["rel_error_at_T"] for r in rows]
        problems = []
        if errs[-1] > FRACOPS_ERR_MAX:
            problems.append(f"fracops error {errs[-1]} > {FRACOPS_ERR_MAX}")
        if min(_orders(errs)) < FRACOPS_ORDER_MIN:
            problems.append(f"fracops observed orders {_orders(errs)}")
        return problems

    def check_solve(self, doc: dict, rows: list[dict[str, float]]) -> list[str]:
        problems = []
        tables = doc["norm_tables"]
        for name, data, thetas in (
            ("u0", self.u0, (0.25, 0.5, 0.75, 1.0)),
            ("u1", self.u1, (-0.25, 0.0, 0.25, 0.5)),
        ):
            for th in thetas:
                got = tables[name][f"theta={th}"]
                want = math.sqrt(math.fsum(self._n ** (8.0 * th) * data**2))
                if _rel(got, want) > NORM_RTOL:
                    problems.append(f"norm_tables {name} theta={th}: {got!r} vs {want!r}")
        for key, value in doc["residuals"].items():
            if not value <= RESIDUAL_MAX:
                problems.append(f"residual {key} = {value} > {RESIDUAL_MAX}")
        if doc["truncation_tail"] != {"u0": 0, "u1": 0}:
            problems.append(f"truncation tail {doc['truncation_tail']} with all modes kept")

        cols = ("norm_l2", "norm_h10", "norm_lap", "norm_gradlap")
        thetas = (0.0, 0.25, 0.5, 0.75)
        if len(rows) != self.csv_times or any(
            _rel(r["t"], t) > 1e-15 for r, t in zip(rows, self._t)
        ):
            return problems + ["solve CSV times differ from linspace(0, 1, 65)"]
        for col, th in zip(cols, thetas):
            if _rel(rows[0][col], float(self.weighted_norm(self.u0, th))) > NORM_RTOL:
                problems.append(f"CSV t=0 {col} {rows[0][col]!r} differs from the u0 norm")
        C = self._e1 * self.u0[None, :] + self._te2 * self.u1[None, :]
        # a kernel error of at most KERNEL_ABS_TOL per value moves each norm
        # by at most KERNEL_ABS_TOL times the same norm of |u0| + t |u1|
        bound_c = np.abs(self.u0)[None, :] + self._t[:, None] * np.abs(self.u1)[None, :]
        for col, th in zip(cols, thetas):
            got = np.array([r[col] for r in rows])
            want = self.weighted_norm(C, th)
            tol = KERNEL_ABS_TOL * self.weighted_norm(bound_c, th) + NORM_RTOL * want
            bad = np.flatnonzero(np.abs(got - want) > tol)
            if bad.size:
                i = int(bad[0])
                problems.append(
                    f"CSV {col} at t={self._t[i]}: {got[i]!r} vs reference {want[i]!r}"
                )
        return problems


# }}}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (IntervalProbe, SquareProbe, Refinement)
}

"""The four benchmark workloads: inputs, operations and their checks.

A workload builds its inputs from the seed, lists its operations as
(operation id, callable) pairs, and checks each operation's output with
perfbench.checks against references it builds apart from the code under
test. Operations call hermlab through module attributes (``spectral.gram_matrix``,
not a name imported once) so that the traced run's wrappers see every call.

Only the control problems' initial states and the measure probes' ball
positions depend on the seed. The spectral constants are functions of the
set and N alone, and the coverings are fixed because their candidate grids
would otherwise change shape from seed to seed; a seed moves a measure
probe only along the axes its slab set is invariant under, so every seed
does the same work.
"""

import math

import numpy as np

from hermlab import control, geometry, spectral
from hermlab.hermite import HermiteExpansion
from hermlab.semigroup import EvolutionSpec

import checks

FAIL_TOL = 1e-7  # Gram refinement tolerance, spectral.gram_matrix's default
CONTROL_TOL = 1e-6  # terminal residual relative to ||f0||


class Workload:
    """Base: a named list of operations with a check for each.

    expected_failures names the operations hit by a known fault of the
    program; they are counted as failed but do not make the run incorrect.
    """

    name = ""
    expected_failures = frozenset()

    def operations(self) -> list:
        raise NotImplementedError

    def warmup(self):
        """One untimed operation before timing, so imports and lazy set-up are done."""
        op_id, fn = self.operations()[0]
        return fn()

    def check(self, op_id: str, output) -> list:
        raise NotImplementedError


def _constant(omega, N):
    G = spectral.gram_matrix(omega, N, fail_tol=FAIL_TOL)
    return G, spectral.spectral_constant(G)


def _total_degree_pairs(N: int) -> np.ndarray:
    """Multi-indices of total degree <= N, degree ascending then lexicographic."""
    return np.array([(i, k - i) for k in range(N + 1) for i in range(k + 1)], dtype=np.int64)


class _GramReferences:
    """1-D Grams through the 1-D path, each checked by the complement law."""

    def __init__(self):
        self._cache = {}

    def complement(self, key, complement, N: int) -> np.ndarray:
        if ("complement", key, N) not in self._cache:
            G = spectral.gram_matrix(complement, N, fail_tol=FAIL_TOL)
            self._cache[("complement", key, N)] = np.asarray(G.entries)
        return self._cache[("complement", key, N)]

    def gram_1d(self, key, omega, complement, N: int):
        """(Gram, complement-law failures) of a 1-D set at degree N."""
        if (key, N) not in self._cache:
            G = np.asarray(spectral.gram_matrix(omega, N, fail_tol=FAIL_TOL).entries)
            errs = checks.complement_law(G, self.complement(key, complement, N), FAIL_TOL)
            self._cache[(key, N)] = (G, [f"{key} N={N}: {e}" for e in errs])
        return self._cache[(key, N)]


def _interval_complement(intervals) -> list:
    """Gaps of a union of intervals on the whole line, infinite ends included."""
    iv = sorted((float(a), float(b)) for a, b in intervals)
    out, cursor = [], -math.inf
    for a, b in iv:
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    out.append((cursor, math.inf))
    return out


# -- spectral-2d ---------------------------------------------------------------

PERIODIC_2D = geometry.PeriodicPattern(dim=2, period=4.0, kept=0.25)
PERIODIC_1D = geometry.PeriodicPattern(dim=1, period=4.0, kept=0.25)
PERIODIC_1D_COMPLEMENT = geometry.PeriodicPattern(dim=1, period=4.0, kept=0.75, offset=1.0)
BOXES_2D = np.array(
    [[[-3.0, -1.0], [-2.0, 2.0]], [[0.0, 2.0], [-4.0, -1.0]], [[1.0, 4.0], [1.0, 3.0]]]
)


class Spectral2D(Workload):
    """2-D restriction constants; references are tensor products of 1-D Grams.

    spectral.min_eigenvalue, which serves every 2-D constant, converges to an
    interior eigenvalue on four of these operations; they fail until the
    2-D path gets a bottom-guaranteed solve.
    """

    name = "spectral-2d"
    expected_failures = frozenset({"periodic-N12", "periodic-N16", "periodic-N24", "boxes-N20"})

    def __init__(self, seed: int):
        self.omega_boxes = geometry.BoxUnion(2, BOXES_2D)
        self.refs = _GramReferences()
        self._ref2d = {}

    def operations(self):
        ops = [(f"periodic-N{N}", lambda N=N: _constant(PERIODIC_2D, N)) for N in (8, 12, 16, 20, 24)]
        ops += [(f"boxes-N{N}", lambda N=N: _constant(self.omega_boxes, N)) for N in (8, 20)]
        return ops

    def warmup(self):
        return _constant(PERIODIC_2D, 4)

    def _factors(self, kind: str, N: int):
        """(x-Gram, y-Gram) pairs whose tensor products sum to the 2-D Gram."""
        if kind == "periodic":
            G1, errs = self.refs.gram_1d("periodic", PERIODIC_1D, PERIODIC_1D_COMPLEMENT, N)
            return [(G1, G1)], errs
        pairs, errs = [], []
        for b, box in enumerate(BOXES_2D):
            axes = []
            for ax in range(2):
                lo, hi = box[ax]
                Gax, e = self.refs.gram_1d(
                    f"box{b}-axis{ax}",
                    geometry.interval_union([(lo, hi)]),
                    geometry.interval_union(_interval_complement([(lo, hi)])),
                    N,
                )
                axes.append(Gax)
                errs += e
            pairs.append(tuple(axes))
        return pairs, errs

    def reference(self, op_id: str) -> tuple:
        if op_id not in self._ref2d:
            kind, n = op_id.split("-N")
            N = int(n)
            a = _total_degree_pairs(N)
            i1, i2 = a[:, 0], a[:, 1]
            factors, errs = self._factors(kind, N)
            G_ref = sum(Gx[i1[:, None], i1[None, :]] * Gy[i2[:, None], i2[None, :]] for Gx, Gy in factors)
            self._ref2d[op_id] = (G_ref, errs)
        return self._ref2d[op_id]

    def check(self, op_id, output):
        G, res = output
        G_ref, errs = self.reference(op_id)
        entries = np.asarray(G.entries)
        return (
            list(errs)
            + checks.gram_matches(entries, G_ref, FAIL_TOL)
            + checks.lambda_weyl(res.lambda_min, entries, G_ref)
            + checks.constant_matches(res.constant, res.lambda_min)
        )


# -- spectral-1d ---------------------------------------------------------------

THICK_SET = geometry.graded_cells(geometry.DensityFn.power(1.0, 0.5), gamma=0.5, extent=30.0)
THICK_EPSILON = 0.5


class Spectral1D(Workload):
    """1-D scans: the paper's thick set to N=400 with its growth fit, and a periodic set."""

    name = "spectral-1d"

    def __init__(self, seed: int):
        kept = THICK_SET.boxes[:, 0, :]
        self.sets = {
            "thick": (THICK_SET, geometry.interval_union(_interval_complement(kept)), range(25, 401, 25)),
            "periodic": (PERIODIC_1D, PERIODIC_1D_COMPLEMENT, range(25, 151, 25)),
        }
        self.refs = _GramReferences()

    def _scan(self, key: str):
        omega, _, Ns = self.sets[key]
        rows = [(N, *_constant(omega, N)) for N in Ns]
        fit = None
        if key == "thick":
            fit = spectral.growth_fit([(N, res.constant) for N, _, res in rows], THICK_EPSILON)
        return rows, fit

    def operations(self):
        return [("periodic-scan", lambda: self._scan("periodic")), ("thick-scan", lambda: self._scan("thick"))]

    def warmup(self):
        return _constant(PERIODIC_1D, 25)

    def check(self, op_id, output):
        key = op_id.split("-")[0]
        omega, complement, _ = self.sets[key]
        rows, fit = output
        out, Ns, Cs, lam_errs = [], [], [], []
        for N, G, res in rows:
            entries = np.asarray(G.entries)
            errs = checks.complement_law(entries, self.refs.complement(key, complement, N), FAIL_TOL)
            errs += checks.lambda_1d(res.lambda_min, entries)
            errs += checks.rayleigh_certificate(res.lambda_min, res.extremizer, np.asarray(G.factor))
            errs += checks.constant_matches(res.constant, res.lambda_min)
            out += [f"N={N}: {e}" for e in errs]
            Ns.append(N)
            Cs.append(res.constant)
            sigma_max = math.sqrt(float(np.linalg.norm(entries, 2)))
            lam_errs.append(checks.svd_lambda_error(res.lambda_min, sigma_max, entries.shape[0]))
        out += checks.nondecreasing(Ns, Cs, lam_errs)
        if fit is not None:
            out += checks.growth_fit_matches(Ns, Cs, THICK_EPSILON, fit.slope, fit.intercept)
        return out


# -- control-1d ----------------------------------------------------------------

CONTROL_SET = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5)
CONTROL_COMPLEMENT = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5, offset=1.0)
CONTROL_T = 1.0


class Control1D(Workload):
    """Dyadic null-control synthesis, replayed with matrix exponentials."""

    name = "control-1d"

    def __init__(self, seed: int):
        rng = np.random.default_rng(abs(seed))
        self.problems = {}
        for N in (25, 50, 80):
            for s in (0.75, 1.0):
                c = rng.standard_normal(N + 1)
                f0 = HermiteExpansion(1, N, c / np.linalg.norm(c))
                self.problems[f"s{s}-N{N}"] = control.ControlProblem(
                    T=CONTROL_T, omega=CONTROL_SET, spec=EvolutionSpec(s=s, dim=1), N=N, f0=f0
                )
        self.refs = _GramReferences()

    def operations(self):
        return [
            (op_id, lambda p=p: control.lebeau_robbiano_synthesize(p, tol=CONTROL_TOL))
            for op_id, p in self.problems.items()
        ]

    def check(self, op_id, output):
        signal, trace = output
        p = self.problems[op_id]
        G, errs = self.refs.gram_1d("control", CONTROL_SET, CONTROL_COMPLEMENT, p.N)
        lam = (2.0 * np.arange(p.N + 1) + 1.0) ** p.spec.s
        f0 = np.asarray(p.f0.coeffs)
        terminal = checks.replay_terminal(lam, G, f0, signal.stage_data, p.T)
        windows = [tuple(st["interval"]) for st in trace["stages"]]
        return list(errs) + checks.control_law(terminal, f0, CONTROL_TOL, windows, p.T, signal.total_cost)


# -- geometry ------------------------------------------------------------------

COVER_2D = (geometry.DensityFn.constant(1.0), ((-12.0, 12.0), (-12.0, 12.0)))
COVER_1D = (geometry.DensityFn.power(1.0, 0.5), ((-100.0, 100.0),))
SLABS = ((-3.0, -1.5), (-0.5, 0.7), (1.6, 2.9))
# (dimension, position across the slabs, radius, rel_tol) of each probe ball.
# The 3-D path recurses into the 2-D one and takes 17 to 43 s per call at
# rel_tol 1e-6, so the 3-D probe runs at 1e-5 (about 3 s). Several 3-D balls
# miss their rel_tol (see CHANGES.md); this one meets it on every seed.
PROBES = ((2, 0.2, 2.5, 1e-6), (2, -1.0, 1.3, 1e-6), (2, 1.9, 0.8, 1e-6), (2, 0.0, 4.0, 1e-6), (3, -0.2, 0.9, 1e-5))


def _slab_set(dim: int) -> geometry.BoxUnion:
    """Union of slabs {a <= x_last <= b}, unbounded along the other axes."""
    boxes = [[(-math.inf, math.inf)] * (dim - 1) + [(a, b)] for a, b in SLABS]
    return geometry.BoxUnion(dim, np.array(boxes, dtype=np.float64))


def _density_at(rho: geometry.DensityFn, grid: np.ndarray) -> np.ndarray:
    r = np.abs(grid[:, 0]) if grid.shape[1] == 1 else np.linalg.norm(grid, axis=-1)
    if rho.kind == "constant":
        return np.full(grid.shape[0], rho.m)
    return rho.R * (1.0 + r * r) ** ((1.0 - rho.eps) / 2.0)


class Geometry(Workload):
    """Greedy coverings and ball-slab intersection measures in 2-D and 3-D."""

    name = "geometry"

    def __init__(self, seed: int):
        rng = np.random.default_rng(abs(seed))
        # the seed slides each ball along the slabs, which leaves the work unchanged
        self.balls = {}
        for k, (dim, across, r, tol) in enumerate(PROBES):
            center = np.append(rng.uniform(-10.0, 10.0, size=dim - 1), across)
            self.balls[f"measure-{dim}d-{k}"] = (_slab_set(dim), center, r, tol)
        self.covers = {"cover-2d": COVER_2D, "cover-1d": COVER_1D}

    def operations(self):
        ops = [(k, lambda v=v: geometry.intersection_measure(*v)) for k, v in self.balls.items()]
        ops += [(k, lambda v=v: geometry.covering_generate(v[0], list(v[1]))) for k, v in self.covers.items()]
        return ops

    def check(self, op_id, output):
        if op_id in self.covers:
            rho, box = self.covers[op_id]
            grid = checks.box_grid(box, output.grid_step)
            return checks.covering_law(
                grid, _density_at(rho, grid), output.centers, output.radii,
                output.max_multiplicity, output.overlap_bound,
            )
        omega, center, r, tol = self.balls[op_id]
        exact = checks.slab_measure(omega.dim, center, r, SLABS)
        return checks.measure_matches(output, exact, checks.ball_volume(omega.dim, r), tol)


WORKLOADS = {w.name: w for w in (Spectral2D, Spectral1D, Control1D, Geometry)}

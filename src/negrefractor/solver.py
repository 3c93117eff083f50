"""Discrete construction: tune the sheet parameters until the envelope
delivers the prescribed energy to every target.

The anchor target (index 0) keeps a fixed parameter b1 and absorbs the energy
surplus left over by Fresnel reflection.  For every other target, the energy
G_j responds to its own parameter b_j in one sense (strong regime: max
envelope, G_j increasing; mild/critical: min envelope, G_j decreasing), so a
Gauss-Seidel sweep of per-coordinate bisections drives G_j -> g_j.  A strong
G_j falls past a peak, where sheet j owns nearly the whole aperture and its
Fresnel transmittance drops; the solver assumes every target lies below it.

A dyadic refinement driver approximates a continuous target density by atom
sets that halve in diameter per level, re-solving at each level from the
coarser level's solved surface; the solved radial functions converge
uniformly, which the report tracks as sup-node differences between
consecutive levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import detmath, fresnel, ovals, refractor
from .fresnel import AdmissibilityMargin, MediumPair
from .geometry import QuadratureRule, SourceDomain, _orthonormal_frame, build_quadrature, unit
from .ovals import Regime, support_from_dots
from .refractor import (
    ConfigurationError,
    EmissionDensity,
    FieldEvaluation,
    RefractorState,
    TargetSpec,
    assign_envelope,
    envelope_sense,
    owned,
    refraction_cosine,
    sheet_radii,
)

# Relative margins keeping bisection strictly inside open admissible ranges
# (_EDGE) and below the aperture cut (_CUT_MARGIN, `_search_ranges`).
_EDGE = 1e-12
_CUT_MARGIN = 1e-9
# Early bisection decisions: the fewest candidates worth splitting into a
# head and a rest, and the float64 machine epsilon.
_EARLY_MIN = 1024
_EPS = float(np.finfo(float).eps)
# Coordinate visits cull the nodes in tiles of this many consecutive ones on
# rules of at least _CULL_MIN nodes; on fewer, bounds cost more than they spare.
_TILE, _CULL_MIN = 16, 16384


class ValidationFailure(ValueError):
    """A standing assumption fails; solving is refused."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(r.name for r in report.records if r.status == "fail")
        super().__init__(f"validation failed: {failed}")


class InfeasibleGeometryError(ValueError):
    """No admissible parameter assignment can realize the requested state."""


@dataclass(frozen=True)
class Tolerances:
    """measure_tol is relative to the total target mass; b_tol is relative to
    each |P_j|."""

    measure_tol: float = 1e-4
    b_tol: float = 1e-10
    max_outer: int = 200


@dataclass(frozen=True)
class ProblemConfig:
    domain: SourceDomain
    density: EmissionDensity
    medium: MediumPair
    margin: AdmissibilityMargin
    targets: TargetSpec
    b1: float
    tau: float
    r0: float
    quadrature_level: int = 8
    tolerances: Tolerances = field(default_factory=Tolerances)

    def rule(self) -> QuadratureRule:
        return build_quadrature(self.domain, self.quadrature_level)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # "ok" | "warn" | "fail"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    records: tuple
    c_eps: float
    mu_total: float
    flux_total: float
    surplus_ratio: float
    regime: Regime

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "regime": self.regime.value,
            "c_eps": self.c_eps,
            "mu_total": self.mu_total,
            "flux_total": self.flux_total,
            "surplus_ratio": self.surplus_ratio,
            "records": [
                {"name": r.name, "status": r.status, "detail": r.detail}
                for r in self.records
            ],
        }


def _cosine_minima(rule: QuadratureRule, targets: TargetSpec) -> np.ndarray:
    """Each target's minimum of x . P_j / |P_j| over the quadrature nodes."""
    unit_targets = targets.points / targets.norms[:, None]
    return np.array([detmath.dot_rows(rule.nodes, u).min() for u in unit_targets])


def validate(config: ProblemConfig, rule: QuadratureRule | None = None) -> ValidationReport:
    """Numerical check of every standing assumption; never raises.

    Each record names the assumption it checks; failures carry the violating
    numbers.  The a-priori strong-regime anchor window is reported as a
    warning when violated, because that window is empty for every geometry
    (its constant uses a sphere-wide radius bound where only the aperture
    matters); the operational anchor checks (admissibility, aperture
    coverage, verified inactive initialization) are enforced instead.
    """
    rule = rule or config.rule()
    med, tgt = config.medium, config.targets
    k = med.kappa
    reg = med.regime
    records: list[CheckRecord] = []

    def add(name, ok, detail, warn_only=False):
        status = "ok" if ok else ("warn" if warn_only else "fail")
        records.append(CheckRecord(name, status, detail))

    letter = {Regime.STRONG: "A", Regime.MILD: "B", Regime.CRITICAL: "C"}[reg]
    n_cone, n_r0, n_f, n_sep, n_ang, n_sur = (
        letter + suffix for suffix in ("0-1", "0-2", "1", "3", "4", "5")
    )

    cos_mins = _cosine_minima(rule, tgt)
    cos_min = float(cos_mins.min())
    p_min = float(tgt.norms.min())
    p_max = float(tgt.norms.max())

    # cone condition linking aperture, targets and the slack tau
    if reg.lossless:
        add(n_cone, True, "no cone slack needed at kappa = -1 (window is the full sphere)")
        add(n_r0, config.r0 > 0.0, f"r0={config.r0} must be positive")
    else:
        if reg is Regime.STRONG:
            tau_cap, floor, label = 1.0 - 1.0 / k, config.tau + 1.0 / k, "tau + 1/kappa"
            # squares as products: pow() need not be correctly rounded
            s2 = 1.0 + math.sqrt(2.0)
            r0_cap = (config.tau * config.tau) * (k * k) / ((s2 * s2) * ((1.0 - k) * (1.0 - k))) * p_min
        else:  # per-target: x.P >= (tau-k)|P|
            tau_cap, floor, label = 1.0 + k, config.tau - k, "tau - kappa"
            r0_cap = config.tau / (1.0 - k) * p_min
        tau_ok = 0.0 < config.tau < tau_cap
        cone_ok = cos_min >= floor
        add(
            n_cone,
            tau_ok and cone_ok,
            f"tau={config.tau} in (0, {tau_cap}): {tau_ok}; "
            f"min x.P/|P| = {cos_min} >= {label} = {floor}: {cone_ok}",
        )
        add(
            n_r0,
            0.0 < config.r0 < r0_cap,
            f"r0={config.r0} must lie in (0, {r0_cap})",
        )

    # source density floor
    f_vals = config.density.values_on(rule)
    f_floor = float(f_vals.min())
    add(n_f, f_floor > 0.0, f"inf f over nodes = {f_floor}")

    # anchor separation has no quantitative threshold; report and proceed
    if tgt.count > 1:
        sep = float(np.min(detmath.norm_rows(tgt.points[1:] - tgt.points[0])))
        add(n_sep, sep > 0.0, f"min anchor separation = {sep} (no threshold known)", warn_only=True)
    else:
        add(n_sep, True, "single target")

    # angular admissibility of every target from every aperture direction
    try:
        threshold = config.margin.window(k)[0]
    except ValueError as exc:  # the margin empties the window
        threshold = None
        add(n_ang, False, str(exc))
    if reg.lossless:
        add(n_ang, True, "every direction pair refracts at kappa = -1")
    elif threshold is not None:
        add(
            n_ang,
            cos_min >= threshold,
            f"min x.P/|P| = {cos_min} >= {threshold}",
        )

    # energy surplus against the uniform reflectance bound; an empty window
    # has none below the trivial C_eps = 1
    flux = math.fsum(rule.weights * f_vals)
    if threshold is None:
        c_eps = 1.0
        add(n_sur, False, "no reflectance bound below 1 over an empty window")
    else:
        c_eps = fresnel.reflectance_bound(med, config.margin)
        needed = tgt.total / (1.0 - c_eps)
        add(n_sur, flux >= needed, f"emitted flux {flux} >= {needed} = mu/(1 - C_eps)")

    # anchor parameter
    adm = ovals.admissible_b(tgt.points[0], k)
    add(
        "anchor-admissible",
        adm.contains(config.b1),
        f"b1={config.b1} must lie in ({adm.lo}, {adm.hi})"
        + ("]" if adm.closed else ")"),
    )

    p1 = float(tgt.norms[0])
    if reg is Regime.STRONG:
        alpha = -k * math.sqrt((k - 1.0) / (k + 1.0)) * p_max
        lo = k * p1 + alpha
        add(
            "anchor-window",
            lo <= config.b1 < p1,
            f"literal window [{lo}, {p1}) is "
            + ("nonempty" if lo < p1 else "empty for every admissible b1")
            + "; enforced operationally via aperture coverage and verified"
            " inactive initialization",
            warn_only=True,
        )
    elif reg is Regime.MILD:
        hi = k * p1 + config.r0 * (1.0 + k)
        add(
            "anchor-window",
            k * p1 < config.b1 <= hi,
            f"b1={config.b1} must lie in ({k * p1}, {hi}]",
        )
    else:
        add("anchor-window", True, f"|b1| <= |P1|: {abs(config.b1)} <= {p1}")

    # the anchor sheet must be evaluable on the whole aperture
    anchor_cos = cos_mins[0]
    if adm.contains(config.b1):
        if reg is Regime.STRONG:
            cut = ovals.support_cut(
                ovals.OvalParams(tgt.points[0], config.b1, k)
            )
            add(
                "anchor-coverage",
                float(anchor_cos) >= cut,
                f"min x.P1/|P1| = {anchor_cos} >= support cut {cut}",
            )
        else:
            # the mild sheet exists where x.P1 >= b1, the critical one where x.P1 > b1
            op = ">" if reg.lossless else ">="
            reach = float(anchor_cos) * p1
            add(
                "anchor-coverage",
                reach > config.b1 if reg.lossless else reach >= config.b1,
                f"min x.P1 = {reach} {op} b1 = {config.b1}",
            )

    if reg.lossless and med.sigma != 1.0:
        add(
            "impedance-critical",
            False,
            f"sigma={med.sigma} != 1 at kappa=-1: zero reflection is assumed anyway",
            warn_only=True,
        )

    # worst-case refraction-cosine erosion: the surface sits within r0 of the
    # origin, so x.m can undercut x.P/|P| by an r0-sized amount.  For
    # r0 < min |P| the bound (c|P| - r0)/(|P| +- r0) is non-decreasing in c
    # under rounding: each rounded step is monotone, and a negative numerator
    # always maps below a non-negative one.  So its minimum over the nodes is
    # its value at each target's least cosine, bit for bit.  A larger r0 has
    # no such bound, and the r0 record (its cap lies below min |P|) fails it.
    if not reg.lossless and threshold is not None and config.r0 < p_min:
        num = cos_mins * tgt.norms - config.r0
        den = np.where(num >= 0.0, tgt.norms + config.r0, tgt.norms - config.r0)
        eroded = float((num / den).min())
        add(
            "margin-erosion",
            eroded >= threshold,
            f"conservative min x.m = {eroded} vs window floor {threshold}",
            warn_only=True,
        )

    mu = tgt.total
    ratio = flux * (1.0 - c_eps) / mu if mu > 0 else math.inf
    return ValidationReport(
        records=tuple(records),
        c_eps=c_eps,
        mu_total=mu,
        flux_total=flux,
        surplus_ratio=ratio,
        regime=reg,
    )


# ---------------------------------------------------------------------------
# search ranges
# ---------------------------------------------------------------------------

def _strong_cut_cap(p: np.ndarray, kappa: float, cos_min: np.ndarray) -> np.ndarray:
    """Largest b keeping each strong sheet's support cut outside the aperture."""
    k2 = kappa * kappa
    return p * (cos_min - np.sqrt((k2 - 1.0) * np.maximum(1.0 - cos_min * cos_min, 0.0)))


def _search_ranges(config: ProblemConfig, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Search range [lo_j, hi_j] of every b_j on a rule: the admissible range
    less a relative margin, under the aperture cover's cap (mild: and the
    cone slack's) and, mild, over the anchor's floor.  The anchor's entry is
    unused; the sweeps refuse an empty range.

    A strong sheet with radius <= r0 somewhere has b >= r0(1 + kappa) +
    kappa|P| (triangle inequality; 1 + kappa < 0).  That floor never binds:
    for r0 > 0 the product is <= 0, also where it underflows, so the rounded
    sum is at most kappa|P|, which the floor kappa|P| + _EDGE|P| never undercuts.
    """
    k, reg = config.medium.kappa, config.medium.regime
    p = config.targets.norms
    cos_min = _cosine_minima(rule, config.targets)
    if reg is Regime.STRONG:
        lo = k * p + _EDGE * p
        # back off the aperture-coverage cap: at the cap itself the rim rays
        # refract at the critical cosine
        hi = np.minimum(_strong_cut_cap(p, k, cos_min) - _CUT_MARGIN * p, p - _EDGE * p)
    elif reg is Regime.MILD:
        floor = k * p + (1.0 + k) * (config.b1 - k * p[0]) / (1.0 - k)
        lo = np.maximum(k * p + _EDGE * p, floor)
        hi = np.minimum((config.tau - k) * p, cos_min * p - _CUT_MARGIN * p)
    else:
        lo = -p + _CUT_MARGIN * p
        hi = np.minimum(p - _EDGE * p, cos_min * p - _CUT_MARGIN * p)
    return lo, hi


# ---------------------------------------------------------------------------
# initialization: only the anchor sheet active
# ---------------------------------------------------------------------------

def init_state(config: ProblemConfig, rule: QuadratureRule | None = None) -> RefractorState:
    """Parameters that make every non-anchor sheet inactive, verified on the
    quadrature (all non-anchor measures exactly zero).  That `measures` call
    is the check that every sheet, anchor first, is evaluable on every node
    (ConfigurationError names the first that is not); one target is [b1].

    A strong sheet parks at the floor of its admissible range, kappa|P| +
    _EDGE|P|, the floor of its search range (`_search_ranges`).  There it
    lies within its rim radius sqrt((kappa^2|P|^2 - b^2)/(kappa^2 - 1)) of
    the source (about 1.5e-6|P| at kappa = -1.5; criterion 4's h_max), and
    its support cut 1/kappa + O(1e-6) lies below every aperture cosine by
    validate's strong cone record.  So it owns no node and enters no tie
    band, and the sweeps cannot tell where it parked: its start energy is 0
    and a visit's result and count do not depend on its start.
    """
    rule = rule or config.rule()
    state = RefractorState(config.medium, config.targets, _parked(config, rule))
    G = refractor.measures(state, rule, config.density)
    if np.any(G[1:] != 0.0):
        hint = "; lower b1" if config.medium.regime.lossless else ""
        raise InfeasibleGeometryError(
            f"initialization leaves non-anchor energy {G[1:]}{hint}"
        )
    return state


def _parked(config: ProblemConfig, rule: QuadratureRule) -> np.ndarray:
    """The parameters `init_state` verifies: b1, then each non-anchor sheet
    parked."""
    tgt, k = config.targets, config.medium.kappa
    b = np.empty(tgt.count)
    b[0] = config.b1
    p = tgt.norms[1:]
    if config.medium.regime is Regime.STRONG:
        b[1:] = k * p + _EDGE * p
    elif config.medium.regime.lossless:
        # critical: push each sheet up toward its aperture cut
        b[1:] = np.minimum(_cosine_minima(rule, tgt)[1:] * p - 1e-6 * p, p * (1.0 - _EDGE))
    else:
        b[1:] = (config.tau - k) * p
    return b


# ---------------------------------------------------------------------------
# Gauss-Seidel solve
# ---------------------------------------------------------------------------

@dataclass
class SolveReport(refractor.Report):
    status: str
    b: np.ndarray
    measures: np.ndarray
    residuals: np.ndarray
    anchor_surplus: float
    mu_total: float
    measure_tol_abs: float
    min_rho: float
    max_rho: float
    r0: float
    sweeps: list
    state: RefractorState
    validation: ValidationReport
    field: FieldEvaluation  # the final state's field on the final rule

    _UNREPORTED = ("state", "validation", "field")

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _CoordinateWorkspace:
    """Exact single-sheet energy G_j(b) with all other sheets frozen.

    Node x belongs to sheet j iff sheet j is within the tie band of the
    envelope and no lower-indexed sheet is: the lowest-index rule of the full
    envelope assignment.  A coordinate visit bisects G_j some 45 levels deep
    but probes it only a few times (`_bisect_coordinate`); every probe, the
    start energy included, looks only at the candidate nodes of `begin`.
    Four facts keep every probe bit-identical to a pass over all nodes.

    Superset.  Let `low` / `other` be the envelope of the lower-indexed / of
    all other sheets, c the tie factor of `refractor.envelope_sense`, home of
    the rule with `owned` (1 - TIE_TOL max envelope, 1 + TIE_TOL min), and
    r* = other c where that lies above `low` (min: below), else low / c.
    Rounding is monotone, so a node owned at b has h(x) >= r* (1 - 2 eps)
    (min: h <= r* (1 + 2 eps)).  Along x the sheet through radius h has
    parameter b(h) = h + kappa |h x - P| (critical: h - |h x - P|), and
    sheet j reaches r* at the switch parameter s(x) = b(r*).  The mild and
    critical b(h) grow with h; the strong one grows up to the support rim
    along x and falls past it, and a supported radius is the smaller root,
    on the rising side.  So at any b at which sheet j is supported on every
    node (`_check_support` runs first), on the search range or off it as a
    parked or carried-over start b_j may be, x can be owned only if
    s(x) <= b + slack (min: s(x) >= b - slack); an r* past the rim is then
    within a few ulp of it, where b(h) is flat.  `slack` is 1e-7 of the b
    scale: far above the rounding of s and the b-space error of the
    computed radius (a few ulp of that scale, also where the discriminant is
    clipped at a rim-tangent ray), and far below the spread of the switch
    values, so it adds next to no nodes.  The owned nodes, their radii and
    their Fresnel terms are computed elementwise from the same values, in
    node order, so the sum sees the same array and returns the same bits.

    Culling.  Switch values are computed only on the tiles of `_TILE` nodes
    whose bound lets a candidate through.  With s(h, d) = b(h) at d = x . P,
    ds/dd = -kappa h / |h x - P| > 0 and s is concave in h (d2s/dh2 = kappa
    (|P|^2 - d^2) / |h x - P|^3).  Max envelope: on a tile with `other` in
    [o_lo, o_hi] and d >= d_lo, r* lies in [o_lo c, o_hi / c], so s >=
    min(s(o_lo c, d_lo), s(o_hi / c, d_lo)).  Min: ds/dh >= 1 - |kappa| >= 0
    and r* <= o_hi c, so s <= s(o_hi c, d_hi).  The corners round as the
    nodes do, so a tile whose bound clears b + slack by one more |slack|, far
    above the rounding of s, holds no candidate at b.  A prediction reads
    the tiles live at b, and toward more ownership those next in the order
    of their bounds, until none left out can hold a value before its answer.

    Support.  `ovals.support_from_dots` decides support from d = x . P alone,
    and its computed mask holds on an interval of d in every regime, so
    `supported` tests it on the smallest and the largest d only, for one b
    or for an array of b with the same bits.  The candidates' radii then
    come from `ovals.radius_from_dots` without a mask, and the Fresnel
    window check runs on the owned nodes' cosines only: every other node's
    term is 0.

    Early decisions.  A bisection only asks whether G_j(b) reaches a target
    (`at_least`).  Every term w f t is >= 0, and a float sum of n >= 0 terms,
    in any order, is within n eps/2 of their exact sum (relative).  So once
    the float sum s of a head of the n candidates has s (1 - 4 n eps) >=
    target (> if strict), the float sum over all of them does too, and the
    other terms are never computed.  The head is fixed before any term is:
    the candidates among the first nodes whose w f sums to twice the target,
    which decides the probes where sheet j owns most of the aperture.

    The window check cannot fire on the search range, so neither the
    skipped terms nor the points a predicted visit skips would raise there.
    The critical regime has none.  Strong: every b lies at least _CUT_MARGIN
    |P| = 1e-9 |P| below the aperture cut cap (`_search_ranges`), which keeps
    the discriminant >= kappa^2 (1e-9 |P|)^2 on every node, so the refraction
    cosine exceeds 1/kappa by sqrt(disc) / (kappa^2 |z - P|) > 1e-10.  Mild:
    for any point z = h x, c - kappa = (d - b(h)) / |z - P| with
    b(h) = h + kappa |z - P| the parameter of the sheet through z, and every
    b lies at least _CUT_MARGIN |P| below the least d; the computed radius
    moves b(h) by a few ulp of the b scale only, so c - kappa > 1e-9 |P| /
    |z - P| less that, > 1e-10.  Both margins are far beyond the check's
    1e-12 slack and the few-ulp rounding of the computed cosine.  Its upper
    end holds because c <= 1 exactly (Cauchy-Schwarz) and the computed cosine is
    within a few ulp of (|P| + h)^2 / |z - P|^2 (relative) of it, while
    |z| + kappa |z - P| = b with |z| >= |P| - |z - P| keeps every sheet
    point at |z - P| >= (|P| - b) / (1 - kappa) > (1 - cos_min) |P| / (1 -
    kappa) from the target.
    `test_search_ranges_keep_every_check_quiet` probes a dense b-grid of
    every range on the criterion-5 fixtures' solved states.
    """

    def __init__(self, config: ProblemConfig, rule: QuadratureRule, H: np.ndarray, wf: np.ndarray):
        self.config = config
        self.rule = rule
        self.H = H
        self.wf = wf  # weights * density values
        self.reach = np.cumsum(wf)
        self.kappa = config.medium.kappa
        self.regime = regime = config.medium.regime
        self.sense = envelope_sense(regime)
        self.lossless = regime.lossless
        self.width = math.gcd(rule.count, _TILE) if rule.count >= _CULL_MIN else rule.count
        self.end_sweep()

    def end_sweep(self):
        """Drop the envelopes kept across visits; call it whenever rows of H
        change other than row j during visit j of a sweep."""
        self.after = self.high = None  # `high` is a view into `after`
        self.low_rows = None  # the leading rows of H that `low` covers

    def begin(self, j: int):
        """Envelopes of the lower-indexed (`low`), the higher-indexed
        (`high`) and all other (`other`) sheets, and the tiles' bounds.

        A sweep visits j = 1, 2, ... in order and rewrites only row j during
        visit j, so `low` folds in the previous visit's final row, and the
        envelopes of the rows after each j, taken at the first visit, stay
        valid until `end_sweep`.  Max and min are exact, so folding rows in
        any order gives the same envelope.
        """
        self.j = j
        H, sense = self.H, self.sense
        if self.after is None:
            self.after = np.empty_like(H)
            self.after[-1] = sense.empty
            for k in range(H.shape[0] - 2, -1, -1):
                sense.fold(self.after[k + 1], H[k + 1], out=self.after[k])
        if self.low_rows == j - 1:
            self.low = sense.fold(self.low, H[j - 1])
        else:
            self.low = sense.fold.reduce(H[:j], axis=0, initial=sense.empty)
        self.low_rows = j
        self.high = self.after[j]
        self.other = sense.fold(self.low, self.high)
        self.P = self.config.targets.points[j]
        self.p2 = detmath.dot(self.P, self.P)
        self.dots = detmath.dot_rows(self.rule.nodes, self.P)
        self.d_min, self.d_max = float(self.dots.min()), float(self.dots.max())
        # signed: b + slack reaches s(x) (>=; min: <=) at every node owned at b
        self.slack = sense.sign * 1e-7 * (1.0 - self.kappa) * math.sqrt(self.p2)
        self.margin, self.reached = 2.0 * abs(self.slack), -math.inf
        if self.width == self.dots.size:  # one tile: every node's switch value now
            self.key, self.reached, self.idx = np.full(1, -math.inf), math.inf, np.arange(self.dots.size)
            self.sw = self._switch(self.low, self.other, self.dots)
            return
        # each tile's lower bound on sign s (Culling), from extremes in contiguous rows
        other, dots = (np.ascontiguousarray(a.reshape(-1, self.width).T) for a in (self.other, self.dots))
        d = (dots.min if sense.sign > 0 else dots.max)(axis=0)
        h = (np.concatenate((other.min(axis=0) * sense.tie, other.max(axis=0) / sense.tie))
             if sense.sign > 0 else other.max(axis=0) * sense.tie)
        s = ovals.parameter_from_dots(self.regime, self.kappa, self.p2, h.reshape(-1, d.size), d)
        self.key = np.fmax(sense.sign * s.min(axis=0), -math.inf)  # a NaN bound: always live

    def _switch(self, low, other, dots) -> np.ndarray:
        """Switch values s(r*) of the nodes with these envelopes and dots."""
        edge = other * self.sense.tie
        r = np.where(self.sense.reaches(low, edge), low / self.sense.tie, edge)
        return ovals.parameter_from_dots(self.regime, self.kappa, self.p2, r, dots)

    def _live(self, x: float) -> np.ndarray:
        """Every node of the tiles whose key is at most x, in node order."""
        tiles = np.flatnonzero(self.key <= x)
        return (tiles[:, None] * self.width + np.arange(self.width)).ravel()

    def _cover(self, x: float):
        """Evaluate `sw` on the nodes `idx` of the tiles live at x and a margin on."""
        if x > self.reached:
            self.idx = self._live(x + self.margin)
            self.reached = x + self.margin if self.idx.size < self.dots.size else math.inf
            self.sw = self._switch(self.low[self.idx], self.other[self.idx], self.dots[self.idx])

    def _nodes(self, b: float) -> np.ndarray:
        """Candidate nodes at b, in node order: a superset of those owned."""
        self._cover(self.sense.sign * b + self.margin)
        return self.idx[self.sense.reaches(b + self.slack, self.sw)]

    def supported(self, b) -> bool:
        """Whether sheet j is supported on every node at b, or at every b of
        an array: at the smallest and the largest d."""
        args = (self.regime, self.kappa, self.p2, b)
        lo, hi = support_from_dots(*args, self.d_min), support_from_dots(*args, self.d_max)
        return bool(lo and hi) if isinstance(b, float) else bool(np.all(lo & hi))

    def _check_support(self, b: float):
        """Raise unless sheet j is supported on every node at b."""
        if not self.supported(b):
            raise ConfigurationError(f"sheet {self.j} left its support region at b={b}")

    def _terms(self, b: float, nodes) -> np.ndarray:
        """Terms w f t of the given nodes that sheet j owns at b, in node
        order; the caller has checked that the sheet is supported at b."""
        dots = self.dots[nodes]
        h = ovals.radius_from_dots(self.regime, self.kappa, self.p2, b, dots)
        mine = owned(h, self.low[nodes], self.other[nodes], self.sense)
        wf = self.wf[nodes][mine]
        if self.lossless or not wf.size:
            return wf
        c = refraction_cosine(self.p2, h[mine], dots[mine])
        return wf * fresnel.transmittance(c, self.config.medium)

    def energy(self, b: float) -> float:
        self._check_support(b)
        return float(self._terms(b, self._nodes(b)).sum())

    def at_least(self, b: float, target: float, strict: bool = False) -> bool:
        """Whether G_j(b) >= target (> if strict), on the candidates."""
        self._check_support(b)
        covered = (x := self.sense.sign * b + self.margin) <= self.reached
        # the candidates, or all nodes of the live tiles not evaluated yet
        # (`_terms` keeps the owned ones): n bounds the candidates either way
        live = self._nodes(b) if covered else self._live(x)
        n, cut = live.size, 0
        if n >= _EARLY_MIN:
            # the head: those up to where w f sums to twice the target
            last = self.reach.searchsorted(2.0 * target)
            cut = int(live.searchsorted(last, side="right"))
        if 0 < cut < n:
            head = self._terms(b, live[:cut])
            bound = float(head.sum()) * (1.0 - 4.0 * n * _EPS)
            if bound > target or (bound == target and not strict):
                return True
        nodes = live if covered else self._nodes(b)
        terms = self._terms(b, nodes) if not 0 < cut < n else np.concatenate(
            (head, self._terms(b, nodes[nodes.searchsorted(last, side="right"):])))
        g = float(terms.sum())
        return g > target if strict else g >= target

    def predict(self, b: float, g: float, target: float) -> float | None:
        """The switch value at which G_j, equal to g at b, first crosses the
        target as b moves toward it: the nodes switching on that side, nearest
        first, each counted with its w f (Fresnel factors are left out, so a
        prediction can miss; the visit's probes refute it then).  None when
        they do not add up to the target."""
        up = (g < target) == self.regime.max_envelope
        x = self.sense.sign * b + self.margin
        while True:
            self._cover(x)
            side = (self.sw > b) if up else (self.sw < b)
            s = _crossing(self.sw[side], self.wf[self.idx[side]], up, abs(target - g))
            # toward less ownership the side lies in the tiles live at b; toward
            # more, in those live at the answer, or else in twice as many tiles
            if not g < target or self.reached == math.inf or (
                    s is not None and self.sense.sign * s + self.margin <= self.reached):
                return s
            k = min(2 * self.idx.size // self.width, self.key.size - 1)
            x = float(np.partition(self.key, k)[k]) if s is None else self.sense.sign * s + self.margin

    def radii_row(self, b: float) -> np.ndarray:
        """Radii of sheet j at a probed b, whose support has been checked."""
        return ovals.radius_from_dots(self.regime, self.kappa, self.p2, b, self.dots)


def _crossing(s: np.ndarray, wf: np.ndarray, up: bool, need: float) -> float | None:
    """The s, least first (up) or greatest, where w f sums to `need`; None if never."""
    key = s if up else -s
    n, k = len(s), 16
    while True:
        near = np.argpartition(key, k - 1)[:k] if k < n else np.arange(n)
        near = near[np.argsort(key[near])]
        hit = int(np.cumsum(wf[near]).searchsorted(need))
        if hit < len(near):
            return float(s[near[hit]])
        if k >= n:
            return None
        k *= 8


def _bisect_coordinate(ws: _CoordinateWorkspace, below: float, above: float,
                       target: float, b_tol: float, strict: bool, start=None):
    """Drive the coordinate's energy to the target by bisection.

    The energy is a step function of b, monotone but for a strong G_j's fall
    past its peak (module docstring), that should lie under the target at
    `below` and reach it at `above` (exceed it if strict), in either order
    of the two ends.  Returns (b, evaluation count, exhausted flag).  When
    the target is unreachable between the ends, the end that misses it is
    returned with exhausted=True.  Otherwise the returned point is the
    feasible side of the crossing (energy <= target, within one node weight
    of it).  Coordinates visited later in the sweep can still push this
    measure above its target.

    Prediction.  `start` is (b, G_j(b)) at the visit's start; from it
    `ws.predict` names the switch value s where G_j should cross the target.
    The visit walks the plain loop's halving tree by arithmetic alone,
    deciding each midpoint by its side of s, and probes four points only:
    the two ends and the leaf's two ends, each asked what the plain loop
    asks there (strict at `below`, not strict at `above`, `strict` at every
    midpoint).  The plain loop assumes, as the solver does, that whether G_j
    reaches the target changes once between the ends; every midpoint of the
    walk lies at or beyond one end of the leaf, so if the ends and the leaf
    hold, every decision of the plain loop is the walk's and the leaf is its
    leaf.  The visit then returns the plain loop's b and count.  For a
    target between G_j(above) and a strong peak the answer changes twice,
    and the probe of `above` refutes the walk.  The probes it skips cannot
    raise: `ws.supported` checks support at every midpoint at once, and the
    window check cannot fire on `_search_ranges` (`_CoordinateWorkspace`).
    Without a prediction, with a midpoint off the support, or when a probe
    refutes the walk, the plain loop runs, reusing every answer.
    """
    answers = {}

    def over(b):  # the plain loop's question at b, asked once
        if b not in answers:
            answers[b] = ws.at_least(b, target, b == below or (strict and b != above))
        return answers[b]

    def halve(decide):
        """The plain loop's halving from the ends: its leaf and midpoints."""
        lo, hi, mids = below, above, []
        while abs(hi - lo) > b_tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            mids.append(mid)
            if decide(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi, mids

    s = None if start is None else ws.predict(*start, target)
    if s is not None:
        lo, hi, mids = halve(lambda b: b >= s if above > below else b <= s)
        if (ws.supported(np.array(mids)) and not over(lo) and over(hi)
                and not over(below) and over(above)):
            return lo, len(mids) + 2, False
    if over(below) or not over(above):
        return (below if over(above) else above), 2, True
    lo, _, mids = halve(over)
    return lo, len(mids) + 2, False


def _sweep_stage(
    config: ProblemConfig,
    rule: QuadratureRule,
    state: RefractorState,
    wf: np.ndarray,
    stage_tol_abs: float,
    sweeps: list,
):
    """Gauss-Seidel sweeps on one quadrature rule from `state`; `wf` is the
    rule's weights times the density values.  Returns the new state, its
    field and measures, and the stage status."""
    tgt = config.targets
    m = tgt.count
    tol = config.tolerances
    increasing = state.regime.max_envelope
    lo, hi = _search_ranges(config, rule)
    for j in range(1, m):
        if not lo[j] < hi[j]:
            raise InfeasibleGeometryError(f"empty search range for target {j}: [{lo[j]}, {hi[j]}]")
    b = state.b.copy()

    # checks every sheet's support on this rule; each later row of H is the
    # radii of a probed b_j whose support the probe has checked, and equals
    # the matching row of sheet_radii bit for bit (same dots, same kernel)
    H = sheet_radii(state, rule.nodes)
    ws = _CoordinateWorkspace(config, rule, H, wf)

    status = "max_outer_exceeded"
    field = refractor.field_of(state, rule, assign_envelope(H, state.regime))
    G = field.measures(wf, m)
    for sweep in range(tol.max_outer):
        C1_est = float(field.rho.min())
        del field  # hold no field while the sweep runs
        counts = []
        exhausted_any = False
        for j in range(1, m):
            ws.begin(j)
            target_j = float(tgt.weights[j])
            # cheap accept: the coordinate already sits within a quarter of
            # the stage tolerance, so re-bisecting cannot improve the sweep
            g_now = ws.energy(float(b[j]))
            if abs(g_now - target_j) <= 0.25 * stage_tol_abs:
                counts.append(1)
                continue
            p = float(tgt.norms[j])
            # strong: the radius-estimate bracket [C1(1-k) + k|P|, sqrt(k^2
            # (|P|^2 - C1^2) + C1^2)] ends at or above |P| for 0 < C1 < |P|,
            # past the search range; for C1 > |P| it is empty (its lower end
            # exceeds |P| by (C1 - |P|)(1-k) > 0, its upper end lies below),
            # and at C1 = |P| both ends are |P| up to rounding
            if increasing and not (0.0 < C1_est < p):
                raise InfeasibleGeometryError(
                    f"radius estimate {C1_est} for target {j} must lie in (0, {p})"
                )
            below, above = (lo[j], hi[j]) if increasing else (hi[j], lo[j])
            bj, evals, exhausted = _bisect_coordinate(
                ws, float(below), float(above), target_j, tol.b_tol * p, not increasing,
                (float(b[j]), g_now),
            )
            b[j] = bj
            H[j] = ws.radii_row(bj)
            counts.append(evals + 1)
            exhausted_any = exhausted_any or exhausted
        ws.end_sweep()  # frees its (m, N) envelopes before the field is built
        # no coordinate moved since the last sweep: further sweeps are no-ops
        stalled = sweep > 0 and np.array_equal(b, state.b)
        state = state.with_b(b.copy())
        field = refractor.field_of(state, rule, assign_envelope(H, state.regime))
        G = field.measures(wf, m)
        resid = float(np.max(np.abs(G[1:] - tgt.weights[1:])))
        sweeps.append(
            {
                "level": rule.level,
                "sweep": sweep,
                "max_residual": resid,
                # feasible-set diagnostic: how far any non-anchor measure
                # exceeds its target (the sweeps approach from below)
                "max_overshoot": float(np.max(G[1:] - tgt.weights[1:], initial=0.0)),
                "bisection_evals": counts,
                "C1_est": C1_est,
                "exhausted": exhausted_any,
            }
        )
        if resid <= stage_tol_abs:
            status = "converged"
            break
        if stalled:
            status = "stalled"
            break
        status = "bracket_exhausted" if exhausted_any else "max_outer_exceeded"
    return state, field, G, status


def _ladder(config: ProblemConfig, rule: QuadratureRule) -> list:
    """The quadrature rules a solve sweeps on, coarsest first, ending with
    `rule`: a few coarser levels, or `rule` alone for a tabulated density,
    which is known on the final rule only."""
    first = rule.level if config.density.kind == "table" else max(1, rule.level - 3)
    return [build_quadrature(config.domain, lvl) for lvl in range(first, rule.level)] + [rule]


def solve_discrete(config: ProblemConfig, rule: QuadratureRule | None = None,
                   start=None) -> SolveReport:
    """Run the discrete construction: fix b1, sweep bisections over j >= 1.

    The sweeps climb a short quadrature ladder (`_ladder`, carrying the
    parameter vector), which costs little and tames stiff configurations;
    the reported result always comes from the final rule.  They begin from
    `init_state`'s parked sheets, or from `start`, one parameter per target
    with b1 first, when one is given; `init_state` runs either way.
    Raises ValidationFailure when a standing assumption fails; otherwise
    always returns a report (status converged / max_outer_exceeded /
    bracket_exhausted / stalled).
    """
    rule = rule or config.rule()
    report = validate(config, rule)
    if not report.passed:
        raise ValidationFailure(report)

    tgt = config.targets
    m = tgt.count
    tol = config.tolerances
    mu = tgt.total
    tol_abs = tol.measure_tol * mu

    state = init_state(config, rule)
    if start is not None:
        if start[0] != config.b1:
            raise ValueError(f"a start keeps the anchor at b1={config.b1}, not {start[0]}")
        state = state.with_b(np.array(start, dtype=float))
    sweeps: list[dict] = []
    status = "converged"
    if m == 1:
        field = refractor.evaluate_field(state, rule)
        G = field.measures(rule.weights * config.density.values_on(rule), m)
    else:
        for stage_rule in _ladder(config, rule):
            wf = stage_rule.weights * config.density.values_on(stage_rule)
            stage_tol = tol_abs if stage_rule is rule else max(tol_abs, 2.0 * float(np.max(wf)))
            state, field, G, status = _sweep_stage(config, stage_rule, state, wf, stage_tol, sweeps)

    rho = field.rho
    anchor_surplus = float(G[0] - tgt.weights[0])
    if status == "converged":
        if anchor_surplus < -tol_abs:
            status = "anchor_deficit"
        if float(rho.max()) > config.r0 * (1.0 + 1e-12):
            status = "radius_exceeded"
        if not (float(rho.min()) > 0.0):
            status = "degenerate_radius"
    return SolveReport(
        status=status,
        b=state.b,
        measures=G,
        residuals=G - tgt.weights,
        anchor_surplus=anchor_surplus,
        mu_total=mu,
        measure_tol_abs=tol_abs,
        min_rho=float(rho.min()),
        max_rho=float(rho.max()),
        r0=config.r0,
        sweeps=sweeps,
        state=state,
        validation=report,
        field=field,
    )


def verify_weak(config: ProblemConfig, G: np.ndarray) -> tuple[bool, list[dict]]:
    """Certificate that the per-target measures G of a state realize the
    target measure weakly.

    For an atomic target measure it suffices to check the singletons and
    additivity: every G_j >= g_j - tol, equality within tol away from the
    anchor, and the per-target sums reassemble the total transmitted energy.
    The total transmitted energy is the exactly rounded sum of the same
    measures, so it is taken from them rather than recomputed.
    """
    tol_abs = config.tolerances.measure_tol * config.targets.total
    total = sum_G = math.fsum(G)
    cert: list[dict] = []

    def entry(name, lhs, op, rhs, ok):
        cert.append({"name": name, "lhs": lhs, "op": op, "rhs": rhs, "ok": bool(ok)})

    for j in range(config.targets.count):
        g = float(config.targets.weights[j])
        entry(f"G[{j}]>=g[{j}]-tol", float(G[j]), ">=", g - tol_abs, G[j] >= g - tol_abs)
        if j >= 1:
            entry(
                f"|G[{j}]-g[{j}]|<=tol",
                abs(float(G[j]) - g),
                "<=",
                tol_abs,
                abs(G[j] - g) <= tol_abs,
            )
    entry(
        "sum G == total",
        sum_G,
        "==",
        total,
        abs(sum_G - total) <= 1e-12 * max(total, 1.0),
    )
    return all(e["ok"] for e in cert), cert


# ---------------------------------------------------------------------------
# dyadic refinement of a continuous target density
# ---------------------------------------------------------------------------

# Cells a side of the reference cloud over a patch's chart square; dyadic
# levels up to 9 divide it.
_CHART_RESOLUTION = 256


@dataclass(frozen=True)
class DiskPatch:
    """Planar disk carrying a uniform surface density (3-D targets only).

    The chart square [-radius, radius]^2 in the (e1, e2) plane basis is what
    gets partitioned dyadically; the anchor point is given in chart
    coordinates and must avoid dyadic cell boundaries (so it stays interior
    at every level).
    """

    center: np.ndarray
    normal: np.ndarray
    radius: float
    density: float = 1.0
    anchor_uv: tuple = (0.11, 0.07)  # chart coords in units of radius

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.size != 3:
            raise ValueError("disk patches are 3-D only")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "normal", unit(np.asarray(self.normal, dtype=float)))
        if not (self.radius > 0.0 and self.density > 0.0):
            raise ValueError("radius and density must be positive")

    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        return _orthonormal_frame(self.normal)

    def to_space(self, uv: np.ndarray) -> np.ndarray:
        e1, e2 = self.frame()
        uv = np.atleast_2d(uv)
        return self.center[None, :] + np.outer(uv[:, 0], e1) + np.outer(uv[:, 1], e2)

    @property
    def anchor_point(self) -> np.ndarray:
        uv = np.array(self.anchor_uv, dtype=float) * self.radius
        return self.to_space(uv[None, :])[0]

    def reference_cloud(self) -> tuple[np.ndarray, np.ndarray]:
        """Fixed midpoint cloud (chart coords, per-point masses) over the disk."""
        n = _CHART_RESOLUTION
        step = 2.0 * self.radius / n
        ticks = -self.radius + (np.arange(n) + 0.5) * step
        uu, vv = np.meshgrid(ticks, ticks, indexing="ij")
        uv = np.column_stack([uu.ravel(), vv.ravel()])
        inside = np.einsum("ij,ij->i", uv, uv) <= self.radius**2
        masses = np.where(inside, self.density * step * step, 0.0)
        return uv, masses

    def total_mass(self) -> float:
        return float(np.sum(self.reference_cloud()[1]))


@dataclass(frozen=True)
class RadonProblem:
    """Continuous-target variant of ProblemConfig: a density patch instead of
    atoms; the anchor atom sits at patch.anchor_point at every level."""

    domain: SourceDomain
    density: EmissionDensity
    medium: MediumPair
    margin: AdmissibilityMargin
    patch: DiskPatch
    b1: float
    tau: float
    r0: float
    quadrature_level: int = 7
    tolerances: Tolerances = field(default_factory=Tolerances)


def dyadic_atoms(patch: DiskPatch, level: int):
    """Atomize the patch at a dyadic level: cells of the chart square halve
    in diameter per level; zero-mass cells are dropped; each kept cell is
    represented by its mass centroid except the anchor cell, which keeps the
    anchor point.  The anchor atom is listed first.

    Returns (points (m,3), masses (m,), cell index array (m,2), n_side).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    n_side = 2 ** (level - 1)
    if _CHART_RESOLUTION % n_side:
        raise ValueError(
            f"chart resolution {_CHART_RESOLUTION} not divisible by {n_side}"
        )
    uv, masses = patch.reference_cloud()
    step = 2.0 * patch.radius / n_side
    iu = np.clip(((uv[:, 0] + patch.radius) / step).astype(int), 0, n_side - 1)
    iv = np.clip(((uv[:, 1] + patch.radius) / step).astype(int), 0, n_side - 1)
    flat = iu * n_side + iv
    cell_mass = np.bincount(flat, weights=masses, minlength=n_side * n_side)
    cu = np.bincount(flat, weights=masses * uv[:, 0], minlength=n_side * n_side)
    cv = np.bincount(flat, weights=masses * uv[:, 1], minlength=n_side * n_side)

    auv = np.array(patch.anchor_uv, dtype=float) * patch.radius
    a_iu = min(int((auv[0] + patch.radius) / step), n_side - 1)
    a_iv = min(int((auv[1] + patch.radius) / step), n_side - 1)
    anchor_flat = a_iu * n_side + a_iv
    if cell_mass[anchor_flat] <= 0.0:
        raise InfeasibleGeometryError("anchor cell carries no mass")

    kept = np.nonzero(cell_mass > 0.0)[0]
    order = np.concatenate([[anchor_flat], kept[kept != anchor_flat]])
    masses_out = cell_mass[order]
    uv_out = np.column_stack([cu[order] / masses_out, cv[order] / masses_out])
    uv_out[0] = auv
    points = patch.to_space(uv_out)
    cells = np.column_stack([order // n_side, order % n_side])
    return points, masses_out, cells, n_side


@dataclass
class RefinementReport(refractor.Report):
    status: str
    mass_error: float
    sup_diffs: list
    levels: list
    anchor_test_cell: int

    _UNREPORTED = ("anchor_test_cell",)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# Dyadic level whose cells are refine_radon's fixed test cells.
_TEST_LEVEL = 2


def _test_cells(anchor_cell: np.ndarray, cells: np.ndarray, n_side: int) -> np.ndarray:
    """Flat index of the test cell of each atom, given the `cells` and
    `n_side` that `dyadic_atoms(patch, level)` returns.

    Dyadic cells nest, so an atom's test cell is the ancestor of its own
    cell.  The anchor atom, listed first, takes the anchor's test cell
    `anchor_cell`, which `dyadic_atoms(patch, _TEST_LEVEL)` lists first: at
    level 1 the anchor's own cell is the whole chart square.
    """
    side = 2 ** (_TEST_LEVEL - 1)
    test = cells * side // n_side
    test[0] = anchor_cell
    return test[:, 0] * side + test[:, 1]


# Share of its parent's owned nodes on which a child sheet starts at or past
# the parent surface.  A measured constant, not a tuning knob: 0.02 still
# converges but gains little, while 0.07 and above can start criterion 9's
# 16-atom level where its sweeps keep one coordinate a node weight above its
# target until they run out.
_START_SHARE = 0.05


def _child_start(config: ProblemConfig, ladder: list, parent: FieldEvaluation,
                 parent_cells: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Start parameters of a dyadic level from the previous level's solved
    field `parent` on the final ladder rule; `parent_cells` and `cells` are
    the two levels' `dyadic_atoms` cells.

    Child c's parent is the atom whose cell holds c's cell.  Along a node x
    the parent owns, child c's sheet meets the parent surface at the
    parameter s_c(x) = rho(x) + kappa |rho(x) x - P_c| (critical:
    rho - |rho x - P_c|), and reaches past it for b_c >= s_c(x) (min
    envelope: b_c <= s_c(x)).  So b_c is the order statistic of s_c over
    those nodes that lets the child reach on a share `_START_SHARE` of them,
    clipped into its `_search_ranges` entry on every ladder rule.  The
    anchor keeps b1, and a child whose parent owns no node starts parked.
    """
    rule, tgt = ladder[-1], config.targets
    kappa, reg = config.medium.kappa, config.medium.regime
    b = _parked(config, rule)
    parent_of = {cell: i for i, cell in enumerate(map(tuple, parent_cells.tolist()))}
    # each parent's owned nodes, in node order
    order = np.argsort(parent.assigned, kind="stable")
    bounds = np.searchsorted(parent.assigned[order], np.arange(len(parent_cells) + 1))
    lows, highs = zip(*(_search_ranges(config, r) for r in ladder))
    lo, hi = np.max(lows, axis=0), np.min(highs, axis=0)
    for c in range(1, tgt.count):
        p = parent_of[tuple((cells[c] // 2).tolist())]
        nodes = order[bounds[p]:bounds[p + 1]]
        if not nodes.size:
            continue
        P = tgt.points[c]
        s = ovals.parameter_from_dots(reg, kappa, detmath.dot(P, P), parent.rho[nodes],
                                      detmath.dot_rows(rule.nodes[nodes], P))
        i = int(_START_SHARE * (s.size - 1))
        if not reg.max_envelope:
            i = s.size - 1 - i
        b[c] = min(max(float(np.partition(s, i)[i]), float(lo[c])), float(hi[c]))
    return b


def refine_radon(problem: RadonProblem, levels: int) -> RefinementReport:
    """Solve the dyadic approximations level by level.

    Per level: re-atomize (diameters halve), solve, and record the sup-node
    difference of consecutive radial functions plus the energy received by
    the fixed test cells (the cells of dyadic level `_TEST_LEVEL`).  Away
    from the anchor's cell these measures are expected not to increase under
    refinement beyond tolerance; the anchor cell legitimately accumulates the
    surplus (the weak solution only pins the measure on sets avoiding the
    anchor).

    Level 1 starts parked; every later level starts warm, from the previous
    level's solved surface (`_child_start`), and a warm level that does not
    converge is solved again from `init_state`.  Each level row's `start`
    says which: "parked", "warm" or "cold after warm <status>".
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    rule = build_quadrature(problem.domain, problem.quadrature_level)
    total_mass = problem.patch.total_mass()
    level_rows: list[dict] = []
    sup_diffs: list[float] = []
    prev_field = prev_cells = ladder = None  # the previous level's solution
    mass_err = 0.0
    status = "converged"
    test_side = 2 ** (_TEST_LEVEL - 1)
    anchor_cell = dyadic_atoms(problem.patch, _TEST_LEVEL)[2][0]
    # RadonProblem names every solve input of ProblemConfig but the atoms
    shared = {f.name: getattr(problem, f.name)
              for f in fields(ProblemConfig) if f.name != "targets"}

    for level in range(1, levels + 1):
        points, masses, cells, n_side = dyadic_atoms(problem.patch, level)
        mass_err = max(mass_err, abs(float(np.sum(masses)) - total_mass))
        config = ProblemConfig(targets=TargetSpec(points, masses), **shared)
        if prev_field is None:
            how, solve = "parked", solve_discrete(config, rule)
        else:
            ladder = ladder or _ladder(config, rule)
            start = _child_start(config, ladder, prev_field, prev_cells, cells)
            how, solve = "warm", solve_discrete(config, rule, start=start)
            if not solve.converged:
                how, solve = f"cold after warm {solve.status}", solve_discrete(config, rule)
            sup_diffs.append(float(np.max(np.abs(solve.field.rho - prev_field.rho))))
        if not solve.converged:
            status = f"level-{level}-{solve.status}"
        prev_field, prev_cells = solve.field, cells

        # energy landing in each fixed test cell
        test_cells = _test_cells(anchor_cell, cells, n_side)
        cell_energy = np.bincount(test_cells, weights=solve.measures,
                                  minlength=test_side * test_side)

        level_rows.append(
            {
                "level": level,
                "atoms": int(len(masses)),
                "status": solve.status,
                "start": how,
                "max_residual": float(np.max(np.abs(solve.residuals[1:]), initial=0.0)),
                "anchor_surplus": solve.anchor_surplus,
                "mass_total": float(np.sum(masses)),
                "test_cell_energy": cell_energy.tolist(),
            }
        )
        if not solve.converged:
            break

    return RefinementReport(
        status=status,
        mass_error=mass_err,
        sup_diffs=sup_diffs,
        levels=level_rows,
        anchor_test_cell=int(test_cells[0]),  # the anchor atom's
    )

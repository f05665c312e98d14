"""End-to-end acceptance checks, one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Each check exercises a full workflow at fixed tolerances; frozen
reference numbers come from independent oracles (closed forms, dilation
identities, brute-force scans) recorded in the module tests.
"""

import json
import time

import numpy as np

from siolab import cli, forms, kernels, measure, mollifiers, muckenhoupt, splitter, truncation
from siolab.kernels import KernelMatrix


def _check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} [{label}]: {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# -- 01: certified Schur bound of the Gaussian multiplier ---------------------


def test_01_gaussian_schur_bound_is_two_and_fast():
    t0 = time.perf_counter()
    sb = mollifiers.schur_bound(mollifiers.gaussian_mollifier())
    elapsed = time.perf_counter() - t0
    squared = mollifiers.schur_bound(
        mollifiers.multiplier_power(mollifiers.gaussian_mollifier(), 2)
    )
    ok = (
        abs(sb.bound - 2.0) <= 1e-3
        and elapsed < 1.0
        and abs(squared.bound - 4.0) <= 1e-6
    )
    _check(1, "gaussian schur bound", ok,
           f"bound {sb.bound}, square {squared.bound}, {elapsed:.3f}s")


# -- 02: pole-shift multiplier closes the regularized kernel in closed form ---


def test_02_pole_shift_identity():
    rng = np.random.default_rng(0)
    n = 10_000
    s = rng.uniform(-5.0, 5.0, n)
    t = rng.uniform(-5.0, 5.0, n)
    eps = rng.uniform(0.01, 10.0, n)

    hk = kernels.make_hilbert()
    m = mollifiers.complex_shift_mollifier()
    mollified = m.profile(((t - s) / eps)[:, None]) * hk(s[:, None], t[:, None])
    closed_form = 1.0 / (np.pi * ((s - t) + 1j * eps))
    err = float(np.max(np.abs(mollified - closed_form)))
    _check(2, "pole-shift closed form", err < 1e-12, f"max err {err:.3e} over {n} triples")


# -- 03: transform-side estimates are dilation invariant ----------------------


def test_03_wiener_estimates_dilation_invariant():
    eps_grid = (0.25, 1.0, 4.0)

    gm = mollifiers.gaussian_mollifier()
    gauss = [mollifiers.wiener_norm(lambda x, e=e: gm.tail(x / e), 1) for e in eps_grid]
    gauss_ok = all(abs(est - 1.0) <= 1e-3 for est, _ in gauss)

    am = mollifiers.smooth_annulus_mollifier(0.1)
    ann = [
        mollifiers.wiener_norm(
            lambda x, e=e: am.tail(x / e), 1, half_width=24.0, points=2**17
        )
        for e in eps_grid
    ]
    ests = [est for est, _ in ann]
    errs = [err for _, err in ann]
    budget_ok = all(
        abs(ests[i] - ests[j]) <= errs[i] + errs[j]
        for i in range(3)
        for j in range(i + 1, 3)
    )
    spread_ok = (max(ests) - min(ests)) / min(ests) < 0.01

    _check(3, "wiener dilation invariance", gauss_ok and budget_ok and spread_ok,
           f"gaussian {[round(e, 12) for e, _ in gauss]}, annulus {[round(e, 8) for e in ests]}")


# -- 04: vanishing order read off from moments --------------------------------


def test_04_moment_order_matches_density():
    L, M = 12.0, 4096
    dx = 2 * L / M
    pts = -L + dx * (np.arange(M) + 0.5)

    gauss = np.exp(-(pts**2) / 2.0) / np.sqrt(2.0 * np.pi)
    rep_g = mollifiers.moment_order(pts, gauss, dx, max_order=6)
    one_sided = np.where(pts > 0, np.exp(-np.clip(pts, 0.0, None)), 0.0)
    rep_e = mollifiers.moment_order(pts, one_sided, dx, max_order=6)

    ok = (
        rep_g.order == 2
        and abs(rep_g.fitted_slope - 2.0) <= 0.05
        and rep_e.order == 1
        and abs(rep_e.fitted_slope - 1.0) <= 0.05
    )
    _check(4, "moment-read vanishing order", ok,
           f"gaussian order {rep_g.order} slope {rep_g.fitted_slope:.4f}; "
           f"one-sided order {rep_e.order} slope {rep_e.fitted_slope:.4f}")


# -- 05: balanced separated partitions at every dyadic level ------------------


def _brute_force_balance(partition, sigma, level):
    """Per-cube relative balance deviations from raw indicator sums."""
    pts = sigma.points
    inside = np.all((pts >= -(2.0**level)) & (pts < 2.0**level), axis=1)
    pts, wts = pts[inside], sigma.weights[inside]
    in1, in2 = partition.indicator(pts)
    cells = np.floor(pts * 2.0**level).astype(np.int64)
    worst = 0.0
    for cell in np.unique(cells, axis=0):
        mask = np.all(cells == cell, axis=1)
        total = wts[mask].sum()
        if total <= 0:
            continue
        for half in (in1, in2):
            dev = abs(wts[mask & half].sum() - total / 2.0) / total
            worst = max(worst, dev)
    return worst


def test_05_splitter_balance_and_separation():
    t0 = time.perf_counter()
    cases = [
        measure.lebesgue_grid(0.0, 1.0, 2.0**-14),
        measure.lebesgue_grid((0.0, 0.0), 1.0, 2.0**-8, dimension=2),
    ]
    details = []
    ok = True
    for sigma in cases:
        for level in range(1, 6):
            part = splitter.build_partition(sigma, level)
            checks = splitter.verify_partition(part, sigma)
            ok &= all(flag for flag, _ in checks.values())
            ok &= part.separation == (1.0 - part.tau) * part.delta
            ok &= part.separation > 0
            worst = _brute_force_balance(part, sigma, level)
            ok &= worst <= 2.0**-level + 1e-9
            details.append(f"N={sigma.dimension} n={level} dev {worst:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _check(5, "splitter balance/separation", ok,
           f"worst {max(details, key=lambda d: float(d.split()[-1]))}, {elapsed:.2f}s")


# -- 06: projected forms converge to the quarter of the full form -------------


def test_06_projection_quarter_convergence():
    h = 2.0**-12
    sigma = measure.lebesgue_grid(0.0, 1.0, h)
    rng = np.random.default_rng(42)
    steps_f = rng.uniform(-1.0, 1.0, 16)
    steps_g = rng.uniform(-1.0, 1.0, 16)
    cell = np.minimum((sigma.points[:, 0] * 16).astype(int), 15)
    f, g = steps_f[cell], steps_g[cell]

    partitions = [splitter.build_partition(sigma, n) for n in range(2, 6)]
    rep = forms.projection_convergence_test(
        kernels.make_hilbert(), sigma, f, g, partitions, diagonal_policy=0.0
    )
    devs = [rep.quarter_deviations[n] for n in range(2, 6)]
    ok = rep.fitted_exponent >= 0.9 and all(a > b for a, b in zip(devs, devs[1:]))
    _check(6, "projection quarter-limit", ok,
           f"fitted exponent {rep.fitted_exponent:.4f}, deviations {[f'{d:.2e}' for d in devs]}")


# -- 07: restricted norm equals the full norm off-diagonally, and is a seminorm


def test_07_restricted_norm_identity_and_axioms():
    worst_gap = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_mu = int(rng.integers(2, 13))
        n_nu = int(rng.integers(2, 13))
        mu = measure.from_points(rng.uniform(0.0, 1.0, n_mu),
                                 rng.uniform(0.5, 1.5, n_mu) / n_mu)
        nu = measure.from_points(rng.uniform(2.0, 3.0, n_nu),
                                 rng.uniform(0.5, 1.5, n_nu) / n_nu)
        assert len(measure.common_atoms(mu, nu)) == 0
        km = KernelMatrix(rng.uniform(-1, 1, (n_nu, n_mu)), mu, nu, 1, None)
        gap = abs(forms.operator_norm_p2(km).value
                  - forms.restricted_norm_exact(km, 2.0).value)
        worst_gap = max(worst_gap, gap)
    identity_ok = worst_gap <= 1e-8

    worst_axiom = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        shared = rng.uniform(0.0, 1.0, 3)
        mu = measure.from_points(np.concatenate([shared, rng.uniform(2, 3, 3)]),
                                 np.full(6, 1 / 6))
        nu = measure.from_points(np.concatenate([shared, rng.uniform(4, 5, 3)]),
                                 np.full(6, 1 / 6))
        a = rng.uniform(-1, 1, (6, 6))
        b = rng.uniform(-1, 1, (6, 6))
        c = float(rng.uniform(-3, 3))

        def norm(entries):
            return forms.restricted_norm_exact(
                KernelMatrix(entries, mu, nu, 1, None), 2.0
            ).value

        na, nb = norm(a), norm(b)
        worst_axiom = max(
            worst_axiom,
            norm(a + b) - (na + nb),           # triangle
            abs(norm(c * a) - abs(c) * na),    # absolute homogeneity
            -na,                               # nonnegativity
            norm(np.zeros((6, 6))),            # vanishes on zero
        )
    axioms_ok = worst_axiom <= 1e-9
    _check(7, "restricted norm identity/axioms", identity_ok and axioms_ok,
           f"max identity gap {worst_gap:.2e}, max axiom defect {worst_axiom:.2e}")


# -- 08: smooth truncations dominate hard ones via the sectorial multiplier ---


def test_08_sectorial_domination_across_kernels():
    h = 2.0**-4
    base = measure.lebesgue_grid((0.0, 0.0), 1.0, h, dimension=2)
    mu = measure.from_points(base.points, base.weights)
    nu = measure.from_points(base.points + h / 2.0, base.weights)

    ok = True
    details = []
    for spec in ("cauchy", "ahlfors_beurling", "riesz:alpha=1,n=2"):
        kernel = kernels.kernel_from_name(spec)
        for row in truncation.compare_truncations(kernel, mu, nu, eps_list=(0.3, 0.6)):
            ok &= truncation.domination_holds(
                row.domination_margin, row.kappa, kernel.value_dim
            )
            ok &= row.annulus_pairs > 0
            details.append(f"{spec}@{row.eps}: kappa {row.kappa:.6f} "
                           f"margin {row.domination_margin:.1e} pairs {row.annulus_pairs}")

    # direct contraction check on plateau pairs of the annulus
    cauchy = kernels.make_cauchy()
    mult = truncation.build_sectorial_multiplier(cauchy.profile, 0.3, dimension=2)
    diff = nu.points[:, None, :] - mu.points[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    plateau = (dist >= 0.9 * 0.3) & (dist <= 0.3)
    s_pts = np.broadcast_to(nu.points[:, None, :], diff.shape)[plateau]
    t_pts = np.broadcast_to(mu.points[None, :, :], diff.shape)[plateau]
    contraction = np.sum(mult(s_pts, t_pts) * cauchy(s_pts, t_pts), axis=-1)
    magnitudes = np.linalg.norm(cauchy(s_pts, t_pts), axis=-1)
    ok &= bool(np.all(contraction >= magnitudes * (1.0 - 1e-9)))

    _check(8, "sectorial domination", ok, "; ".join(details[:3]) + "; ...")


# -- 09: hard truncation + annulus part reassemble the smooth one exactly -----


def test_09_truncation_split_identity():
    h, eps, delta = 2.0**-6, 0.5, 0.1
    grid = measure.lebesgue_grid(0.0, 1.0, h)
    mu = measure.from_points(grid.points, grid.weights)
    nu = measure.from_points(grid.points + h / 2.0, grid.weights)
    hk = kernels.make_hilbert()
    am = mollifiers.smooth_annulus_mollifier(delta)

    hard = truncation.truncate(kernels.materialize(hk, mu, nu), eps)
    smooth = kernels.materialize(hk, mu, nu, multiplier=mollifiers.scale(am, eps))

    diff = mu.points[None, :, :] - nu.points[:, None, :]
    u = np.linalg.norm(diff, axis=-1) / eps
    psi_entries = np.where(u > 1.0, 0.0, am.profile(diff / eps)) * hk(
        nu.points[:, None, :], mu.points[None, :, :]
    )
    exact = np.array_equal(hard.entries + psi_entries, smooth.entries)

    uu = np.linspace(0.0, 3.0, 100_001)
    psi_profile = am.profile(uu[:, None]) - (uu > 1.0)
    support = (uu >= 1.0 - delta) & (uu <= 1.0)
    bounded = bool(np.all(np.abs(psi_profile) <= support.astype(float)))

    _check(9, "split identity hard+psi=smooth", exact and bounded,
           f"entrywise exact {exact}, |psi| <= annulus indicator {bounded}")


# -- 10: two-weight constant of Lebesgue self-pairing -------------------------


LEBESGUE_RADII = [0.25 * 2.0 ** (k / 2.0) for k in range(7)]
LEBESGUE_CONSTANT = 0.5027087272498111


def test_10_lebesgue_two_weight_constant():
    sigma = measure.lebesgue_grid(0.0, 1.0, 2.0**-8)
    rep = muckenhoupt.ap_alpha_constant(sigma, sigma, 2.0, 1.0, radii=LEBESGUE_RADII)
    base_ok = (
        abs(rep.constant - 0.5) / 0.5 <= 0.05
        and abs(rep.constant - LEBESGUE_CONSTANT) <= 1e-12 * LEBESGUE_CONSTANT
    )

    p_ok = all(
        abs(
            muckenhoupt.ap_alpha_constant(sigma, sigma, p, 1.0, radii=LEBESGUE_RADII).constant
            - rep.constant
        )
        <= 1e-12 * rep.constant
        for p in (1.5, 3.0, 7.0)
    )

    scale_ok = True
    c = 3.0
    scaled = measure.from_points(sigma.points * c, sigma.weights * c)
    scaled_radii = [r * c for r in LEBESGUE_RADII]
    for alpha in (1.0, 0.5):
        base = muckenhoupt.ap_alpha_constant(sigma, sigma, 2.0, alpha, radii=LEBESGUE_RADII)
        dil = muckenhoupt.ap_alpha_constant(scaled, scaled, 2.0, alpha, radii=scaled_radii)
        expected = base.constant * c ** (sigma.dimension - alpha)
        scale_ok &= abs(dil.constant - expected) <= 1e-12 * expected

    _check(10, "two-weight constant", base_ok and p_ok and scale_ok,
           f"constant {rep.constant!r}, p-independent {p_ok}, dilation law {scale_ok}")


# -- 11: kernel blow-up forces the two-weight growth --------------------------


def _disk_cloud(radius, n, seed):
    rng = np.random.default_rng(seed)
    rr = radius * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    pts = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
    return measure.from_points(pts, np.full(n, 1.0 / n))


def test_11_necessity_blow_up_chain():
    t0 = time.perf_counter()
    kernel = kernels.make_cauchy()
    witness, restricted = [], []
    ok = True
    for k in range(2, 7):
        r = 2.0**-k
        cloud = _disk_cloud(r, 400, seed=11)
        rep = muckenhoupt.necessity_experiment(kernel, cloud, cloud, 2.0, [r], seed=3)
        ok &= rep.pointwise_ok and rep.chain_ok
        ok &= rep.restricted.value / rep.growth.constant > 0.1
        witness.append(rep.growth.constant)
        restricted.append(rep.restricted.value)
    elapsed = time.perf_counter() - t0

    ok &= all(a < b for a, b in zip(witness, witness[1:]))
    ok &= all(a < b for a, b in zip(restricted, restricted[1:]))
    # pure dilation of the cloud: both sequences must double exactly per scale
    ok &= all(abs(b - 2.0 * a) <= 1e-9 * b for a, b in zip(witness, witness[1:]))
    ok &= all(abs(b - 2.0 * a) <= 1e-9 * b for a, b in zip(restricted, restricted[1:]))
    ok &= elapsed < 120.0

    _check(11, "blow-up necessity chain", ok,
           f"witness {witness[0]:.4f}->{witness[-1]:.4f}, "
           f"restricted {restricted[0]:.4f}->{restricted[-1]:.4f}, {elapsed:.1f}s")


# -- 12: reports are byte-identical across reruns ------------------------------


def test_12_reports_byte_identical(tmp_path):
    runs = [
        ["schur-bound", "--mollifier", "annulus:delta=0.1",
         "--half-width", "24", "--points", "131072"],
        ["restricted-norm", "--kernel", "hilbert",
         "--mu", "random_atoms:n=10", "--nu", "random_atoms:n=9,low=2,high=3",
         "--seed", "5"],
        ["split", "--sigma", "lebesgue_grid:h=0.00390625", "--level", "2",
         "--partition-out", str(tmp_path / "part.json")],
    ]
    ok = True
    for argv in runs:
        out = tmp_path / "report.json"
        full = [*argv, "--output", str(out)]
        assert cli.main(full) == 0
        first = out.read_bytes()
        assert cli.main(full) == 0
        ok &= out.read_bytes() == first
        ok &= json.loads(first)["report"] is not None
    _check(12, "byte-identical reports", ok, f"{len(runs)} commands rerun")
